"""CSV emission shared by the command-line front-end.

One dialect everywhere: a header row of ``name (unit)`` column labels, comma
separators, ``.`` decimal points, LF line endings, and numbers printed to at
most 9 significant digits; a value that the solver resolves only to a
resolution, such as a harmonic amplitude, prints only the digits at or above
it (:func:`format_resolved`).  Trailing comment lines (prefixed ``# ``)
carry scalar summaries such as loop areas or report notes.  Output is a pure
function of the rows, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from typing import Iterable, Sequence

__all__ = ["format_number", "format_resolved", "write_csv", "check_output",
           "open_output"]


def format_number(value: float) -> str:
    """9-significant-digit decimal rendering (``%.9g``)."""
    return f"{value:.9g}"


def format_resolved(value: float, resolution: float) -> str:
    """Finite ``value`` printed only to the decimal places at or above
    ``resolution`` (positive), and to at most 9 significant digits: ``0``
    when ``|value| < resolution``, else one significant digit at least."""
    if abs(value) < resolution:
        return "0"
    digits = math.floor(math.log10(abs(value))) - math.ceil(math.log10(resolution)) + 1
    return f"{value:.{min(max(digits, 1), 9)}g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_number(float(value))


def write_csv(stream, columns: Sequence[str], rows: Iterable[Sequence],
              footers: Iterable[str] = ()) -> None:
    """Write one table: ``columns`` are full ``name (unit)`` labels, ``rows``
    hold floats (formatted), strings (verbatim), or None (empty cell)."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_cell(v) for v in row) + "\n")
    for line in footers:
        stream.write(f"# {line}\n")


def check_output(path: str) -> None:
    """Raises OSError unless ``path`` is ``-`` (stdout) or names a file in
    an existing directory.  The command line calls it before any simulation
    work starts, so a doomed run fails at once."""
    if path == "-":
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise OSError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise OSError(f"output path is a directory: {path}")


@contextmanager
def open_output(path: str):
    """Writable text stream for ``path``; ``-`` means stdout.

    The parent directory must already exist (see :func:`check_output`).
    Line endings are forced to LF regardless of platform.
    """
    if path == "-":
        yield sys.stdout
        return
    check_output(path)
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        yield stream
