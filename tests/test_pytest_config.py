"""The suite's own pytest configuration: warnings are errors, except the one
that Hypothesis's failure report triggers, and a stalled test names its line."""

import subprocess
import sys
import tomllib
from pathlib import Path

GIVEN_FAILS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # Reporting a failing @given test, Hypothesis imports libcst to suggest a
    # patch, and that import warns; as an error the warning would end the
    # session there, and the tests after it would never run
    (tmp_path / "test_given.py").write_text(GIVEN_FAILS, encoding="utf-8")
    config = Path(__file__).parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_a_stalled_test_dumps_its_traceback():
    # faulthandler prints every thread's stack once a test runs this long,
    # so a test that stalls names the line it is stuck on
    config = Path(__file__).parents[1] / "pyproject.toml"
    with open(config, "rb") as handle:
        options = tomllib.load(handle)["tool"]["pytest"]["ini_options"]
    assert options["faulthandler_timeout"] == 60
