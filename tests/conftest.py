"""Shared test plumbing: collects the acceptance-criteria verdict lines and
prints them as a summary section at the end of the run, and injects NaN
source values into the engine."""

import math

import numpy as np
import pytest

from mirrorsim import engine

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def nan_sources(monkeypatch):
    """``nan_sources(when)`` makes ``engine.source_value`` read NaN at every
    time t where ``when(t)`` holds and the real law elsewhere, at one time
    or elementwise on an array of times, the two ways the engine calls it."""
    real = engine.source_value

    def patch(when):
        def law(spec, time):
            bad = when(time)
            if isinstance(time, np.ndarray):
                return np.where(bad, math.nan, real(spec, time))
            return math.nan if bad else real(spec, time)

        monkeypatch.setattr(engine, "source_value", law)

    return patch
