"""Smoke test of what the benchmark in ``perfbench/`` reads from the package,
so that a name it needs and the package no longer has fails here, in the
tier-1 suite, rather than in a benchmark run.  ``perfbench`` is imported
from the checkout as it stands; nothing of it is changed."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    """Importer of ``perfbench.<name>`` from the checkout."""
    monkeypatch.syspath_prepend(str(ROOT))
    return lambda name: importlib.import_module(f"perfbench.{name}")


def test_checks_read_the_solver_tolerances(perfbench):
    checks = perfbench("checks")
    assert (checks.ABSTOL, checks.RELTOL, checks.VNTOL) == (1e-9, 1e-6, 1e-6)


@pytest.mark.parametrize("workload", ["settle", "sweep", "drive"])
def test_first_task_runs_traced_and_passes_its_checks(perfbench, workload):
    checks, tracer, workloads = (perfbench(name)
                                 for name in ("checks", "tracer", "workloads"))
    seed = 1  # the seed perfbench/reference.json was recorded with
    task = workloads.build_tasks(workload, seed)[0]
    traced = tracer.Tracer()  # looks up every name it wraps
    with traced.installed():
        result = traced.as_task(workloads.run_task, task)
    assert checks.check(task, result, checks.load_reference(workload, seed)[0]) == []
    assert len(traced.start) > 1
