"""The suite's own pytest configuration: warnings are errors, except the one
that Hypothesis's failure report triggers."""

import subprocess
import sys
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
