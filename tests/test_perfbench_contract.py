"""The benchmark's calls into bcsuth still work.

``perfbench/micro.py`` calls bcsuth functions by name and signature, and the
benchmark's own test runs outside this suite.  Calling every micro row once
at n = 1 catches a change of signature that would break the benchmark.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def micro():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import micro
        yield micro
    finally:
        sys.path.remove(str(PERFBENCH))


def test_micro_rows_run_at_n1(micro):
    rows = micro.rows_for(1)
    assert rows
    for name, call, resid in rows:
        r = resid(call())
        assert r == r and r >= 0.0, name  # a number, not NaN
