"""The benchmark's traced replica (`perfbench/tracing.py`) rebuilds each
level from the public API: the wrappers without `data=`, the assemblies and
the recovery without a table, `compute_errors` and `multiplier_error` with
their fixed signatures.  On two-level versions of both benchmark ladders no
level may fail, and the errors must match `run_study`'s to the gate's
tolerance."""

import sys
from pathlib import Path

import pytest

from polyvem.study import run_study

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gate
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return gate, tracing, workloads


@pytest.mark.parametrize("name", ["voronoi-k4-multiplier", "squares-k2-corrected"])
def test_traced_ladder_matches_run_study(bench, name):
    gate, tracing, workloads = bench
    spec = workloads.WORKLOADS[name].spec(0)
    traced = tracing.trace_ladder(spec, 2)
    study = run_study(spec, 2).levels
    assert [lv["error"] for lv in traced] == [lv.error for lv in study] == [None, None]
    for t, s in zip(traced, study):
        for key in gate.ERROR_KEYS:
            assert abs(t[key] - getattr(s, key)) <= gate.FIDELITY_RTOL * abs(getattr(s, key)), key
