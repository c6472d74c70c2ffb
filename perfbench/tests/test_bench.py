"""Self-tests of the benchmark: statistics, failure accounting, the
correctness gate, and a 2-level smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

from gate import check_levels, check_rate, check_trace, failure_counts
from run import end_to_end_metrics, gate, per_layer_metrics
from stats import chosen_percentile, percentile, quartiles, spread, summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------------

def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q3 = quartiles(values)
    ref = statistics.quantiles(values, n=4)
    assert (q1, q3) == (ref[0], ref[2])
    s = summarize(values)
    assert s["median"] == 4.0 and s["n"] == 7
    assert spread(values) == pytest.approx((ref[2] - ref[0]) / 4.0)


def test_single_sample_has_zero_spread():
    assert quartiles([2.5]) == (2.5, 2.5)
    assert spread([2.5]) == 0.0


@pytest.mark.parametrize("n, expected", [
    (1, None), (10, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_percentile_choice_keeps_ten_samples_beyond(n, expected):
    assert chosen_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 50.0) == 50
    assert summarize(values)["percentile_value"] == 90


# -- failure accounting and the gate ------------------------------------------

def _levels_like_reference(name):
    return [dict(lv, seconds=0.1, error=None) for lv in REFERENCE["workloads"][name]["levels"]]


def test_failure_ratio_counts_errors_and_gate_failures():
    levels = _levels_like_reference("squares-k2-corrected")
    levels[1] = {"level": 1, "error": "SingularMatrixError: boom", "n_dofs": 0,
                 "e1": None, "e0": None, "multiplier_err": None}
    levels[3]["e0"] *= 1.0 + 1e-6
    reasons = check_levels(levels, REFERENCE["workloads"]["squares-k2-corrected"]["levels"])
    assert failure_counts(reasons) == (4, 2)
    assert not reasons[0] and reasons[1] and reasons[3]


def test_gate_accepts_the_reference_itself():
    for name, entry in REFERENCE["workloads"].items():
        reasons = check_rate(check_levels(_levels_like_reference(name), entry["levels"]),
                             entry["rates_e1"], WORKLOADS[name].min_last_rate_e1)
        assert failure_counts(reasons) == (len(entry["levels"]), 0), name


@pytest.mark.parametrize("key, factor", [
    ("e1", 1.0 + 1e-9), ("e0", 1.0 - 1e-9), ("multiplier_err", 1.0 + 1e-9),
    ("n_dofs", None), ("linsys_nnz", None),
])
def test_gate_rejects_a_perturbed_reference(key, factor):
    name = "voronoi-k4-multiplier"
    reference = copy.deepcopy(REFERENCE["workloads"][name]["levels"])
    if factor is None:
        reference[2][key] += 1
    else:
        reference[2][key] *= factor
    reasons = check_levels(_levels_like_reference(name), reference)
    assert failure_counts(reasons) == (len(reference), 1)
    assert key in reasons[2][0]


def test_gate_tolerates_roundoff_below_1e_10():
    name = "squares-k2-corrected"
    reference = copy.deepcopy(REFERENCE["workloads"][name]["levels"])
    reference[3]["e1"] *= 1.0 + 1e-12
    assert failure_counts(check_levels(_levels_like_reference(name), reference))[1] == 0


def test_rate_band_fails_the_finest_level():
    reasons = check_rate([[], [], []], [2.0, 1.7], 1.8)
    assert failure_counts(reasons) == (3, 1) and reasons[2]
    assert failure_counts(check_rate([[], []], [], 1.8)) == (2, 1)


def test_trace_fidelity_and_coverage():
    study = _levels_like_reference("squares-k2-corrected")[:2]
    traced = [dict(lv, wall_s=1.0, spans=[["a", 0.0, 0.99]]) for lv in study]
    assert failure_counts(check_trace(traced, study, [[], []]))[1] == 0
    traced[0]["e1"] *= 1.0 + 1e-11
    traced[1]["spans"] = [["a", 0.0, 0.9]]
    reasons = check_trace(traced, study, [[], []])
    assert "e1" in reasons[0][0] and "cover" in reasons[1][0]


def test_study_timings_use_only_the_timed_studies_at_reference_speed():
    studies = [{"study_s": t, "slowdown": 2.0, "levels": [{"seconds": t / 2}],
                "finest_slowdown": 1.25, "peak_rss_mb": 100.0}
               for t in (9.0, 6.0, 8.0, 1.0)]
    metrics = end_to_end_metrics({"studies": studies}, 3, [0.3, 0.1, 0.2], 8, 0)
    assert metrics["study_s"] == 4.0 and metrics["finest_level_s"] == 3.2
    assert metrics["setup_s"] == 0.2 and metrics["level_pass_ratio"] == 1.0


def test_slowdown_averages_the_probes_inside_the_window():
    from hostspeed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.samples = [(0.5, REFERENCE_S), (1.0, 2 * REFERENCE_S), (1.5, 4 * REFERENCE_S)]
    assert probe.slowdown(0.9, 1.6) == pytest.approx(3.0)
    assert probe.slowdown(0.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        probe.slowdown(2.0, 3.0)


def test_probe_samples_while_it_runs():
    import time

    from hostspeed import INTERVAL_S, SpeedProbe

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        time.sleep(5 * INTERVAL_S)
        t1 = time.perf_counter()
    count = len(probe.samples)
    time.sleep(2 * INTERVAL_S)
    assert count >= 2 and len(probe.samples) == count
    assert probe.slowdown(t0, t1) > 0


def test_run_studies_makes_at_least_the_timed_count():
    from worker import run_studies

    report = types.SimpleNamespace(rates_e1=[], levels=[])
    assert len(run_studies(lambda spec, levels: report, None, 1, 0.0, 3)) == 3


# -- smoke runs ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_level_smoke_run(name):
    import polyvem.levelset as levelset_module
    from hostspeed import SpeedProbe
    from polyvem.study import run_study
    from tracing import trace_ladder
    from worker import run_studies

    original_delta = levelset_module.delta
    spec = WORKLOADS[name].spec(0)
    with SpeedProbe() as probe:
        studies = run_studies(run_study, spec, 2, 0.0, 1, probe)
    record = {"studies": studies, "trace": trace_ladder(spec, 2)}
    assert levelset_module.delta is original_delta

    reasons = gate(WORKLOADS[name], 0, record, REFERENCE)
    assert failure_counts(reasons) == (4, 0), reasons
    e2e = end_to_end_metrics(record, WORKLOADS[name].timed_studies, [0.5], 4, 0)
    layers = per_layer_metrics(record)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["trace.coverage_min"] >= 0.95
    assert layers["linsys.n"] == REFERENCE["workloads"][name]["levels"][1]["linsys_n"]
    assert layers["linsys.lu_fill"] >= layers["linsys.nnz"] > 0
    assert layers["linsys.backward_error"] < 1e-10
    if spec.correction:
        # three passes (tau, assembly, recovery) over every boundary quadrature point
        assert layers["levelset.delta_calls"] > 3 * layers["levelset.boundary_edges"] > 0
        assert layers["curved.assemble_s"] > 0 and layers["weakbc.assemble_s"] == 0
    else:
        assert layers["levelset.delta_calls"] == 0 and layers["levelset.tau_s"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "squares-k2-corrected",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
