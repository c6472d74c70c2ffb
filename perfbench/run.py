"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload squares-k2-corrected --seed 0 --seconds 40 --trace 0

Runs the workload's study in a fresh worker process with the BLAS/OpenMP
thread count pinned, checks the results against the correctness gate
(gate.py), prints a human-readable table and, as the last line, one JSON
object `{"correct", "attempted", "failed", "metrics"}`.  `attempted` and
`failed` count ladder levels.  With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` the run repeats the
ladder through the traced replica (tracing.py) and reports the per-layer
metrics.  Exits 1 when the gate fails and 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_levels, check_rate, check_trace, coverage, failure_counts
from stats import summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
DEADLINE_S = 175.0
TIMED_SPANS = (
    "generators.mesh_s", "mesh.quality_s", "element.build_s", "element.dofmap_s",
    "weakbc.multspace_s", "levelset.tau_s", "weakbc.assemble_s", "curved.assemble_s",
    "linsys.factor_s", "linsys.solve_s", "weakbc.recover_s", "curved.recover_s",
    "study.errors_s",
)
# per-layer metric -> field of the finest traced level
FINEST_COUNTS = {
    "element.cells": "cells",
    "levelset.delta_calls": "delta_calls",
    "levelset.boundary_edges": "boundary_edges",
    "linsys.n": "linsys_n",
    "linsys.nnz": "linsys_nnz",
    "linsys.lu_fill": "lu_fill",
    "linsys.backward_error": "backward_error",
}


class BenchError(RuntimeError):
    pass


def run_worker(args: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return json.loads(lines[-1])


def gate(workload, seed: int, record: dict, reference: dict) -> list:
    """Failure reasons per attempted level: every untraced study, then the traced ladder."""
    entry = reference["workloads"][workload.name]
    ref_levels = entry["levels"] if workload.reference_seed_matches(seed, reference["seed"]) else None
    reasons = []
    for study in record["studies"]:
        reasons += check_rate(check_levels(study["levels"], ref_levels), study["rates_e1"],
                              workload.min_last_rate_e1)
    if "trace" in record:
        traced = record["trace"]
        reasons += check_trace(traced, record["studies"][0]["levels"],
                               check_levels(traced, ref_levels))
    return reasons


def at_reference_speed(study: dict) -> tuple:
    """(study_s, finest_level_s) of one study: wall seconds divided by the
    core's slowdown over the same window (hostspeed.py)."""
    return (study["study_s"] / study["slowdown"],
            study["levels"][-1]["seconds"] / study["finest_slowdown"])


def end_to_end_metrics(record: dict, timed: int, setups: list, attempted: int,
                       failed: int) -> dict:
    """Setup is the median of the run's set-ups.  Study and finest-level
    times are taken at reference speed, and each is the median over the
    run's first `timed` studies.  The count is fixed per workload, so a
    faster program does not also get more samples."""
    studies = [at_reference_speed(s) for s in record["studies"][:timed]]
    return {
        "setup_s": statistics.median(setups),
        "study_s": statistics.median(s for s, _ in studies),
        "finest_level_s": statistics.median(f for _, f in studies),
        "peak_rss_mb": record["studies"][0]["peak_rss_mb"],
        "level_pass_ratio": (attempted - failed) / attempted,
    }


def per_layer_metrics(record: dict) -> dict:
    traced = record["trace"]
    out = dict.fromkeys(TIMED_SPANS, 0.0)
    unattributed = 0.0
    for lv in traced:
        for name, start, end in lv["spans"]:
            out[name] += end - start
        unattributed += lv["wall_s"] - sum(end - start for _, start, end in lv["spans"])
    finest = traced[-1]
    for metric, key in FINEST_COUNTS.items():
        out[metric] = finest.get(key, 0)
    out["trace.unattributed_s"] = unattributed
    out["trace.overhead_s"] = sum(lv["wall_s"] for lv in traced) - record["studies"][0]["study_s"]
    out["trace.coverage_min"] = min(coverage(lv) for lv in traced)
    return out


def print_table(metrics: dict, units: dict, samples: dict) -> None:
    print(f"{'metric':<26} {'value':>14} {'unit':<6} {'n':>3} {'median':>14} {'percentile':>10}")
    for name, value in metrics.items():
        s = summarize(samples.get(name, [value]))
        pct = "none" if s["percentile"] is None else f"p{s['percentile']:g}={s['percentile_value']:.6g}"
        print(f"{name:<26} {value:>14.6g} {units[name]:<6} {s['n']:>3} {s['median']:>14.6g} {pct:>10}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload once.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="Voronoi mesh seed (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring budget; at least one whole study always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "polyvem" / "__init__.py").is_file():
            raise BenchError(f"no polyvem sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads((HERE / "reference.json").read_text())
        worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        # set-ups only, half before and half after the studies, so that their
        # median spans the whole run rather than one stretch of host load
        setup_only = SETUP_SAMPLES // 2 if not args.trace else 0
        setups = [run_worker(worker_args + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(setup_only)]
        record = run_worker(worker_args, deadline)
        setups.append(record["setup_s"])
        setups += [run_worker(worker_args + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(setup_only)]
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reasons = gate(workload, args.seed, record, reference)
    attempted, failed = failure_counts(reasons)
    for out in reasons:
        for reason in out:
            print(f"GATE FAIL {args.workload} seed {args.seed}: {reason}")

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        metrics = per_layer_metrics(record)
        samples = {}
    else:
        metrics = end_to_end_metrics(record, workload.timed_studies, setups, attempted, failed)
        timed = record["studies"][:workload.timed_studies]
        at_ref = [at_reference_speed(s) for s in timed]
        samples = {"setup_s": setups,
                   "study_s": [s for s, _ in at_ref],
                   "finest_level_s": [f for _, f in at_ref]}
        for s in timed:
            print(f"timed study: wall {s['study_s']:.3f} s, slowdown {s['slowdown']:.3f}; "
                  f"finest level wall {s['levels'][-1]['seconds']:.3f} s, "
                  f"slowdown {s['finest_slowdown']:.3f}")
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"level_failure_ratio {failed}/{attempted} = {failed / attempted:g}")
    print_table(metrics, units, samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
