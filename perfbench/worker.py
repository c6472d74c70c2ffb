"""One workload process: set up, run the study, optionally trace it.

Started by run.py with the thread count pinned and PYTHONPATH pointing at the
checkout's `src`.  Prints one JSON record as its last line of output:

- `setup_s`: seconds from the launcher starting this process until the
  first level could start (imports of polyvem, numpy and scipy, plus the
  problem's `validate`, exactly as `run_study` calls it);
- `studies`: one entry per untraced `run_study` call, with its wall time
  and, from the host-speed probe (hostspeed.py), the slowdown of the core
  over the study and over its finest level; the first also holds
  `peak_rss_mb`, the peak resident memory at its end, less the memory the
  probe keeps resident;
- `trace`: traced level records (tracing.py), with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _level_record(lv) -> dict:
    return {
        "level": lv.level,
        "n_dofs": lv.n_dofs,
        "e1": lv.e1,
        "e0": lv.e0,
        "multiplier_err": lv.multiplier_err,
        "seconds": lv.seconds,
        "error": lv.error,
    }


def run_studies(run_study, spec, levels: int, seconds: float, count: int,
                probe=None) -> list:
    """Whole studies, one after another (a closed loop with one client).

    At least `count` studies run.  After those, another study starts only if
    it is expected to end within `seconds` of the first one's start.  The
    first study records the process's peak resident memory, before repeated
    studies can fragment the heap.  With a running `probe`, each study also
    records the core's slowdown over the study and over its finest level.
    """
    studies = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        report = run_study(spec, levels)
        t1 = time.perf_counter()
        wall = t1 - t0
        studies.append({
            "study_s": wall,
            "rates_e1": report.rates_e1,
            "levels": [_level_record(lv) for lv in report.levels],
        })
        if probe is not None:
            # the finest level is the last thing run_study does
            finest = report.levels[-1].seconds
            studies[-1]["slowdown"] = probe.slowdown(t0, t1)
            studies[-1]["finest_slowdown"] = probe.slowdown(t1 - finest, t1)
        if len(studies) == 1:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            studies[0]["peak_rss_mb"] = (peak - (probe.nbytes if probe else 0)) / 2**20
        if len(studies) >= count and time.perf_counter() - begin + wall > seconds:
            return studies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the launcher just before this process started")
    args = parser.parse_args(argv)

    import numpy as np

    import polyvem
    from polyvem.study import PROBLEMS, run_study
    from workloads import WORKLOADS

    expected = ROOT / "src" / "polyvem"
    if Path(polyvem.__file__).resolve().parent != expected:
        print(f"polyvem imported from {polyvem.__file__}, not {expected}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    # the same sample run_study validates on
    PROBLEMS[spec.problem].validate(np.random.default_rng(123).random((32, 2)) * 0.5 + 0.2)
    record = {"setup_s": time.monotonic() - args.spawned_at}

    if not args.setup_only:
        from hostspeed import SpeedProbe, pin_to_one_cpu

        pin_to_one_cpu()
        if args.trace:
            from tracing import trace_ladder

            # one untraced study to compare the traced ladder against
            record["studies"] = run_studies(run_study, spec, workload.levels, 0.0, 1)
            record["trace"] = trace_ladder(spec, workload.levels)
        else:
            with SpeedProbe() as probe:
                record["studies"] = run_studies(run_study, spec, workload.levels, args.seconds,
                                                workload.timed_studies, probe)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
