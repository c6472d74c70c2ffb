"""Regenerate reference.json: the default-seed values the correctness gate pins.

    python3 perfbench/make_reference.py

Runs every workload once with the traced replica on seed 0 and records, per
level, `n_dofs`, `linsys_n`, `linsys_nnz` and `run_study`'s `e1`, `e0` and
`multiplier_err`.  It refuses to write when a level fails, the traced run
disagrees with `run_study`, or a last-pair rate misses its band.  Only
regenerate when a change is meant to alter these numbers.
"""

from __future__ import annotations

import json
import sys
import time

from gate import check_levels, check_rate, check_trace
from run import HERE, run_worker
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    out = {"seed": SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        record = run_worker(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                             "--trace", "1"], time.monotonic() + 900.0)
        study, traced = record["studies"][0], record["trace"]
        reasons = check_rate(check_levels(study["levels"], None), study["rates_e1"],
                             workload.min_last_rate_e1)
        reasons += check_trace(traced, study["levels"], check_levels(traced, None))
        if any(reasons):
            print(f"{name}: {[r for r in reasons if r]}", file=sys.stderr)
            return 1
        out["workloads"][name] = {
            "rates_e1": study["rates_e1"],
            "levels": [
                {"level": s["level"], "n_dofs": s["n_dofs"], "linsys_n": t["linsys_n"],
                 "linsys_nnz": t["linsys_nnz"], "e1": s["e1"], "e0": s["e0"],
                 "multiplier_err": s["multiplier_err"]}
                for s, t in zip(study["levels"], traced)
            ],
        }
        print(f"{name}: {len(traced)} levels recorded")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
