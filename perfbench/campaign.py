"""Run every workload over several seeds and print every metric.

    python3 perfbench/campaign.py --seed 0 --runs 10            # end-to-end table
    python3 perfbench/campaign.py --seed 0 --runs 1 --trace     # per-layer table

Each run is one `run.py` invocation (a fresh process per workload and seed,
seeds `seed .. seed+runs-1`, workloads interleaved).  For each workload and
metric the table gives the unit, sample count (one sample per run), median,
quartiles, the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, and the highest percentile with at least ten samples beyond
it.  `--out` writes the runs, the summary and the machine's environment as
JSON.  Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, THREAD_ENV
from stats import summarize


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    gate = [line for line in lines if line.startswith("GATE FAIL")]
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "result": result, "gate": gate, "stderr": proc.stderr[-2000:]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Run all workloads over several seeds.")
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--out", help="write runs, summary and environment as JSON")
    args = parser.parse_args(argv)

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            run = run_once(name, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            ok = run["result"] is not None and run["result"]["correct"]
            why = "; ".join(run["gate"]) or run["stderr"][-300:]
            print(f"# {name} seed {seed}: {'ok' if ok else 'FAILED ' + why}", flush=True)

    summary = {}
    for name in names:
        results = [r["result"] for r in runs if r["workload"] == name and r["result"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{name}: {len(results)} runs, level_failure_ratio {failed}/{attempted}")
        print(f"{'metric':<26} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'percentile':>10}")
        summary[name] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if not values:
                continue
            s = summarize(values)
            summary[name]["metrics"][m["name"]] = s
            bound = m.get("bound")
            pct = "none" if s["percentile"] is None else f"p{s['percentile']:g}={s['percentile_value']:.4g}"
            print(f"{m['name']:<26} {m['unit']:<6} {s['n']:>3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} "
                  f"{'' if bound is None else bound:>6} {pct:>10}")

    if args.out:
        doc = {"environment": environment(), "seeds": [args.seed, args.seed + args.runs - 1],
               "run_seconds": bench["run_seconds"], "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    all_ok = all(r["result"] is not None and r["result"]["correct"] for r in runs)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
