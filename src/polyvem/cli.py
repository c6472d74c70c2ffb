"""Command-line entry point for convergence studies.

Example:
    polyvem-study --problem test1-2d --order 2 --method nitsche --gamma 100 \
        --mesh voronoi --levels 4 --out report.json
"""

from __future__ import annotations

import argparse
import sys

from .study import ProblemSpec, PROBLEMS, report_to_csv, report_to_json, run_study


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polyvem-study",
        description="Run a manufactured-solution convergence study.",
    )
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="test1-2d")
    p.add_argument("--mesh", choices=["structured", "voronoi", "disk", "squares"],
                   default=None, help="mesh family (defaults to the problem's natural one)")
    p.add_argument("--order", type=int, default=1, metavar="K")
    p.add_argument("--method", choices=["nitsche", "bh"], default="nitsche")
    p.add_argument("--gamma", type=float, default=1000.0)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--kprime", choices=["k", "k-1"], default="k")
    p.add_argument("--correction", choices=["on", "off"], default=None,
                   help="Taylor boundary correction (default: on for curved meshes)")
    p.add_argument("--kstar", default="auto",
                   help="Taylor order: 'auto' or an integer in [0, k]")
    p.add_argument("--sigma", choices=["normal", "distance-gradient"],
                   default="distance-gradient")
    p.add_argument("--refine-steps", type=int, default=2,
                   help="boundary refinement steps of the squares mesh")
    p.add_argument("--stab", choices=["d-recipe", "euclidean"], default="d-recipe")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lloyd", type=int, default=2)
    p.add_argument("--condest", action="store_true")
    p.add_argument("--export-matrix", default=None, metavar="PREFIX")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def spec_from_args(args) -> ProblemSpec:
    problem = PROBLEMS[args.problem]
    mesh = args.mesh
    if mesh is None:
        mesh = {"disk": "disk", "quarter-disk": "squares"}.get(args.problem, "voronoi")
    if problem.domain_kind == "polygon" and mesh in ("disk", "squares"):
        raise ValueError(f"mesh family {mesh!r} needs a curved-domain problem")
    if problem.domain_kind == "levelset" and mesh in ("structured", "voronoi"):
        raise ValueError(f"problem {args.problem!r} needs a curved mesh family")
    correction = args.correction
    if correction is None:
        correction = "on" if problem.domain_kind == "levelset" else "off"
    if args.levels < 1:
        raise ValueError("need at least one level")
    return ProblemSpec(
        problem=args.problem,
        k=args.order,
        method=args.method,
        gamma=args.gamma,
        alpha=args.alpha,
        kprime=args.kprime,
        mesh=mesh,
        correction=correction == "on",
        kstar=args.kstar if args.kstar == "auto" else int(args.kstar),
        sigma=args.sigma,
        refine_steps=args.refine_steps,
        stab=args.stab.replace("-", "_"),
        rng_seed=args.seed,
        lloyd_iters=args.lloyd,
        condest=args.condest,
        export_matrix=args.export_matrix,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = spec_from_args(args)
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_study(spec, args.levels)
        text = report_to_csv(report, args.out) if args.format == "csv" \
            else report_to_json(report, args.out)
        if args.out is None:
            print(text)
        else:
            print(f"wrote {args.out}")
        if any(lv.error for lv in report.levels):
            for lv in report.levels:
                if lv.error:
                    print(f"level {lv.level} failed: {lv.error}", file=sys.stderr)
            return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
