"""Bitwise oracle: dump every number a set of convergence studies produces,
and compare two dumps array by array.

    PYTHONPATH=src python tools/bitwise_oracle.py dump out.npz
    python tools/bitwise_oracle.py compare parent.npz change.npz

`dump` runs `polyvem.study.run_study` on 28 ladders that cover both methods,
k = 1..4, k' = k - 1, the flat and corrected curved domains and both
benchmark ladders in full.  It records every solved system, numbered in
solve order (CSC `data`/`indices`/`indptr`, right side, solution), the
`schur_condense_bh` output of every multiplier system, the recovered
multiplier, every level's `LevelResult` fields and every rate, one `.npy`
member per array, each written as soon as it is made.  Run it on two
checkouts (`git archive <rev> | tar -x -C <dir>`, then point PYTHONPATH at
`<dir>/src`) and `compare` the two files: arrays must agree in dtype,
shape, value (`np.array_equal`) and sign bit.  It prints the first names
that differ, the count that differ in each ladder that has any, and the
total, and exits with status 1 when any differ.  Uses the standard library
and numpy only; BLAS runs on one thread so its sums keep one order.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import zipfile  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

_QD = dict(problem="quarter-disk", mesh="squares")
_DISK = dict(problem="disk", mesh="disk", correction=True)
_VOR = dict(problem="test1-2d", mesh="voronoi")

# (name, ProblemSpec arguments, levels)
LADDERS = (
    [(f"voronoi-k{k}-nitsche", dict(_VOR, k=k), 3) for k in (1, 2, 3, 4)]
    + [(f"voronoi-k{k}-bh", dict(_VOR, k=k, method="bh"), 3) for k in (1, 2, 3, 4)]
    + [(f"voronoi-k{k}-bh-km1", dict(_VOR, k=k, method="bh", kprime="k-1"), 3)
       for k in (2, 3, 4)]
    + [
        ("voronoi-k4-multiplier", dict(_VOR, k=4, method="bh", alpha=1e-3), 5),
        ("squares-k2-corrected", dict(_QD, k=2, correction=True, sigma="distance-gradient"), 4),
    ]
    + [(f"squares-k{k}-corrected", dict(_QD, k=k, correction=True), 3) for k in (1, 3)]
    + [("squares-k4-corrected-normal", dict(_QD, k=4, correction=True, sigma="normal",
                                            kstar=3), 3)]
    + [(f"squares-k{k}-bh-corrected", dict(_QD, k=k, method="bh", correction=True), 3)
       for k in (2, 3)]
    + [(f"disk-k{k}-corrected", dict(_DISK, k=k), 3) for k in (2, 3, 4)]
    + [
        ("disk-k2-bh-corrected", dict(_DISK, k=2, method="bh"), 3),
        ("disk-k1-flat", dict(problem="disk", mesh="disk", k=1), 3),
        ("squares-k2-flat", dict(_QD, k=2), 3),
        ("patch-k2-nitsche", dict(problem="patch", mesh="structured", k=2), 3),
        ("patch-k3-bh", dict(problem="patch", mesh="structured", k=3, method="bh"), 3),
        ("voronoi-k2-seed7-euclidean", dict(_VOR, k=2, rng_seed=7, stab="euclidean"), 3),
        ("squares-k2-bh-km1-corrected", dict(_QD, k=2, method="bh", kprime="k-1",
                                             correction=True), 3),
    ]
)


def _array(value) -> np.ndarray:
    """A level field as an array: None is an empty float array, a string a
    unicode scalar, anything else `np.asarray` of it."""
    if value is None:
        return np.empty(0)
    return np.asarray(value)


class _Writer:
    """One `.npy` member per array, appended to a zip as it is made."""

    def __init__(self, path):
        self.zip = zipfile.ZipFile(path, "w")
        self.count = 0

    def __call__(self, name: str, value):
        with self.zip.open(name + ".npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array(fh, _array(value), allow_pickle=False)
        self.count += 1

    def csc(self, name: str, matrix):
        A = matrix.tocsc()
        for part in ("data", "indices", "indptr"):
            self(f"{name}.{part}", getattr(A, part))

    def close(self):
        self.zip.close()


def dump(path) -> int:
    import polyvem.study as study
    from polyvem.linsys import schur_condense_bh

    out = _Writer(path)
    solve, recover = study.solve, study.recover_multiplier
    where = {}

    def spy_solve(system):
        # the condensation runs before the LU factor exists, so its
        # temporaries never sit beside the factor
        name = f"{where['ladder']}/system{where['solves']}"
        where["solves"] += 1
        if system.partition is not None:
            cond = schur_condense_bh(system)
            out.csc(f"{name}/condensed", cond.matrix)
            out(f"{name}/condensed.rhs", cond.rhs)
            del cond
        x = solve(system)
        out.csc(f"{name}/matrix", system.matrix)
        out(f"{name}/rhs", system.rhs)
        out(f"{name}/solution", x)
        where["last"] = name
        return x

    def spy_recover(*args, **kwargs):
        lam = recover(*args, **kwargs)
        out(f"{where['last']}/recovered", lam)
        return lam

    study.solve, study.recover_multiplier = spy_solve, spy_recover
    try:
        for name, args, levels in LADDERS:
            where.update(ladder=name, solves=0)
            report = study.run_study(study.ProblemSpec(**args), levels)
            for lv in report.levels:
                for key, value in vars(lv).items():
                    if key == "seconds":
                        continue
                    if key == "quality":
                        for qk, qv in value.items():
                            out(f"{name}/result{lv.level}/quality.{qk}", qv)
                    else:
                        out(f"{name}/result{lv.level}/{key}", value)
            for key in ("rates_e1", "rates_e0", "rates_mult"):
                for i, rate in enumerate(getattr(report, key)):  # a rate may be None
                    out(f"{name}/{key}.{i}", rate)
            out(f"{name}/notes", repr(sorted(report.notes.items())))
            print(f"{name}: {levels} levels", flush=True)
    finally:
        study.solve, study.recover_multiplier = solve, recover
        out.close()
    print(f"wrote {out.count} arrays to {path}")
    return 0


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True)
                    and np.array_equal(np.signbit(a), np.signbit(b)))
    return bool(np.array_equal(a, b))


def compare(path_a, path_b) -> int:
    with np.load(path_a) as a, np.load(path_b) as b:
        names = sorted(set(a.files) | set(b.files))
        differ = [n for n in names if n not in a.files or n not in b.files
                  or not _same(a[n], b[n])]
    for n in differ[:20]:
        print(f"differs: {n}")
    ladders = Counter(n.split("/")[0] for n in names)
    for ladder, d in sorted(Counter(n.split("/")[0] for n in differ).items()):
        print(f"{ladder}: {d} of {ladders[ladder]} arrays differ")
    print(f"{len(names)} arrays, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("dump", help="run the ladders and write every array").add_argument("out")
    cmp = sub.add_parser("compare", help="compare two dumps bit for bit")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = p.parse_args(argv)
    return dump(args.out) if args.mode == "dump" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
