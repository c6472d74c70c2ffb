"""Sparse assembly from contribution triplets, direct solves, 1-norm
condition estimation and edge-local static condensation of saddle systems.

One sparse LU path (SuperLU with partial pivoting) serves the symmetric
indefinite multiplier systems, the symmetric penalty systems and the
non-symmetric corrected systems alike; every solve is followed by a hard
residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "LinearSystem",
    "SaddlePartition",
    "TripletBuilder",
    "SingularMatrixError",
    "solve",
    "condest_1norm",
    "schur_condense_bh",
    "export_matrix_market",
]

RESIDUAL_BOUND = 1e-10


class SingularMatrixError(RuntimeError):
    pass


@dataclass(frozen=True)
class SaddlePartition:
    """Block layout of a saddle system: the u block first, then one
    multiplier block of size `block` per boundary edge, in `edge_ids` order."""

    n_primal: int
    block: int
    edge_ids: np.ndarray


class TripletBuilder:
    """Collects triplets block by block; `compress` consumes them once."""

    def __init__(self, n: int):
        self.n = n
        self._blocks: list | None = []  # (rows, cols, values) as given, no copy

    def add_block(self, rows, cols, block):
        """Scatter dense blocks: rows (..., r), cols (..., c) and block
        (..., r, c) with the same leading batch axes, none for one block."""
        block = np.asarray(block, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)[..., :, None]
        cols = np.asarray(cols, dtype=np.int64)[..., None, :]
        self._blocks.append((rows, cols, block))

    def compress(self) -> sp.csc_matrix:
        """Deterministic compression: triplets are summed in (col, row, value)
        order, so any insertion order yields the same matrix.  The keys
        `col * n + row` and the values are written block by block into the
        sort's workspace and the blocks are dropped, so a builder
        compresses once; a second call raises."""
        if self._blocks is None:
            raise RuntimeError("TripletBuilder was already compressed")
        n, blocks = self.n, self._blocks
        self._blocks = None
        m = sum(block.size for _, _, block in blocks)
        if not m:
            return sp.csc_matrix((n, n))
        # keys, values and the values in key order share one block, freed in
        # one piece: past 32 MiB (1.4M triplets) glibc serves it from its own
        # mapping and returns it whole, so it leaves no holes in the heap
        work = np.empty((3, m))
        key = work[0].view(np.int64)
        end = 0
        for rows, cols, block in blocks:  # cols * n is as small as the cols
            np.add(cols * n, rows, out=key[end:end + block.size].reshape(block.shape))
            work[1, end:end + block.size].reshape(block.shape)[...] = block
            end += block.size
        del blocks, rows, cols, block
        _sort_triplets(key, work[1], n * n, out=work[2])
        key, summed = _group_sums(key, work[2])
        del work
        indptr = np.searchsorted(key, np.arange(n + 1) * n)  # first entry of each column
        np.remainder(key, n, out=key)
        return sp.csc_matrix((summed, key, indptr), shape=(n, n))


_CHUNK = 1 << 16  # entries per step of the packing, the gather and the group sorts


def _sort_triplets(key: np.ndarray, vals: np.ndarray, span: int, out: np.ndarray) -> None:
    """Sort int64 `key` (each in [0, span)) in place and write `vals` in
    that order to `out`.  The sort is one in-place sort of
    `key << shift | index` packed in one int64, or an `argsort` when the
    packed key would overflow 63 bits.  Only the packed sort keeps equal
    keys in insertion order; `_group_sums` does not depend on that order."""
    m = len(key)
    shift = (m - 1).bit_length()
    if (span - 1).bit_length() + shift > 63:
        order = np.argsort(key)
        key[:] = key[order]
        np.take(vals, order, out=out)
        return
    key <<= shift
    for i in range(0, m, _CHUNK):
        key[i:i + _CHUNK] |= np.arange(i, min(i + _CHUNK, m))
    key.sort()
    for i in range(0, m, _CHUNK):
        np.take(vals, key[i:i + _CHUNK] & ((1 << shift) - 1), out=out[i:i + _CHUNK])
    key >>= shift


def _group_sums(key: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of sorted `key` and the sum of each key's values,
    taken in ascending value order; `vals` (in key order) is reordered in
    place.  Only groups of colliding triplets are sorted, one stack per
    group size; equal values (+0.0 and -0.0 too) give the same sum in
    either order, so the sums are those of `lexsort((vals, key))`."""
    new = np.empty(len(key), dtype=bool)  # a group starts here
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    size = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=size[:-1])
    size[-1] = len(key) - starts[-1]
    multi = np.flatnonzero(size > 1)
    size = size[multi]  # of the colliding groups
    for s in np.unique(size):
        first, step = starts[multi[size == s]], max(_CHUNK // s, 1)  # stacks of ~_CHUNK
        for i in range(0, len(first), step):
            idx = first[i:i + step, None] + np.arange(s)
            vals[idx] = np.sort(vals[idx], axis=1)
    summed = np.add.reduceat(vals, starts)  # first: it outlives the distinct keys
    return key[starts], summed


@dataclass
class LinearSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    partition: SaddlePartition | None = None
    _factor: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def check_symmetry(self) -> float:
        d = self.matrix - self.matrix.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))

    def factor(self):
        if self._factor is None:
            try:
                self._factor = spla.splu(self.matrix.tocsc())
            except RuntimeError as exc:
                raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
        return self._factor


def solve(system: LinearSystem) -> np.ndarray:
    """Direct sparse LU solve with iterative refinement and a hard
    relative-residual check.

    Two refinement sweeps cost two extra triangular solves and recover
    near-machine backward error on the ill-conditioned saddle systems
    (multiplier blocks scale with alpha while the stiffness is O(1))."""
    b = system.rhs
    a_inf = _inf_norm(system.matrix)  # before the factor: its temporaries miss the LU peak
    lu = system.factor()
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution contains non-finite entries")
    for _ in range(2):
        r = b - system.matrix @ x
        if not np.any(r):
            break
        x = x + lu.solve(r)
    denom = a_inf * np.max(np.abs(x), initial=0.0) + np.max(np.abs(b), initial=0.0)
    resid = np.max(np.abs(system.matrix @ x - b), initial=0.0)
    if denom > 0 and resid / denom > RESIDUAL_BOUND:
        raise SingularMatrixError(
            f"solve residual {resid / denom:.3e} exceeds {RESIDUAL_BOUND:.0e}"
        )
    return x


def _inf_norm(matrix) -> float:
    """max_i sum_j |a_ij|, one `bincount` over the row indices of the canonical CSC form."""
    A = matrix.tocsc()
    A.sum_duplicates()  # as splu does
    return float(np.max(np.bincount(A.indices, np.abs(A.data), A.shape[0]), initial=0.0))


def _hager_inv_norm(lu, n: int) -> float:
    """Hager-style estimate of ||A^-1||_1 using the LU factors."""
    best = 0.0
    starts = [np.full(n, 1.0 / n)]
    i = np.arange(n)
    alt = np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(1, n - 1))  # Higham's alternating start
    starts.append(alt / np.sum(np.abs(alt)))
    rng = np.random.default_rng(12345)
    for _ in range(2):
        v = rng.standard_normal(n)
        starts.append(v / np.sum(np.abs(v)))
    for x in starts:
        for _ in range(8):
            y = lu.solve(x)
            est = float(np.sum(np.abs(y)))
            best = max(best, est)
            xi = np.sign(y)
            xi[xi == 0.0] = 1.0
            z = lu.solve(xi, trans="T")
            j = int(np.argmax(np.abs(z)))
            if np.max(np.abs(z)) <= z @ x:
                break
            x = np.zeros(n)
            x[j] = 1.0
    return best


def condest_1norm(system: LinearSystem) -> float:
    """1-norm condition estimate ||A||_1 * est(||A^-1||_1)."""
    if system.n == 0:
        return 0.0
    a1 = float(np.max(np.abs(system.matrix).sum(axis=0)))
    return a1 * _hager_inv_norm(system.factor(), system.n)


def schur_condense_bh(system: LinearSystem) -> LinearSystem:
    """Eliminate the multiplier block.

    The multiplier-multiplier block must be block diagonal per boundary
    edge; its inverse is then the block diagonal of the edge blocks'
    inverses and the condensation is exact; the result is a system over the
    primal DOFs only.
    """
    part = system.partition
    if part is None:
        raise ValueError("system has no saddle partition")
    nu, m = part.n_primal, part.block
    A = system.matrix.tocsc()
    D = A[nu:, nu:].tocoo()
    edge_row, edge_col = D.row // m, D.col // m
    off = np.flatnonzero(edge_row != edge_col)
    if len(off):
        raise ValueError(f"multiplier row of edge {part.edge_ids[edge_row[off[0]]]} couples "
                         f"edge {part.edge_ids[edge_col[off[0]]]}")
    blocks = np.zeros((len(part.edge_ids), m, m))
    np.add.at(blocks, (edge_row, D.row % m, D.col % m), D.data)  # onto +0.0, as `toarray`
    try:
        inverses = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        for eid, block in zip(part.edge_ids, blocks):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(f"multiplier block of edge {eid} is singular") from exc
        raise
    Dinv, C = sp.block_diag(list(inverses), format="csc"), A[:nu, nu:]
    condensed = (A[:nu, :nu] - C @ (Dinv @ A[nu:, :nu])).tocsc()
    condensed.sort_indices()
    rhs = system.rhs[:nu] - C @ (Dinv @ system.rhs[nu:])
    return LinearSystem(matrix=condensed, rhs=rhs)


def export_matrix_market(system: LinearSystem, path) -> None:
    from scipy.io import mmwrite

    mmwrite(str(path), system.matrix.tocoo())
