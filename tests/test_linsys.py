import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import polyvem.linsys as linsys_module
import polyvem.weakbc as weakbc_module
from polyvem import build_squares_approx_mesh, build_voronoi_mesh
from polyvem.curved import correction_data
from polyvem.element import build_all_elements
from polyvem.levelset import CorrectionConfig, kstar_default, quarter_disk
from polyvem.linsys import (
    LinearSystem,
    SaddlePartition,
    SingularMatrixError,
    TripletBuilder,
    condest_1norm,
    export_matrix_market,
    schur_condense_bh,
    solve,
)
from polyvem.weakbc import (
    MultiplierSpace,
    WeakBcConfig,
    assemble_bh,
    assemble_nitsche,
    edge_workspaces,
)
from conftest import fuzz


def dense_system(a, b, **kw):
    return LinearSystem(matrix=sp.csc_matrix(np.asarray(a, dtype=float)),
                        rhs=np.asarray(b, dtype=float), **kw)


def test_solve_identity():
    sys_ = dense_system(np.eye(3), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(solve(sys_), [1, 0, 0])


def test_solve_2x2_saddle():
    sys_ = dense_system([[1, 1], [1, 0]], [2, 1])
    np.testing.assert_allclose(solve(sys_), [1, 1], atol=1e-14)


def test_solve_random_spd_vs_dense():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50))
    a = a @ a.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve(dense_system(a, b))
    assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-10


def test_solve_singular_raises():
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    with pytest.raises(SingularMatrixError):
        solve(dense_system(a, [1.0, 1.0]))


def test_condest_identity():
    assert abs(condest_1norm(dense_system(np.eye(4), np.zeros(4))) - 1.0) <= 1e-12


def test_condest_diagonal():
    a = np.diag([1.0, 1e-6])
    est = condest_1norm(dense_system(a, np.zeros(2)))
    assert abs(est - 1e6) <= 1.0


@pytest.mark.parametrize("n", [40, 100, 200])
def test_condest_within_factor_3_of_dense(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + np.diag(rng.random(n) * 3 + 1)
    exact = np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
    est = condest_1norm(dense_system(a, np.zeros(n)))
    assert est <= exact * 1.0000001
    assert est >= exact / 3.0


def test_triplet_compress_deterministic():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 10, 60)
    cols = rng.integers(0, 10, 60)
    vals = rng.standard_normal(60)
    b1 = TripletBuilder(10)
    b1.add_block(rows[:, None], cols[:, None], vals[:, None, None])  # 60 stacked 1x1 blocks
    order = rng.permutation(60)
    b2 = TripletBuilder(10)
    for i in order:
        b2.add_block([rows[i]], [cols[i]], [[vals[i]]])
    assert_same_bits(b2.compress(), b1.compress())


# -- compress against the lexsort it replaced ------------------------------------

def lexsort_compress(n, key, vals):
    """Reference compression: every triplet sorted by (col, row, value) with
    one lexsort, then summed group by group."""
    if not len(key):
        return sp.csc_matrix((n, n))
    order = np.lexsort((vals, key))
    key, vals = key[order], vals[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1))
    summed = np.add.reduceat(vals, starts)
    cols, rows = np.divmod(key[starts], n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    return sp.csc_matrix((summed, rows, indptr), shape=(n, n))


def assert_same_bits(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


def block_triplets(n, rows, cols, block):
    """The (key, value) triplets of one stored block, in C order."""
    return np.broadcast_to(cols * n + rows, block.shape).ravel(), block.ravel()


def builder_triplets(builder):
    """The (key, value) triplets a builder holds, in insertion order."""
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for b in builder._blocks:
        key, val = block_triplets(builder.n, *b)
        keys.append(key)
        vals.append(val)
    return np.concatenate(keys), np.concatenate(vals)


def copied(builder):
    """A builder holding the same blocks, for a test to compress again."""
    out = TripletBuilder(builder.n)
    out._blocks = list(builder._blocks)
    return out


def shuffled_copy(builder, rng):
    """The builder's triplets re-added with the blocks and the triplets
    inside each block in random order, as stacked 1x1 blocks."""
    out = TripletBuilder(builder.n)
    for b in rng.permutation(len(builder._blocks)):
        key, vals = block_triplets(builder.n, *builder._blocks[b])
        p = rng.permutation(len(key))
        cols, rows = np.divmod(key[p], builder.n)
        out.add_block(rows[:, None], cols[:, None], vals[p][:, None, None])
    return out


VALUE_KINDS = {
    "normal": lambda rng, m: rng.standard_normal(m),
    # ties between equal values, cancellations to zero and signed zeros
    "repeats": lambda rng, m: rng.choice([-1.5, -0.1, 0.1, 0.3, 1.5, 1e-17, -1e-17], m),
    "zeros": lambda rng, m: rng.choice([0.0, -0.0, -0.0, 0.25, -0.25], m),
    "all-negative-zero": lambda rng, m: np.full(m, -0.0),
    "mixed-scale": lambda rng, m: rng.standard_normal(m) * 10.0 ** rng.integers(-20, 20, m),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", list(VALUE_KINDS))
@pytest.mark.parametrize("n", [1, 7, 60])
def test_compress_matches_lexsort_reference(n, kind, seed):
    rng = np.random.default_rng([seed, n, len(kind)])
    n_groups = min(n * n, 40)
    cells = rng.choice(n * n, n_groups, replace=False)
    sizes = rng.integers(1, 31, n_groups)  # group sizes 1-30
    key = np.repeat(cells, sizes)
    vals = VALUE_KINDS[kind](rng, len(key))
    # blocks of random length in one order, the same triplets shuffled in another
    cuts = np.sort(rng.choice(np.arange(1, len(key)), min(5, len(key) - 1), replace=False))
    first = TripletBuilder(n)
    for k, v in zip(np.split(key, cuts), np.split(vals, cuts)):
        cols, rows = np.divmod(k, n)
        first.add_block(rows[:, None], cols[:, None], v[:, None, None])
    want = lexsort_compress(n, key, vals)
    shuffled = shuffled_copy(first, rng)  # before `compress` consumes the builder
    assert_same_bits(first.compress(), want)
    assert_same_bits(shuffled.compress(), want)


# block shapes: leading batch axes, then rows and columns; sizes of 0 give
# empty blocks
_SHAPES = st.tuples(st.lists(st.integers(0, 3), max_size=2), st.integers(0, 4), st.integers(0, 4))


@fuzz(100)
@given(n=st.integers(1, 60), shapes=st.lists(_SHAPES, max_size=6),
       kind=st.sampled_from(list(VALUE_KINDS)), seed=st.integers(0, 2**32 - 1))
def test_compress_is_the_lexsort_reference_for_any_blocks(n, shapes, kind, seed):
    # indices from a few values, so a block repeats them and blocks collide
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, n, 4)
    b = TripletBuilder(n)
    for batch, r, c in shapes:
        b.add_block(rng.choice(pool, (*batch, r)), rng.choice(pool, (*batch, c)),
                    VALUE_KINDS[kind](rng, np.prod(batch, dtype=int) * r * c).reshape(*batch, r, c))
    want = lexsort_compress(n, *builder_triplets(b))
    shuffled = shuffled_copy(b, rng)
    assert_same_bits(b.compress(), want)
    assert_same_bits(shuffled.compress(), want)


def test_compress_dense_blocks_match_lexsort_reference():
    rng = np.random.default_rng(11)
    b = TripletBuilder(30)
    for _ in range(20):
        rows, cols = rng.integers(0, 30, (2, 6))  # repeated indices inside a block too
        b.add_block(rows, cols, rng.choice([-0.0, 0.0, 1.0, -2.0, 0.5], (6, 6)))
    b.add_block(rng.integers(0, 30, (4, 3)), rng.integers(0, 30, (4, 2)),
                rng.standard_normal((4, 3, 2)))  # a batch of four 3x2 blocks
    want = lexsort_compress(30, *builder_triplets(b))
    assert_same_bits(b.compress(), want)


def test_compress_empty_builders():
    want = lexsort_compress(5, np.zeros(0, dtype=np.int64), np.zeros(0))
    assert_same_bits(TripletBuilder(5).compress(), want)
    b = TripletBuilder(5)
    b.add_block(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 0)))
    b.add_block(np.zeros((3, 0), dtype=int), np.zeros((3, 2), dtype=int), np.zeros((3, 0, 2)))
    assert_same_bits(b.compress(), want)  # blocks without a triplet
    assert TripletBuilder(1).compress().shape == (1, 1)


def test_compress_consumes_the_builder():
    b = TripletBuilder(3)
    rows, cols, block = np.array([0, 2]), np.array([1, 2]), np.array([[4.0, 3.0], [2.0, 1.0]])
    b.add_block(rows, cols, block)
    assert np.array_equal(builder_triplets(b)[0], [3, 6, 5, 8])
    b.compress()
    assert b._blocks is None  # the blocks are dropped
    # the caller's blocks are not sorted in place
    assert rows.tolist() == [0, 2] and cols.tolist() == [1, 2]
    assert block.tolist() == [[4.0, 3.0], [2.0, 1.0]]
    with pytest.raises(RuntimeError, match="already compressed"):
        b.compress()


@pytest.mark.parametrize("kind", ["repeats", "zeros", "mixed-scale"])
def test_overflowing_keys_fall_back_to_argsort(monkeypatch, kind):
    # keys up to 2**62 and 40 triplets need 62 + 6 bits: the packed key
    # would overflow, so the order comes from argsort; the sums must still
    # be the lexsort reference's bits (no matrix, whose indptr would take
    # 2**31 entries)
    rng = np.random.default_rng(len(kind))
    span = 2**62
    key = rng.choice(rng.integers(span - 2**40, span, 8), 40)
    key[:3] = [0, 1, span - 1]
    vals = VALUE_KINDS[kind](rng, len(key))
    assert (span - 1).bit_length() + (len(key) - 1).bit_length() > 63
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a: calls.append(len(a)) or argsort(a))
    got_key, got_vals = key.copy(), np.empty(len(key))
    linsys_module._sort_triplets(got_key, vals, span, out=got_vals)
    got_key, sums = linsys_module._group_sums(got_key, got_vals)
    assert calls == [len(key)]

    ref = np.lexsort((vals, key))
    starts = np.concatenate(([0], np.flatnonzero(np.diff(key[ref])) + 1))
    want_key, want = key[ref][starts], np.add.reduceat(vals[ref], starts)
    assert np.array_equal(got_key, want_key)
    assert np.array_equal(sums, want) and np.array_equal(np.signbit(sums), np.signbit(want))


def test_packed_keys_sort_without_argsort(monkeypatch):
    rng = np.random.default_rng(5)
    key = rng.integers(0, 2**40, 1000)

    def no_argsort(a):
        raise AssertionError("the packed path sorts in place")

    monkeypatch.setattr(np, "argsort", no_argsort)
    monkeypatch.setattr(linsys_module, "_CHUNK", 64)  # several packing and gather steps
    got, order = key.copy(), np.empty(len(key), dtype=np.int64)
    linsys_module._sort_triplets(got, np.arange(len(key)), 2**40, out=order)  # 40 + 10 bits
    assert np.array_equal(got, np.sort(key))
    assert np.array_equal(order, np.lexsort((np.arange(len(key)), key)))  # ties in input order


# -- memory of add_block and compress ------------------------------------------

def stacked_blocks(n=300, count=4000, size=10, seed=0):
    """`count` stacked size x size blocks on random indices below n: with
    n = 300, 400k triplets on about 89k entries, 4.5 triplets an entry."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, n, (count, size)), rng.integers(0, n, (count, size)),
            rng.standard_normal((count, size, size)))


def traced(call):
    """Run `call` under tracemalloc: its result, the growth of the traced
    memory and the traced peak, both over the memory at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, now - base, peak - base


def test_add_block_keeps_no_copy_of_contiguous_blocks():
    rows, cols, block = stacked_blocks()
    b = TripletBuilder(300)
    _, grown, _ = traced(lambda: b.add_block(rows, cols, block))
    assert grown < block.size  # under 1 byte a triplet: no key array


def test_compress_makes_no_triplet_sized_temporary_besides_its_workspace():
    n = 300
    rows, cols, block = stacked_blocks(n)
    b = TripletBuilder(n)
    b.add_block(rows, cols, block)
    A, _, peak = traced(b.compress)
    assert block.size / A.nnz > 4  # collisions as on the squares ladder
    # the workspace (24 bytes a triplet), the per-entry arrays of the
    # grouping and of the matrix, its indptr and a fixed allowance
    assert peak <= 24 * block.size + 32 * A.nnz + 8 * n + 2 * 2**20


# -- compress on real assemblies -------------------------------------------------

MESHES = {  # name -> (mesh, level set or None)
    "voronoi-16": lambda: (build_voronoi_mesh(None, 16, lloyd_iters=1, rng_seed=3), None),
    "squares-4": lambda: (build_squares_approx_mesh(quarter_disk(), 4, 1), quarter_disk()),
    # level 1 of each benchmark ladder
    "voronoi-64": lambda: (build_voronoi_mesh(None, 64, lloyd_iters=2, rng_seed=0), None),
    "squares-8": lambda: (build_squares_approx_mesh(quarter_disk(), 8, 2), quarter_disk()),
}


@lru_cache(maxsize=None)
def _level(name, k):
    mesh, ls = MESHES[name]()
    return mesh, ls, build_all_elements(mesh, k)


def _load(p):
    return np.sin(2.0 * p[:, 0]) * np.cos(p[:, 1]) + p[:, 0] * p[:, 1]


def assembled_builders(monkeypatch, name, k, method, corrected):
    """Every builder one assembly compresses."""
    mesh, ls, els = _level(name, k)
    builders = []

    class Recording(TripletBuilder):
        def compress(self):
            builders.append(copied(self))
            return super().compress()

    monkeypatch.setattr(weakbc_module, "TripletBuilder", Recording)
    cfg = WeakBcConfig(method=method, k=k, kprime=k, alpha=1e-3, gamma=1e3)
    mult = MultiplierSpace.create(mesh, k)
    table = edge_workspaces(mesh, els, mult, cfg.resolved_edge_exactness)
    if corrected:
        ccfg = CorrectionConfig(kstar=kstar_default(k, "h_linear"),
                                sigma_strategy="distance_gradient")
        table = correction_data(mesh, els, mult, ls, cfg, ccfg, table=table)
    if method == "barbosa_hughes":
        assemble_bh(mesh, els, mult, cfg, _load, _load, table=table)
    else:
        assemble_nitsche(mesh, els, cfg, _load, _load, table=table)
    return tuple(builders)


@pytest.mark.parametrize("name,k,method,corrected", [
    ("voronoi-64", 4, "barbosa_hughes", False),
    ("squares-8", 2, "nitsche", True),
])
def test_compress_matches_lexsort_reference_on_real_levels(monkeypatch, name, k, method,
                                                           corrected):
    builders = assembled_builders(monkeypatch, name, k, method, corrected)
    assert len(builders) == 1
    for builder in builders:
        key, vals = builder_triplets(builder)
        assert len(np.unique(key)) < len(key)  # colliding triplets
        assert_same_bits(TripletBuilder.compress(builder), lexsort_compress(builder.n, key, vals))


ORDER_CASES = (
    [("voronoi-16", k, m, False) for k in (1, 2, 3, 4) for m in ("barbosa_hughes", "nitsche")]
    + [("squares-4", k, m, c) for k in (1, 2, 3, 4) for m in ("barbosa_hughes", "nitsche")
       for c in (False, True)]
)


@pytest.mark.parametrize("name,k,method,corrected", ORDER_CASES)
def test_assembly_does_not_depend_on_insertion_order(monkeypatch, name, k, method, corrected):
    rng = np.random.default_rng(k)
    for builder in assembled_builders(monkeypatch, name, k, method, corrected):
        shuffled = [shuffled_copy(builder, rng) for _ in range(2)]
        reference = lexsort_compress(builder.n, *builder_triplets(builder))
        want = TripletBuilder.compress(builder)
        for other in shuffled:
            assert_same_bits(other.compress(), want)
        assert_same_bits(want, reference)


def test_symmetry_check():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert dense_system(a, np.zeros(2)).check_symmetry() == 0.0
    a[0, 1] += 1e-6
    assert dense_system(a, np.zeros(2)).check_symmetry() >= 9e-7


def test_schur_condense_simple_saddle():
    # [[A, B^T], [B, D]] with block-diagonal D of two 1x1 edge blocks
    a = np.array([
        [4.0, 1.0, 1.0, 0.0],
        [1.0, 3.0, 0.0, 1.0],
        [1.0, 0.0, -2.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ])
    b = np.array([1.0, 2.0, 0.5, -0.5])
    part = SaddlePartition(n_primal=2, block=1, edge_ids=np.array([0, 1]))
    sys_ = dense_system(a, b, partition=part)
    full = solve(sys_)
    cond = schur_condense_bh(sys_)
    u = solve(cond)
    np.testing.assert_allclose(u, full[:2], atol=1e-12)


def test_schur_condense_singular_block():
    a = np.eye(3)
    a[2, 2] = 0.0
    part = SaddlePartition(n_primal=2, block=1, edge_ids=np.array([7]))
    # make the multiplier row couple so the block is actually used
    a[2, 0] = 1.0
    a[0, 2] = 1.0
    with pytest.raises(SingularMatrixError, match="edge 7"):
        schur_condense_bh(dense_system(a, np.zeros(3), partition=part))


def test_schur_condense_rejects_coupled_edge_blocks():
    # the entries 0.5 couple the 1x1 blocks of edges 3 and 5; they were once
    # dropped and the system condensed to [[5, 1], [1, 5]] without error
    a = np.array([
        [4.0, 1.0, 1.0, 0.0],
        [1.0, 4.0, 0.0, 1.0],
        [1.0, 0.0, -1.0, 0.5],
        [0.0, 1.0, 0.5, -1.0],
    ])
    part = SaddlePartition(n_primal=2, block=1, edge_ids=np.array([3, 5]))
    with pytest.raises(ValueError, match="^multiplier row of edge 5 couples edge 3$"):
        schur_condense_bh(dense_system(a, np.zeros(4), partition=part))


def test_residual_enforced():
    # 1 + 1e-18 rounds to 1: the matrix is exactly singular, so the factor
    # fails before the residual bound is reached (that bound is covered by
    # test_failing_residual_check_still_raises)
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-18]])
    with pytest.raises(SingularMatrixError, match="sparse LU failed"):
        solve(dense_system(a, [1.0, 2.0]))


def _row_sum_norm(A) -> float:
    """max_i sum_j |a_ij|, each row summed left to right over its columns."""
    R = abs(A).tocsr()
    R.sort_indices()
    sums = [0.0] * A.shape[0]
    for i in range(A.shape[0]):
        for v in R.data[R.indptr[i]:R.indptr[i + 1]].tolist():
            sums[i] += v
    return max(sums)


@pytest.mark.parametrize("seed", range(4))
def test_inf_norm_is_the_largest_row_sum(seed):
    rng = np.random.default_rng(seed)
    empty_rows = empty_cols = 0
    for _ in range(25):
        n = int(rng.integers(1, 60))
        A = sp.random(n, n, density=rng.uniform(0.0, 0.2), format="csc", random_state=rng)
        A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-6, 7, A.nnz)
        empty_rows += np.any(np.bincount(A.indices, minlength=n) == 0)
        empty_cols += np.any(np.diff(A.indptr) == 0)
        got = linsys_module._inf_norm(A)
        assert got == _row_sum_norm(A)
        # scipy sums each row in another order: equal up to rounding
        assert got == pytest.approx(spla.norm(A, np.inf), rel=1e-13, abs=0.0)
    assert empty_rows and empty_cols


def test_inf_norm_sums_duplicates_first():
    # column 0 stores row 1 twice, 2 and -2: the canonical entry is 0
    A = sp.csc_matrix((np.array([2.0, -2.0, 1.0, 3.0]), np.array([1, 1, 0, 1]),
                       np.array([0, 2, 3, 4])), shape=(2, 3))
    assert not A.has_canonical_format
    want = spla.norm(sp.csc_matrix(A.toarray()), np.inf)
    assert linsys_module._inf_norm(A) == want == 3.0


def test_failing_residual_check_still_raises(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40)) + np.diag(np.full(40, 1e-6))
    sys_ = dense_system(a, rng.standard_normal(40))
    x = solve(sys_)  # meets the bound
    assert np.max(np.abs(sys_.matrix @ x - sys_.rhs)) > 0.0
    monkeypatch.setattr(linsys_module, "RESIDUAL_BOUND", 0.0)
    with pytest.raises(SingularMatrixError, match=r"^solve residual .* exceeds 0e\+00$"):
        solve(sys_)


def test_export_matrix_market(tmp_path):
    sys_ = dense_system([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    path = tmp_path / "mat.mtx"
    export_matrix_market(sys_, path)
    text = path.read_text()
    assert "MatrixMarket" in text and "2 2 2" in text
