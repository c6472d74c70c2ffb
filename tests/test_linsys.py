import numpy as np
import pytest
import scipy.sparse as sp

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
    m1, m2 = b1.compress(), b2.compress()
    assert (m1 != m2).nnz == 0
    assert m1.data.tobytes() == m2.data.tobytes()


def test_symmetry_check():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert dense_system(a, np.zeros(2), symmetric=True).check_symmetry() == 0.0
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
    part = SaddlePartition(n_primal=2, blocks=[(0, 1), (1, 1)], edge_ids=[0, 1])
    sys_ = dense_system(a, b, partition=part)
    full = solve(sys_)
    cond = schur_condense_bh(sys_)
    u = solve(cond)
    np.testing.assert_allclose(u, full[:2], atol=1e-12)


def test_schur_condense_singular_block():
    a = np.eye(3)
    a[2, 2] = 0.0
    part = SaddlePartition(n_primal=2, blocks=[(0, 1)], edge_ids=[7])
    # make the multiplier row couple so the block is actually used
    a[2, 0] = 1.0
    a[0, 2] = 1.0
    with pytest.raises(SingularMatrixError, match="edge 7"):
        schur_condense_bh(dense_system(a, np.zeros(3), partition=part))


def test_residual_enforced():
    # near-singular system whose solve cannot meet the residual bound
    eps = 1e-18
    a = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
    with pytest.raises(SingularMatrixError):
        solve(dense_system(a, [1.0, 2.0]))


def test_export_matrix_market(tmp_path):
    sys_ = dense_system([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    path = tmp_path / "mat.mtx"
    export_matrix_market(sys_, path)
    text = path.read_text()
    assert "MatrixMarket" in text and "2 2 2" in text
