"""Scaled monomial bases on cells.

Cell bases are spanned by ((x - x_K)/h_K)^a * ((y - y_K)/h_K)^b in graded
lexicographic order of the exponents; a change-of-basis matrix from the raw
monomials (the element's L2-orthonormalization, for instance) gives other
bases of the same space.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "cell_basis_dim",
    "monomial_exponents",
    "exponent_arrays",
    "scaled_powers",
    "monomial_values",
    "monomial_gradients",
    "directional_derivative_matrix",
]


def cell_basis_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def monomial_exponents(k: int) -> list[tuple[int, int]]:
    """Exponent pairs of the 2D monomials up to degree k, graded lex order."""
    out = []
    for d in range(k + 1):
        for a2 in range(d + 1):
            out.append((d - a2, a2))
    return out


@lru_cache(maxsize=None)
def exponent_arrays(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only x- and y-exponent arrays of `monomial_exponents(k)`."""
    exps = np.array(monomial_exponents(k), dtype=int).reshape(-1, 2).T.copy()
    exps.setflags(write=False)
    return exps[0], exps[1]


def scaled_powers(points, center, diameter, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Power tables (..., n, k + 1) of the scaled coordinates (x - x_K)/h_K
    and (y - y_K)/h_K at points (..., n, 2), for centers (..., 2) and
    diameters (...); column j is column j - 1 times the coordinate, as in
    np.vander."""
    p = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)[..., None, :]
    t = p / np.asarray(diameter, dtype=float)[..., None, None]
    tables = []
    for s in (t[..., 0], t[..., 1]):
        powers = [np.ones_like(s), s]
        while len(powers) <= k:
            powers.append(powers[-1] * s)
        tables.append(np.stack(powers[:k + 1], axis=-1))
    return tables[0], tables[1]


def monomial_values(powx: np.ndarray, powy: np.ndarray, k: int) -> np.ndarray:
    """Raw scaled monomials of degree <= k, (..., n, dim P_k), from power tables."""
    ex, ey = exponent_arrays(k)
    return powx[..., ex] * powy[..., ey]


def monomial_gradients(powx: np.ndarray, powy: np.ndarray, k: int, diameter) -> tuple[np.ndarray, np.ndarray]:
    """x- and y-derivatives of the raw scaled monomials, each (..., n, dim P_k)."""
    ex, ey = exponent_arrays(k)
    h = np.asarray(diameter, dtype=float)[..., None, None]
    gx = np.where(ex > 0, (ex / h) * powx[..., ex - 1] * powy[..., ey], 0.0)
    gy = np.where(ey > 0, (ey / h) * powx[..., ex] * powy[..., ey - 1], 0.0)
    return gx, gy


def _raw_derivative_matrices(k: int, h) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (..., n, n) of d/dx and d/dy on raw scaled-monomial
    coefficients (P_k -> P_k) for diameters h (...)."""
    h = np.asarray(h, dtype=float)
    exps = monomial_exponents(k)
    index = {e: i for i, e in enumerate(exps)}
    n = len(exps)
    dx = np.zeros(h.shape + (n, n))
    dy = np.zeros(h.shape + (n, n))
    for j, (a1, a2) in enumerate(exps):
        if a1 > 0:
            dx[..., index[(a1 - 1, a2)], j] = a1 / h
        if a2 > 0:
            dy[..., index[(a1, a2 - 1)], j] = a2 / h
    return dx, dy


def directional_derivative_matrix(k: int, diameter, coef, sigma, j: int = 1) -> np.ndarray:
    """Matrix of the j-th directional derivative on the coefficients of the
    cell basis `coef` (raw scaled-monomial coefficients of each basis
    function in its columns) of order k on cells of the given diameter.

    The result maps coefficients of p to coefficients of the derivative in
    the same basis (the image lies in the degree k - j subspace; the map is
    nilpotent).  M_0 is the identity and M_j = M_1^j.  Stacked cells carry
    leading batch axes on diameter (...), coef (..., n, n) and sigma
    (..., 2), and give one matrix each.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(np.abs(np.hypot(sigma[..., 0], sigma[..., 1]) - 1.0) > 1e-12):
        raise ValueError("sigma must be a unit vector")
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    dx, dy = _raw_derivative_matrices(k, diameter)
    m1_raw = sigma[..., 0, None, None] * dx + sigma[..., 1, None, None] * dy
    m1 = np.linalg.solve(coef, m1_raw @ coef)
    return np.linalg.matrix_power(m1, j)
