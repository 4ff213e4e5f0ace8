"""Generalized Gell-Mann matrices and Hilbert-Schmidt machinery.

For dimension n the basis consists of n² Hermitian matrices indexed by pairs
(i, j) with 0 <= i, j < n:

  i < j      symmetric       sigma_ij = e_ij + e_ji
  i > j      antisymmetric   sigma_ij = -1i * (e_ji - e_ij)
  i = j > 0  diagonal        sigma_jj = sqrt(2/(j(j+1))) (sum_{k<j} e_kk - j e_jj)
  (0, 0)     identity

where e_ij are matrix units. All are Hermitian, mutually orthogonal in the
Hilbert-Schmidt pairing, traceless except sigma_00, and Tr(sigma²) = 2 except
Tr(sigma_00²) = n. For n = 2 the four matrices are exactly {I, X, Y, Z}.

Every coefficient table in this package (weights p, eigenvalues lambda, rates
gamma, generator eigenvalues eta) is an n×n array sharing this (i, j) layout;
the flat order is row-major, alpha = i*n + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDimension, DimensionMismatch, IndexOutOfRange


def _check_dimension(n) -> int:
    if not isinstance(n, (int, np.integer)):
        raise BadDimension(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise BadDimension(f"dimension must be >= 2, got {n}")
    return int(n)


def gell_mann(n: int, i: int, j: int) -> np.ndarray:
    """Return the single basis matrix sigma_ij for dimension n."""
    n = _check_dimension(n)
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"index {idx} outside 0..{n - 1}")
    m = np.zeros((n, n), dtype=complex)
    if i == j == 0:
        np.fill_diagonal(m, 1.0)
    elif i < j:
        m[i, j] = 1.0
        m[j, i] = 1.0
    elif i > j:
        # call order (i, j) with i > j selects the antisymmetric partner
        m[j, i] = -1.0j
        m[i, j] = 1.0j
    else:
        w = math.sqrt(2.0 / (j * (j + 1)))
        for k in range(j):
            m[k, k] = w
        m[j, j] = -j * w
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GellMannBasis:
    """All n² basis matrices plus cached derived arrays.

    stack     -- shape (n², n, n), flat index alpha = i*n + j
    norms_sq  -- Tr(sigma_alpha²), used to normalize HS projections
    """

    n: int
    stack: np.ndarray
    norms_sq: np.ndarray

    def flat(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexOutOfRange(f"index ({i},{j}) outside 0..{self.n - 1}")
        return i * self.n + j

    def matrix(self, i: int, j: int) -> np.ndarray:
        return self.stack[self.flat(i, j)]

    def __iter__(self):
        return iter(self.stack)


@lru_cache(maxsize=None)
def _build_basis(n: int) -> GellMannBasis:
    # every gell_mann(n, i, j) at once, written into stack[i, j]
    stack = np.zeros((n, n, n, n), dtype=complex)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    stack[i, j, i, j] = stack[i, j, j, i] = 1.0
    stack[j, i, i, j], stack[j, i, j, i] = -1.0j, 1.0j
    d = np.arange(n)
    w = np.sqrt(2.0 / np.maximum(d * (d + 1), 1))
    stack[d[:, None], d[:, None], d, d] = np.where(d < d[:, None], w[:, None], 0.0)
    stack[d, d, d, d], stack[0, 0, d, d] = -d * w, 1.0
    stack = stack.reshape(n * n, n, n)
    norms_sq = np.einsum("aij,aji->a", stack, stack).real
    for arr in (stack, norms_sq):
        arr.setflags(write=False)
    return GellMannBasis(n=n, stack=stack, norms_sq=norms_sq)


def full_basis(n: int) -> GellMannBasis:
    """Return the (cached, immutable) basis for dimension n."""
    return _build_basis(_check_dimension(n))


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """Hilbert-Schmidt pairing Tr(A† B)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {A.shape} and {B.shape}")
    return complex(np.vdot(A, B))


def _check_square(X: np.ndarray, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got shape {X.shape}")
    return X


def decompose(X: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Coefficients c with X = sum_ij c_ij sigma_ij, as an n×n complex table.

    c_ij = Tr(sigma_ij X) / Tr(sigma_ij²); the conjugate in the HS pairing
    drops because every basis matrix is Hermitian.
    """
    X = _check_square(X, basis.n)
    coeffs = np.einsum("aij,ji->a", basis.stack, X) / basis.norms_sq
    return coeffs.reshape(basis.n, basis.n)


def recompose(coeffs: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Inverse of decompose: sum_ij c_ij sigma_ij."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (basis.n, basis.n):
        raise DimensionMismatch(
            f"coefficient table shape {c.shape} does not match n={basis.n}"
        )
    return np.einsum("a,aij->ij", c.ravel(), basis.stack)
