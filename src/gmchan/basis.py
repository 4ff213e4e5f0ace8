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


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class _memo:
    """A per-object memo like functools.cached_property, without its lock: a
    non-data descriptor that stores the value in the instance's __dict__."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.compute.__name__] = self.compute(obj)
        return value


@dataclass(frozen=True)
class GellMannBasis:
    """All n² basis matrices, stored as their nonzeros, plus derived arrays.

    nonzeros  -- (owner, row, col, value): matrix alpha = owner holds value at
                 [row, col]; ordered by owner, then row*n + col, as np.nonzero
    norms_sq  -- Tr(sigma_alpha²), used to normalize HS projections
    stack     -- shape (n², n, n), scattered on first read; no library path reads it
    """

    n: int
    nonzeros: tuple
    norms_sq: np.ndarray

    def flat(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexOutOfRange(f"index ({i},{j}) outside 0..{self.n - 1}")
        return i * self.n + j

    def matrix(self, i: int, j: int) -> np.ndarray:
        return self.stack[self.flat(i, j)]

    def __iter__(self):
        return iter(self.stack)

    @_memo
    def stack(self) -> np.ndarray:
        stack = np.zeros((self.n * self.n, self.n, self.n), dtype=complex)
        stack[self.nonzeros[:3]] = self.nonzeros[3]
        return _read_only(stack)

    @_memo
    def _sums(self) -> tuple:
        """decompose's (take, value, first) per owner, take the flat index of X^T at each nonzero,
        and recompose's (owner, value, first) per entry row*n + col: entry (r, c), r != c, sums
        sigma_lo,hi and sigma_hi,lo, and (k, k) the identity and each diagonal d >= max(k, 1)."""
        n, (owner, row, col, value) = self.n, self.nonzeros
        r, c = np.divmod(np.arange(n * n), n)
        count = np.where(r != c, 2, n + 1 - np.maximum(r, 1))
        start, first = np.cumsum(count) - count, np.flatnonzero(np.diff(owner, prepend=-1))
        u = np.arange(start[-1] + count[-1]) - np.repeat(start, count)  # term u of its entry
        r, c = np.repeat(r, count), np.repeat(c, count)
        lo, hi = np.minimum(r, c), np.maximum(r, c)
        by = np.where(r == c, (lo + u - (lo > 0)) * (n + 1) * (u > 0),
                      np.where(u == 0, lo * n + hi, hi * n + lo))
        at = first[by] + np.where(r == c, r, r > c)  # where that nonzero sits in the list
        return tuple(tuple(map(_read_only, sums)) for sums in
                     ((col * n + row, value, first), (by, value[at], start)))


@lru_cache(maxsize=None)
def _build_basis(n: int) -> GellMannBasis:
    # the nonzeros of every gell_mann(n, i, j), matrix by matrix: n for the identity, d + 1
    # for diagonal d > 0, two for a pair, (min(i, j), max(i, j)) first; t counts within each
    i, j = np.divmod(np.arange(n * n), n)
    count = np.where(i != j, 2, np.where(i == 0, n, i + 1))
    owner = np.repeat(np.arange(n * n), count)
    t = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    i, j = i[owner], j[owner]
    row = np.where(i == j, t, np.where(t == 0, np.minimum(i, j), np.maximum(i, j)))
    col = np.where(i == j, row, i + j - row)
    w = np.sqrt(2.0 / np.maximum(i * (i + 1), 1))
    value = np.where(i == j, np.where(i == 0, 1.0, np.where(t < i, w, -i * w)),
                     np.where(i < j, 1.0 + 0j, np.where(t == 0, -1.0j, 1.0j)))
    nonzeros = tuple(_read_only(column) for column in (owner, row, col, value))
    norms_sq = np.bincount(nonzeros[0], np.abs(nonzeros[3]) ** 2, n * n)
    return GellMannBasis(n=n, nonzeros=nonzeros, norms_sq=_read_only(norms_sq))


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

    c_ij = Tr(sigma_ij X) / Tr(sigma_ij²); the conjugate in the HS pairing drops because
    every basis matrix is Hermitian. One gather of X^T at the nonzeros, one sum per owner.
    """
    X = _check_square(X, basis.n)
    take, value, first = basis._sums[0]
    return (np.add.reduceat(value * X.ravel()[take], first) / basis.norms_sq).reshape(X.shape)


def recompose(coeffs: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Inverse of decompose: sum_ij c_ij sigma_ij, one gather of c and one sum per entry."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (basis.n, basis.n):
        raise DimensionMismatch(f"coefficient table shape {c.shape} does not match n={basis.n}")
    owner, value, first = basis._sums[1]
    return np.add.reduceat(value * c.ravel()[owner], first).reshape(c.shape)
