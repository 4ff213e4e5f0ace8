"""Time-local generators built on the Gell-Mann basis, in two forms.

  LindbladGenerator -- rate table g:
      L[X] = sum_ij g_ij (sigma_ij X sigma_ij - (sigma_ij² X + X sigma_ij²)/2)
  EigenGenerator    -- eigenvalue table h:  L[sigma_ij] = h_ij sigma_ij

The rate form annihilates traces for any rates (so the generated map is
always trace-preserving); rates may be negative — that is the standard way
time-local generators express memory effects, and whether the generated map
stays CP is a property of the trajectory, checked in dynamics, not here.

The (0,0) entries are inert: sigma_00 is the identity, so its sandwich term
vanishes in the rate form and trace preservation forces the (0,0) eigenvalue
to zero. Both constructors normalize the entry to 0 and warn if the input
had it nonzero.

A rate table acts through the blocks of its superoperator, those of the
sandwich minus (s_i + s_j)/2 on the diagonal (`apply_lf`); `lf_to_ev` reads
eta off those blocks as `kf_to_ev` reads lam (off the diagonal, the channel
formula's lam_kl minus (s_k + s_l)/2), and `ev_to_lf` inverts that reader on
the admissible tables. The converters share one private core in `channels`
with the channel converters and check that the rate table's superoperator
equals the eigenvalue table's, block by block, in O(n³). An eigenvalue-form
generator acts as `apply_ev` on its table. `ev_is_lf` scales its tolerance
with the table, as the check does.

eta_from_lambda / lambda_from_eta translate between generator eigenvalues
h(t) and channel eigenvalues l(t) per h = d/dt ln l and l = exp(integral h):
one scan of the samples (finite, clear of zero, fixed sign), then np.gradient's
second-order differences in log space, written out where the steps differ, one
way; trapezoid quadrature the other, which `dynamics` runs on the grid it has
checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import _check_dimension, _check_square, _read_only
from .channels import (
    COND_TOL, _apply_blocks, _coeff_table, _column_residuals, _column_triples, _eigenvalue_table,
    _require, _reverse, _superoperator, _table_scale, _verify_images, _violations,
)
from .errors import (
    ConstraintViolated, DimensionMismatch, InvariantError, NotEV, NotLF, ZeroEigenvalue,
)

ZERO_TOL = 1e-13


def _normalized_00(table: np.ndarray, what: str) -> np.ndarray:
    if abs(table[0, 0]) > 0.0:
        warnings.warn(
            f"{what}[0,0] = {table[0, 0]:.6g} is inert; normalized to 0",
            stacklevel=3,
        )
        table = table.copy()
        table[0, 0] = 0.0
        table.setflags(write=False)
    return table


@dataclass(frozen=True)
class LindbladGenerator:
    """Rate-table generator; field `gamma` is the n×n real rate table."""

    n: int
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        g = _coeff_table(self.n, self.gamma, "rate")
        object.__setattr__(self, "gamma", _normalized_00(g, "gamma"))


@dataclass(frozen=True)
class EigenGenerator:
    """Eigenvalue-table generator; field `eta` is the n×n real table."""

    n: int
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        h = _coeff_table(self.n, self.eta, "generator eigenvalue")
        object.__setattr__(self, "eta", _normalized_00(h, "eta"))


def apply_lf(gen: LindbladGenerator, X: np.ndarray) -> np.ndarray:
    """Rate-form action: sandwich sum minus the anticommutator half, through M's blocks."""
    return _apply_blocks(_superoperator(gen.gamma, rate=True), _check_square(X, gen.n))


def lf_is_ev(gen: LindbladGenerator, tol: float = COND_TOL):
    """Is the rate-form generator diagonal in the basis?

    Returns (flag, violations); violations are triples (j, k, l) of rows
    whose symmetrized rates disagree in column l.
    """
    violations = _violations(_column_triples(gen.n)[2], _column_residuals(gen.gamma), tol)
    return (not violations), violations


def lf_to_ev(gen: LindbladGenerator, tol: float = COND_TOL) -> EigenGenerator:
    """Read off generator eigenvalues from an admissible rate table."""
    _require(lf_is_ev(gen, tol), NotEV, "rate table is not basis-diagonal")
    return EigenGenerator(n=gen.n, eta=_eigenvalue_table(gen.gamma, "lf_to_ev", rate=True)[0])


def ev_is_lf(gen: EigenGenerator, tol: float = COND_TOL):
    """Does the eigenvalue table admit a rate-table realization?

    Three linear condition families on ht_kl := eta_kl + eta_lk (`_lf_residuals`):
      ("tilde01", l)     ht_0l = ht_1l                        for 2 <= l <= n-1
      ("diag", k)        eta_kk follows the fixed recursion   for 2 <= k <= n-2
      ("mixing", k,l,m)  ht_kl - ht_{k-1,l} = ht_km - ht_{k-1,m}
                                                      for 1 <= k < l < m <= n-1
    Their rounding grows with the table, so a condition is violated when it
    misses by more than tol times max(1, the largest |eta_kl|).
    """
    eta = gen.eta
    violations = _violations(_lf_conditions(gen.n)[2], _lf_residuals(eta), tol * _table_scale(eta))
    return (not violations), violations


@lru_cache(maxsize=None)
def _lf_conditions(n: int) -> tuple:
    """`ev_is_lf`'s mixing triples 1 <= k < l < m, run by k, l, m, as flat index pairs of its
    (n-1, n) rise table, and its condition keys in `_lf_residuals` order."""
    i = np.arange(n)
    k, l, m = np.nonzero((i[1:, None, None] < i[:, None]) & (i[:, None] < i))  # [k-1, l, m]
    keys = (*(("tilde01", x) for x in range(2, n)), *(("diag", x) for x in range(2, n - 1)),
            *(("mixing", *v) for v in zip((k + 1).tolist(), l.tolist(), m.tolist())))
    return _read_only(k * n + l), _read_only(k * n + m), keys


def _lf_residuals(eta: np.ndarray) -> np.ndarray:
    """Signed residuals of `ev_is_lf`'s conditions on eta, in `_lf_conditions` key order."""
    ht = eta + eta.T
    j = np.arange(1, eta.shape[0] - 2)
    steps = (j + 1.0) / 2.0 * (
        -(j + 2.0) / j * (ht[j, j + 2] - ht[j + 1, j + 2]) + ht[j - 1, j] - ht[j - 1, j + 1]
    )
    # the recursion's value of eta_kk for k = 2..n-2, summed in order of j
    acc = np.cumsum(np.concatenate([[eta[1, 1]], steps]))[1:]
    rise = np.diff(ht, axis=0).ravel()  # rise[(k-1)*n + l] = ht_kl - ht_{k-1,l}
    a, b, _ = _lf_conditions(eta.shape[0])
    return np.concatenate([ht[0, 2:] - ht[1, 2:], np.diagonal(eta)[2:-1] - acc, rise[a] - rise[b]])


def ev_to_lf(gen: EigenGenerator, tol: float = COND_TOL) -> LindbladGenerator:
    """Solve for the rate table realizing an admissible eigenvalue table.

    The inverse of `lf_to_ev`'s reader on the admissible tables
    (`channels._reverse`). Negative rates are legitimate output (time-local,
    non-Markovian); they are returned as-is. The output is re-checked before
    returning: the rate table's superoperator must equal the eigenvalue table's.
    """
    _require(ev_is_lf(gen, tol), NotLF, "eigenvalue table admits no rate realization")
    result = LindbladGenerator(n=gen.n, gamma=_reverse("rate", gen.eta))
    _verify_images(result.gamma, gen.eta, "ev_to_lf", rate=True)
    return result


def eta_from_lambda(lams: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Generator eigenvalues from sampled channel eigenvalues.

    First axis of `lams` is time. Uses second-order finite differences of
    ln|l| (log space is better conditioned than dl/dt / l near small l);
    works for any fixed sign. A non-finite sample raises InvariantError. A
    component that reaches zero or changes sign on the grid makes the
    generator singular there: ZeroEigenvalue, carrying the first offending
    grid index.
    """
    lams = np.asarray(lams, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise DimensionMismatch("need a 1-d time grid with at least 3 points")
    dx = _steps(grid)
    if lams.shape[0] != grid.size:
        raise DimensionMismatch(
            f"trajectory has {lams.shape[0]} frames for {grid.size} grid points"
        )
    flat = lams.reshape(grid.size, -1)
    size = np.abs(flat)
    # one scan: every sample finite, clear of zero and of the first frame's sign
    if not ((size > ZERO_TOL) & (size < np.inf) & ((flat > 0) == (flat[0] > 0))).all():
        bad = next(b for b in (~np.isfinite(flat), size <= ZERO_TOL,
                               np.sign(flat) != np.sign(flat[0])) if b.any())
        t_idx, comp = (int(x) for x in np.argwhere(bad)[0])
        where = tuple(int(x) for x in np.unravel_index(comp, lams.shape[1:]))
        if not size[t_idx, comp] < np.inf:
            raise InvariantError(f"eigenvalue table contains {int(bad.sum())} non-finite "
                                 f"entries, the first at component {where}, grid index {t_idx}")
        if size[t_idx, comp] <= ZERO_TOL:
            message = f"eigenvalue component {where} vanishes at grid index {t_idx}"
        else:
            message = (f"eigenvalue component {where} changes sign by grid index {t_idx} "
                       "(crossed zero between samples)")
        raise ZeroEigenvalue(message, time_index=t_idx, component=where)
    return _log_gradient(np.log(size), dx).reshape(lams.shape)


def _log_gradient(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """np.gradient(y, grid, axis=0, edge_order=2) for dx = np.diff(grid), bit for bit: numpy's
    own call when every step is exactly equal, else its non-uniform formulas, written out."""
    if (dx == dx[0]).all():
        return np.gradient(y, dx[0], axis=0, edge_order=2)
    out = np.empty_like(y)
    d1, d2 = dx[:-1, None], dx[1:, None]
    mid = out[1:-1]  # accumulated in place, in the formula's order: one temporary at a time
    np.multiply(-d2 / (d1 * (d1 + d2)), y[:-2], out=mid)
    mid += (d2 - d1) / (d1 * d2) * y[1:-1]
    mid += d1 / (d2 * (d1 + d2)) * y[2:]
    d1, d2 = float(dx[0]), float(dx[1])  # edge weights in Python floats: the same IEEE operations
    first = (-(2.0 * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2), -d1 / (d2 * (d1 + d2)))
    d1, d2 = float(dx[-2]), float(dx[-1])
    last = (d2 / (d1 * (d1 + d2)), -(d2 + d1) / (d1 * d2), (2.0 * d2 + d1) / (d2 * (d1 + d2)))
    out[0] = first[0] * y[0] + first[1] * y[1] + first[2] * y[2]
    out[-1] = last[0] * y[-3] + last[1] * y[-2] + last[2] * y[-1]
    return out


def _steps(grid: np.ndarray) -> np.ndarray:
    """The steps of a 1-d time grid whose points must be finite and strictly increasing."""
    if not np.isfinite(grid).all():
        first = int(np.argmin(np.isfinite(grid)))
        raise ConstraintViolated(f"time grid point {first} is not finite: {float(grid[first])!r}")
    dx = grid[1:] - grid[:-1]
    if (dx <= 0).any():
        raise ConstraintViolated("time grid must be strictly increasing")
    return dx


def _check_grid(grid) -> np.ndarray:
    """A time grid as a float array: 1-d, at least 2 points, finite, from t = 0, increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DimensionMismatch("need a 1-d time grid with at least 2 points")
    if grid[0] != 0.0:
        raise ConstraintViolated(f"grid must start at t=0, got {float(grid[0])!r}")
    _steps(grid)
    return grid


def lambda_from_eta(etas: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Channel eigenvalues from sampled generator eigenvalues.

    Trapezoid cumulative integral on the user grid, exponentiated; the first
    frame is exactly 1. The grid must start at t = 0. An integral or an
    eigenvalue that overflows comes back as inf (or NaN), silently; `dynamics`
    rejects such frames.
    """
    etas = np.asarray(etas, dtype=float)
    grid = _check_grid(grid)
    if etas.shape[0] != grid.size:
        raise DimensionMismatch(
            f"trajectory has {etas.shape[0]} frames for {grid.size} grid points")
    return _integrated(etas, grid)


def _integrated(etas: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """`lambda_from_eta` on a checked grid and a stack of etas that matches it."""
    dt = (grid[1:] - grid[:-1]).reshape((-1,) + (1,) * (etas.ndim - 1))
    integral = np.zeros(etas.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(0.5 * (etas[1:] + etas[:-1]) * dt, axis=0, out=integral[1:])
        return np.exp(integral)
