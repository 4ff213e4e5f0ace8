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
sandwich minus (s_i + s_j)/2 on the diagonal (`apply_lf`). The converters
share one private core in `channels` with the channel converters and check
with those blocks that each sigma_b goes to eta_b sigma_b, in O(n³). An
eigenvalue-form generator acts as `apply_ev` on its table.

eta_from_lambda / lambda_from_eta translate between generator eigenvalues
h(t) and channel eigenvalues l(t) per h = d/dt ln l and l = exp(integral h):
second-order finite differences in log space one way, trapezoid quadrature
the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import _check_dimension, _check_square
from .channels import (
    COND_TOL, _apply_blocks, _coeff_table, _column_violations, _ev_diagonal, _exceeding,
    _kernel_table, _offdiag_from_ev, _suffix_sums, _superoperator, _tail_terms, _tails,
    _verify_images,
)
from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    NotEV,
    NotLF,
    ZeroEigenvalue,
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
    violations = _column_violations(gen.gamma, tol)
    return (not violations), violations


def lf_to_ev(
    gen: LindbladGenerator, tol: float = COND_TOL, verify: bool = True
) -> EigenGenerator:
    """Read off generator eigenvalues from an admissible rate table."""
    ok, violations = lf_is_ev(gen, tol)
    if not ok:
        raise NotEV(
            f"rate table is not basis-diagonal ({len(violations)} violations)",
            violations,
        )
    n = gen.n
    g = gen.gamma
    gt = (g + g.T)[0]  # column-common symmetrized rate, index l >= 1
    t = _kernel_table(n)
    k, m, M = t.k, t.lo, t.hi
    d = np.diagonal(g)
    eta = -2.0 * g.T - 0.5 * (
        m * gt[m]
        + (M - 1.0) * gt[M]
        + np.add.reduce(t.between * gt, axis=-1)
        + 2.0 * _suffix_sums(gt)[M]
    )
    eta -= np.add.reduce(t.between * _tail_terms(d), axis=-1)
    eta -= t.frac[m] * d[m]
    eta -= (M + 1.0) / np.maximum(M, 1) * d[M]
    eta[k, k] = 0.0
    eta[k[1:], k[1:]] = _ev_diagonal(gt, -0.0)
    result = EigenGenerator(n=n, eta=eta)
    if verify:
        _verify_images(g, eta, "lf_to_ev", rate=True)
    return result


def ev_is_lf(gen: EigenGenerator, tol: float = COND_TOL):
    """Does the eigenvalue table admit a rate-table realization?

    Three linear condition families on ht_kl := eta_kl + eta_lk:
      ("tilde01", l)     ht_0l = ht_1l                        for 2 <= l <= n-1
      ("diag", k)        eta_kk follows the fixed recursion   for 2 <= k <= n-2
      ("mixing", k,l,m)  ht_kl - ht_{k-1,l} = ht_km - ht_{k-1,m}
                                                      for 1 <= k < l < m <= n-1
    """
    eta = gen.eta
    t = _kernel_table(gen.n)
    ht = eta + eta.T
    bad = np.flatnonzero(np.abs(ht[0, 2:] - ht[1, 2:]) > tol) + 2
    violations = [("tilde01", l) for l in bad.tolist()]
    j = t.k[1:-2]
    steps = (j + 1.0) / 2.0 * (
        -(j + 2.0) / j * (ht[j, j + 2] - ht[j + 1, j + 2]) + ht[j - 1, j] - ht[j - 1, j + 1]
    )
    # the recursion's value of eta_kk for k = 2..n-2, summed in order of j
    acc = np.cumsum(np.concatenate([[eta[1, 1]], steps]))[1:]
    bad = np.flatnonzero(np.abs(np.diagonal(eta)[2:-1] - acc) > tol) + 2
    violations += [("diag", k) for k in bad.tolist()]
    rise = np.diff(ht, axis=0).ravel()  # rise[(k-1)*n + l] = ht_kl - ht_{k-1,l}
    a, b = t.mixing
    violations += _exceeding(t.mixing_keys, np.abs(rise[a] - rise[b]), tol)
    return (not violations), violations


def ev_to_lf(
    gen: EigenGenerator, tol: float = COND_TOL, verify: bool = True
) -> LindbladGenerator:
    """Solve for the rate table realizing an admissible eigenvalue table.

    Negative rates are legitimate output (time-local, non-Markovian); they
    are returned as-is. The closed forms are re-checked on every basis
    matrix before returning.
    """
    ok, violations = ev_is_lf(gen, tol)
    if not ok:
        raise NotLF(
            f"eigenvalue table admits no rate realization "
            f"({len(violations)} violations)",
            violations,
        )
    n = gen.n
    eta = gen.eta
    ht = eta + eta.T
    g = _offdiag_from_ev(eta, -0.0)
    d = np.diagonal(eta)
    k = _kernel_table(n).k[1:]
    g[k, k] = -0.25 * (ht[k - 1, k] - 2.0 * _tails(d)[k] - 2.0 * _tail_terms(d)[k])
    k = k[1:]
    frac = (k - 1.0) / (k + 1.0)
    g[k, k] += 0.25 * frac * (ht[0, k - 1] - ht[0, k] + 2.0 * d[k])
    g[k, k] += frac * d[k - 1] / (2.0 * k)
    result = LindbladGenerator(n=n, gamma=g)
    if verify:
        _verify_images(g, eta, "ev_to_lf", rate=True)
    return result


def eta_from_lambda(lams: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Generator eigenvalues from sampled channel eigenvalues.

    First axis of `lams` is time. Uses second-order finite differences of
    ln|l| (log space is better conditioned than dl/dt / l near small l);
    works for any fixed sign. A component that reaches zero or changes sign
    on the grid makes the generator singular there: ZeroEigenvalue, carrying
    the first offending grid index.
    """
    lams = np.asarray(lams, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise DimensionMismatch("need a 1-d time grid with at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ConstraintViolated("time grid must be strictly increasing")
    if lams.shape[0] != grid.size:
        raise DimensionMismatch(
            f"trajectory has {lams.shape[0]} frames for {grid.size} grid points"
        )
    flat = lams.reshape(grid.size, -1)

    def _where(flat_index):
        return tuple(int(x) for x in np.unravel_index(flat_index, lams.shape[1:]))

    tiny = np.abs(flat) <= ZERO_TOL
    if np.any(tiny):
        t_idx, comp = np.argwhere(tiny)[0]
        where = _where(comp)
        raise ZeroEigenvalue(
            f"eigenvalue component {where} vanishes at grid index {t_idx}",
            time_index=int(t_idx),
            component=where,
        )
    signs = np.sign(flat)
    flipped = signs != signs[0]
    if np.any(flipped):
        t_idx, comp = np.argwhere(flipped)[0]
        where = _where(comp)
        raise ZeroEigenvalue(
            f"eigenvalue component {where} changes sign by grid index {t_idx} "
            "(crossed zero between samples)",
            time_index=int(t_idx),
            component=where,
        )
    return np.gradient(np.log(np.abs(lams)), grid, axis=0, edge_order=2)


def _check_grid(grid) -> np.ndarray:
    """A time grid as a float array: 1-d, at least 2 points, from t = 0, increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DimensionMismatch("need a 1-d time grid with at least 2 points")
    if grid[0] != 0.0:
        raise ConstraintViolated(f"grid must start at t=0, got {grid[0]!r}")
    if np.any(np.diff(grid) <= 0):
        raise ConstraintViolated("time grid must be strictly increasing")
    return grid


def lambda_from_eta(etas: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Channel eigenvalues from sampled generator eigenvalues.

    Trapezoid cumulative integral on the user grid, exponentiated; the first
    frame is exactly 1. The grid must start at t = 0. An eigenvalue that
    overflows comes back as inf, silently; `dynamics` rejects such frames.
    """
    etas = np.asarray(etas, dtype=float)
    grid = _check_grid(grid)
    if etas.shape[0] != grid.size:
        raise DimensionMismatch(
            f"trajectory has {etas.shape[0]} frames for {grid.size} grid points"
        )
    dt = np.diff(grid).reshape((-1,) + (1,) * (etas.ndim - 1))
    steps = 0.5 * (etas[1:] + etas[:-1]) * dt
    integral = np.concatenate(
        [np.zeros((1,) + etas.shape[1:]), np.cumsum(steps, axis=0)], axis=0
    )
    with np.errstate(over="ignore"):
        return np.exp(integral)
