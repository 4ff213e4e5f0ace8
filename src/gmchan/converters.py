"""Conversions between the weight-table and eigenvalue-table channel forms.

A weight-table channel is diagonal in the Gell-Mann basis iff, within every
column l >= 1, the symmetrized weights p~_jl := p_jl + p_lj agree for all
rows j < l. An eigenvalue-table channel admits a weight-table realization iff
the symmetrized eigenvalues satisfy the same column-equality and the diagonal
eigenvalues follow a fixed linear recursion. `kf_to_ev` reads the eigenvalues
off the channel's superoperator M, lam_a = Tr(sigma_a Phi(sigma_a)) / Tr(sigma_a²),
and `ev_to_kf` inverts that reader on the admissible tables
(`channels._reverse_maps`). Both re-verify their output before returning: the
two tables must describe the same map, so their superoperators must be equal.
`channels._verify_images` compares the two superoperators' blocks entrywise, O(n³).

The generator pair is the same algebra (a generator is the derivative of its
channel at t = 0), so both pairs use one private core in `channels`.

Conversion can succeed with negative weights: that means the eigenvalue data
is realizable by this operator sum only with signed coefficients (the map may
even be CP, just not manifestly so in this form). Negative weights are
reported, not rejected; check `KrausChannel.nonnegative`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channels import (
    COND_TOL, DEFAULT_TOL, EigenChannel, KrausChannel, _column_residuals, _column_triples,
    _eigenvalue_table, _require, _reverse, _table_scale, _verify_images, _violations,
)
from .errors import NotEV, NotKF, NotTracePreserving


def kf_is_ev(ch: KrausChannel, tol: float = COND_TOL):
    """Is the weight-table channel diagonal in the basis?

    Returns (flag, violations); each violation is a triple (j, k, l) of two rows j < k
    whose symmetrized weights disagree in column l (`_column_residuals`, kept on the channel).
    """
    if ch._tp_worst > DEFAULT_TOL:
        raise NotTracePreserving(f"max trace residual {ch._tp_worst:.3e} exceeds {DEFAULT_TOL:g}")
    violations = _violations(_column_triples(ch.n)[2], ch._residuals, tol)
    return (not violations), violations


def kf_to_ev(ch: KrausChannel, tol: float = COND_TOL) -> EigenChannel:
    """Read off the eigenvalue table of a basis-diagonal weight channel.

    In the paper's closed form, diagonal eigenvalues come from the column-common
    symmetrized weights, off-diagonal ones from trace-orthogonality of the
    sandwich terms, which holds unconditionally: with M = max(k, l),

        lam_kl = p_00 + (p_kl - p_lk) - 2 p_MM/(M+1)
                 + sum_{M<j<n} 2 p_jj/(j(j+1)).
    """
    _require(kf_is_ev(ch, tol), NotEV, "weight table is not basis-diagonal")
    return EigenChannel._of(ch.n, *_eigenvalue_table(ch.p, "kf_to_ev", J=ch._choi_values))


def ev_is_kf(ch: EigenChannel, tol: float = COND_TOL):
    """Does the eigenvalue table admit a weight-table realization?

    Two condition families, both linear (`_kf_residuals`): (a) column-equality
    of the symmetrized eigenvalues, violations tagged ("tilde", j, k, l); (b)
    the diagonal recursion lam_kk = lam_11 + (lt_1 + sum_{0<j<k} lt_j - k lt_k)/2
    with lt_j := lam_0j + lam_j0, violations tagged ("diag", k).
    """
    if abs(ch.lam[0, 0] - 1.0) > DEFAULT_TOL:
        raise NotTracePreserving(f"lam_00 = {ch.lam[0, 0]!r}, expected 1")
    violations = _violations(_kf_keys(ch.n), _kf_residuals(ch.lam), tol)
    return (not violations), violations


@lru_cache(maxsize=None)
def _kf_keys(n: int) -> tuple:
    """`ev_is_kf`'s keys in `_kf_residuals` order: the column triples tagged ("tilde", j, k, l),
    then ("diag", k)."""
    tilde = tuple(("tilde", *v) for v in _column_triples(n)[2])
    return tilde + tuple(("diag", k) for k in range(2, n))


def _kf_residuals(lam: np.ndarray) -> np.ndarray:
    """Signed residuals of `ev_is_kf`'s conditions on lam, columns then diagonal, in key order."""
    lt = lam[0] + lam[:, 0]
    k = np.arange(2, lam.shape[0])
    target = lam[1, 1] + 0.5 * (lt[1] + np.cumsum(lt[1:-1]) - k * lt[k])
    return np.concatenate([_column_residuals(lam), lam[k, k] - target])


def ev_to_kf(ch: EigenChannel, tol: float = COND_TOL) -> KrausChannel:
    """Solve for the weight table realizing an admissible eigenvalue table.

    The inverse of `kf_to_ev`'s reader on the admissible tables
    (`channels._reverse`): the off-diagonal weights follow from the column
    values and p_kl - p_lk = (lam_kl - lam_lk)/2, and the diagonal is the one
    that trace preservation forces. A weight within COND_TOL times the table's
    scale of zero, which the check cannot tell from zero, is returned as +0.0.
    Negative weights are possible and are returned as-is.
    """
    _require(ev_is_kf(ch, tol), NotKF, "eigenvalue table admits no weight realization")
    p = _reverse("ev", ch.lam)
    p[np.abs(p) <= COND_TOL * _table_scale(ch.lam)] = 0.0
    _verify_images(p, ch.lam, "ev_to_kf")
    return KrausChannel(n=ch.n, p=p, trace_preserving=True)
