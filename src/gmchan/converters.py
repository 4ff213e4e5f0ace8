"""Conversions between the weight-table and eigenvalue-table channel forms.

A weight-table channel is diagonal in the Gell-Mann basis iff, within every
column l >= 1, the symmetrized weights p~_jl := p_jl + p_lj agree for all
rows j < l. An eigenvalue-table channel admits a weight-table realization iff
the symmetrized eigenvalues satisfy the same column-equality and the diagonal
eigenvalues follow a fixed linear recursion. Both converters re-verify their
closed-form output before returning: the weight-table map must send every
basis matrix sigma_b to lam_b sigma_b, entrywise. `channels._verify_images`
checks that through the blocks of the map's superoperator, O(n³).

The generator pair is the same algebra (a generator is the derivative of its
channel at t = 0), so both pairs use one private core in `channels`.

Conversion can succeed with negative weights: that means the eigenvalue data
is realizable by this operator sum only with signed coefficients (the map may
even be CP, just not manifestly so in this form). Negative weights are
reported, not rejected; check `KrausChannel.nonnegative`.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    COND_TOL, DEFAULT_TOL, EigenChannel, KrausChannel, _column_violations, _ev_diagonal,
    _exceeding, _kernel_table, _offdiag_from_ev, _tails, _verify_images,
)
from .errors import NotEV, NotKF, NotTracePreserving


def kf_is_ev(ch: KrausChannel, tol: float = COND_TOL):
    """Is the weight-table channel diagonal in the basis?

    Returns (flag, violations); each violation is a triple (j, k, l) of two
    rows j < k whose symmetrized weights disagree in column l.
    """
    if ch._tp_worst > DEFAULT_TOL:
        raise NotTracePreserving(f"max trace residual {ch._tp_worst:.3e} exceeds 1e-10")
    violations = _exceeding(_kernel_table(ch.n).triple_keys, ch._gaps, tol)
    return (not violations), violations


def kf_to_ev(
    ch: KrausChannel, tol: float = COND_TOL, verify: bool = True
) -> EigenChannel:
    """Read off the eigenvalue table of a basis-diagonal weight channel.

    Diagonal eigenvalues come from the column-common symmetrized weights;
    off-diagonal ones from trace-orthogonality of the sandwich terms, which
    holds unconditionally: with M = max(k, l),

        lam_kl = p_00 + (p_kl - p_lk) - 2 p_MM/(M+1)
                 + sum_{M<j<n} 2 p_jj/(j(j+1)).
    """
    ok, violations = kf_is_ev(ch, tol)
    if not ok:
        raise NotEV(
            f"weight table is not basis-diagonal ({len(violations)} violations)",
            violations,
        )
    n = ch.n
    p = ch.p
    t = _kernel_table(n)
    diag = np.diagonal(p)
    lam = p[0, 0] + (p - p.T) - (2.0 * diag / t.k1)[t.hi] + (2.0 * _tails(diag))[t.hi]
    lam[0, 0] = 1.0
    # the column-common symmetrized weights p~_0l, l >= 1
    lam[t.k[1:], t.k[1:]] = _ev_diagonal((p + p.T)[0], 1.0)
    if verify:
        _verify_images(p, lam, "kf_to_ev")
    return EigenChannel(n=n, lam=lam, trace_preserving=True)


def ev_is_kf(ch: EigenChannel, tol: float = COND_TOL):
    """Does the eigenvalue table admit a weight-table realization?

    Two condition families, both linear: (a) column-equality of the
    symmetrized eigenvalues, violations tagged ("tilde", j, k, l); (b) the
    diagonal recursion lam_kk = lam_11 + (lt_1 + sum_{0<j<k} lt_j - k lt_k)/2
    with lt_j := lam_0j + lam_j0, violations tagged ("diag", k).
    """
    if abs(ch.lam[0, 0] - 1.0) > DEFAULT_TOL:
        raise NotTracePreserving(f"lam_00 = {ch.lam[0, 0]!r}, expected 1")
    lam = ch.lam
    lt = lam + lam.T
    violations = [("tilde",) + v for v in _column_violations(lam, tol)]
    rows = _kernel_table(ch.n).k[2:]
    target = lam[1, 1] + 0.5 * (lt[0, 1] + np.cumsum(lt[0, 1:-1]) - rows * lt[0, rows])
    bad = rows[np.abs(lam[rows, rows] - target) > tol]
    violations += [("diag", k) for k in bad.tolist()]
    return (not violations), violations


def ev_to_kf(
    ch: EigenChannel, tol: float = COND_TOL, verify: bool = True
) -> KrausChannel:
    """Solve for the weight table realizing an admissible eigenvalue table.

    p~_m = 1/n - lam_mm/(m+1) + sum_{m<j<n} lam_jj/(j(j+1)) gives the
    symmetrized off-diagonal weights; the antisymmetric split is fixed by
    p_kl - p_lk = (lam_kl - lam_lk)/2. Negative weights are possible and are
    returned as-is.
    """
    ok, violations = ev_is_kf(ch, tol)
    if not ok:
        raise NotKF(
            f"eigenvalue table admits no weight realization "
            f"({len(violations)} violations)",
            violations,
        )
    n = ch.n
    lam = ch.lam
    lt = lam + lam.T
    p = _offdiag_from_ev(lam, 1.0 / n)
    s_all = lt[0, 1] + float(np.sum(lt[0, 1:]))
    k = _kernel_table(n).k[1:]
    p[k, k] = (1.0 - lam[1, 1] + n * lam[k, k] - 0.5 * s_all) / (2.0 * n)
    p[0, 0] = (1.0 + 0.5 * (n - 1.0) * (2.0 * lam[1, 1] + s_all)) / (n * n)
    if verify:
        _verify_images(p, lam, "ev_to_kf")
    return KrausChannel(n=n, p=p, trace_preserving=True)
