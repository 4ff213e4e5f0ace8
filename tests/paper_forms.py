"""The paper's closed forms for TP, the converters and the block criterion, for the tests only.

The library states trace preservation as sum_a p_a sigma_a² = I, reads a
table's eigenvalues off its superoperator (`channels._gell_mann_diagonal`),
inverts that reader numerically (`channels._reverse`) and reads the block
criterion through one per-n matrix (`channels._psd_blocks`). These are the
recursions and formulas written out entry by entry, the independent route
those are tested against.
"""

import numpy as np

from gmchan.basis import full_basis


def suffix_sums(x):
    """s_m = sum_{m<j<n} x_j of a vector x; s_{n-1} = 0."""
    return np.array([np.sum(x[m + 1:]) for m in range(x.shape[0])])


def tails(diag):
    """tail_m = sum_{m<j<n} d_j / (j(j+1)) of diagonal entries d."""
    n = diag.shape[0]
    return suffix_sums(diag / np.maximum(np.arange(n) * (np.arange(n) + 1.0), 1.0))


def eigenvalue_formula(table, c, rate=False):
    """The eigenvalue table of a basis-diagonal weight table's channel, or rate table's generator.

    Off the diagonal, with M = max(k, l), lam_kl = t_00 + (t_kl - t_lk) - 2 t_MM/(M+1)
    + 2 tail_M, which holds for any table; rate=True subtracts (s_k + s_l)/2, s the
    diagonal of sum_a t_a sigma_a². Entry (k, k), k >= 1, is c - (k+1) col_k -
    sum_{k<j<n} col_j with col_l = t_0l + t_l0, and lam_00 is c: 1 for a channel, 0
    for a generator.
    """
    n = table.shape[0]
    k = np.arange(n)
    hi = np.maximum.outer(k, k)
    diag = np.diagonal(table)
    lam = table[0, 0] + (table - table.T) - (2.0 * diag / (k + 1.0))[hi] + (2.0 * tails(diag))[hi]
    if rate:
        s = table.ravel() @ np.sum(np.abs(full_basis(n).stack) ** 2, axis=2)
        lam -= (s[:, None] + s) / 2.0
    col = table[0] + table[:, 0]
    lam[k, k] = c - (k + 1.0) * col - suffix_sums(col)
    lam[0, 0] = c
    return lam


def sector_blocks(lam):
    """The block criterion of an eigenvalue table, entry by entry: A and the pair margins.

    A_kl = lam_kl/2 + lam_lk/2 off the diagonal and A_kk = lam_00/n + k/(k+1) lam_kk
    + tail_k on it. Pair (i, j), i < j, has margin d_j - |lam_ij/2 - lam_ji/2| with
    d_j = lam_00/n - lam_jj/(j+1) + tail_j. Entries are halved before they are
    summed or differenced, so no finite table overflows. Returns A and a dict of
    the margins in row-major (i, j) order.
    """
    n = lam.shape[0]
    tail = tails(np.diagonal(lam))
    A = np.empty((n, n))
    for k in range(n):
        for l in range(n):
            A[k, l] = lam[k, l] / 2.0 + lam[l, k] / 2.0
        A[k, k] = lam[0, 0] / n + k / (k + 1.0) * lam[k, k] + tail[k]
    margins = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = lam[0, 0] / n - lam[j, j] / (j + 1.0) + tail[j]
            margins[(i, j)] = d - abs(lam[i, j] / 2.0 - lam[j, i] / 2.0)
    return A, margins


def tp_solve(p):
    """Trace-preservation recursion of a weight table, n >= 3.

    Trace preservation pins every diagonal weight except p_11: one equation
    fixes p_00 (`tp_p00`), one constrains the off-diagonals alone, and the rest
    determine p_22.. Returns (gap, p22, steps): that constraint's left-hand
    side, the value of p_22, and p_kk - p_22 for k >= 3. Step j = 2..n-2 adds
    (j + 1)/(2j) times the sum over i < j of pt_ij - pt_i,j+1 plus the sum
    over m > j + 1 of pt_jm - pt_j+1,m, with pt = p + p.T.
    """
    n = p.shape[0]
    pt = p + p.T
    gap = float(np.sum(pt[1, 2:] - pt[0, 2:]))
    p22 = p[1, 1] + pt[0, 1] - pt[1, 2] + np.sum(pt[0, 3:] - pt[2, 3:])
    steps = [(j + 1.0) / (2.0 * j)
             * (np.sum(pt[:j, j] - pt[:j, j + 1]) + np.sum(pt[j, j + 2:] - pt[j + 1, j + 2:]))
             for j in range(2, n - 1)]
    return gap, p22, np.cumsum(steps)


def tp_p00(p, one=1.0):
    """The value preserving a trace of `one` demands of p_00, given every other weight."""
    return one - np.sum(p[0, 1:] + p[1:, 0]) - 2.0 * tails(p.diagonal())[0]


def tp_formula(p, one=1.0):
    """The recursion's TP residuals: one entry at n = 2, n above; one = 0 gives the linear part."""
    res = [p[0, 0] - tp_p00(p, one)]
    if p.shape[0] > 2:
        gap, p22, steps = tp_solve(p)
        res += [gap, p[2, 2] - p22, *(np.diagonal(p)[3:] - (p[2, 2] + steps))]
    return np.array(res)


def offdiag_from_ev(table, c):
    """Off-diagonal weights (or rates) realizing an eigenvalue table; the diagonal is zero.

    Column m's symmetrized entry is c - t_mm/(m+1) + tail_m, with c = 1/n for
    a channel and c = 0 for a generator; entry (k, l) adds (t_kl - t_lk)/4.
    """
    n = table.shape[0]
    diag = np.diagonal(table)
    col = c - diag / (np.arange(n) + 1.0) + tails(diag)
    out = 0.5 * col[np.maximum.outer(np.arange(n), np.arange(n))] + 0.25 * (table - table.T)
    np.fill_diagonal(out, 0.0)
    return out


def ev_to_kf(lam):
    """The weight table of an admissible eigenvalue table, by the paper's closed forms."""
    n = lam.shape[0]
    lt = lam + lam.T
    p = offdiag_from_ev(lam, 1.0 / n)
    s_all = lt[0, 1] + np.sum(lt[0, 1:])
    k = np.arange(1, n)
    p[k, k] = (1.0 - lam[1, 1] + n * lam[k, k] - 0.5 * s_all) / (2.0 * n)
    p[0, 0] = (1.0 + 0.5 * (n - 1.0) * (2.0 * lam[1, 1] + s_all)) / (n * n)
    return p


def ev_to_lf(eta):
    """The rate table of an admissible generator eigenvalue table, by the paper's closed forms."""
    n = eta.shape[0]
    ht = eta + eta.T
    g = offdiag_from_ev(eta, 0.0)
    d = np.diagonal(eta)
    k = np.arange(1, n)
    g[k, k] = -0.25 * (ht[k - 1, k] - 2.0 * tails(d)[k] - 2.0 * d[k] / (k * (k + 1.0)))
    k = k[1:]
    frac = (k - 1.0) / (k + 1.0)
    g[k, k] += 0.25 * frac * (ht[0, k - 1] - ht[0, k] + 2.0 * d[k])
    g[k, k] += frac * d[k - 1] / (2.0 * k)
    return g
