"""Channels diagonal in, or built from, the Gell-Mann basis.

Two representations of the same family of maps on n×n operators:

  KrausChannel  -- weight table p:      X -> sum_ij p_ij sigma_ij X sigma_ij
  EigenChannel  -- eigenvalue table l:  sigma_ij -> l_ij sigma_ij

plus the machinery to test trace preservation (a linear system in the p table
with one free diagonal weight), complete positivity (three independent
routes), and to act on density matrices.

CP checking routes, in decreasing order of authority:

  cp_check_oracle      eigen-spectrum of the Choi matrix, summed from the
                       table's terms
                         kf  J = sum_a p_a vec(sigma_a) vec(sigma_a)†
                         ev  J = sum_a l_a conj(sigma_a) (x) sigma_a / Tr(sigma_a²)
                       (the ev sum with its tensor factors regrouped). Every
                       term lies in the diagonal sector {(k, k)} or in one
                       pair sector {(i, j), (j, i)}, so J is one n×n block
                       plus n(n-1)/2 2×2 blocks, and its spectrum is theirs:
                       O(n³) time and memory, not O(n⁶). Ground truth.
  cp_check_normalized  closed-form block criterion for eigenvalue-form maps:
                       the same blocks of the ev Choi matrix, written with
                       the paper's d_j/tail formulas. Exactly equivalent to
                       the oracle, O(n³). `_block_margins` evaluates it for
                       one table or for a whole trajectory of tables at once.
  cp_check_paper       closed-form block criterion from the unnormalized sum
                       sum_a l_a conj(sigma_a) (x) sigma_a, which equals
                       2J + ((n-2)/n) l_00 I. Exact for n = 2, strictly
                       weaker (necessary, not sufficient) for n >= 3; O(n³).

`choi(apply, n)` assembles J = sum_kl e_kl (x) apply(e_kl) for any linear map
by applying it to every matrix unit and diagonalizes the dense n²×n² result,
O(n⁶). It is the independent route the closed forms are tested against.

A weight or rate table acts through its superoperator M (vec Phi(X) =
M vec X), which is J with its indices regrouped and so has the same blocks,
filled from the same layout (`_superoperator`). `apply_kf` and `apply_lf`
send X's diagonal through the n×n block and each pair (X_ij, X_ji) through
its 2×2 block; every converter checks that the blocks send each sigma_b to
lam_b sigma_b within ORACLE_TOL (`_verify_images`). Both are O(n³).

The private helpers below are the one core that the channel and generator
converters and `dynamics` share. Every index array and weight they use that
depends on n alone is built once per n, in `_kernel_table`: at small n a
call's cost is numpy call overhead, not arithmetic.

What depends on a channel's table but not on a tolerance is computed once per
object, on first use, and kept read-only on it: a KrausChannel's TP residuals,
their max and `kf_is_ev`'s column gaps; an EigenChannel's `_block_margins`,
shared by `cp_check_paper` and `cp_check_normalized`. `tp_residuals` returns
a copy. `cp_check_oracle` memoizes nothing, so it stays an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .basis import decompose, full_basis, recompose, _check_dimension, _check_square
from .errors import (
    ConstraintViolated,
    InvalidChannel,
    InvariantError,
    NegativeCoefficient,
    NonLinearMap,
)

DEFAULT_TOL = 1e-10
# Column-equality and recursion conditions of the converters; defect allowed
# when a converted table is re-checked by applying it to every basis matrix.
COND_TOL = 1e-12
ORACLE_TOL = 1e-11

CP = "CP"
NOT_CP = "NotCP"

METHOD_ORACLE = "choi_oracle"
METHOD_PAPER = "paper_conditions"
METHOD_NORMALIZED = "normalized_conditions"


def _coeff_table(n: int, table, what: str) -> np.ndarray:
    arr = np.array(table, dtype=float)
    if arr.shape != (n, n):
        raise InvariantError(f"{what} table must be {n}x{n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvariantError(f"{what} table contains non-finite entries")
    return _read_only(arr)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class KrausChannel:
    """Weight-table channel X -> sum_ij p_ij sigma_ij X sigma_ij.

    A genuine channel has p_ij >= 0 (each term is then a scaled conjugation,
    so the map is manifestly CP). The constructor tolerates negative entries
    because converters report them rather than reject them; check
    `nonnegative` when it matters. With trace_preserving=True the linear
    trace conditions are enforced at construction.
    """

    n: int
    p: np.ndarray
    trace_preserving: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        object.__setattr__(self, "p", _coeff_table(self.n, self.p, "weight"))
        if self.trace_preserving and self._tp_worst > DEFAULT_TOL:
            raise InvariantError(
                f"flagged trace-preserving but max residual is {self._tp_worst:.3e}")

    def __reduce__(self):
        # copies and unpickled objects go through the constructor: no stale memo
        return type(self), (self.n, self.p, self.trace_preserving)

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.p >= 0.0))

    @cached_property
    def _tp_residuals(self) -> np.ndarray:
        """`tp_residuals` of this channel, read-only."""
        p = self.p
        res = [p[0, 0] - _tp_p00(p)]
        if self.n > 2:
            gap, p22, steps = _tp_solve(p)
            res += [gap, p[2, 2] - p22, *(np.diagonal(p)[3:] - (p[2, 2] + steps))]
        return _read_only(np.array(res))

    @cached_property
    def _tp_worst(self) -> float:
        return float(np.max(np.abs(self._tp_residuals)))

    @cached_property
    def _gaps(self) -> np.ndarray:
        """`_column_gaps` of the weight table, read-only."""
        return _read_only(_column_gaps(self.p))


@dataclass(frozen=True)
class EigenChannel:
    """Eigenvalue-table channel sigma_ij -> lam_ij sigma_ij."""

    n: int
    lam: np.ndarray
    trace_preserving: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        object.__setattr__(self, "lam", _coeff_table(self.n, self.lam, "eigenvalue"))
        if self.trace_preserving and abs(self.lam[0, 0] - 1.0) > DEFAULT_TOL:
            raise InvariantError(
                f"flagged trace-preserving but lam_00 = {self.lam[0, 0]!r}"
            )

    def __reduce__(self):  # as KrausChannel's
        return type(self), (self.n, self.lam, self.trace_preserving)

    @cached_property
    def _blocks(self) -> tuple:
        """`_block_margins` of the eigenvalue table, its arrays read-only."""
        A, a_spectrum, pairs, margin = _block_margins(self.lam)
        return _read_only(A), _read_only(a_spectrum), _read_only(pairs), margin


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix J = sum_kl e_kl (x) map(e_kl), with spectrum diagnostics."""

    n: int
    entries: np.ndarray
    spectrum: np.ndarray
    min_eigenvalue: float
    hermiticity_defect: float


@dataclass(frozen=True)
class DensityMatrix:
    """State: Hermitian, unit trace, positive semidefinite (within tolerance)."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        m = _check_square(self.entries, self.n).copy()
        mh = m.conj().T
        with np.errstate(invalid="ignore"):  # inf - inf
            herm = float(np.max(np.abs(m - mh)))
        if not herm <= 1e-12:  # so does every NaN or inf entry
            if not np.all(np.isfinite(m)):
                raise InvariantError("density matrix contains non-finite entries")
            raise InvariantError(f"not Hermitian: defect {herm:.3e}")
        tr = complex(m.trace())
        if not abs(tr - 1.0) <= 1e-12:
            raise InvariantError(f"trace is {tr!r}, expected 1")
        low = float(np.linalg.eigvalsh((m + mh) / 2.0)[0])
        if not low >= -DEFAULT_TOL:
            raise InvariantError(f"negative eigenvalue {low:.3e}")
        object.__setattr__(self, "entries", _read_only(m))


@dataclass(frozen=True)
class CpReport:
    """Outcome of one complete-positivity check.

    verdict is "CP" or "NotCP"; margin is the smallest slack among the
    conditions the method evaluates (negative = violated); diagnostics holds
    method-specific arrays (per-pair margins, block spectra, Choi spectrum).
    """

    verdict: str
    method: str
    margin: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_cp(self) -> bool:
        return self.verdict == CP


def _verdict(margin: float, tol: float) -> str:
    return CP if margin >= -tol else NOT_CP


@lru_cache(maxsize=None)
def _kernel_table(n: int) -> SimpleNamespace:
    """Every index array and weight of the small-table kernels; they depend on n alone.

    Pairs i < j are row-major; the triples j < k < l of `_column_violations` run
    by l, j, k, as flat indices (l*n + j, l*n + k). `ev_is_lf`'s mixing triples
    1 <= k < l < m run by k, l, m, as flat indices of its (n-1, n) rise table.
    `tp_terms` indexes p + p.T for the two sums of each TP recursion step
    (`_tp_solve`), padded with n*n, an appended zero. `tail_den` floors j(j+1)
    at 1 for j = 0, which no tail uses.
    """
    k = np.arange(n)
    i, j = np.nonzero(k[:, None] < k)
    l, a, b = np.nonzero((k[:, None] < k) & (k[:, None, None] > k))  # [l, j, k]: j < k < l
    mk, ml, mm = np.nonzero((k[1:, None, None] < k[:, None]) & (k[:, None] < k))  # [k-1, l, m]
    step, pos = np.arange(2, n - 1)[:, None], np.arange(n - 2)
    head = pos < step
    plus = np.where(head, pos * n + step, step * n + pos + 2)
    minus = np.where(head, plus + 1, plus + n)
    lo, hi = np.minimum.outer(k, k), np.maximum.outer(k, k)
    table = SimpleNamespace(
        k=k, k1=k + 1.0, frac=k / (k + 1.0), tail_den=np.maximum(k * (k + 1.0), 1.0),
        lo=lo, hi=hi, between=(lo[..., None] < k) & (k < hi[..., None]),
        pairs=(i, j), pair_keys=tuple(zip(i.tolist(), j.tolist())),
        triples=(l * n + a, l * n + b), triple_keys=tuple(zip(a.tolist(), b.tolist(), l.tolist())),
        mixing=(mk * n + ml, mk * n + mm),
        mixing_keys=tuple(("mixing", *v) for v in zip((mk + 1).tolist(), ml.tolist(), mm.tolist())),
        tp_terms=tuple(np.where([head, ~head], x, n * n) for x in (plus, minus)),
        tp_coef=(step[:, 0] + 1.0) / (2.0 * step[:, 0]),
    )
    for arr in (k, table.k1, table.frac, table.tail_den, lo, hi, table.between,
                i, j, *table.triples, *table.mixing, *table.tp_terms, table.tp_coef):
        arr.setflags(write=False)
    return table


def _exceeding(keys: tuple, gaps: np.ndarray, tol: float) -> list:
    """The keys whose gaps exceed tol, in order."""
    return [keys[x] for x in np.flatnonzero(gaps > tol).tolist()]


def _column_gaps(table: np.ndarray) -> np.ndarray:
    """|s_jl - s_kl| of s = t + t.T for every triple j < k < l, in `_kernel_table` order."""
    a, b = _kernel_table(table.shape[0]).triples
    sym = (table + table.T).ravel()  # sym[l*n + j] = t_lj + t_jl
    return np.abs(sym[a] - sym[b])


def _column_violations(table: np.ndarray, tol: float) -> list:
    """Column-equality condition of a diagonal map's table t.

    Within every column l the symmetrized entries t_jl + t_lj must agree for
    all rows j < l. Returns the triples (j, k, l), j < k, whose entries differ
    by more than tol, ordered by l, then j, then k.
    """
    return _exceeding(_kernel_table(table.shape[0]).triple_keys, _column_gaps(table), tol)


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """s_m = sum_{m<j<n} x_j over the last axis; s_{n-1} = 0.

    Each s_m is one reduction over ascending j (np.sum's own), so it rounds
    exactly like np.sum(x[m + 1:]) written inline.
    """
    out = np.zeros(x.shape)
    for m in range(x.shape[-1] - 1):
        out[..., m] = np.add.reduce(x[..., m + 1:], axis=-1)
    return out


def _tail_terms(diag: np.ndarray) -> np.ndarray:
    """d_j / (j(j+1)) for diagonal entries d, over the last axis."""
    return diag / _kernel_table(diag.shape[-1]).tail_den


def _tails(diag: np.ndarray) -> np.ndarray:
    """tail_m = sum_{m<j<n} d_j / (j(j+1)) of diagonal entries d, over the last axis."""
    return _suffix_sums(_tail_terms(diag))


def _offdiag_from_ev(table: np.ndarray, c: float) -> np.ndarray:
    """Off-diagonal weights (or rates) realizing an eigenvalue table.

    Column m's symmetrized entry is c - t_mm/(m+1) + tail_m, with c = 1/n for
    a channel and c = -0.0 (which keeps the sign of a zero) for a generator;
    entry (k, l) adds (t_kl - t_lk)/4. The diagonal is left zero.
    """
    t = _kernel_table(table.shape[0])
    diag = np.diagonal(table)
    col = c - diag / t.k1 + _tails(diag)
    out = 0.5 * col[t.hi] + 0.25 * (table - table.T)
    np.fill_diagonal(out, 0.0)
    return out


def _ev_diagonal(col: np.ndarray, c: float) -> np.ndarray:
    """c - (k+1) col_k - sum_{k<j<n} col_j for k >= 1; c as in _offdiag_from_ev."""
    return c - _kernel_table(col.shape[0]).k1[1:] * col[1:] - _suffix_sums(col)[1:]


def apply_kf(ch: KrausChannel, X: np.ndarray) -> np.ndarray:
    """sum_ij p_ij sigma_ij X sigma_ij, through the blocks of its superoperator."""
    return _apply_blocks(_superoperator(ch.p), _check_square(X, ch.n))


def apply_ev(ch: EigenChannel, X: np.ndarray) -> np.ndarray:
    """Scale each basis coefficient of X by its eigenvalue and recompose."""
    b = full_basis(ch.n)
    return recompose(decompose(X, b) * ch.lam, b)


def _tp_solve(p: np.ndarray):
    """Trace-preservation recursion of a weight table, n >= 3.

    Trace preservation pins every diagonal weight except p_11: one equation
    fixes p_00 (_tp_p00), one constrains the off-diagonals alone, and the rest
    determine p_22.. Returns (gap, p22, steps): that constraint's left-hand
    side, the value of p_22, and p_kk - p_22 for k >= 3. Step j = 2..n-2 adds
    (j + 1)/(2j) times the sum over i < j of pt_ij - pt_i,j+1 plus the sum
    over m > j + 1 of pt_jm - pt_j+1,m, with pt = p + p.T.
    """
    t = _kernel_table(p.shape[0])
    pt = p + p.T
    gap = float(np.add.reduce(pt[1, 2:] - pt[0, 2:]))
    p22 = p[1, 1] + pt[0, 1] - pt[1, 2] + np.add.reduce(pt[0, 3:] - pt[2, 3:])
    plus, minus = t.tp_terms
    flat = np.append(pt, 0.0)
    head, rest = np.add.reduce(flat[plus] - flat[minus], axis=-1)
    return gap, p22, np.add.accumulate(t.tp_coef * (head + rest))


def _tp_p00(p: np.ndarray) -> float:
    """The value trace preservation demands of p_00, given every other weight."""
    tail = np.add.reduce(_tail_terms(p.diagonal())[1:])  # _tails(diagonal)[0] alone
    return 1.0 - np.add.reduce(p[0, 1:] + p[1:, 0]) - 2.0 * tail


def tp_residuals(ch: KrausChannel) -> np.ndarray:
    """Trace-preservation residuals: one entry for n=2, n entries for n>=3.

    Residual = stored weight minus the value the system demands (the
    constraint row is returned as its left-hand side); p_kk for k >= 3 is
    measured against the stored p_22. Each call returns a copy of the memo.
    """
    return ch._tp_residuals.copy()


def complete_tp(offdiag: np.ndarray, p_11: float) -> KrausChannel:
    """Fill in the diagonal weights forced by trace preservation.

    Takes the off-diagonal weights (diagonal entries of the argument are
    ignored) and the one free diagonal weight p_11; computes p_22.. and p_00.
    Raises ConstraintViolated when the off-diagonals break the one equation
    that no diagonal can absorb, NegativeCoefficient when a completed weight
    comes out negative.
    """
    off = np.array(offdiag, dtype=float)
    n = _check_dimension(off.shape[0])
    if off.shape != (n, n):
        raise InvariantError(f"off-diagonal table must be square, got {off.shape}")
    p = off.copy()
    np.fill_diagonal(p, 0.0)
    p[1, 1] = float(p_11)
    if n >= 3:
        gap, p22, steps = _tp_solve(p)
        if abs(gap) > 1e-12:
            raise ConstraintViolated(
                f"off-diagonal weights violate the row-1/row-0 balance by {gap:.3e}"
            )
        p[2, 2] = p22
        k = np.arange(3, n)
        p[k, k] = p[2, 2] + steps
    p[0, 0] = _tp_p00(p)
    for k in [*range(2, n), 0]:
        if p[k, k] < 0:
            raise NegativeCoefficient(f"completed p_{k}{k} = {p[k, k]:.6g} < 0", index=(k, k))
    return KrausChannel(n=n, p=p, trace_preserving=True)


# Linearity probe of `choi`: a defect passes below PROBE_REL times the largest
# probe output, or below PROBE_ABS when every output is small.
PROBE_ABS = 1e-10
PROBE_REL = 1e-12


def choi(apply, n: int) -> ChoiMatrix:
    """Assemble J = sum_kl e_kl (x) apply(e_kl) and diagonalize it.

    `apply` is any function on n×n complex matrices; it is probed for
    linearity first so a silently affine map cannot masquerade as a channel.
    The probe's threshold grows with the size of the outputs, so rounding
    in a linear map on a large table does not fail it.
    """
    n = _check_dimension(n)
    rng = np.random.default_rng(12345)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = 0.7 - 0.3j
    out_a, out_b, out_sum, out_scaled = (apply(X) for X in (A, B, A + B, c * A))
    add_defect = np.max(np.abs(out_sum - out_a - out_b))
    scale_defect = np.max(np.abs(out_scaled - c * out_a))
    size = max(float(np.max(np.abs(out))) for out in (out_a, out_b, out_sum, out_scaled))
    if max(add_defect, scale_defect) > max(PROBE_ABS, PROBE_REL * size):
        raise NonLinearMap(
            f"linearity probe failed: additivity {add_defect:.3e}, "
            f"homogeneity {scale_defect:.3e}"
        )
    J = np.zeros((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            unit[k, l] = 1.0
            J[k * n:(k + 1) * n, l * n:(l + 1) * n] = apply(unit)
            unit[k, l] = 0.0
    defect = float(np.max(np.abs(J - J.conj().T)))
    J = (J + J.conj().T) / 2.0
    return _choi_matrix(n, J, np.linalg.eigvalsh(J), defect)


def _choi_matrix(n: int, J: np.ndarray, spectrum: np.ndarray, defect: float) -> ChoiMatrix:
    """Freeze a symmetrized Choi matrix and its spectrum into a ChoiMatrix."""
    J.setflags(write=False)
    spectrum.setflags(write=False)
    return ChoiMatrix(
        n=n,
        entries=J,
        spectrum=spectrum,
        min_eigenvalue=float(spectrum[0]),
        hermiticity_defect=defect,
    )


@dataclass(frozen=True)
class _ChoiLayout:
    """Where the Choi matrix of a dimension-n table is nonzero, and what fills it.

    J has one n×n block on the diagonal sector {(k, k)} and one 2×2 block on
    each pair sector {(i, j), (j, i)}, i < j, and is zero elsewhere. Its block
    entries are stored flat: the n×n block row-major, then four entries per
    pair block in row-major (i, j) order. `rows`/`cols` give each stored
    entry's position in J and `mirror` the index of its transpose.
    `terms[form]` = (src, dest, coef) is the sparse sum that fills them:
    stored entry dest accumulates coef × table entry src.

    The superoperator M of a weight table t (vec Phi(X) = M vec X, row-major
    vec) is J with its indices regrouped. It is the transposed "ev" sum of
    the table t_a Tr(sigma_a²), with symmetric blocks, stored the same way;
    `diagonal[r]` is the stored index of M[r, r] and `order` lists the vec
    indices sector by sector. Each basis matrix lives in one sector;
    `vectors` holds them as the columns of a matrix V in the same block
    layout (stored entry e is vec(sigma_a)[rows[e]] with a = `members[e]`),
    so Phi sends every sigma_a to lam_a sigma_a exactly when
    M V = V diag(lam[members]).
    """

    rows: np.ndarray
    cols: np.ndarray
    mirror: np.ndarray
    terms: dict
    diagonal: np.ndarray
    order: np.ndarray
    vectors: np.ndarray
    members: np.ndarray
    squares: np.ndarray


@lru_cache(maxsize=None)
def _choi_layout(n: int) -> _ChoiLayout:
    """Block layout of J and M, built from the nonzeros of every basis matrix.

    kf: J[r, c] = sum_a p_a conj(S[a, r]) S[a, c], with S[a, k*n + l] =
    sigma_a[k, l]. ev: J[k*n + i, l*n + j] = sum_a l_a conj(sigma_a[k, l])
    sigma_a[i, j] / Tr(sigma_a²), the same sum with its indices regrouped.
    `squares` holds the diagonals of sigma_a², the row sums of |sigma_a|²,
    which the rate form adds to M's diagonal; as sigma_a lies in one sector,
    sigma_a² is diagonal. Raises InvariantError if a term lands off the
    blocks or is not real, or if the basis matrices do not fill the sectors.
    """
    nn = n * n
    k, l = np.divmod(np.arange(nn), n)
    lo, hi = np.minimum(k, l), np.maximum(k, l)
    # block of each J index (0: diagonal sector, 1 + row-major pair number)
    # and its position inside that block
    block = np.where(k == l, 0, 1 + lo * n - lo * (lo + 1) // 2 + hi - lo - 1)
    pos = np.where(k == l, k, (k > l).astype(int))

    def stored(r, c):
        if np.any(block[r] != block[c]):
            raise InvariantError(f"a basis matrix of dimension {n} straddles two Choi blocks")
        return np.where(block[r] == 0, pos[r] * n + pos[c],
                        nn + 4 * (block[r] - 1) + 2 * pos[r] + pos[c])

    b = full_basis(n)
    S = b.stack.reshape(nn, nn)
    # every ordered pair (r, c) of one basis matrix's nonzeros, row-major per
    # matrix: the term sigma_a contributes to J[r, c]
    owner, nz = np.nonzero(S)
    count = np.bincount(owner, minlength=nn)
    src = np.repeat(np.arange(nn), count * count)
    first = np.cumsum(count) - count
    t = np.arange(src.size) - np.repeat(np.cumsum(count * count) - count * count, count * count)
    r = nz[first[src] + t // count[src]]
    c = nz[first[src] + t % count[src]]
    coef = np.conj(S[src, r]) * S[src, c]
    if np.any(coef.imag != 0.0):
        raise InvariantError(f"the Choi matrix of a dimension-{n} table is not real")
    coef = coef.real
    terms = {
        "kf": (src, stored(r, c), coef),
        "ev": (src, stored(r // n * n + c // n, r % n * n + c % n), coef / b.norms_sq[src]),
    }
    diag = np.arange(n) * (n + 1)
    i, j = _kernel_table(n).pairs
    sector = np.stack([i * n + j, j * n + i], axis=1)
    rows = np.concatenate([np.repeat(diag, n), np.repeat(sector, 2, axis=1).ravel()])
    cols = np.concatenate([np.tile(diag, n), np.tile(sector, 2).ravel()])
    mirror = stored(cols, rows)
    # pair the basis matrices with the vec indices of their sector, in order
    home = block[nz[first]]
    if not np.array_equal(np.bincount(home, minlength=block.max() + 1), np.bincount(block)):
        raise InvariantError(f"the basis matrices of dimension {n} do not fill the Choi blocks")
    member_at = np.empty(nn, dtype=int)
    member_at[np.argsort(block, kind="stable")] = np.argsort(home, kind="stable")
    members = member_at[cols]
    layout = _ChoiLayout(
        rows=rows, cols=cols, mirror=mirror, terms=terms,
        diagonal=stored(np.arange(nn), np.arange(nn)), order=np.append(diag, sector),
        vectors=S[members, rows], members=members,
        squares=np.sum(np.abs(b.stack) ** 2, axis=2),
    )
    for arr in (rows, cols, mirror, *(x for form in terms.values() for x in form),
                layout.diagonal, layout.order, layout.vectors, members, layout.squares):
        arr.setflags(write=False)
    return layout


def _fill(layout: _ChoiLayout, form: str, table: np.ndarray) -> np.ndarray:
    """Stored block entries of `form`'s sparse sum for one table."""
    src, dest, coef = layout.terms[form]
    return np.bincount(dest, weights=coef * table.ravel()[src], minlength=layout.rows.size)


def _superoperator(table: np.ndarray, rate: bool = False) -> np.ndarray:
    """Stored blocks of M for X -> sum_a t_a sigma_a X sigma_a (see `_ChoiLayout`).

    rate=True gives the rate form, that sum minus (S X + X S)/2 with the
    diagonal S = sum_a t_a sigma_a²: (s_i + s_j)/2 comes off M[i*n + j, i*n + j].
    """
    n = table.shape[0]
    layout = _choi_layout(n)
    M = _fill(layout, "ev", table * full_basis(n).norms_sq.reshape(n, n))
    if rate:
        s = table.ravel() @ layout.squares
        M[layout.diagonal] -= ((s[:, None] + s) / 2.0).ravel()
    return M


def _block_product(M: np.ndarray, head: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """M's n×n block times head (n, m), then each 2×2 block times its pairs[q] (2, m), flat."""
    n = head.shape[0]
    return np.concatenate([(M[:n * n].reshape(n, n) @ head).ravel(),
                           (M[n * n:].reshape(-1, 2, 2) @ pairs).ravel()])


def _apply_blocks(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Phi(X) for the map whose superoperator has the stored blocks M.

    X's diagonal goes through the n×n block and each pair (X_ij, X_ji),
    i < j, through its 2×2 block. O(n²) once M is filled.
    """
    n = X.shape[0]
    order = _choi_layout(n).order
    x = X.ravel()[order]
    out = np.empty(n * n, dtype=complex)
    out[order] = _block_product(M, x[:n, None], x[n:].reshape(-1, 2, 1))
    return out.reshape(n, n)


def _basis_images(table: np.ndarray, rate: bool = False) -> np.ndarray:
    """Images M V of the basis matrices under the sandwich (or rate-form) map of `table`.

    Entries are stored as in `_ChoiLayout`: stored entry e is the image of
    basis matrix members[e] at vec index rows[e]; every other entry of the
    image is zero. O(n³).
    """
    n = table.shape[0]
    V = _choi_layout(n).vectors
    return _block_product(_superoperator(table, rate), V[:n * n].reshape(n, n),
                          V[n * n:].reshape(-1, 2, 2))


def _image_defect(table: np.ndarray, lam: np.ndarray, rate: bool = False) -> float:
    """Largest entrywise |Phi(sigma_b) - lam_b sigma_b| over all basis matrices.

    Phi is the sandwich (or, with rate=True, the rate-form) map of `table`;
    the images are read from their sector entries (`_basis_images`).
    """
    layout = _choi_layout(lam.shape[0])
    expected = layout.vectors * lam.ravel()[layout.members]
    return float(np.max(np.abs(_basis_images(table, rate) - expected)))


def _verify_images(table: np.ndarray, lam: np.ndarray, what: str, rate: bool = False) -> None:
    """Demand that the map of `table` sends every sigma_b to lam_b sigma_b (`_image_defect`)."""
    defect = _image_defect(table, lam, rate)
    if defect > ORACLE_TOL:
        raise InvariantError(
            f"{what}: closed-form output fails the application oracle "
            f"(defect {defect:.3e})"
        )


def _choi_blocks(ch):
    """Blocks of a channel's Choi matrix, their spectrum and Hermiticity defect.

    Returns the symmetrized block entries (stored as in `_ChoiLayout`), the
    sorted union of the n×n block's spectrum and the 2×2 blocks' closed-form
    eigenvalues, and the largest entrywise |J - J†| over the blocks (entries
    off the blocks are exactly zero).
    """
    if isinstance(ch, KrausChannel):
        form, table = "kf", ch.p
    elif isinstance(ch, EigenChannel):
        form, table = "ev", ch.lam
    else:
        raise TypeError(f"expected a channel, got {type(ch).__name__}")
    n = ch.n
    layout = _choi_layout(n)
    vals = _fill(layout, form, table)
    mirrored = vals[layout.mirror]
    defect = float(np.abs(vals - mirrored).max())
    vals = (vals + mirrored) / 2.0
    pair = vals[n * n:].reshape(-1, 4)
    mid = (pair[:, 0] + pair[:, 3]) / 2.0
    radius = np.hypot((pair[:, 0] - pair[:, 3]) / 2.0, pair[:, 1])
    block = np.linalg.eigvalsh(vals[:n * n].reshape(n, n))
    return vals, np.sort(np.concatenate([block, mid - radius, mid + radius])), defect


def choi_of_channel(ch) -> ChoiMatrix:
    """Choi matrix of either channel representation, from its table in closed form.

    The blocks come from `_choi_blocks` and are scattered into the dense
    n²×n² `entries`; the spectrum is the union of the block spectra.
    """
    vals, spectrum, defect = _choi_blocks(ch)
    layout = _choi_layout(ch.n)
    J = np.zeros((ch.n ** 2, ch.n ** 2), dtype=complex)
    J[layout.rows, layout.cols] = vals
    return _choi_matrix(ch.n, J, spectrum, defect)


def cp_check_oracle(ch, tol: float = DEFAULT_TOL) -> CpReport:
    """Ground-truth CP check: smallest Choi eigenvalue, read off J's blocks."""
    _, spectrum, defect = _choi_blocks(ch)
    spectrum.setflags(write=False)
    low = float(spectrum[0])
    return CpReport(
        verdict=_verdict(low, tol),
        method=METHOD_ORACLE,
        margin=low,
        diagnostics={
            "spectrum": spectrum,
            "min_eigenvalue": low,
            "hermiticity_defect": defect,
        },
    )


def _block_margins(lams: np.ndarray):
    """Normalized block criterion for one table (n, n) or a stack (..., n, n).

    The ev Choi matrix splits into one n×n diagonal-sector block A and one
    2×2 block per index pair i < j, with eigenvalues d_j ± |l_ij - l_ji|/2.
    Returns A, its spectrum, the pair margins d_j - |l_ij - l_ji|/2 in
    row-major (i, j) order, and the smallest of them all, each carrying the
    leading axes of `lams`.
    """
    n = lams.shape[-1]
    t = _kernel_table(n)
    diag = lams.diagonal(0, -2, -1)
    l00 = diag[..., :1] / n
    tail = _tails(diag)
    A = (lams + lams.swapaxes(-1, -2)) / 2.0
    A[..., t.k, t.k] = l00 + t.frac * diag + tail
    a_spectrum = np.linalg.eigvalsh(A)
    d = l00 - diag / t.k1 + tail
    i, j = t.pairs
    pairs = d[..., j] - np.abs(lams[..., i, j] - lams[..., j, i]) / 2.0
    margin = np.minimum(a_spectrum[..., 0], pairs.min(axis=-1))
    return A, a_spectrum, pairs, margin


def _pair_dict(n: int, pairs: np.ndarray) -> dict:
    return dict(zip(_kernel_table(n).pair_keys, pairs.tolist()))


def cp_check_paper(ch: EigenChannel, tol: float = DEFAULT_TOL) -> CpReport:
    """Closed-form block conditions from the unnormalized eigenvector sum.

    Checks PSD of the n(n-1)/2 two-by-two blocks (margin c_j - |l_ij - l_ji|)
    and of one n×n diagonal-sector matrix A. The underlying sum is
    2J + s I with s = ((n-2)/n) l_00, so each block is twice the normalized
    block shifted by s: exact for n=2, necessary but not sufficient for CP
    for n>=3. Diagnostics: `pair_margins` (dict (i, j) -> margin), the
    n×n matrix `a_matrix` and its spectrum `a_spectrum`.
    """
    if not isinstance(ch, EigenChannel):
        raise TypeError("closed-form CP conditions need the eigenvalue form")
    n = ch.n
    block, spectrum, pairs, _ = ch._blocks
    shift = (n - 2.0) / n * ch.lam[0, 0]
    k = _kernel_table(n).k
    A = 2.0 * block
    A[k, k] += shift
    a_spectrum = 2.0 * spectrum + shift
    pairs = 2.0 * pairs + shift
    margin = min(float(pairs.min()), float(a_spectrum[0]))
    return CpReport(
        verdict=_verdict(margin, tol),
        method=METHOD_PAPER,
        margin=margin,
        diagnostics={
            "pair_margins": _pair_dict(n, pairs),
            "a_matrix": _read_only(A),
            "a_spectrum": _read_only(a_spectrum),
        },
    )


def cp_check_normalized(ch: EigenChannel, tol: float = DEFAULT_TOL) -> CpReport:
    """Closed-form block conditions equivalent to the Choi spectrum test.

    Blocks of sum_a l_a conj(sigma_a)(x)sigma_a / Tr(sigma_a²), i.e. of the
    Choi matrix itself: one n×n diagonal-sector block and one 2×2 block per
    index pair. The union of the block spectra is the Choi spectrum, so the
    verdict must match cp_check_oracle up to eigensolver noise.
    """
    if not isinstance(ch, EigenChannel):
        raise TypeError("closed-form CP conditions need the eigenvalue form")
    A, a_spectrum, pairs, margin = ch._blocks
    margin = float(margin)
    return CpReport(
        verdict=_verdict(margin, tol),
        method=METHOD_NORMALIZED,
        margin=margin,
        diagnostics={
            "pair_margins": _pair_dict(ch.n, pairs),
            "a_block": A,
            "a_spectrum": a_spectrum,
        },
    )


def apply_to_state(ch, rho, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Act on a density matrix; the channel must be TP and CP (by oracle)."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(n=np.asarray(rho).shape[0], entries=rho)
    if isinstance(ch, KrausChannel):
        if ch._tp_worst > tol:
            raise InvalidChannel(f"not trace-preserving: max residual {ch._tp_worst:.3e}")
        out = apply_kf(ch, rho.entries)
    elif isinstance(ch, EigenChannel):
        if abs(ch.lam[0, 0] - 1.0) > tol:
            raise InvalidChannel(f"not trace-preserving: lam_00 = {ch.lam[0, 0]!r}")
        out = apply_ev(ch, rho.entries)
    else:
        raise TypeError(f"expected a channel, got {type(ch).__name__}")
    report = cp_check_oracle(ch, tol)
    if not report.is_cp:
        raise InvalidChannel(f"not completely positive: margin {report.margin:.3e}")
    return DensityMatrix(n=ch.n, entries=out)
