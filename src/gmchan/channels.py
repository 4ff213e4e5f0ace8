"""Channels diagonal in, or built from, the Gell-Mann basis.

Two representations of the same family of maps on n×n operators:

  KrausChannel  -- weight table p:      X -> sum_ij p_ij sigma_ij X sigma_ij
  EigenChannel  -- eigenvalue table l:  sigma_ij -> l_ij sigma_ij

plus the machinery to test trace preservation (sum_a p_a sigma_a² = I, one
equation per diagonal entry, as every sigma_a² is diagonal), complete
positivity (three independent routes), and to act on density matrices.

CP checking routes, in decreasing order of authority:

  cp_check_oracle      eigen-spectrum of the Choi matrix J, the union of
                       its blocks' spectra (below): O(n³) time and memory,
                       not O(n⁶). Ground truth.
  cp_check_normalized  closed-form block criterion for eigenvalue-form maps:
                       the same blocks of the ev Choi matrix, written with
                       the paper's d_j/tail formulas. Exactly equivalent to
                       the oracle, O(n³) (`_block_margins`, one table).
                       `_is_cp` keeps the verdicts alone, of a stack of
                       tables (see dynamics).
  cp_check_paper       closed-form block criterion from the unnormalized sum
                       sum_a l_a conj(sigma_a) (x) sigma_a, which equals
                       2J + ((n-2)/n) l_00 I. Exact for n = 2, strictly
                       weaker (necessary, not sufficient) for n >= 3; O(n³).

`choi(apply, n)` assembles J = sum_kl e_kl (x) apply(e_kl) for any linear map
by applying it to every matrix unit and diagonalizes the dense n²×n² result,
O(n⁶). It is the independent route the closed forms are tested against.

J and the superoperator M (vec Phi(X) = M vec X, row-major vec) are one
array read two ways: J[k*n + i, l*n + j] = M[k*n + l, i*n + j] (M is
symmetric here). One sparse sum (`_fill`) gives J of a weight table p,
sum_a p_a vec(sigma_a) vec(sigma_a)†, and M of an eigenvalue table lam, the
sum of lam_a / Tr(sigma_a²); that realignment gives the other two. Each
sigma_a lies in the diagonal sector {(k, k)} or in one pair sector
{(i, j), (j, i)}, so both are one n×n block plus n(n-1)/2 2×2 blocks, stored
flat, and the realignment permutes the stored entries (`_ChoiLayout`, read off
the basis's nonzeros, as `decompose` and `recompose` are: no library path builds
the dense basis stack). The realignment is an involution, so lam's sum lands
in J's stored order when each term goes to its realigned destination
(`_eigen_choi`), and everything below reads J in that order with no gather:
the oracle's blocks, the converters' checks and the eigenvalue readers.
`apply_kf` and `apply_lf` send X's diagonal through M's n×n block and each
pair (X_ij, X_ji) through its 2×2 block (`_superoperator`, `_apply_blocks`),
O(n³); `apply_ev`, `apply_to_state` and `evolve_state` scale X's basis
coefficients c and recompose(lam ∘ c) (a state's: `_eigen_action`), O(n²).
Two tables give the same map exactly when their J are equal, so every
converter checks its output by comparing the two tables' blocks
(`_choi_entries`, `_eigen_choi`), within ORACLE_TOL times the largest entry
of either table, if above 1 (`_verify_images`), O(n³). `kf_to_ev` and
`lf_to_ev` read lam off the J they check, as its Gell-Mann diagonal
Tr(sigma_a Phi(sigma_a)) / Tr(sigma_a²), one sparse sum (`_gell_mann_diagonal`).

The private helpers below are the one core that the channel and generator
converters and `dynamics` share. At small n a call's cost is numpy call
overhead, not arithmetic, so what depends on n alone is built once per n:
index arrays and weights, among them the block criterion's rows, one matvec
from diag(lam) to A's diagonal and every d_j (`_kernel_table`), and the
readers' inverses on the admissible tables (`_reverse_maps`, 2n × n² each).
Each admissibility check owns its conditions' indices and keys, cached by its
first call at n, and passes signed residuals through one threshold (`_violations`).

What depends on an object's table or entries but not on a tolerance is
computed once per object, on first use, and kept read-only on it: a
KrausChannel's TP residuals, their max and `kf_is_ev`'s column residuals; each
channel's stored Choi entries (`_choi_values`), which `cp_check_oracle` and
`choi_of_channel` read and `kf_to_ev` reads lam off, handing the fill of lam it
verified against to the EigenChannel it returns, so a weight table and its lam
are each filled once; an EigenChannel's `_block_margins`, shared by
`cp_check_paper` and `cp_check_normalized`; a DensityMatrix's basis
coefficients (`_coefficients`); a CpReport's `diagnostics`, which the three
checks, deciding from scalars, leave to a builder they pass in. `tp_residuals`
returns a copy. The oracle reads only the Choi entries of the channel's own
table, so it stays an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .basis import (decompose, full_basis, recompose, _check_dimension, _check_square, _memo,
                    _read_only)
from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    InvalidChannel,
    InvariantError,
    NegativeCoefficient,
    NonLinearMap,
)

DEFAULT_TOL = 1e-10
# Column-equality and recursion conditions of the converters; defect allowed,
# per unit of table scale, when a converted table is re-checked by applying it
# to every basis matrix.
COND_TOL = 1e-12
ORACLE_TOL = 1e-11

CP = "CP"
NOT_CP = "NotCP"

METHOD_ORACLE = "choi_oracle"
METHOD_PAPER = "paper_conditions"
METHOD_NORMALIZED = "normalized_conditions"
_OVERFLOW = "the Choi blocks of this table overflow the float range"


def _coeff_table(n: int, table, what: str) -> np.ndarray:
    arr = np.array(table, dtype=float)
    if arr.shape != (n, n):
        raise InvariantError(f"{what} table must be {n}x{n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvariantError(f"{what} table contains non-finite entries")
    return _read_only(arr)


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

    @_memo
    def _tp_residuals(self) -> np.ndarray:
        """`tp_residuals` of this channel, read-only."""
        return _read_only(_square_sums(self.p) - 1.0)

    @_memo
    def _tp_worst(self) -> float:
        return float(np.abs(self._tp_residuals).max())

    @_memo
    def _residuals(self) -> np.ndarray:
        """`_column_residuals` of the weight table, read-only."""
        return _read_only(_column_residuals(self.p))

    @_memo
    def _choi_values(self) -> np.ndarray:
        """The stored entries of the Choi matrix J (`_choi_entries`), read-only."""
        return _read_only(_choi_entries(self.p))


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

    @classmethod
    def _of(cls, n, lam, choi_values):
        """The trace-preserving channel of lam, keeping `choi_values`, lam's `_eigen_choi`, as its
        `_choi_values`."""
        ch = cls(n=n, lam=lam, trace_preserving=True)
        ch.__dict__["_choi_values"] = _read_only(choi_values)
        return ch

    @_memo
    def _choi_values(self) -> np.ndarray:
        """The stored entries of the Choi matrix J (`_eigen_choi`), read-only."""
        return _read_only(_eigen_choi(self.lam))

    @_memo
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
        if not np.isfinite(m).all():
            raise InvariantError("density matrix contains non-finite entries")
        mh = m.conj().T
        herm = float(abs(m - mh).max())
        if not herm <= 1e-12:
            raise InvariantError(f"not Hermitian: defect {herm:.3e}")
        tr = complex(m.trace())
        if not abs(tr - 1.0) <= 1e-12:
            raise InvariantError(f"trace is {tr!r}, expected 1")
        low = float(np.linalg.eigvalsh((m + mh) / 2.0)[0])
        if not low >= -DEFAULT_TOL:
            raise InvariantError(f"negative eigenvalue {low:.3e}")
        object.__setattr__(self, "entries", _read_only(m))

    def __reduce__(self):  # as KrausChannel's, keeping the coefficients: a loaded state's own
        return type(self)._of, (self.n, self.entries, self._coefficients)

    @classmethod
    def _of(cls, n, entries, coefficients):
        """The state with these entries, keeping a copy of `coefficients` as its `_coefficients`."""
        rho = cls(n=n, entries=entries)
        rho.__dict__["_coefficients"] = _read_only(np.array(coefficients, dtype=complex))
        return rho

    @_memo
    def _coefficients(self) -> np.ndarray:
        """`decompose` of the entries, read-only."""
        return _read_only(decompose(self.entries, full_basis(self.n)))


@dataclass(frozen=True)
class CpReport:
    """Outcome of one complete-positivity check, compared and hashed by (verdict, method, margin).

    verdict is "CP" or "NotCP"; margin is the smallest slack among the
    conditions the method evaluates (negative = violated). `diagnostics` holds
    method-specific values (per-pair margins, block spectra, Choi spectrum),
    arrays read-only: `build()` makes them on first read, kept on the report.
    """

    verdict: str
    method: str
    margin: float
    build: object = field(default=dict, compare=False, repr=False)

    def __reduce__(self):  # as KrausChannel's
        return type(self), (self.verdict, self.method, self.margin, self.build)

    @_memo
    def diagnostics(self) -> dict:
        return self.build()

    @property
    def is_cp(self) -> bool:
        return self.verdict == CP


def _verdict(margin: float, tol: float) -> str:
    return CP if margin >= -tol else NOT_CP


@lru_cache(maxsize=None)
def _kernel_table(n: int) -> SimpleNamespace:
    """Every index array and weight of the small-table kernels but the admissibility checks'.

    Pairs i < j are row-major. diag(lam) @ `block_rows` is the block criterion's
    A_kk = lam_00/n + k/(k+1) lam_kk + tail_k, then d_j = lam_00/n - lam_jj/(j+1) + tail_j,
    tail_m = sum_{m<j<n} lam_jj/(j(j+1)); `block_diag`, `pair_flat` (rows (i, j), (j, i)) and
    `pair_d` index them flat.
    """
    k = np.arange(n)
    i, j = np.nonzero(k[:, None] < k)
    hi = np.maximum.outer(k, k)
    k1 = k + 1.0
    tail = np.where(k[:, None] > k, 1.0 / np.maximum(k * k1, 1.0)[:, None], 0.0)  # lam_jj in tail_m
    rows = np.hstack([tail + np.diag(k / k1), tail - np.diag(1.0 / k1)]) + (k[:, None] == 0) / n
    table = SimpleNamespace(
        k=k, hi=hi, block_rows=rows, block_diag=k * (n + 1),
        pairs=(i, j), pair_flat=np.stack([i * n + j, j * n + i]), pair_d=n + j,
        pair_keys=tuple(zip(i.tolist(), j.tolist())),
    )
    for arr in (k, hi, rows, table.block_diag, i, j, table.pair_flat, table.pair_d):
        arr.setflags(write=False)
    return table


def _violations(keys: tuple, residuals: np.ndarray, tol: float) -> list:
    """The keys of the conditions whose signed residuals exceed tol in size, in key order."""
    return [keys[x] for x in (np.abs(residuals) > tol).nonzero()[0].tolist()]  # residuals: 1-d


def _require(checked: tuple, error, what: str) -> None:
    """Raise `error` with the violations of a failed admissibility check, counted after `what`."""
    ok, violations = checked
    if not ok:
        raise error(f"{what} ({len(violations)} violations)", violations)


@lru_cache(maxsize=None)
def _column_triples(n: int) -> tuple:
    """The column-equality conditions' flat index pairs (l*n + j, l*n + k) and keys (j, k, l),
    j < k < l, ordered by l, then j, then k; built by the first check at n."""
    k = np.arange(n)
    l, a, b = np.nonzero((k[:, None] < k) & (k[:, None, None] > k))  # [l, j, k]: j < k < l
    return (_read_only(l * n + a), _read_only(l * n + b),
            tuple(zip(a.tolist(), b.tolist(), l.tolist())))


def _column_residuals(table: np.ndarray) -> np.ndarray:
    """s_jl - s_kl of s = t + t.T for every triple (j, k, l) of `_column_triples`: within every
    column l of a diagonal map's table t, s_jl must agree for all rows j < l."""
    a, b, _ = _column_triples(table.shape[0])
    sym = (table + table.T).ravel()  # sym[l*n + j] = t_lj + t_jl
    return sym[a] - sym[b]


def _eigenvalue_table(table: np.ndarray, what: str, rate: bool = False, J=None) -> tuple:
    """The eigenvalue table lam of a weight table's channel (or, with rate=True, a rate table's
    generator), read off its Choi entries J (`_gell_mann_diagonal`), filled unless passed, and
    verified on that J; returned with the Choi entries of lam's map (`_verify_images`)."""
    J = _choi_entries(table, rate) if J is None else J
    lam = _gell_mann_diagonal(J, table.shape[0], 0.0 if rate else 1.0)
    return lam, _verify_images(table, lam, what, rate, J)


def apply_kf(ch: KrausChannel, X: np.ndarray) -> np.ndarray:
    """sum_ij p_ij sigma_ij X sigma_ij, through the blocks of its superoperator."""
    return _apply_blocks(_superoperator(ch.p), _check_square(X, ch.n))


def apply_ev(ch: EigenChannel, X: np.ndarray) -> np.ndarray:
    """Scale X's basis coefficients by their eigenvalues: recompose(lam ∘ decompose(X))."""
    basis = full_basis(ch.n)
    return recompose(ch.lam * decompose(X, basis), basis)


def _eigen_action(lam: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """recompose(lam ∘ c): lam's eigenvalue map on the state rho, c its basis coefficients."""
    n = lam.shape[0]
    if rho.n != n:
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got shape {rho.entries.shape}")
    return recompose(lam * rho._coefficients, full_basis(n))


@lru_cache(maxsize=None)
def _reverse_maps(n: int) -> dict:
    """Each eigenvalue reader, "ev" (`kf_to_ev`'s) and "rate" (`lf_to_ev`'s), inverted on its
    admissible tables, read-only (rows, const).

    An admissible table t is fixed by its column values v_l, the t_kl + t_lk
    common to the rows k < l of column l, its diagonal and its antisymmetric
    part, which a reader passes on doubled: lam_kl - lam_lk = 2 (t_kl - t_lk).
    `rows` is the pseudo-inverse of the reader's linear part on the unknowns
    u = (v_0, .., v_n-1, t_00, .., t_n-1,n-1), read off the 2n unit tables of u,
    with a channel's trace preservation, sum_a p_a sigma_a² = I, stacked below
    it. The antisymmetric part of lam is orthogonal to that part's range, so
    it drops out, and an unknown that no equation reads, v_0 or a generator's
    inert (0, 0) rate, is 0. u = u0 + rows @ vec(lam - lam0), with u0 the identity
    channel's or the zero generator's: const = u0 - rows @ vec(lam0), exact when lam = lam0.
    """
    units = _from_unknowns(np.eye(2 * n))
    maps = {}
    for key, rate, c in (("ev", False, 1.0), ("rate", True, 0.0)):
        def read(u, lam_00):  # the reader on the table of unknowns u, flat
            return _gell_mann_diagonal(_choi_entries(_from_unknowns(u), rate), n, lam_00).ravel()
        A, u0 = np.stack([read(u, 0.0) for u in np.eye(2 * n)], axis=1), np.zeros(2 * n)
        if not rate:
            A, u0[n] = np.vstack([A, (units.reshape(2 * n, -1) @ _choi_layout(n).squares).T]), 1.0
        seen = np.flatnonzero(A.any(axis=0))
        rows = np.zeros((2 * n, n * n))
        rows[seen] = np.linalg.pinv(A[:, seen])[:, :n * n]
        maps[key] = _read_only(rows), _read_only(u0 - rows @ read(u0, c))
    return maps


def _from_unknowns(u: np.ndarray, anti=0.0) -> np.ndarray:
    """The table (or stack) with column values u[:n], diagonal u[n:] and antisymmetric part anti."""
    t = _kernel_table(u.shape[-1] // 2)
    out = 0.5 * u[..., t.hi] + anti
    out[..., t.k, t.k] = u[..., t.k.size:]
    return out


def _reverse(key, lam: np.ndarray) -> np.ndarray:
    """The table that reader `key` of `_reverse_maps` maps to the admissible table lam."""
    rows, const = _reverse_maps(lam.shape[0])[key]
    return _from_unknowns(const + rows @ lam.ravel(), 0.25 * (lam - lam.T))


def tp_residuals(ch: KrausChannel) -> np.ndarray:
    """Trace-preservation residuals: the diagonal of sum_a p_a sigma_a² - I.

    The map is trace-preserving iff sum_a p_a sigma_a² = I, and each sigma_a²
    is diagonal, so there is one residual per row, n in all; at n = 2 every
    sigma_a² is I and both read sum p - 1. Each call returns a copy of the memo.
    """
    return ch._tp_residuals.copy()


def complete_tp(offdiag: np.ndarray, p_11: float) -> KrausChannel:
    """Fill in the diagonal weights forced by trace preservation.

    Takes the off-diagonal weights (diagonal entries of the argument are
    ignored) and the one free diagonal weight p_11, and solves rows 1..n-1 of
    sum_a p_a sigma_a² = I for p_00, p_22, ... Every diagonal sigma_kk² has
    equal entries in rows 0 and 1, so no diagonal weight can absorb a gap
    between those rows' square sums. Raises ConstraintViolated when the
    off-diagonals leave such a gap, NegativeCoefficient when a completed weight
    comes out negative, InvariantError when the argument is not a square table.
    """
    off = np.array(offdiag, dtype=float)
    if off.ndim != 2 or off.shape[0] != off.shape[1]:
        raise InvariantError(f"off-diagonal table must be square, got {off.shape}")
    n = _check_dimension(off.shape[0])
    p = off.copy()
    np.fill_diagonal(p, 0.0)
    p[1, 1] = float(p_11)
    s = _square_sums(p)
    if abs(s[1] - s[0]) > 1e-12:
        raise ConstraintViolated(
            f"off-diagonal weights violate the row-1/row-0 balance by {s[1] - s[0]:.3e}"
        )
    k = np.delete(_kernel_table(n).k, 1)
    p[k, k] = np.linalg.solve(_choi_layout(n).squares[k * (n + 1), 1:].T, 1.0 - s[1:])
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
    out_a, out_b, out_sum, out_scaled = outs = [apply(X) for X in (A, B, A + B, c * A)]
    if not all(np.isfinite(out).all() for out in outs):
        # NaN fails every comparison below, so it would pass them
        raise InvariantError("linearity probe: the map returned non-finite entries")
    add_defect = np.max(np.abs(out_sum - out_a - out_b))
    scale_defect = np.max(np.abs(out_scaled - c * out_a))
    size = max(float(np.max(np.abs(out))) for out in outs)
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
    spectrum = _read_only(np.linalg.eigvalsh(J))
    return ChoiMatrix(n, _read_only(J), spectrum, float(spectrum[0]), defect)


@dataclass(frozen=True)
class _ChoiLayout:
    """Where the Choi matrix of a dimension-n table is nonzero, and what fills it.

    J has one n×n block on the diagonal sector {(k, k)} and one 2×2 block on
    each pair sector {(i, j), (j, i)}, i < j, and is zero elsewhere. Its block
    entries are stored flat: the n×n block row-major, then four entries per
    pair block in row-major (i, j) order. `rows`/`cols` give each stored
    entry's position in J and `mirror` the index of its transpose. `terms` =
    (src, dest, coef) is the sparse sum of `_fill`: stored entry dest
    accumulates coef × table entry src. `realign[s]` is the stored index of
    entry s's realigned position (see the module docstring), an involution,
    and `ev_dest` = realign[dest] lands an eigenvalue table's sum in J's order.

    M is stored the same way; `order` lists its vec indices sector by sector
    and `norms` holds Tr(sigma_a²) as an n×n table. Two tables describe the
    same map exactly when their M are equal, or their J.
    """

    rows: np.ndarray
    cols: np.ndarray
    mirror: np.ndarray
    terms: tuple
    realign: np.ndarray
    ev_dest: np.ndarray
    order: np.ndarray
    norms: np.ndarray
    squares: np.ndarray


@lru_cache(maxsize=None)
def _choi_layout(n: int) -> _ChoiLayout:
    """Block layout of J and M, built from the basis's list of nonzeros.

    The sum fills entry [r, c] with sum_a t_a conj(sigma_a[r]) sigma_a[c] over
    the nonzeros r, c = k*n + l of each sigma_a, with no dense basis stack.
    `squares` holds the diagonals of sigma_a², the row sums of |sigma_a|²,
    which the rate form adds to M's diagonal; as sigma_a lies in one sector,
    sigma_a² is diagonal. Raises InvariantError if a term lands off the blocks
    or is not real, or if the basis matrices do not fill the sectors.
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

    owner, row, col, val = full_basis(n).nonzeros
    nz = row * n + col
    # every ordered pair (x, y) of one basis matrix's nonzeros, row-major per
    # matrix: the term sigma_a contributes to J[nz[x], nz[y]]
    count = np.bincount(owner, minlength=nn)
    src = np.repeat(np.arange(nn), count * count)
    first = np.cumsum(count) - count
    t = np.arange(src.size) - np.repeat(np.cumsum(count * count) - count * count, count * count)
    x, y = first[src] + t // count[src], first[src] + t % count[src]
    r, c = nz[x], nz[y]
    coef = np.conj(val[x]) * val[y]
    if np.any(coef.imag != 0.0):
        raise InvariantError(f"the Choi matrix of a dimension-{n} table is not real")
    terms = (src, stored(r, c), np.ascontiguousarray(coef.real))
    diag = np.arange(n) * (n + 1)
    i, j = _kernel_table(n).pairs
    sector = np.stack([i * n + j, j * n + i], axis=1)
    rows = np.concatenate([np.repeat(diag, n), np.repeat(sector, 2, axis=1).ravel()])
    cols = np.concatenate([np.tile(diag, n), np.tile(sector, 2).ravel()])
    mirror = stored(cols, rows)
    # the eigenvalue form's M is this sum only for an orthogonal, complete
    # basis, so each sector must hold as many basis matrices as vec indices
    home = block[nz[first]]
    if not np.array_equal(np.bincount(home, minlength=block.max() + 1), np.bincount(block)):
        raise InvariantError(f"the basis matrices of dimension {n} do not fill the Choi blocks")
    realign = stored(rows // n * n + cols // n, rows % n * n + cols % n)
    layout = _ChoiLayout(
        rows=rows, cols=cols, mirror=mirror, terms=terms, realign=realign,
        ev_dest=realign[terms[1]], order=np.append(diag, sector),
        norms=full_basis(n).norms_sq.reshape(n, n),
        squares=np.bincount(owner * n + row, np.abs(val) ** 2, nn * n).reshape(nn, n),
    )
    for arr in (rows, cols, mirror, *terms, realign, layout.ev_dest, layout.order, layout.squares):
        arr.setflags(write=False)
    return layout


def _fill(layout: _ChoiLayout, table: np.ndarray, dest=None) -> np.ndarray:
    """Stored block entries of the layout's sparse sum for one table, each term landing at
    `dest` (by default the terms' own)."""
    src, own, coef = layout.terms
    return np.bincount(own if dest is None else dest, weights=coef * table.ravel()[src],
                       minlength=layout.rows.size)


def _choi_entries(table: np.ndarray, rate: bool = False) -> np.ndarray:
    """Stored blocks of J for X -> sum_a t_a sigma_a X sigma_a (see `_ChoiLayout`).

    rate=True gives the rate form, that sum minus (S X + X S)/2 with the
    diagonal S = sum_a t_a sigma_a²: (s_i + s_j)/2 comes off M[i*n + j, i*n + j],
    which is J's n×n-block entry (i, j), stored at i*n + j.
    """
    J = _fill(_choi_layout(table.shape[0]), table)
    if rate:
        s = _square_sums(table)
        J[:table.size] -= ((s[:, None] + s) / 2.0).ravel()
    return J


def _superoperator(table: np.ndarray, rate: bool = False) -> np.ndarray:
    """Stored blocks of M, `_choi_entries` realigned, for the block action (`_apply_blocks`)."""
    return _choi_entries(table, rate)[_choi_layout(table.shape[0]).realign]


def _square_sums(table: np.ndarray) -> np.ndarray:
    """Diagonal s of S = sum_a t_a sigma_a² (diagonal: see `_choi_layout`), table or stack."""
    return table.reshape(table.shape[:-2] + (-1,)) @ _choi_layout(table.shape[-1]).squares


def _eigen_choi(lam: np.ndarray) -> np.ndarray:
    """Stored blocks of J for sigma_a -> lam_a sigma_a: M's sum of lam / Tr(sigma_a²), each term
    landing at its realigned destination (`_ChoiLayout.ev_dest`), so no gather realigns it."""
    layout = _choi_layout(lam.shape[0])
    return _fill(layout, lam / layout.norms, layout.ev_dest)


def _gell_mann_diagonal(J: np.ndarray, n: int, c: float) -> np.ndarray:
    """lam_a = Tr(sigma_a Phi(sigma_a)) / Tr(sigma_a²) of the map with stored Choi blocks J: each
    vec(sigma_a)† M vec(sigma_a) sums coef × M[dest] = J[ev_dest] over sigma_a's
    `_ChoiLayout.terms`. lam_00 is pinned to its TP value c, 1 for a channel and 0 for a
    generator; a zero reads +0.0."""
    layout = _choi_layout(n)
    src, _, coef = layout.terms
    lam = np.bincount(src, weights=coef * J[layout.ev_dest], minlength=n * n).reshape(n, n)
    lam /= layout.norms
    lam[0, 0] = c
    return lam


def _apply_blocks(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Phi(X) for the map whose superoperator has the stored blocks M.

    X's diagonal goes through the n×n block and each pair (X_ij, X_ji),
    i < j, through its 2×2 block. O(n²) once M is filled.
    """
    n = X.shape[0]
    order = _choi_layout(n).order
    x = X.ravel()[order]
    out = np.empty(n * n, dtype=complex)
    out[order] = np.concatenate([(M[:n * n].reshape(n, n) @ x[:n, None]).ravel(),
                                 (M[n * n:].reshape(-1, 2, 2) @ x[n:].reshape(-1, 2, 1)).ravel()])
    return out.reshape(n, n)


def _table_scale(*tables: np.ndarray) -> float:
    """max(1, the largest |entry| of the tables): the rounding of a check on them grows with it."""
    return max(1.0, *(float(np.abs(t).max()) for t in tables))


def _verify_images(table: np.ndarray, lam: np.ndarray, what: str, rate=False, J=None):
    """Demand that the map of `table` equal the eigenvalue map of `lam`; return the latter's
    Choi entries (`_eigen_choi`).

    Phi is the sandwich (or, with rate=True, the rate-form) map of `table`, J
    its Choi entries if filled; the maps are equal iff their Choi matrices
    are. The defect is the largest entrywise |J - J_lam|, which permutes the
    entries of M - M_lam, so it is the largest |Phi(e_kl) - lam(e_kl)| over
    matrix units e_kl. It is rounding, which grows with the entries: the
    bound is ORACLE_TOL times `_table_scale` of table and lam.
    """
    J = _choi_entries(table, rate) if J is None else J
    J_lam = _eigen_choi(lam)
    defect = float(np.abs(J - J_lam).max())
    if not defect <= ORACLE_TOL * _table_scale(table, lam):  # a NaN defect fails too
        raise InvariantError(
            f"{what}: closed-form output fails the application oracle "
            f"(defect {defect:.3e})"
        )
    return J_lam


def _choi_blocks(ch):
    """Blocks of a channel's Choi matrix (its `_choi_values`): the halved entries and their
    symmetrization (stored as in `_ChoiLayout`), the n×n block's spectrum and the 2×2 blocks'
    centres and radii (eigenvalues centre ± radius). InvariantError if the blocks overflow the
    eigensolve."""
    if not isinstance(ch, (KrausChannel, EigenChannel)):
        raise TypeError(f"expected a channel, got {type(ch).__name__}")
    n = ch.n
    half = ch._choi_values / 2.0  # halves, then sums: the sum of two huge entries overflows
    vals = half + half[_choi_layout(n).mirror]
    # pair block b is stored at n² + 4b .. n² + 4b + 3, row-major, and its diagonal entries are
    # their own mirrors, so their symmetrized values halved, (h + h)/2, are h exactly (doubling
    # a halved float cannot overflow): strided views, no gather
    h0, h3 = half[n * n::4], half[n * n + 3::4]
    mid, radius = h0 + h3, np.hypot(h0 - h3, vals[n * n + 1::4])
    try:
        block = np.linalg.eigvalsh(vals[:n * n].reshape(n, n))
    except np.linalg.LinAlgError:
        raise InvariantError(_OVERFLOW) from None
    return half, vals, block, mid, radius


def _choi_spectrum(half, block, lows, mid, radius) -> dict:
    """The Choi `spectrum`, the sorted union of the block spectra (the 2×2 blocks' are
    `lows` = mid - radius and mid + radius), read-only, its `min_eigenvalue` and the
    `hermiticity_defect`, the largest entrywise |J - J†| over the blocks (entries off them
    are exactly zero)."""
    spectrum = _read_only(np.sort(np.concatenate([block, lows, mid + radius])))
    defect = 2.0 * float(np.abs(half - half[_choi_layout(block.size).mirror]).max())
    return {"spectrum": spectrum, "min_eigenvalue": float(spectrum[0]),
            "hermiticity_defect": defect}


def _choi_minimum(block, lows) -> float:
    """The least Choi eigenvalue, the smaller of the n×n block's and the 2×2 blocks' minima
    (`lows`). InvariantError if either is NaN or +inf: the blocks overflowed. A -inf reads
    NotCP, and eigenvalues above the minima may overflow."""
    edge, low = float(lows.min()), float(block[0])
    if not (low < np.inf and edge < np.inf):
        raise InvariantError(_OVERFLOW)
    return min(low, edge) + 0.0  # +0.0 for a zero of either sign


def choi_of_channel(ch) -> ChoiMatrix:
    """Choi matrix of either channel representation, from its table in closed form.

    The blocks come from `_choi_blocks` and are scattered into the dense
    n²×n² `entries`; the spectrum is the union of the block spectra
    (`_choi_spectrum`). `entries` is built eagerly (1 MB at n = 16): only
    `gmchan choi` and the tests call this, and the CP checks read the blocks
    alone, so a lazy field would add a code path and save nothing measured.
    Raises InvariantError where `cp_check_oracle` does (`_choi_minimum`); a top
    eigenvalue that overflows reads +inf.
    """
    half, vals, block, mid, radius = _choi_blocks(ch)
    lows = mid - radius
    _choi_minimum(block, lows)
    spectrum = _choi_spectrum(half, block, lows, mid, radius)
    layout = _choi_layout(ch.n)
    J = np.zeros((ch.n ** 2, ch.n ** 2), dtype=complex)
    J[layout.rows, layout.cols] = vals
    return ChoiMatrix(ch.n, _read_only(J), **spectrum)


def cp_check_oracle(ch, tol: float = DEFAULT_TOL) -> CpReport:
    """Ground-truth CP check: smallest Choi eigenvalue, read off J's blocks.

    Diagnostics: those of `_choi_spectrum`. Raises InvariantError if the
    blocks overflow.
    """
    half, _, block, mid, radius = _choi_blocks(ch)
    lows = mid - radius
    low = _choi_minimum(block, lows)
    return CpReport(_verdict(low, tol), METHOD_ORACLE, low,
                    partial(_choi_spectrum, half, block, lows, mid, radius))


def _sector_blocks(lams: np.ndarray):
    """The diagonal-sector block A and the pair margins of `_block_margins`, table or stack:
    A's diagonal and every d_j are one matvec through `_kernel_table(n).block_rows`."""
    n = lams.shape[-1]
    t = _kernel_table(n)
    ad = lams.diagonal(0, -2, -1) @ t.block_rows
    half = lams / 2.0  # halves, then sums or differences, as in _choi_blocks: no overflow
    A = half + half.swapaxes(-1, -2)
    A.reshape(A.shape[:-2] + (n * n,))[..., t.block_diag] = ad[..., :n]  # a view: A is new
    h = half.reshape(A.shape[:-2] + (n * n,))[..., t.pair_flat]  # (..., 2, pairs)
    return A, ad[..., t.pair_d] - np.abs(h[..., 0, :] - h[..., 1, :])


def _block_margins(lam: np.ndarray):
    """Normalized block criterion for one table.

    The ev Choi matrix splits into one n×n diagonal-sector block A and one
    2×2 block per index pair i < j, with eigenvalues d_j ± |l_ij - l_ji|/2.
    Returns A, its spectrum (one eigensolve), the pair margins
    d_j - |l_ij - l_ji|/2 in row-major (i, j) order (`_sector_blocks`), and the
    smallest of them all, the table's margin: its verdict is margin >= -tol.
    """
    A, pairs = _sector_blocks(lam)
    a_spectrum = np.linalg.eigvalsh(A)
    return A, a_spectrum, pairs, np.minimum(a_spectrum[0], pairs.min())


def _is_cp(lams: np.ndarray, tol: float) -> np.ndarray:
    """Each frame's `_block_margins` verdict, margin >= -tol, up to rounding, for a (T, n, n)
    stack: pair margins, then the Cholesky pivots of every frame's A + tol I per step (tol on
    the diagonal alone, so tol = inf reads CP): all but the last must be > 0, the last (the
    n = 2 identity's is 0) >= 0. A PSD block never overflows; one that does is not PSD, and
    its -inf or NaN reads not CP."""
    A, pairs = _sector_blocks(lams)
    ok = pairs.min(axis=-1) >= -tol
    k = _kernel_table(lams.shape[-1]).k
    A[..., k, k] += tol  # the diagonal alone: tol = inf times an off-diagonal 0 is NaN
    with np.errstate(all="ignore"):
        for _ in range(k.size - 1):
            ok &= A[..., 0, 0] > 0
            A = A[..., 1:, 1:] - A[..., 1:, :1] * (A[..., :1, 1:] / A[..., :1, :1])
        return ok & (A[..., 0, 0] >= 0)


def _pair_dict(n: int, pairs: np.ndarray) -> dict:
    return dict(zip(_kernel_table(n).pair_keys, pairs.tolist()))


def _paper_diagnostics(ch: EigenChannel, shift: float) -> dict:
    block, spectrum, pairs, _ = ch._blocks
    with np.errstate(over="ignore"):  # a doubled entry beyond 1.8e308 saturates to ±inf
        A = 2.0 * block
        A.reshape(-1)[:: ch.n + 1] += shift  # the diagonal, through a view of the new A
        a_spectrum = 2.0 * spectrum + shift
        pairs = 2.0 * pairs + shift
    return {"pair_margins": _pair_dict(ch.n, pairs), "a_matrix": _read_only(A),
            "a_spectrum": _read_only(a_spectrum)}


def cp_check_paper(ch: EigenChannel, tol: float = DEFAULT_TOL) -> CpReport:
    """Closed-form block conditions from the unnormalized eigenvector sum.

    Checks PSD of the n(n-1)/2 two-by-two blocks (margin c_j - |l_ij - l_ji|)
    and of one n×n diagonal-sector matrix A. The underlying sum is
    2J + s I with s = ((n-2)/n) l_00, so each block is twice the normalized
    block shifted by s: exact for n=2, necessary but not sufficient for CP
    for n>=3. The margin is 2m + s, m the normalized margin: rounding keeps
    x -> 2x + s monotone, so it is the least doubled condition. Diagnostics:
    `pair_margins` (dict (i, j) -> margin), the n×n matrix `a_matrix` and its
    spectrum `a_spectrum`. Doubling saturates silently: on a huge table the
    margin reads -inf where -3e308 cannot be held.
    """
    if not isinstance(ch, EigenChannel):
        raise TypeError("closed-form CP conditions need the eigenvalue form")
    shift = float((ch.n - 2.0) / ch.n * ch.lam[0, 0])
    margin = 2.0 * float(ch._blocks[3]) + shift
    return CpReport(_verdict(margin, tol), METHOD_PAPER, margin,
                    partial(_paper_diagnostics, ch, shift))


def _normalized_diagnostics(ch: EigenChannel) -> dict:
    A, a_spectrum, pairs, _ = ch._blocks
    return {"pair_margins": _pair_dict(ch.n, pairs), "a_block": A, "a_spectrum": a_spectrum}


def cp_check_normalized(ch: EigenChannel, tol: float = DEFAULT_TOL) -> CpReport:
    """Closed-form block conditions equivalent to the Choi spectrum test.

    Blocks of sum_a l_a conj(sigma_a)(x)sigma_a / Tr(sigma_a²), i.e. of the
    Choi matrix itself: one n×n diagonal-sector block and one 2×2 block per
    index pair. The union of the block spectra is the Choi spectrum, so the
    verdict must match cp_check_oracle up to eigensolver noise. Diagnostics:
    `pair_margins`, the block `a_block` and its spectrum `a_spectrum`.
    """
    if not isinstance(ch, EigenChannel):
        raise TypeError("closed-form CP conditions need the eigenvalue form")
    margin = float(ch._blocks[3])
    return CpReport(_verdict(margin, tol), METHOD_NORMALIZED, margin,
                    partial(_normalized_diagnostics, ch))


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
        out = _eigen_action(ch.lam, rho)
    else:
        raise TypeError(f"expected a channel, got {type(ch).__name__}")
    report = cp_check_oracle(ch, tol)
    if not report.is_cp:
        raise InvalidChannel(f"not completely positive: margin {report.margin:.3e}")
    return DensityMatrix(n=ch.n, entries=out)
