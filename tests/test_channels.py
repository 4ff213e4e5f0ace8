import copy
import os
import pathlib
import pickle
import runpy
import subprocess
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmchan.basis import GellMannBasis, full_basis
from gmchan.channels import (
    DEFAULT_TOL,
    ChoiMatrix,
    CpReport,
    DensityMatrix,
    EigenChannel,
    KrausChannel,
    apply_ev,
    apply_kf,
    apply_to_state,
    choi,
    choi_of_channel,
    complete_tp,
    cp_check_normalized,
    cp_check_oracle,
    cp_check_paper,
    tp_residuals,
    _apply_blocks,
    _block_margins,
    _choi_entries,
    _choi_layout,
    _eigen_choi,
    _fill,
    _gell_mann_diagonal,
    _pair_dict,
    _psd_blocks,
    _reverse_maps,
    _square_sums,
    _superoperator,
    _table_scale,
    _verify_images,
)
from gmchan.dynamics import evolve_semigroup, evolve_state, uniform_grid
from gmchan.errors import (
    ConstraintViolated,
    DimensionMismatch,
    InvalidChannel,
    InvariantError,
    NegativeCoefficient,
    NonLinearMap,
)
from gmchan.generators import LindbladGenerator, apply_lf, lf_to_ev
from gmchan.converters import kf_to_ev
from sampling import (
    random_density, random_ev_channel, random_kf_ev_admissible, random_lf_ev_admissible,
)

from dense_route import eigen_action, rate_action, sandwich
from paper_forms import eigenvalue_formula, sector_blocks, tp_formula, tp_p00, tp_solve

SWEEP = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "crossval_sweep.py"
_halved_self_term_spectrum = runpy.run_path(str(SWEEP))["_halved_self_term_spectrum"]


def _eigen_superoperator(lam):
    # stored blocks of M for sigma_a -> lam_a sigma_a, the sum of lam / Tr(sigma_a²) in M's
    # own order: the independent route to `_eigen_choi`, which lands each term realigned
    layout = _choi_layout(lam.shape[0])
    return _fill(layout, lam / layout.norms)


def identity_kf(n):
    p = np.zeros((n, n))
    p[0, 0] = 1.0
    return KrausChannel(n=n, p=p, trace_preserving=True)


def test_identity_channel_is_identity_map():
    ch = identity_kf(3)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.max(np.abs(apply_kf(ch, x) - x)) <= 1e-14


def test_apply_ev_scales_basis_matrices():
    lam = np.array([[1.0, 0.3], [-0.2, 0.7]])
    ch = EigenChannel(n=2, lam=lam)
    b = full_basis(2)
    for i in range(2):
        for j in range(2):
            got = apply_ev(ch, b.matrix(i, j))
            assert np.max(np.abs(got - lam[i, j] * b.matrix(i, j))) <= 1e-14


def test_complete_tp_n2():
    off = np.array([[0.0, 1 / 8], [1 / 8, 0.0]])
    ch = complete_tp(off, 1 / 8)
    assert ch.trace_preserving
    assert abs(ch.p[0, 0] - 5 / 8) <= 1e-15
    assert float(np.max(np.abs(tp_residuals(ch)))) <= 1e-15


def test_complete_tp_n3_uniform():
    off = np.full((3, 3), 0.05)
    np.fill_diagonal(off, 0.0)
    ch = complete_tp(off, 0.05)
    # fully symmetric input: both completed diagonals match p_11
    assert abs(ch.p[2, 2] - 0.05) <= 1e-15
    assert float(np.max(np.abs(tp_residuals(ch)))) <= 1e-14


def test_complete_tp_rejects_unbalanced_offdiag():
    off = np.zeros((3, 3))
    off[0, 2], off[1, 2] = 0.01, 0.03  # p~_02 != p~_12 sum balance broken
    with pytest.raises(ConstraintViolated):
        complete_tp(off, 0.05)


@pytest.mark.parametrize("offdiag", (5.0, [0.1, 0.2], np.zeros((2, 3)), np.zeros((2, 2, 2))))
def test_complete_tp_refuses_what_is_not_a_square_table(offdiag):
    with pytest.raises(InvariantError, match="must be square"):
        complete_tp(offdiag, 0.1)


def test_complete_tp_reports_negative_diagonal():
    off = np.zeros((2, 2))
    off[0, 1] = 0.7
    off[1, 0] = 0.7
    with pytest.raises(NegativeCoefficient) as exc:
        complete_tp(off, 0.01)
    assert exc.value.index == (0, 0)


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_tp_solves_the_system_tp_residuals_checks(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(10):
        off = rng.uniform(0.0, 1e-3, (n, n))
        if n >= 3:
            # balance rows 1 and 0, the one equation no diagonal weight absorbs
            pt = off + off.T
            off[1, 2] -= np.sum(pt[1, 2:] - pt[0, 2:])
        ch = complete_tp(off, rng.uniform(0.05, 0.2))
        assert np.max(np.abs(tp_residuals(ch))) <= 1e-12 * max(1.0, np.linalg.norm(off))
        # the two share one solver, so also check trace preservation as a map
        units = np.eye(n * n).reshape(n * n, n, n)
        traces = np.trace(np.stack([apply_kf(ch, E) for E in units]), axis1=1, axis2=2)
        assert np.max(np.abs(traces - np.trace(units, axis1=1, axis2=2))) <= 1e-12


def test_batched_basis_images_match_per_matrix_application():
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        b = full_basis(n)
        table = rng.uniform(-1.0, 1.0, (n, n))
        table[0, 0] = 0.0
        ch = KrausChannel(n=n, p=table)
        gen = LindbladGenerator(n=n, gamma=table)
        for batched, one in (
            (sandwich(ch.p, b.stack), lambda X: apply_kf(ch, X)),
            (rate_action(gen.gamma, b.stack), lambda X: apply_lf(gen, X)),
        ):
            want = np.stack([one(X) for X in b.stack])
            assert np.max(np.abs(batched - want)) <= 1e-13


def test_tp_flag_rejects_non_tp_table():
    p = np.array([[0.5, 0.1], [0.1, 0.1]])  # trace not preserved
    with pytest.raises(InvariantError):
        KrausChannel(n=2, p=p, trace_preserving=True)
    # lenient without the flag
    KrausChannel(n=2, p=p)


def test_unbalanced_table_breaks_trace_on_matrix_units():
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    p[0, 2] = 0.02  # p~_02 != p~_12, not trace-preserving
    ch = KrausChannel(n=3, p=p)
    assert float(np.max(np.abs(tp_residuals(ch)))) > 1e-6
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 0] = 1.0
    assert abs(np.trace(apply_kf(ch, unit)) - 1.0) > 1e-6


def test_choi_identity_spectrum():
    cm = choi_of_channel(identity_kf(2))
    assert isinstance(cm, ChoiMatrix)
    assert np.allclose(np.sort(cm.spectrum), [0, 0, 0, 2], atol=1e-12)
    assert cm.hermiticity_defect <= 1e-14


def test_choi_boundary_channel():
    # lam = (-1/3, -1/3, -1/3) sits exactly on the CP boundary
    lam = np.array([[1.0, -1 / 3], [-1 / 3, -1 / 3]])
    cm = choi_of_channel(EigenChannel(n=2, lam=lam))
    assert abs(cm.min_eigenvalue) <= 1e-12


def test_choi_rejects_nonlinear_map():
    with pytest.raises(NonLinearMap):
        choi(lambda x: x @ x, 2)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_choi_refuses_non_finite_probe_outputs(bad):
    # NaN fails every comparison of the linearity probe, so it must be named
    with pytest.raises(InvariantError, match="linearity probe: the map returned non-finite"):
        choi(lambda X: X * bad, 2)


def test_cp_checks_identity_margin():
    ident = EigenChannel(n=2, lam=np.ones((2, 2)))
    rep = cp_check_paper(ident)
    assert rep.is_cp and abs(rep.margin) <= 1e-14
    assert cp_check_normalized(ident).is_cp
    assert cp_check_oracle(ident).is_cp


def test_cp_check_flags_notcp():
    bad = EigenChannel(n=2, lam=np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert not cp_check_oracle(bad).is_cp
    assert not cp_check_paper(bad).is_cp
    assert not cp_check_normalized(bad).is_cp


def test_cp_checks_agree_on_a_huge_eigenvalue_table():
    # symmetrizing as (a + b) / 2 overflowed here, and the oracle read CP
    huge = EigenChannel(n=2, lam=np.array([[1.0, 1e308], [1e308, -1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle, normalized = cp_check_oracle(huge), cp_check_normalized(huge)
    assert not oracle.is_cp and not normalized.is_cp
    assert oracle.margin == normalized.margin == -1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paper = cp_check_paper(huge)  # doubles the blocks: -3e308 saturates to -inf
    assert not paper.is_cp and paper.margin == -np.inf


def test_cp_check_paper_needs_ev_form():
    with pytest.raises(TypeError):
        cp_check_paper(identity_kf(2))


def _fujiwara_algoet_margin(lam):
    # direct qubit conditions: 1 +- lam_z >= |lam_x +- lam_y|
    lx, ly, lz = lam[0, 1], lam[1, 0], lam[1, 1]
    return min(1 + lz - abs(lx + ly), 1 - lz - abs(lx - ly))


def test_qubit_reduction_matches_direct_conditions():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(2000):
        ch = random_ev_channel(rng, 2)
        direct = _fujiwara_algoet_margin(ch.lam)
        rep_p = cp_check_paper(ch)
        rep_o = cp_check_oracle(ch)
        if min(abs(direct), abs(rep_p.margin), abs(rep_o.margin)) <= 1e-8:
            continue
        checked += 1
        assert (direct >= 0) == rep_p.is_cp == rep_o.is_cp
    assert checked > 1500


def test_normalized_margin_equals_choi_min_eigenvalue():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        for _ in range(50):
            ch = random_ev_channel(rng, n)
            rep_n = cp_check_normalized(ch)
            rep_o = cp_check_oracle(ch)
            assert abs(rep_n.margin - rep_o.margin) <= 1e-10


def test_paper_diagnostics_present():
    rep = cp_check_paper(EigenChannel(n=3, lam=np.eye(3) * 0 + np.full((3, 3), 0.5)))
    assert set(rep.diagnostics) == {"pair_margins", "a_matrix", "a_spectrum"}


def test_apply_to_state_depolarizing():
    # lam = (x, x, x) with x = 1/2 halves the Bloch vector
    lam = np.full((2, 2), 0.5)
    lam[0, 0] = 1.0
    ch = EigenChannel(n=2, lam=lam, trace_preserving=True)
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    out = apply_to_state(ch, rho)
    assert np.allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-14)


def test_apply_to_state_rejects_noncp():
    bad = EigenChannel(n=2, lam=np.array([[1.0, 1.0], [1.0, -1.0]]), trace_preserving=True)
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(InvalidChannel):
        apply_to_state(bad, rho)


def test_apply_to_state_rejects_a_state_of_another_dimension():
    rho = DensityMatrix(n=3, entries=np.eye(3, dtype=complex) / 3)
    for ch in (KrausChannel(n=2, p=np.full((2, 2), 0.25)), EigenChannel(n=2, lam=np.ones((2, 2)))):
        with pytest.raises(DimensionMismatch, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
            apply_to_state(ch, rho)


def test_density_matrix_validation():
    with pytest.raises(InvariantError, match=r"^not Hermitian: defect 2\.000e-01$"):
        DensityMatrix(n=2, entries=np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(InvariantError, match=r"^trace is \(1\.2\+0j\), expected 1$"):
        DensityMatrix(n=2, entries=np.diag([0.9, 0.3]).astype(complex))
    with pytest.raises(InvariantError, match=r"^negative eigenvalue -5\.000e-01$"):
        DensityMatrix(n=2, entries=np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize(
    "entries",
    [
        [[0.5, np.nan], [np.nan, 0.5]],  # every comparison with a NaN is False
        [[0.5, np.inf], [np.inf, 0.5]],
        [[np.inf, 0.0], [0.0, 0.5]],  # inf - inf on the diagonal would warn
        [[0.5, 0.0], [0.0, complex(0.5, np.nan)]],
        # non-Hermitian too: the non-finite entry is still what is reported
        [[0.5, np.nan], [0.3, 0.5]],
        [[0.5, np.inf], [0.0, 0.5]],
    ],
)
def test_density_matrix_rejects_non_finite_entries(entries):
    with pytest.raises(InvariantError, match="non-finite"):
        DensityMatrix(n=2, entries=entries)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 5))
def test_apply_kf_preserves_hermiticity_and_trace(seed, n):
    rng = np.random.default_rng(seed)
    from sampling import random_tp_kraus

    ch = random_tp_kraus(rng, n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = x + x.conj().T
    out = apply_kf(ch, h)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert abs(np.trace(out) - np.trace(h)) <= 1e-10


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31))
def test_apply_kf_is_linear(seed):
    rng = np.random.default_rng(seed)
    from sampling import random_tp_kraus

    ch = random_tp_kraus(rng, 3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = complex(rng.standard_normal(), rng.standard_normal())
    lhs = apply_kf(ch, a * x + y)
    rhs = a * apply_kf(ch, x) + apply_kf(ch, y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_random_density_is_valid():
    rng = np.random.default_rng(5)
    for n in (2, 4):
        rho = random_density(rng, n)
        DensityMatrix(n=n, entries=rho)  # validates


def test_choi_probe_accepts_linear_map_on_large_table():
    # linear, but its rounding error at this scale (~2e-10) once tripped an
    # absolute probe threshold
    lam = np.zeros((3, 3))
    lam[0, 0] = 1.0
    lam[0, 1], lam[1, 0] = 0.3334, -0.3334
    ch = EigenChannel(n=3, lam=1e6 * lam)
    cm = choi(lambda X: apply_ev(ch, X), 3)
    assert np.max(np.abs(cm.spectrum - choi_of_channel(ch).spectrum)) <= 1e-12 * 1e6


def test_choi_probe_still_rejects_nonlinear_map_at_scale():
    with pytest.raises(NonLinearMap):
        choi(lambda x: 1e6 * (x @ x), 3)
    with pytest.raises(NonLinearMap):
        choi(lambda x: 1e-6 * x + 1e-6, 3)  # affine


def _channel(form, table):
    if form == "kf":
        ch = KrausChannel(n=table.shape[0], p=table)
        return ch, choi(lambda X: sandwich(ch.p, X), ch.n)
    ch = EigenChannel(n=table.shape[0], lam=table)
    return ch, choi(lambda X: apply_ev(ch, X), ch.n)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 8),
    log_scale=st.floats(-6.0, 6.0),
    form=st.sampled_from(["kf", "ev"]),
)
def test_closed_form_choi_matches_generic_route(seed, n, log_scale, form):
    rng = np.random.default_rng(seed)
    ch, generic = _channel(form, 10.0**log_scale * rng.uniform(-1.0, 1.0, (n, n)))
    fast = cp_check_oracle(ch).diagnostics["spectrum"]
    scale = max(1.0, float(np.max(np.abs(generic.spectrum))))
    assert np.max(np.abs(fast - generic.spectrum)) <= 1e-12 * scale
    cm = choi_of_channel(ch)
    assert np.max(np.abs(cm.entries - generic.entries)) <= 1e-12 * scale
    assert abs(cm.hermiticity_defect - generic.hermiticity_defect) <= 1e-12 * scale


@pytest.mark.parametrize("n", (12, 16))
@pytest.mark.parametrize("form", ("kf", "ev"))
def test_block_choi_matches_generic_route_at_large_n(n, form):
    rng = np.random.default_rng(100 + n)
    signed = rng.uniform(-1.0, 1.0, (n, n))
    kf = random_kf_ev_admissible(rng, n)  # nonnegative weights: CP
    cp = kf.p if form == "kf" else kf_to_ev(kf).lam
    verdicts = []
    for table in (signed, cp):
        ch, generic = _channel(form, table)
        cm = choi_of_channel(ch)
        scale = max(1.0, float(np.max(np.abs(generic.spectrum))))
        assert np.max(np.abs(cm.spectrum - generic.spectrum)) <= 1e-12 * scale
        assert np.max(np.abs(cm.entries - generic.entries)) <= 1e-12 * scale
        assert abs(cm.hermiticity_defect - generic.hermiticity_defect) <= 1e-12 * scale
        verdicts.append(cp_check_oracle(ch).is_cp)
        assert verdicts[-1] == (generic.min_eigenvalue >= -1e-10)
    assert verdicts == [False, True]


def test_oracle_diagnostics_are_the_choi_spectrum():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7):
        for form in ("kf", "ev"):
            ch, _ = _channel(form, rng.uniform(-1.0, 1.0, (n, n)))
            cm = choi_of_channel(ch)
            diag = cp_check_oracle(ch).diagnostics
            assert np.array_equal(diag["spectrum"], cm.spectrum)
            assert diag["min_eigenvalue"] == cm.min_eigenvalue
            assert diag["hermiticity_defect"] == cm.hermiticity_defect


@pytest.mark.parametrize("n", range(2, 17))
def test_choi_layout_covers_the_blocks(n):
    layout = _choi_layout(n)
    # one n×n block and n(n-1)/2 2×2 blocks
    assert layout.rows.size == n * n + 2 * n * (n - 1)
    assert len(set(zip(layout.rows.tolist(), layout.cols.tolist()))) == layout.rows.size
    assert np.array_equal(layout.rows[layout.mirror], layout.cols)
    src, dest, coef = layout.terms
    assert src.shape == dest.shape == coef.shape
    assert np.array_equal(np.unique(dest), np.arange(layout.rows.size))
    # the realignment J <-> M permutes the stored entries and is its own inverse
    assert np.array_equal(layout.realign[layout.realign], np.arange(layout.rows.size))
    assert np.array_equal(layout.ev_dest, layout.realign[dest])
    # pair block b, stored at n² + 4b + (0, 1, 2, 3), is row-major: its diagonal entries, which
    # are their own mirrors, at offsets 0 and 3, and the upper entry, mirrored at 2, at 1
    pairs = np.arange(n * n, layout.rows.size).reshape(-1, 4)
    assert np.array_equal(layout.mirror[pairs], pairs[:, [0, 2, 1, 3]])
    assert np.array_equal(layout.rows[pairs[:, 0]], layout.rows[pairs[:, 1]])
    assert np.all(layout.rows[pairs[:, 1]] < layout.cols[pairs[:, 1]])


def _layout_by_loop(n):
    # the layout's index arrays and term list, one basis matrix at a time
    nn = n * n
    k, l = np.divmod(np.arange(nn), n)
    lo, hi = np.minimum(k, l), np.maximum(k, l)
    block = np.where(k == l, 0, 1 + lo * n - lo * (lo + 1) // 2 + hi - lo - 1)
    pos = np.where(k == l, k, (k > l).astype(int))

    def stored(r, c):
        return np.where(block[r] == 0, pos[r] * n + pos[c], nn + 4 * (block[r] - 1) + 2 * pos[r] + pos[c])

    b = full_basis(n)
    src, r, c, coef = [], [], [], []
    for a, v in enumerate(b.stack.reshape(nn, nn)):
        nz = np.flatnonzero(v)
        src.append(np.full(nz.size * nz.size, a))
        r.append(np.repeat(nz, nz.size))
        c.append(np.tile(nz, nz.size))
        coef.append(np.conj(v[r[-1]]) * v[c[-1]])
    src, r, c, coef = (np.concatenate(x) for x in (src, r, c, coef))
    terms = (src, stored(r, c), coef.real)
    diag = np.arange(n) * (n + 1)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    sector = np.stack([i * n + j, j * n + i], axis=1)
    rows = np.concatenate([np.repeat(diag, n), np.repeat(sector, 2, axis=1).ravel()])
    cols = np.concatenate([np.tile(diag, n), np.tile(sector, 2).ravel()])
    # entry (k*n + i, l*n + j) realigns to (k*n + l, i*n + j), looked up by position
    where = {rc: s for s, rc in enumerate(zip(rows.tolist(), cols.tolist()))}
    realign = []
    for row, col in zip(rows.tolist(), cols.tolist()):
        (k, i), (l, j) = divmod(row, n), divmod(col, n)
        realign.append(where[k * n + l, i * n + j])
    return rows, cols, stored(cols, rows), terms, np.array(realign)


@pytest.mark.parametrize("n", range(2, 17))
def test_choi_layout_matches_loop_form(n):
    layout = _choi_layout(n)
    rows, cols, mirror, terms, realign = _layout_by_loop(n)
    assert len(layout.terms) == len(terms) == 3
    for got, want in [(layout.rows, rows), (layout.cols, cols), (layout.mirror, mirror),
                      (layout.realign, realign), *zip(layout.terms, terms)]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # the diagonals of the squared basis matrices, which are diagonal, exactly
    stack = full_basis(n).stack
    squares = stack @ stack
    assert np.count_nonzero(squares) == np.count_nonzero(np.diagonal(squares, axis1=1, axis2=2))
    assert np.array_equal(layout.squares, np.diagonal(squares, axis1=1, axis2=2))


@pytest.mark.parametrize("n", range(2, 17))
def test_blocks_are_the_dense_choi_matrix_and_its_realignment(n):
    # J from the generic route on the dense actions; M is J realigned,
    # J[k*n + i, l*n + j] = M[k*n + l, i*n + j], in the layout's row-major vec
    layout = _choi_layout(n)
    table = np.random.default_rng(500 + n).uniform(-1.0, 1.0, (n, n))

    def dense(stored):
        out = np.zeros((n * n, n * n))
        out[layout.rows, layout.cols] = stored
        return out

    for J_blocks, M_blocks, action in (
        (_choi_entries(table), _superoperator(table), sandwich),
        (_eigen_choi(table), _eigen_superoperator(table), eigen_action),
    ):
        # the realignment of J is M entry for entry, and the eigenvalue form's J its M realigned
        assert J_blocks[layout.realign].tobytes() == M_blocks.tobytes()
        J = choi(lambda X: action(table, X), n).entries
        M = J.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        assert np.max(np.abs(dense(J_blocks) - J)) <= 1e-13
        assert np.max(np.abs(dense(M_blocks) - M)) <= 1e-13


@pytest.mark.parametrize("n", range(2, 17))
def test_basis_images_match_dense_route(n):
    # the verification defect is the largest entrywise gap between the two
    # maps' images of the matrix-unit basis; arbitrary tables, so the maps
    # differ and every block entry counts
    rng = np.random.default_rng(100 + n)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    for rate, dense_route in ((False, sandwich), (True, rate_action)):
        for scale in (1e-6, 1.0, 1e6):
            table = scale * rng.uniform(-1.0, 1.0, (n, n))
            lam = scale * rng.uniform(-1.0, 1.0, (n, n))
            dense, eigen = dense_route(table, units), eigen_action(lam, units)
            want = float(np.max(np.abs(dense - eigen)))
            defect = float(np.max(np.abs(_superoperator(table, rate) - _eigen_superoperator(lam))))
            bound = 1e-12 * max(1.0, float(np.max(np.abs(dense))), float(np.max(np.abs(eigen))))
            assert abs(defect - want) <= bound
            with pytest.raises(InvariantError, match="fails the application oracle") as exc:
                _verify_images(table, lam, "arbitrary", rate)
            reported = float(str(exc.value).rsplit("defect ", 1)[1].rstrip(")"))
            assert abs(reported - defect) <= 5e-4 * defect


@pytest.mark.parametrize("n", range(2, 17))
def test_apply_matches_dense_route(n):
    # every matrix unit and a few random complex matrices; arbitrary tables,
    # so the maps are not diagonal and every block entry counts
    rng = np.random.default_rng(300 + n)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    X = np.concatenate([units, rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))])
    for scale in (1e-6, 1.0, 1e6):
        table = scale * rng.uniform(-1.0, 1.0, (n, n))
        gamma = table.copy()
        gamma[0, 0] = 0.0  # inert in the rate form; the constructor would warn
        ch, gen = KrausChannel(n=n, p=table), LindbladGenerator(n=n, gamma=gamma)
        ev = EigenChannel(n=n, lam=table)
        for one, dense in (
            (lambda X: apply_kf(ch, X), sandwich(ch.p, X)),
            (lambda X: apply_lf(gen, X), rate_action(gen.gamma, X)),
            (lambda X: apply_ev(ev, X), eigen_action(ev.lam, X)),
        ):
            got = np.stack([one(x) for x in X])
            bound = 1e-12 * np.maximum(1.0, np.max(np.abs(dense), axis=(1, 2)))
            assert np.all(np.max(np.abs(got - dense), axis=(1, 2)) <= bound)
    # a trajectory's frames act on a state as their tables do
    traj = evolve_semigroup(lf_to_ev(random_lf_ev_admissible(rng, n, nonnegative=True)),
                            uniform_grid(1.0, 11))
    rho0 = DensityMatrix(n=n, entries=random_density(rng, n))
    for idx in range(len(traj)):
        got = evolve_state(traj, rho0, idx).entries
        assert np.max(np.abs(got - eigen_action(traj.lams[idx], rho0.entries))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 17))
def test_eigen_action_matches_the_block_route(n):
    # apply_ev and evolve_state act through basis coefficients; the
    # superoperator blocks the converters verify through must agree
    rng = np.random.default_rng(700 + n)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    X = np.concatenate([units, rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))])
    for scale in (1e-6, 1.0, 1e6):
        ev = EigenChannel(n=n, lam=scale * rng.uniform(-1.0, 1.0, (n, n)))
        M = _eigen_superoperator(ev.lam)
        for x in X:
            blocks = _apply_blocks(M, x)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(blocks))))
            assert np.max(np.abs(apply_ev(ev, x) - blocks)) <= bound
    traj = evolve_semigroup(lf_to_ev(random_lf_ev_admissible(rng, n, nonnegative=True)),
                            uniform_grid(1.0, 11))
    rho0 = DensityMatrix(n=n, entries=random_density(rng, n))
    for idx in range(len(traj)):
        blocks = _apply_blocks(_eigen_superoperator(traj.lams[idx]), rho0.entries)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(blocks))))
        assert np.max(np.abs(evolve_state(traj, rho0, idx).entries - blocks)) <= bound


def _edit_basis(monkeypatch, n, edits):
    # the layout, uncached, sees a basis whose nonzeros have the (owner, row, col)
    # entries set to value: added where missing, dropped where 0, kept in the basis's order
    import gmchan.channels as channels

    b = full_basis(n)
    entries = {(a, r, c): v for a, r, c, v in zip(*(arr.tolist() for arr in b.nonzeros))}
    for index, value in edits:
        entries[index] = value
    keys = sorted(key for key, v in entries.items() if v != 0)
    owner, row, col = np.array(keys).T
    nonzeros = (owner, row, col, np.array([entries[key] for key in keys], dtype=complex))
    bad = type(b)(n=n, nonzeros=nonzeros, norms_sq=b.norms_sq)
    monkeypatch.setattr(channels, "full_basis", lambda n: bad)
    monkeypatch.setattr(channels, "_choi_layout", _choi_layout.__wrapped__)


@pytest.mark.parametrize(
    "index, value, match",
    [
        ((1, 0, 0), 0.5, "straddles"),  # sigma_01 gains a diagonal entry
        ((1, 0, 1), 1j, "not real"),  # sigma_01 = [[0, i], [1, 0]]
    ],
)
def test_choi_layout_rejects_a_basis_it_cannot_block(monkeypatch, index, value, match):
    _edit_basis(monkeypatch, 3, [(index, value)])
    with pytest.raises(InvariantError, match=match):
        choi_of_channel(KrausChannel(n=3, p=np.ones((3, 3))))


def test_choi_layout_rejects_a_basis_it_cannot_pair(monkeypatch):
    # sigma_01 moved into the (0, 2) sector, which then holds three matrices
    _edit_basis(monkeypatch, 3, [((1, 0, 1), 0), ((1, 1, 0), 0), ((1, 0, 2), 1), ((1, 2, 0), 1)])
    with pytest.raises(InvariantError, match="do not fill"):
        choi_of_channel(KrausChannel(n=3, p=np.ones((3, 3))))


def test_block_hermiticity_defect_sees_an_asymmetric_basis(monkeypatch):
    _edit_basis(monkeypatch, 2, [((1, 1, 0), 0.5)])  # sigma_01 stays in its pair sector
    lam = np.zeros((2, 2))
    lam[0, 1] = 1.0
    cm = choi_of_channel(EigenChannel(n=2, lam=lam))
    # J[(0,0),(1,1)] = 1 * 1 / 2 but J[(1,1),(0,0)] = 0.5 * 0.5 / 2
    assert cm.hermiticity_defect == 0.375


def _paper_blocks_by_loop(lam):
    # the unnormalized block conditions written out entry by entry
    n = lam.shape[0]

    def tail(j):
        return sum(2.0 * lam[k, k] / (k * (k + 1.0)) for k in range(j + 1, n))

    pairs = {}
    for j in range(1, n):
        c_j = lam[0, 0] - 2.0 * lam[j, j] / (j + 1.0) + tail(j)
        for i in range(j):
            pairs[(i, j)] = c_j - abs(lam[i, j] - lam[j, i])
    A = lam + lam.T
    A_printed = A.copy()
    for j in range(n):
        A[j, j] = lam[0, 0] + (2.0 * j / (j + 1.0)) * lam[j, j] + tail(j)
        A_printed[j, j] = lam[0, 0] + (j / (j + 1.0)) * lam[j, j] + tail(j)
    return pairs, A, A_printed


def test_paper_check_matches_entrywise_conditions():
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        for _ in range(20):
            ch = random_ev_channel(rng, n)
            pairs, A, A_printed = _paper_blocks_by_loop(ch.lam)
            diag = cp_check_paper(ch).diagnostics
            assert diag["pair_margins"].keys() == pairs.keys()
            assert max(abs(diag["pair_margins"][key] - pairs[key]) for key in pairs) <= 1e-13
            assert np.max(np.abs(diag["a_matrix"] - A)) <= 1e-13
            assert np.max(np.abs(diag["a_spectrum"] - np.linalg.eigvalsh(A))) <= 1e-12


def test_crossval_variants_match_entrywise_conditions():
    # the halved-self-term spectrum and det(A) that crossval scores, against
    # the loop form of the paper conditions
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        for _ in range(20):
            ch = random_ev_channel(rng, n)
            _, A, A_printed = _paper_blocks_by_loop(ch.lam)
            got = cp_check_paper(ch).diagnostics["a_matrix"]
            spectrum = _halved_self_term_spectrum(got, ch.lam)
            assert np.max(np.abs(spectrum - np.linalg.eigvalsh(A_printed))) <= 1e-12
            det = np.linalg.det(A)
            assert abs(np.linalg.det(got) - det) <= 1e-10 * max(1.0, abs(det))


# The small-table kernels read their indices and weights from one cached
# per-n table; each is pinned here to its definition, written as loops
# (the column-equality check's in test_converters). n = 2 has one pair, n = 3 no TP
# recursion step.


@pytest.mark.parametrize("n", (2, 3, 16))
def test_block_margins_pairs_match_loop_form(n):
    # exact at n = 2; above, the matvec through `block_rows` rounds in another
    # order than the loop's sums (a stack's frame-last margins are one table's bits)
    rng = np.random.default_rng(70 + n)
    lams = rng.uniform(-1.0, 1.0, (4, n, n))
    stacked = _psd_blocks(lams)[1]
    bound = 0.0 if n == 2 else 1e-15
    for lam, stacked_row in zip(lams, stacked.T):
        row = _block_margins(lam)[2]
        assert row.shape == (n * (n - 1) // 2,)
        want = sector_blocks(lam)[1]
        assert np.max(np.abs(row - list(want.values()))) <= bound
        assert np.array_equal(stacked_row, row)
        got = _pair_dict(n, row)
        assert list(got) == list(want) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 16),
       frames=st.one_of(st.none(), st.integers(1, 40)), exponent=st.floats(-3.0, 3.0))
def test_sector_blocks_match_the_loop_form(seed, n, frames, exponent):
    # A and the pair margins of one table or, frame-last, of a stack, against the paper's sums
    scale = 10.0 ** exponent
    shape = (n, n) if frames is None else (frames, n, n)
    lams = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    A, pairs = _psd_blocks(lams)
    assert A.shape == (n, n) + shape[:-2] and pairs.shape == (n * (n - 1) // 2,) + shape[:-2]
    bound = 0.0 if n == 2 else 1e-15 * max(1.0, scale)
    for lam, a, row in zip(lams.reshape(-1, n, n), A.reshape(n, n, -1).transpose(2, 0, 1),
                           pairs.reshape(pairs.shape[0], -1).T):
        want_a, want_pairs = sector_blocks(lam)
        assert np.max(np.abs(a - want_a)) <= bound
        assert np.max(np.abs(row - list(want_pairs.values()))) <= bound


# `_psd_blocks(lams, tol)` keeps only the verdicts of `_block_margins`: for a stack, pair
# margins and a PSD test of the diagonal-sector blocks by Cholesky pivots, up to rounding;
# for one table exactly its margin >= -tol, as `evolve_state` reads a skipped frame, the
# pair margins first and the eigensolve only when they pass.


def _margins(lams):
    return np.array([_block_margins(lam)[3] for lam in lams])


def _verdict_frames(seed, n, frames, scale):
    # semigroup frames of a rate table whose rate (1, 1) may be negative, half
    # of them given a symmetric push (it moves A, and the pairs only through
    # the diagonal), all times scale: CP frames, and frames failing on a pair
    # margin or on A alone
    rng = np.random.default_rng(seed)
    gamma = random_lf_ev_admissible(rng, n, nonnegative=True).gamma.copy()
    gamma[1, 1] = rng.uniform(-0.3, 0.3)
    eta = lf_to_ev(LindbladGenerator(n=n, gamma=gamma)).eta
    lams = np.exp(rng.uniform(0.0, 3.0, (frames, 1, 1)) * eta)
    push = rng.normal(0.0, 0.1, (frames, n, n)) * (rng.random((frames, 1, 1)) < 0.5)
    return scale * (lams + push + push.swapaxes(-1, -2))


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 8), frames=st.integers(1, 40),
       exponent=st.floats(-3.0, 3.0), tol=st.sampled_from((0.0, 1e-10, 1e-6)))
def test_is_cp_matches_block_margins_away_from_the_boundary(seed, n, frames, exponent, tol):
    scale = 10.0 ** exponent
    lams = _verdict_frames(seed, n, frames, scale)
    margins = _margins(lams)
    far = np.abs(margins + tol) > 1e-9 * max(1.0, scale)
    stacked = _psd_blocks(lams, tol)
    assert stacked.dtype == bool and stacked.shape == (frames,)
    assert (stacked == (margins >= -tol))[far].all()
    for lam, flag, sure in zip(lams, stacked, far):
        if sure:
            assert bool(_psd_blocks(lam[None], tol)[0]) is bool(flag)


def test_verdict_frames_reach_every_branch():
    # the frames above are CP, fail on a pair margin, or fail on A alone
    kinds = set()
    for seed in range(20):
        for lam in _verdict_frames(seed, 4, 40, 1.0):
            _, spectrum, pairs, _ = _block_margins(lam)
            low, pair = spectrum[0], pairs.min()
            kinds.add("pair" if pair < -1e-6 else "A" if low < -1e-6 else "CP")
    assert kinds == {"CP", "pair", "A"}


def test_is_cp_keeps_the_identity_cp_at_tolerance_zero():
    # the n = 2 identity's block A is all ones: its last pivot is exactly 0
    assert _block_margins(np.ones((2, 2)))[3] == 0.0
    assert _psd_blocks(np.ones((2, 2)), 0.0) is True
    assert _psd_blocks(np.ones((1, 2, 2)), 0.0).tolist() == [True]
    assert _psd_blocks(np.ones((3, 2, 2)), 0.0).tolist() == [True] * 3


@pytest.mark.parametrize("n", range(2, 17))
def test_is_cp_of_the_identity_at_tolerance_zero_is_pinned(n):
    # rounding leaves A's lowest eigenvalue a few ulps below 0 for every n >= 3
    # (an open defect of the tolerance policy); every route keeps that verdict
    ones = np.ones((n, n))
    assert bool(_block_margins(ones)[3] >= 0.0) is (n == 2)
    assert _psd_blocks(ones, 0.0) is (n == 2)
    assert _psd_blocks(np.stack([ones] * 3), 0.0).tolist() == [n == 2] * 3


@pytest.mark.parametrize("tol", (0.0, 1e-12, 1e-10, np.inf))
@pytest.mark.parametrize("n", (2, 3, 4, 6, 8))
def test_is_cp_stacked_matches_single_frames_at_every_tolerance(n, tol):
    # an infinite tolerance goes on A's diagonal alone: inf * 0 off it would be NaN
    # CP frames and not CP ones, none within 1e-9 of 0
    lams = np.concatenate([_verdict_frames(seed, n, 30, 1.0) for seed in (6, 7)])
    assert (np.abs(_margins(lams)) > 1e-9).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _psd_blocks(lams, tol).tolist()
        alone = [_psd_blocks(lam, tol) for lam in lams]
        single = (_margins(lams) >= -tol).tolist()
    assert stacked == alone == single
    if tol == np.inf:
        assert all(stacked)
    else:
        assert any(stacked) and not all(stacked)


@pytest.mark.parametrize("frames", (1, 2, 5, 201))
@pytest.mark.parametrize("n", range(2, 17))
def test_stacked_blocks_are_each_frames_own_bits(n, frames):
    # A and the pair margins of a frame are one matvec per frame alone or in a stack, so
    # a stride-1 flag and an on-demand verdict of one frame decide the same numbers
    rng = np.random.default_rng([71, n, frames])
    for scale in (1e-3, 1.0, 1e3):
        lams = scale * rng.uniform(-1.0, 1.0, (frames, n, n))
        A, pairs = _psd_blocks(lams)
        assert A.flags.c_contiguous and A.shape == (n, n, frames)
        for t, lam in enumerate(lams):
            a, row = _psd_blocks(lam)
            assert np.array_equal(A[:, :, t], a) and np.array_equal(pairs[:, t], row)
            assert np.array_equal(a, _block_margins(lam)[0])


def _quiet_margin_verdict(lam, tol):
    # `_block_margins`' verdict where its eigensolve fails too: not CP
    with np.errstate(all="ignore"):
        try:
            return bool(_block_margins(lam)[3] >= -tol)
        except np.linalg.LinAlgError:
            return False


@pytest.mark.parametrize("tol", (0.0, 1e-12, 1e-10, np.inf))
@pytest.mark.parametrize("n", (2, 3, 4, 6, 8, 16))
def test_one_frame_verdict_is_its_margins(n, tol):
    # pair margins first, the eigensolve only when they pass: the same answer on every frame,
    # CP, failing on a pair or on A alone, and on NaN, infinite and float-max tables, where
    # the blocks overflow; a table with a NaN or infinite entry reads not CP; none warns or
    # raises LinAlgError
    rng = np.random.default_rng([72, n])
    top = np.finfo(float).max
    odd = [np.full((n, n), np.nan), np.full((n, n), np.inf), np.full((n, n), -np.inf),
           np.where(np.eye(n) > 0, 1.0, np.nan), np.where(np.eye(n) > 0, np.inf, 0.0)]
    lam = np.eye(n)
    lam[0, -1] = -np.inf
    odd.append(lam)
    huge = [top * np.ones((n, n)), -top * np.ones((n, n)), top * np.eye(n),
            top * rng.uniform(-1.0, 1.0, (n, n)), top * np.abs(rng.uniform(-1.0, 1.0, (n, n)))]
    frames = [*_verdict_frames(73, n, 40, 1.0), *huge, *odd]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = [_psd_blocks(lam, tol) for lam in frames]
    assert all(type(v) is bool for v in verdicts)
    assert verdicts == [_quiet_margin_verdict(lam, tol) for lam in frames]
    assert not any(verdicts[-len(odd):])
    if tol < np.inf:
        assert any(verdicts) and not all(verdicts)


def test_huge_frames_decided_without_warnings():
    # a symmetric pair of 1e200 leaves every pair margin alone but makes A
    # indefinite; its pivots overflow to -inf, which reads not CP
    lam = np.ones((3, 3))
    lam[1, 2] = lam[2, 1] = 1e200
    other = np.ones((3, 3))
    other[0, 1] = other[1, 0] = -1e160
    depolarizing = np.zeros((3, 3))
    depolarizing[0, 0] = 1e200  # A = 1e200 I / 3: CP
    stack = np.stack([lam, depolarizing, other])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _psd_blocks(stack, DEFAULT_TOL).tolist() == [False, True, False]
        assert [_psd_blocks(x, DEFAULT_TOL) for x in stack] == [False, True, False]
        assert (_margins(stack) >= -DEFAULT_TOL).tolist() == [False, True, False]


def test_pair_margins_halve_before_they_subtract():
    # l_01 - l_10 = 2e308 overflows; halves first, the margin is -1e308 as in the oracle
    ch = EigenChannel(n=2, lam=[[1.0, 1e308], [-1e308, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normalized = cp_check_normalized(ch)
        oracle = cp_check_oracle(ch)
        paper = cp_check_paper(ch)
    assert normalized.margin == -1e308
    assert abs(oracle.margin - normalized.margin) <= 1e-15 * 1e308
    assert paper.margin == -np.inf  # doubled, it saturates (see cp_check_paper)
    assert {normalized.verdict, oracle.verdict, paper.verdict} == {"NotCP"}
    assert _psd_blocks(ch.lam[None], DEFAULT_TOL).tolist() == [False]


@pytest.mark.parametrize("n", (3, 4, 9, 16))
def test_tp_solve_matches_per_step_sums(n):
    # the paper's recursion, step by step, completes tables that sum_a p_a sigma_a² = I accepts
    rng = np.random.default_rng(60 + n)
    for scale in (1e-3, 1.0, 1e3):
        p = scale * rng.uniform(-1.0, 1.0, (n, n))
        p[1, 2] -= tp_solve(p)[0]  # balance rows 1 and 0, which no diagonal weight can
        _, p22, steps = tp_solve(p)
        assert steps.shape == (n - 3,)
        p[2, 2] = p22
        p[3:, 3:][np.diag_indices(n - 3)] = p22 + steps
        p[0, 0] = tp_p00(p)
        assert np.max(np.abs(_square_sums(p) - 1.0)) <= 1e-14 * n * _table_scale(p)
        assert np.max(np.abs(tp_formula(p))) <= 1e-14 * n * _table_scale(p)


@pytest.mark.parametrize("n", (2, 3, 5, 8, 16))
def test_tp_residuals_are_the_diagonal_of_the_dense_square_sum(n):
    # sum_a p_a sigma_a² - I from the dense basis stack: off its diagonal it is zero
    rng = np.random.default_rng(65 + n)
    stack = full_basis(n).stack
    squares = np.einsum("aij,ajk->aik", stack, stack)
    for scale in (1e-3, 1.0, 1e3):
        p = scale * rng.uniform(-1.0, 1.0, (n, n))
        dense = np.einsum("a,aik->ik", p.ravel(), squares) - np.eye(n)
        size = np.einsum("a,aik->ik", np.abs(p.ravel()), np.abs(squares))
        assert np.max(np.abs(dense - np.diag(np.diagonal(dense)))) == 0.0
        got = tp_residuals(KrausChannel(n=n, p=p))
        assert got.shape == (n,)
        assert np.max(np.abs(got - np.diagonal(dense).real)) <= 1e-15 * max(1.0, np.max(size))


@pytest.mark.parametrize("n", range(2, 17))
def test_tp_recursion_spans_the_rows_of_the_square_sums(n):
    # two bases of one constraint set: the recursion's linear part and sum_a p_a sigma_a²
    units = np.eye(n * n).reshape(n * n, n, n)
    paper = np.array([tp_formula(e, 0.0) for e in units]).T
    squares = _choi_layout(n).squares.T
    rank = np.linalg.matrix_rank
    assert paper.shape == (1 if n == 2 else n, n * n) and squares.shape == (n, n * n)
    assert rank(paper) == rank(squares) == rank(np.vstack([paper, squares])) == (1 if n == 2 else n)


# Both eigenvalue readers are one read of the superoperator M the converters
# fill: its Gell-Mann diagonal, lam_a = Tr(sigma_a Phi(sigma_a)) / Tr(sigma_a²).


@lru_cache(maxsize=None)
def _definition_rows(n):
    """lam_a = Tr(sigma_a Phi(sigma_a)) / Tr(sigma_a²) as rows on the table, from the dense
    basis: Tr((sigma_a sigma_b)²) for the sandwich, less Tr(sigma_a² sigma_b²) for the rate form."""
    b = full_basis(n)
    squares = b.stack @ b.stack
    rows = [(np.einsum("bij,bji->b", p, p).real, np.einsum("ij,bji->b", sq, squares).real)
            for p, sq in ((s @ b.stack, s @ s) for s in b.stack)]
    sandwich, less = (np.array(r) / b.norms_sq[:, None] for r in zip(*rows))
    return sandwich, sandwich - less


def _definition(table, rate):
    """`_definition_rows` applied to a table, lam_00 pinned as the reader pins it."""
    lam = (_definition_rows(table.shape[0])[rate] @ table.ravel()).reshape(table.shape)
    lam[0, 0] = 0.0 if rate else 1.0
    return lam


@pytest.mark.parametrize("n", range(2, 17))
def test_affine_maps_match_the_closed_forms(n):
    # every unit table and arbitrary ones: off the diagonal the closed form holds for
    # any table, and every entry is the definition, through the dense route
    rng = np.random.default_rng(90 + n)
    scales = 10.0 ** rng.integers(-3, 4, (30, 1, 1))
    tables = [*np.eye(n * n).reshape(n * n, n, n), *(scales * rng.uniform(-1, 1, (30, n, n)))]
    off = ~np.eye(n, dtype=bool)
    for rate, c in ((False, 1.0), (True, 0.0)):
        for table in tables:
            got = _gell_mann_diagonal(_choi_entries(table, rate), n, c)
            formula, definition = eigenvalue_formula(table, c, rate), _definition(table, rate)
            assert got.shape == (n, n) and got[0, 0] == c
            assert np.max(np.abs(got - formula)[off]) <= 1e-15 * _table_scale(table, formula)
            assert np.max(np.abs(got - definition)) <= 1e-15 * _table_scale(table, definition)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 16), exponent=st.floats(-3.0, 3.0))
def test_readers_match_the_paper_forms_on_admissible_tables(seed, n, exponent):
    # a TP weight table and a rate table at any scale (a generator's lam_00 is 0 at every scale)
    rng = np.random.default_rng(seed)
    p = random_kf_ev_admissible(rng, n).p
    gamma = 10.0 ** exponent * random_lf_ev_admissible(rng, n).gamma
    lam, eta = kf_to_ev(KrausChannel(n=n, p=p)).lam, lf_to_ev(LindbladGenerator(n=n, gamma=gamma)).eta
    for got, table, c, rate in ((lam, p, 1.0, False), (eta, gamma, 0.0, True)):
        want = eigenvalue_formula(table, c, rate)
        assert np.max(np.abs(got - want)) <= 1e-14 * _table_scale(table, want)


@pytest.mark.parametrize("n", (2, 8, 16))
def test_converters_cache_no_n2_by_n2_array(n):
    # the reverse maps are the converters' one per-n cache: 2n x n² rows, read-only
    import gmchan.channels

    assert not hasattr(gmchan.channels, "_affine_maps")
    for rows, const in _reverse_maps(n).values():
        assert rows.shape == (2 * n, n * n) and const.shape == (2 * n,)
        for arr in (rows, const):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


def _fresh_process(code: str) -> str:
    # run code in a new interpreter on this checkout's gmchan and samplers; return its stdout
    here = pathlib.Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_channel_path_builds_no_dense_basis_stack():
    # only decompose and recompose (states, apply_ev) read the n²×n×n stack
    code = """if True:
        import numpy as np
        import gmchan as gm
        from sampling import random_kf_ev_admissible, random_lf_ev_admissible
        for n in range(2, 17):
            rng = np.random.default_rng(n)
            kf = random_kf_ev_admissible(rng, n)
            gm.tp_residuals(kf), gm.kf_is_ev(kf), gm.complete_tp(kf.p, kf.p[1, 1])
            ev = gm.kf_to_ev(kf)
            gm.ev_to_kf(ev)
            gen = random_lf_ev_admissible(rng, n)
            gm.ev_to_lf(gm.lf_to_ev(gen))
            for ch in (kf, ev):
                gm.cp_check_oracle(ch), gm.choi_of_channel(ch)
            gm.cp_check_paper(ev), gm.cp_check_normalized(ev)
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            gm.apply_kf(kf, X), gm.apply_lf(gen, X)
        print([n for n in range(2, 17) if "stack" in vars(gm.full_basis(n))])
    """
    assert _fresh_process(code) == "[]\n"


def test_state_path_builds_no_dense_basis_stack():
    # decompose and recompose read the nonzeros too, so states, apply_ev, state files and
    # the worked examples leave the n²×n×n stack unbuilt at every n
    code = """if True:
        import contextlib, io, os, tempfile
        import numpy as np
        import gmchan as gm
        from gmchan import cli, fileio
        from sampling import random_density, random_lf_ev_admissible
        with tempfile.TemporaryDirectory() as tmp:
            for n in range(2, 17):
                rng = np.random.default_rng(n)
                X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                gm.recompose(gm.decompose(X, gm.full_basis(n)), gm.full_basis(n))
                lam = np.full((n, n), 0.5)
                lam[0, 0] = 1.0
                ev = gm.EigenChannel(n=n, lam=lam)
                gm.apply_ev(ev, X)
                rho = gm.DensityMatrix(n=n, entries=random_density(rng, n))
                rho._coefficients
                for ch in (gm.KrausChannel(n=n, p=np.eye(1, n * n).reshape(n, n)), ev):
                    gm.apply_to_state(ch, gm.DensityMatrix(n=n, entries=rho.entries))
                gen = gm.lf_to_ev(random_lf_ev_admissible(rng, n, nonnegative=True))
                gm.evolve_state(gm.evolve_semigroup(gen, gm.uniform_grid(1.0, 3)), rho, 2)
                path = os.path.join(tmp, "state.json")
                fileio.save(gm.DensityMatrix(n=n, entries=random_density(rng, n)), path)
                fileio.load(path)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["examples", which]) for which in ("paper-1", "paper-2")]
        print(codes, [n for n in range(2, 17) if "stack" in vars(gm.full_basis(n))])
    """
    assert _fresh_process(code) == "[0, 0] []\n"


def test_evolution_builds_no_admissibility_cache():
    # the block criterion reads none of the admissibility checks' indices or keys: evolving
    # at n = 48 builds none of their per-n caches, and the kernel table holds the block
    # criterion's and the reverse converters' arrays alone; the first check at n builds its own
    code = """if True:
        import numpy as np
        import gmchan as gm
        from gmchan import channels, converters, generators
        n = 48
        eta = np.full((n, n), -0.5)
        eta[0, 0] = 0.0
        gm.evolve_semigroup(gm.EigenGenerator(n=n, eta=eta), gm.uniform_grid(1.0, 3))
        caches = (channels._column_triples, converters._kf_keys, generators._lf_conditions)
        sizes = [cache.cache_info().currsize for cache in caches]
        print(sizes, sorted(vars(channels._kernel_table(n))))
        ev = gm.EigenChannel(n=5, lam=np.ones((5, 5)))
        gm.ev_is_kf(ev), gm.ev_is_lf(gm.EigenGenerator(n=5, eta=np.zeros((5, 5))))
        print([cache.cache_info().currsize for cache in caches])
    """
    fields = ["block_rows", "hi", "k", "pair_d", "pair_flat", "pair_keys", "pairs"]
    assert _fresh_process(code) == f"[0, 0, 0] {fields}\n[1, 1, 1]\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_large_n_acts_on_states_in_a_quarter_of_one_dense_stack():
    # n = 40: apply_ev and evolve_state must raise the peak RSS (the process's own VmHWM,
    # as below) by less than a quarter of one complex n²×n×n stack, 40⁴ × 16 B = 41 MB.
    # A scattered stack's zero pages fault in lazily, so building one raised the peak by
    # 39.0 MiB, just under the whole stack: a quarter keeps the bound clear of that
    code = """if True:
        import numpy as np
        import gmchan as gm
        def peak_mb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024
        n = 40
        lam, eta = np.full((n, n), 0.5), np.full((n, n), -0.5)
        lam[0, 0], eta[0, 0] = 1.0, 0.0
        ev = gm.EigenChannel(n=n, lam=lam)
        traj = gm.evolve_semigroup(gm.EigenGenerator(n=n, eta=eta), gm.uniform_grid(1.0, 3))
        rho = gm.DensityMatrix(n=n, entries=np.diag(np.linspace(1.0, 3.0, n)) / (2.0 * n))
        X = np.random.default_rng(n).normal(size=(n, n))
        before = peak_mb()
        out = gm.apply_ev(ev, X)
        state = gm.evolve_state(traj, rho, 2).entries
        # depolarizing maps: q X + (1 - q) Tr(X) I / n, with q = 0.5 and q = exp(-0.5)
        q = np.exp(-0.5)
        want = q * rho.entries + (1.0 - q) * np.eye(n) / n
        defect = max(np.max(np.abs(out - (0.5 * X + 0.5 * np.trace(X) * np.eye(n) / n))),
                     np.max(np.abs(state - want)))
        print(float(defect), peak_mb() - before)
    """
    defect, rise = _fresh_process(code).split()
    assert float(defect) <= 1e-14
    assert float(rise) < 40 ** 4 * 16 / 2 ** 20 / 4


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_large_n_checks_and_converts_in_less_than_one_dense_stack():
    # n = 40: one complex n²×n×n stack is 40⁴ × 16 B = 41 MB; the oracle and a round trip
    # through both channel converters must raise the peak RSS by less than that. The peak
    # is the process's own VmHWM: a child's ru_maxrss starts at its parent's RSS
    code = """if True:
        import numpy as np
        import gmchan as gm
        def peak_mb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024
        n = 40
        lam = np.full((n, n), 0.5)
        lam[0, 0] = 1.0
        ev = gm.EigenChannel(n=n, lam=lam)
        before = peak_mb()
        verdict = gm.cp_check_oracle(ev).verdict
        back = gm.kf_to_ev(gm.ev_to_kf(ev)).lam
        print(verdict, float(np.max(np.abs(back - lam))), peak_mb() - before)
    """
    verdict, defect, rise = _fresh_process(code).split()
    assert verdict == "CP" and float(defect) <= 1e-13
    assert float(rise) < 40 ** 4 * 16 / 2 ** 20


@pytest.mark.parametrize("n", (3, 8, 16))
def test_rate_reader_keeps_the_sign_of_a_zero(n):
    # diagonal rates alone leave every diagonal eigenvalue at zero: the reader's sums
    # start from +0.0, so each reads +0.0 (the closed form's c - 0 reads -0.0 for c = -0.0)
    gamma = np.diag(np.r_[0.0, np.linspace(0.1, 0.5, n - 1)])
    eta = lf_to_ev(LindbladGenerator(n=n, gamma=gamma)).eta
    want = eigenvalue_formula(gamma, 0.0, rate=True)
    assert (np.diagonal(eta) == 0.0).all() and not np.signbit(np.diagonal(eta)).any()
    assert np.array_equal(np.signbit(eta), np.signbit(want))
    assert np.max(np.abs(eta - want)) <= 1e-15


@pytest.mark.parametrize("n", (8, 16))
def test_readers_verify_what_they_return(monkeypatch, n):
    import gmchan.channels

    verified, filled = [], []
    verify, fill = gmchan.channels._verify_images, gmchan.channels._choi_entries

    def spy_verify(table, lam, what, rate=False, J=None):
        verified.append((lam.copy(), J, verify(table, lam, what, rate, J)))
        return verified[-1][2]

    def spy_fill(table, rate=False):
        filled.append(fill(table, rate))
        return filled[-1]

    rng = np.random.default_rng(95 + n)
    p = random_kf_ev_admissible(rng, n).p
    gamma = random_lf_ev_admissible(rng, n).gamma
    monkeypatch.setattr(gmchan.channels, "_verify_images", spy_verify)
    monkeypatch.setattr(gmchan.channels, "_choi_entries", spy_fill)
    readers = ((p, False, lambda: kf_to_ev(KrausChannel(n=n, p=p)), "lam"),
               (gamma, True, lambda: lf_to_ev(LindbladGenerator(n=n, gamma=gamma)), "eta"))
    for table, rate, read, field in readers:
        out = read()
        got = getattr(out, field)
        lam, J, J_lam = verified.pop()
        # J is filled once, read and checked: the check sees the very J and lam of the read
        assert len(filled) == 1 and filled.pop() is J
        assert lam.tobytes() == got.tobytes()
        assert J.tobytes() == fill(table, rate).tobytes()
        want = eigenvalue_formula(table, 0.0 if rate else 1.0, rate)
        assert np.max(np.abs(got - want)) <= 1e-15 * _table_scale(table, want)
        if not rate:
            # the channel returned keeps the very fill of lam that the check compared
            assert vars(out)["_choi_values"] is J_lam
            assert J_lam.tobytes() == _eigen_choi(lam).tobytes()


# Per-object memos: what depends on an object's table or entries but not on a tolerance
# is computed once per object, on first use, and kept read-only.

MEMOS = ("_tp_residuals", "_tp_worst", "_residuals", "_choi_values", "_blocks", "_coefficients")


def _counting(monkeypatch, *names):
    import gmchan.channels

    calls = []
    for name in names:
        def call(*args, _original=getattr(gmchan.channels, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(gmchan.channels, name, call)
    return calls


@pytest.mark.parametrize("first", (cp_check_paper, cp_check_normalized))
def test_block_margins_run_once_per_eigen_channel(monkeypatch, first):
    calls = _counting(monkeypatch, "_block_margins")
    ch = random_ev_channel(np.random.default_rng(80), 4)
    second = cp_check_normalized if first is cp_check_paper else cp_check_paper
    reports = [first(ch), second(ch), first(ch), cp_check_oracle(ch)]
    assert calls == ["_block_margins"]
    fresh = EigenChannel(n=4, lam=ch.lam)
    assert reports[0].margin == first(fresh).margin == reports[2].margin


@pytest.mark.parametrize("n", (2, 3, 5))
def test_trace_preservation_evaluated_once_per_kraus_channel(monkeypatch, n):
    from gmchan.converters import kf_is_ev

    p = random_kf_ev_admissible(np.random.default_rng(81), n).p
    calls = _counting(monkeypatch, "_square_sums")
    ch = KrausChannel(n=n, p=p)
    tp_residuals(ch)
    kf_is_ev(ch)
    kf_is_ev(ch, 1e-9)
    kf_to_ev(ch)
    tp_residuals(ch)
    assert calls == ["_square_sums"]


def test_cp_checks_at_two_tolerances_match_fresh_objects():
    # the identity with one pair pushed 2e-6 past its bound: normalized margin
    # -2e-6, so NotCP at the default tolerance and CP at 1e-3
    lam = np.ones((3, 3))
    lam[0, 1] += 2e-6
    lam[1, 0] -= 2e-6
    ch = EigenChannel(n=3, lam=lam)
    for tol in (1e-10, 1e-3, 1e-10):
        for check in (cp_check_paper, cp_check_normalized):
            got, want = check(ch, tol), check(EigenChannel(n=3, lam=lam), tol)
            assert (got.verdict, got.margin) == (want.verdict, want.margin)
            assert got.diagnostics["pair_margins"] == want.diagnostics["pair_margins"]
            for key in ("a_spectrum", "a_matrix", "a_block"):
                if key in want.diagnostics:
                    assert got.diagnostics[key].tobytes() == want.diagnostics[key].tobytes()
    verdicts = {cp_check_normalized(ch, tol).verdict for tol in (1e-10, 1e-3)}
    assert verdicts == {"CP", "NotCP"}


def test_tp_residuals_returns_a_fresh_writable_copy():
    p = np.full((4, 4), 0.05)
    ch = KrausChannel(n=4, p=p)
    first = tp_residuals(ch)
    want = first.copy()
    first[:] = 7.0
    again = tp_residuals(ch)
    assert again.tobytes() == want.tobytes()
    assert again is not first and again.flags.writeable
    assert tp_residuals(KrausChannel(n=4, p=p)).tobytes() == want.tobytes()


def test_report_arrays_and_memos_are_read_only():
    ch = random_ev_channel(np.random.default_rng(82), 3)
    reports = (cp_check_paper(ch), cp_check_normalized(ch), cp_check_oracle(ch))
    arrays = [v for r in reports for v in r.diagnostics.values() if isinstance(v, np.ndarray)]
    arrays += [a for a in ch._blocks if isinstance(a, np.ndarray)]
    kf = random_kf_ev_admissible(np.random.default_rng(82), 4)
    arrays += [kf._tp_residuals, kf._residuals]
    rho = DensityMatrix(n=3, entries=random_density(np.random.default_rng(82), 3))
    arrays += [rho._coefficients]
    assert len(arrays) == 11
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_memos_are_lock_free_and_kept_on_the_instance():
    import functools

    for cls, name in ((KrausChannel, "_tp_residuals"), (KrausChannel, "_tp_worst"),
                      (KrausChannel, "_residuals"), (KrausChannel, "_choi_values"),
                      (EigenChannel, "_choi_values"), (EigenChannel, "_blocks"),
                      (DensityMatrix, "_coefficients"), (CpReport, "diagnostics"),
                      (GellMannBasis, "stack")):
        memo = vars(cls)[name]
        assert not isinstance(memo, functools.cached_property)
        assert hasattr(memo, "__get__") and not hasattr(memo, "__set__")  # non-data
    ch = random_ev_channel(np.random.default_rng(85), 3)
    blocks = ch._blocks
    assert vars(ch)["_blocks"] is blocks and ch._blocks is blocks


def test_constructors_compute_no_memo():
    p = random_kf_ev_admissible(np.random.default_rng(83), 4).p
    rho = DensityMatrix(n=4, entries=np.eye(4) / 4)
    for ch in (KrausChannel(n=4, p=p), EigenChannel(n=4, lam=np.eye(4)), rho):
        assert not set(MEMOS) & set(vars(ch))
    # the trace-preserving flag needs the residuals, and only them
    flagged = KrausChannel(n=4, p=p, trace_preserving=True)
    assert set(MEMOS) & set(vars(flagged)) == {"_tp_residuals", "_tp_worst"}
    # the oracle reads the channel's own Choi entries and no other memo
    ev = EigenChannel(n=4, lam=np.eye(4))
    cp_check_oracle(ev)
    assert set(MEMOS) & set(vars(ev)) == {"_choi_values"}


@pytest.mark.parametrize("copy_of", (copy.deepcopy, lambda ch: pickle.loads(pickle.dumps(ch))))
def test_copies_are_rebuilt_without_memos(copy_of):
    from gmchan.converters import kf_is_ev

    rng = np.random.default_rng(84)
    kf = KrausChannel(n=4, p=random_kf_ev_admissible(rng, 4).p)
    ev = random_ev_channel(rng, 4)
    for ch, result in (
        (kf, lambda ch: (tp_residuals(ch).tobytes(), kf_is_ev(ch), cp_check_oracle(ch).margin)),
        (ev, lambda ch: (cp_check_paper(ch).margin, cp_check_normalized(ch).margin)),
    ):
        want = result(ch)  # fills the memos
        assert set(MEMOS) & set(vars(ch))
        twin = copy_of(ch)
        assert twin is not ch and type(twin) is type(ch)
        table = twin.p if ch is kf else twin.lam
        assert not table.flags.writeable
        assert not set(MEMOS) & set(vars(twin))
        assert result(twin) == want


def _choi_tables(rng, n):
    """A TP admissible weight table, an arbitrary one and an arbitrary eigenvalue table at
    scales 1e-3..1e3."""
    scale = 10.0 ** rng.integers(-3, 4)
    return (random_kf_ev_admissible(rng, n).p, scale * rng.uniform(-1.0, 1.0, (n, n)),
            scale * rng.uniform(-1.0, 1.0, (n, n)))


@pytest.mark.parametrize("n", range(2, 17))
def test_choi_values_are_a_read_only_fresh_fill(n):
    # each form's Choi entries, kept on the channel, are the sparse sum of its table in J's
    # stored order: the eigenvalue form's its M realigned, bit for bit
    layout = _choi_layout(n)
    rng = np.random.default_rng(610 + n)
    for _ in range(4):
        p, q, lam = _choi_tables(rng, n)
        for ch, want in ((KrausChannel(n=n, p=p), _fill(layout, p)),
                         (KrausChannel(n=n, p=q), _fill(layout, q)),
                         (EigenChannel(n=n, lam=lam), _eigen_superoperator(lam)[layout.realign])):
            values = ch._choi_values
            assert vars(ch)["_choi_values"] is values and ch._choi_values is values
            assert values.tobytes() == want.tobytes() and values.dtype == want.dtype
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        ev = kf_to_ev(KrausChannel(n=n, p=p))
        assert not vars(ev)["_choi_values"].flags.writeable
        assert ev._choi_values.tobytes() == EigenChannel(n=n, lam=ev.lam)._choi_values.tobytes()


@pytest.mark.parametrize("copy_of", (copy.copy, copy.deepcopy,
                                     lambda ch: pickle.loads(pickle.dumps(ch))))
def test_copies_rebuild_choi_values_through_the_constructor(copy_of):
    rng = np.random.default_rng(620)
    for n in (2, 5, 16):
        p, q, lam = _choi_tables(rng, n)
        kf = KrausChannel(n=n, p=p)
        for ch in (kf, KrausChannel(n=n, p=q), EigenChannel(n=n, lam=lam), kf_to_ev(kf)):
            want = ch._choi_values
            twin = copy_of(ch)
            assert twin is not ch and "_choi_values" not in vars(twin)
            assert twin._choi_values is not want
            assert twin._choi_values.tobytes() == want.tobytes()
            assert not twin._choi_values.flags.writeable


@pytest.mark.parametrize("n", range(2, 17))
def test_oracle_of_a_converted_channel_matches_a_fresh_one(n):
    # kf_to_ev hands its verified fill of lam to the channel it returns; the oracle and the
    # Choi matrix read from it equal those of a fresh channel of the same lam, bit for bit
    rng = np.random.default_rng(630 + n)
    for scale in (0.0, 0.1, 10.0):
        # an antisymmetric part keeps the table TP and admissible and makes it signed
        p = random_kf_ev_admissible(rng, n).p
        a = rng.uniform(-1.0, 1.0, (n, n))
        ev = kf_to_ev(KrausChannel(n=n, p=p + scale * (a - a.T)))
        fresh = EigenChannel(n=n, lam=ev.lam)
        for tol in (1e-10, 0.0):
            got, want = cp_check_oracle(ev, tol), cp_check_oracle(fresh, tol)
            assert (got.verdict, got.method) == (want.verdict, want.method)
            assert _same(got.margin, want.margin)
            assert _same(got.diagnostics, want.diagnostics)
        got, want = choi_of_channel(ev), choi_of_channel(fresh)
        for field in ("entries", "spectrum"):
            assert _same(getattr(got, field), getattr(want, field))
        assert _same(got.min_eigenvalue, want.min_eigenvalue)
        assert _same(got.hermiticity_defect, want.hermiticity_defect)


@pytest.mark.parametrize("n", (2, 3, 8, 16))
def test_a_validated_diagonal_weight_table_fills_each_table_once(monkeypatch, n):
    # the calls a validate of a basis-diagonal kf table makes (as perfbench's certify op does):
    # the weight table's Choi blocks are filled once, for the oracle and kf_to_ev, and lam's
    # once, for kf_to_ev's check and the eigenvalue channel's oracle
    import gmchan.channels
    from gmchan.converters import kf_is_ev

    fills = []
    fill = gmchan.channels._fill

    def spy(layout, table, dest=None):
        fills.append(table.copy())
        return fill(layout, table, dest)

    p = random_kf_ev_admissible(np.random.default_rng(640 + n), n).p
    monkeypatch.setattr(gmchan.channels, "_fill", spy)
    ch = KrausChannel(n=n, p=p)
    tp_residuals(ch)
    reports = [cp_check_oracle(ch)]
    assert kf_is_ev(ch)[0]
    ev = kf_to_ev(ch)
    reports += [check(ev) for check in (cp_check_oracle, cp_check_paper, cp_check_normalized)]
    assert all(r.is_cp for r in reports)
    assert [f.tobytes() for f in fills] == [
        p.tobytes(), (ev.lam / _choi_layout(n).norms).tobytes()]
    for channel in (ch, ev):
        choi_of_channel(channel)
    assert len(fills) == 2


@pytest.mark.parametrize("copy_of", (copy.copy, lambda rho: pickle.loads(pickle.dumps(rho)),
                                     lambda rho: np.array(rho.entries)))
def test_state_copies_evolve_alike_without_a_stale_memo(copy_of):
    rng = np.random.default_rng(86)
    traj = evolve_semigroup(lf_to_ev(random_lf_ev_admissible(rng, 4, nonnegative=True)),
                            uniform_grid(1.0, 11))
    rho0 = DensityMatrix(n=4, entries=random_density(rng, 4))
    want = [evolve_state(traj, rho0, idx).entries.tobytes() for idx in range(len(traj))]
    assert "_coefficients" in vars(rho0)  # the frames share one decomposition
    twin = copy_of(rho0)
    if isinstance(twin, DensityMatrix):
        # a copy keeps the memo, as a state loaded from a file must keep the file's coefficients
        memo = vars(twin)["_coefficients"]
        assert twin is not rho0 and memo is not rho0._coefficients
        assert memo.tobytes() == rho0._coefficients.tobytes()
        assert not twin.entries.flags.writeable and not memo.flags.writeable
    assert [evolve_state(traj, twin, idx).entries.tobytes() for idx in range(len(traj))] == want


# A report decides from scalars and builds its diagnostics on first read; the
# eager forms in `eager_reports` are the reference, bit for bit.

REFERENCE_SCALES = (1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300, 1e307)


def _same(got, want) -> bool:
    """Equal bit for bit: arrays by dtype, shape, write flag and bytes, dicts entrywise, floats by bytes."""
    if isinstance(want, np.ndarray):
        return type(got) is np.ndarray and (
            (got.dtype, got.shape, got.flags.writeable, got.tobytes())
            == (want.dtype, want.shape, want.flags.writeable, want.tobytes()))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    return type(got) is type(want) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def _reference_tables(rng, n):
    corner = np.zeros((n, n))
    corner[0, 0] = 1.0
    return (rng.uniform(-1.0, 1.0, (n, n)), np.ones((n, n)), -np.ones((n, n)), corner)


@pytest.mark.parametrize("n", range(2, 17))
def test_reports_match_the_eager_reference(n):
    import eager_reports as eager

    rng = np.random.default_rng(90 + n)
    checks = ((cp_check_oracle, eager.oracle), (cp_check_paper, eager.paper),
              (cp_check_normalized, eager.normalized))
    for table in _reference_tables(rng, n):
        for scale in REFERENCE_SCALES:
            for form in ("kf", "ev"):
                t = scale * table
                ch = KrausChannel(n=n, p=t) if form == "kf" else EigenChannel(n=n, lam=t)
                for check, reference in checks[:1] if form == "kf" else checks:
                    for tol in (1e-10, 0.0):
                        got = check(ch, tol)
                        verdict, margin, diagnostics = reference(ch, tol)
                        assert got.verdict == verdict
                        assert _same(got.margin, margin), (check.__name__, form, scale, got.margin, margin)
                        assert _same(got.diagnostics, diagnostics), (check.__name__, form, scale)
                cm, want = choi_of_channel(ch), eager.choi_of_channel(ch)
                got = (cm.entries, cm.spectrum, cm.min_eigenvalue, cm.hermiticity_defect)
                assert all(_same(a, b) for a, b in zip(got, want, strict=True)), (form, scale)


def test_reports_compare_and_hash_by_verdict_method_and_margin():
    ch = random_ev_channel(np.random.default_rng(87), 4)
    twin = EigenChannel(n=4, lam=ch.lam)
    reports = [check(c) for check in (cp_check_oracle, cp_check_paper, cp_check_normalized)
               for c in (ch, twin)]
    for a, b in zip(reports[::2], reports[1::2]):
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"CpReport(verdict={a.verdict!r}, method={a.method!r}, margin={a.margin!r})"
    assert len(set(reports)) == 3


@pytest.mark.parametrize("check, builder", ((cp_check_oracle, "_choi_spectrum"),
                                            (cp_check_paper, "_paper_diagnostics"),
                                            (cp_check_normalized, "_normalized_diagnostics")))
def test_diagnostics_are_built_once_on_first_read(monkeypatch, check, builder):
    import dataclasses

    calls = _counting(monkeypatch, builder)
    rep = check(random_ev_channel(np.random.default_rng(88), 5))
    assert calls == [] and "diagnostics" not in vars(rep)
    first = rep.diagnostics
    assert rep.diagnostics is first and calls == [builder]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.diagnostics = {}


@pytest.mark.parametrize("copy_of", (copy.copy, copy.deepcopy,
                                     lambda rep: pickle.loads(pickle.dumps(rep))))
def test_report_copies_have_the_same_diagnostics(copy_of):
    ch = random_ev_channel(np.random.default_rng(89), 4)
    kf = KrausChannel(n=3, p=random_kf_ev_admissible(np.random.default_rng(89), 3).p)
    for check, c in ((cp_check_oracle, ch), (cp_check_oracle, kf), (cp_check_paper, ch),
                     (cp_check_normalized, ch)):
        for read_first in (False, True):
            rep = check(c)
            want = check(EigenChannel(n=4, lam=ch.lam) if c is ch else c).diagnostics
            if read_first:
                assert _same(rep.diagnostics, want)
            twin = copy_of(rep)
            assert twin == rep and "diagnostics" not in vars(twin)
            assert _same(twin.diagnostics, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oracle_decides_a_table_whose_block_minima_are_both_huge():
    # both smallest block eigenvalues are 1e308: each is finite, though their sum is not
    ch = KrausChannel(n=2, p=5e307 * np.ones((2, 2)))
    rep, cm = cp_check_oracle(ch), choi_of_channel(ch)
    assert cm.spectrum.tolist() == [1e308] * 4
    assert (rep.verdict, rep.margin) == ("CP", cm.min_eigenvalue)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", (2, 3, 5, 8, 16))
def test_oracle_refuses_choi_blocks_that_overflow(n):
    import eager_reports as eager

    rng = np.random.default_rng(91)
    # the ±ones tables fail the n×n eigensolve at n >= 3; the uniform one need not, and
    # then the spectrum holds NaN or +inf, which choi_of_channel refuses too
    for table in (np.ones((n, n)), -np.ones((n, n)), rng.uniform(-1.0, 1.0, (n, n))):
        huge = KrausChannel(n=n, p=1.7e308 * table)
        with pytest.raises(InvariantError, match="overflow"):
            cp_check_oracle(huge)
        with pytest.raises(InvariantError, match="overflow"):
            choi_of_channel(huge)
        # these overflow nothing, or only to an eigenvalue below the float range: decided
        for ch in (KrausChannel(n=n, p=1e307 * table), EigenChannel(n=n, lam=1e307 * table),
                   EigenChannel(n=n, lam=1.7e308 * table)):
            rep = cp_check_oracle(ch)
            assert (rep.verdict, rep.margin) == eager.oracle(ch, DEFAULT_TOL)[:2]
