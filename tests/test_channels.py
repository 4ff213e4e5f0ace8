import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmchan.basis import full_basis
from gmchan.channels import (
    ChoiMatrix,
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
    _basis_images,
    _block_margins,
    _choi_layout,
    _image_defect,
    _pair_dict,
    _tp_solve,
)
from gmchan.errors import (
    ConstraintViolated,
    InvalidChannel,
    InvariantError,
    NegativeCoefficient,
    NonLinearMap,
)
from gmchan.crossval import _halved_self_term_spectrum
from gmchan.generators import LindbladGenerator, apply_lf
from gmchan.converters import kf_to_ev
from gmchan.sampling import random_density, random_ev_channel, random_kf_ev_admissible

from dense_route import rate_action, sandwich


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


def test_density_matrix_validation():
    with pytest.raises(InvariantError):
        DensityMatrix(n=2, entries=np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(InvariantError):
        DensityMatrix(n=2, entries=np.diag([0.9, 0.3]).astype(complex))
    with pytest.raises(InvariantError):
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
    from gmchan.sampling import random_tp_kraus

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
    from gmchan.sampling import random_tp_kraus

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
    for src, dest, coef in layout.terms.values():
        assert src.shape == dest.shape == coef.shape
        assert np.array_equal(np.unique(dest), np.arange(layout.rows.size))


def _layout_by_loop(n):
    # the layout's index arrays and term lists, one basis matrix at a time
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
    coef = coef.real
    terms = {
        "kf": (src, stored(r, c), coef),
        "ev": (src, stored(r // n * n + c // n, r % n * n + c % n), coef / b.norms_sq[src]),
    }
    diag = np.arange(n) * (n + 1)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    sector = np.stack([i * n + j, j * n + i], axis=1)
    rows = np.concatenate([np.repeat(diag, n), np.repeat(sector, 2, axis=1).ravel()])
    cols = np.concatenate([np.tile(diag, n), np.tile(sector, 2).ravel()])
    return rows, cols, stored(cols, rows), terms


@pytest.mark.parametrize("n", range(2, 17))
def test_choi_layout_matches_loop_form(n):
    layout = _choi_layout(n)
    rows, cols, mirror, terms = _layout_by_loop(n)
    for got, want in [(layout.rows, rows), (layout.cols, cols), (layout.mirror, mirror)] + [
        (got, want) for form in terms for got, want in zip(layout.terms[form], terms[form])
    ]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert sorted(layout.terms) == sorted(terms) == ["ev", "kf"]
    # the diagonals of the squared basis matrices, which are diagonal, exactly
    stack = full_basis(n).stack
    squares = stack @ stack
    assert np.count_nonzero(squares) == np.count_nonzero(np.diagonal(squares, axis1=1, axis2=2))
    assert np.array_equal(layout.squares, np.diagonal(squares, axis1=1, axis2=2))


@pytest.mark.parametrize("n", range(2, 17))
def test_basis_images_match_dense_route(n):
    # arbitrary tables, so the maps are not diagonal and every block entry counts
    rng = np.random.default_rng(100 + n)
    layout = _choi_layout(n)
    stack = full_basis(n).stack
    for rate, dense_route in ((False, sandwich), (True, rate_action)):
        for scale in (1e-6, 1.0, 1e6):
            table = scale * rng.uniform(-1.0, 1.0, (n, n))
            lam = scale * rng.uniform(-1.0, 1.0, (n, n))
            dense = dense_route(table, stack)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(dense))))
            images = np.zeros((n * n, n * n), dtype=complex)
            images[layout.members, layout.rows] = _basis_images(table, rate)
            assert np.max(np.abs(images - dense.reshape(n * n, n * n))) <= bound
            want = float(np.max(np.abs(dense - lam.reshape(-1, 1, 1) * stack)))
            assert abs(_image_defect(table, lam, rate) - want) <= bound


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
        for one, dense in (
            (lambda X: apply_kf(ch, X), sandwich(ch.p, X)),
            (lambda X: apply_lf(gen, X), rate_action(gen.gamma, X)),
        ):
            got = np.stack([one(x) for x in X])
            bound = 1e-12 * np.maximum(1.0, np.max(np.abs(dense), axis=(1, 2)))
            assert np.all(np.max(np.abs(got - dense), axis=(1, 2)) <= bound)


def _edit_basis(monkeypatch, n, edits):
    # the layout, uncached, sees a basis with (index, value) entries changed
    import gmchan.channels as channels

    b = full_basis(n)
    stack = b.stack.copy()
    for index, value in edits:
        stack[index] = value
    bad = type(b)(n=n, stack=stack, norms_sq=b.norms_sq)
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
# (`_column_violations` in test_converters). n = 2 has one pair, n = 3 no TP
# recursion step.


def _pair_margins_by_loop(lam):
    # d_j - |l_ij - l_ji|/2 per pair i < j, with d_j = l_00/n - l_jj/(j+1) + tail_j
    n = lam.shape[0]
    margins = {}
    for i in range(n):
        for j in range(i + 1, n):
            tail = np.sum([lam[m, m] / (m * (m + 1.0)) for m in range(j + 1, n)])
            d = lam[0, 0] / n - lam[j, j] / (j + 1.0) + tail
            margins[(i, j)] = d - abs(lam[i, j] - lam[j, i]) / 2.0
    return margins


@pytest.mark.parametrize("n", (2, 3, 16))
def test_block_margins_pairs_match_loop_form(n):
    rng = np.random.default_rng(70 + n)
    lams = rng.uniform(-1.0, 1.0, (4, n, n))
    pairs = _block_margins(lams)[2]
    assert pairs.shape == (4, n * (n - 1) // 2)
    for lam, row in zip(lams, pairs):
        want = _pair_margins_by_loop(lam)
        assert row.tolist() == list(want.values())
        assert _block_margins(lam)[2].tolist() == row.tolist()
        got = _pair_dict(n, row)
        assert list(got) == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert got == want


def _tp_steps_by_loop(p):
    # step j = 2..n-2 of the TP recursion, as the two sums that define it
    n = p.shape[0]
    pt = p + p.T
    return [
        (j + 1.0) / (2.0 * j)
        * (np.sum(pt[:j, j] - pt[:j, j + 1]) + np.sum(pt[j, j + 2:] - pt[j + 1, j + 2:]))
        for j in range(2, n - 1)
    ]


@pytest.mark.parametrize("n", (3, 4, 9, 16))
def test_tp_solve_matches_per_step_sums(n):
    rng = np.random.default_rng(60 + n)
    for scale in (1e-3, 1.0, 1e3):
        p = scale * rng.uniform(-1.0, 1.0, (n, n))
        steps = _tp_solve(p)[2]
        want = np.cumsum(_tp_steps_by_loop(p))
        assert steps.shape == want.shape == (n - 3,)
        if n <= 9:
            # no sum has more than 7 terms, even padded to n - 2 with zeros,
            # and numpy adds that few in order: the result is the loop's
            assert steps.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(steps - want)) <= 4e-14 * scale


# Per-object memos: what depends on a channel's table but not on a tolerance
# is computed once per object, on first use, and kept read-only.

MEMOS = ("_tp_residuals", "_tp_worst", "_gaps", "_blocks")


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
    calls = _counting(monkeypatch, "_tp_p00", "_tp_solve")
    ch = KrausChannel(n=n, p=p)
    tp_residuals(ch)
    kf_is_ev(ch)
    kf_is_ev(ch, 1e-9)
    kf_to_ev(ch)
    tp_residuals(ch)
    assert calls == ["_tp_p00"] + ["_tp_solve"] * (n > 2)


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
    arrays += [kf._tp_residuals, kf._gaps]
    assert len(arrays) == 10
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_constructors_compute_no_memo():
    p = random_kf_ev_admissible(np.random.default_rng(83), 4).p
    for ch in (KrausChannel(n=4, p=p), EigenChannel(n=4, lam=np.eye(4))):
        assert not set(MEMOS) & set(vars(ch))
    # the trace-preserving flag needs the residuals, and only them
    flagged = KrausChannel(n=4, p=p, trace_preserving=True)
    assert set(MEMOS) & set(vars(flagged)) == {"_tp_residuals", "_tp_worst"}
    # the oracle is an independent route: it reads no memo and stores none
    ev = EigenChannel(n=4, lam=np.eye(4))
    cp_check_oracle(ev)
    assert not set(MEMOS) & set(vars(ev))


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
