import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmchan import converters, generators
from gmchan.basis import full_basis
from gmchan.channels import EigenChannel, KrausChannel, _column_violations, apply_kf, complete_tp
from gmchan.converters import ev_is_kf, ev_to_kf, kf_is_ev, kf_to_ev
from gmchan.errors import InvariantError, NegativeCoefficient, NotEV, NotKF, NotTracePreserving
from gmchan.generators import LindbladGenerator, lf_is_ev, lf_to_ev
from gmchan.sampling import random_kf_ev_admissible, random_lf_ev_admissible


def test_kf_to_ev_frozen_qubit():
    # p = (5/8, 1/8, 1/8, 1/8) -> lambda = (1/2, 1/2, 1/2)
    ch = KrausChannel(n=2, p=np.array([[5 / 8, 1 / 8], [1 / 8, 1 / 8]]))
    ev = kf_to_ev(ch)
    assert ev.trace_preserving
    assert np.allclose(ev.lam, [[1.0, 0.5], [0.5, 0.5]], atol=1e-15)


def test_ev_to_kf_frozen_qubit():
    # lambda = (1/2, 1/4, 1/4) -> p = (1/2, 1/4, 1/8, 1/8)
    ev = EigenChannel(n=2, lam=np.array([[1.0, 0.5], [0.25, 0.25]]))
    kf = ev_to_kf(ev)
    assert np.allclose(kf.p, [[0.5, 0.25], [0.125, 0.125]], atol=1e-15)


def test_ev_to_kf_negative_weights_reported_not_rejected():
    # lambda = (1, 1, -1) is a valid channel with a negative weight table
    ev = EigenChannel(n=2, lam=np.array([[1.0, 1.0], [1.0, -1.0]]))
    kf = ev_to_kf(ev)
    assert np.allclose(kf.p, [[0.5, 0.5], [0.5, -0.5]], atol=1e-14)
    assert not kf.nonnegative


def test_kf_is_ev_reports_column_violations():
    off = np.zeros((4, 4))
    off[0, 1], off[1, 0] = 0.013, 0.009
    off[0, 2], off[2, 0] = 0.017, 0.007
    off[1, 2], off[2, 1] = 0.012, 0.012
    off[0, 3], off[3, 0] = 0.011, 0.011
    off[1, 3], off[3, 1] = 0.015, 0.007
    off[2, 3], off[3, 2] = 0.019, 0.019
    ch = complete_tp(off, 0.05)
    ok, violations = kf_is_ev(ch)
    assert not ok
    assert violations == [(0, 2, 3), (1, 2, 3)]
    with pytest.raises(NotEV) as exc:
        kf_to_ev(ch)
    assert exc.value.violations == [(0, 2, 3), (1, 2, 3)]


def test_kf_to_ev_requires_trace_preservation():
    p = np.zeros((3, 3))
    p[0, 0] = 0.5  # trace lost
    with pytest.raises(NotTracePreserving):
        kf_to_ev(KrausChannel(n=3, p=p))


def test_ev_is_kf_violation_tags():
    # diagonal eigenvalues out of the reachable pattern
    lam = np.eye(4)
    lam[1, 1], lam[2, 2], lam[3, 3] = 0.9, 0.1, 0.9
    lam[0, 1] = lam[1, 0] = 0.9
    lam[0, 2] = lam[2, 0] = 0.9
    lam[0, 3] = lam[3, 0] = 0.9
    lam[1, 2] = lam[2, 1] = 0.9
    lam[1, 3] = lam[3, 1] = 0.9
    lam[2, 3] = lam[3, 2] = 0.9
    ev = EigenChannel(n=4, lam=lam)
    ok, violations = ev_is_kf(ev)
    assert not ok
    kinds = {v[0] for v in violations}
    assert "diag" in kinds
    with pytest.raises(NotKF):
        ev_to_kf(ev)


def test_ev_to_kf_requires_unit_trace_eigenvalue():
    lam = np.full((3, 3), 0.5)
    with pytest.raises(NotTracePreserving):
        ev_to_kf(EigenChannel(n=3, lam=lam))


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_kf_ev_kf(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        ch = random_kf_ev_admissible(rng, n)
        ev = kf_to_ev(ch)
        back = ev_to_kf(ev)
        assert np.max(np.abs(back.p - ch.p)) <= 1e-11
        again = kf_to_ev(back)
        assert np.max(np.abs(again.lam - ev.lam)) <= 1e-11


@pytest.mark.parametrize("n", range(2, 7))
def test_eigenvector_oracle_on_converted(n):
    rng = np.random.default_rng(200 + n)
    b = full_basis(n)
    for _ in range(10):
        ch = random_kf_ev_admissible(rng, n)
        ev = kf_to_ev(ch)
        for i in range(n):
            for j in range(n):
                got = apply_kf(ch, b.matrix(i, j))
                want = ev.lam[i, j] * b.matrix(i, j)
                assert np.max(np.abs(got - want)) <= 1e-11


def test_unconditional_offdiagonal_formula():
    # lambda_kl for k > l must follow the weight asymmetry, not transpose
    rng = np.random.default_rng(42)
    ch = random_kf_ev_admissible(rng, 3)
    ev = kf_to_ev(ch)
    asym = ev.lam - ev.lam.T
    p_asym = ch.p - ch.p.T
    for k in range(3):
        for l in range(3):
            if k != l:
                assert abs(asym[k, l] - 2 * p_asym[k, l]) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 5))
def test_conversion_closes_under_hypothesis(seed, n):
    rng = np.random.default_rng(seed)
    ch = random_kf_ev_admissible(rng, n)
    back = ev_to_kf(kf_to_ev(ch))
    assert np.max(np.abs(back.p - ch.p)) <= 1e-11


def _column_violations_by_loop(table, tol=1e-12):
    # the column-equality check as the converters wrote it out, loop by loop
    n = table.shape[0]
    sym = table + table.T
    violations = []
    for l in range(1, n):
        for j in range(l):
            for k in range(j + 1, l):
                if abs(sym[j, l] - sym[k, l]) > tol:
                    violations.append((j, k, l))
    return violations


def _planted_columns(rng, n, scale):
    # random table whose symmetrized entries agree within each column for a
    # random subset of rows (always rows 0 and 1, which keeps a weight table
    # balanced), off by 3e-12 for another subset, and random elsewhere
    t = scale * rng.uniform(0.0, 1.0, (n, n))
    for l in range(1, n):
        common = 2.0 * scale * rng.uniform()
        for j in range(l):
            kind = 0 if j < 2 else rng.integers(0, 3)
            if kind < 2:
                t[l, j] = common + 3e-12 * kind - t[j, l]
    return t


@pytest.mark.parametrize("form", ("kf", "ev", "lf"))
def test_column_violations_match_loop_form(form):
    rng = np.random.default_rng(12)
    seen = 0
    for n in (*range(2, 11), 16):
        for _ in range(6):
            if form == "kf":
                table = _planted_columns(rng, n, 1e-3)
                try:
                    ch = complete_tp(table, 0.1)
                except NegativeCoefficient:
                    continue
                ok, got = kf_is_ev(ch)
                want = _column_violations_by_loop(ch.p)
            elif form == "ev":
                table = _planted_columns(rng, n, 1.0)
                table[0, 0] = 1.0
                ok, got = ev_is_kf(EigenChannel(n=n, lam=table))
                got = [v[1:] for v in got if v[0] == "tilde"]
                want = _column_violations_by_loop(table)
            else:
                table = _planted_columns(rng, n, 1.0)
                table[0, 0] = 0.0
                ok, got = lf_is_ev(LindbladGenerator(n=n, gamma=table))
                want = _column_violations_by_loop(table)
            assert got == want
            assert all(type(i) is int for v in got for i in v)
            # tol < 0 flags every triple j < k < l: all of them, in loop order
            assert _column_violations(table, -1.0) == _column_violations_by_loop(table, -1.0)
            seen += bool(want)
    assert seen >= 20


@pytest.mark.parametrize("name", ("kf_to_ev", "ev_to_kf", "lf_to_ev", "ev_to_lf"))
@pytest.mark.parametrize("entry", ((3, 7), (15, 15)))
def test_converters_reject_a_perturbed_closed_form(monkeypatch, name, entry):
    # the closed-form output, nudged by 1e-9 before the converter verifies it
    rng = np.random.default_rng(16)
    ch = random_kf_ev_admissible(rng, 16)
    gen = random_lf_ev_admissible(rng, 16)
    inputs = {"kf_to_ev": ch, "ev_to_kf": kf_to_ev(ch), "lf_to_ev": gen, "ev_to_lf": lf_to_ev(gen)}
    module = converters if name in ("kf_to_ev", "ev_to_kf") else generators
    outputs_eigenvalues = name in ("kf_to_ev", "lf_to_ev")
    verify = module._verify_images

    def nudged(table, lam, what, rate=False):
        out = (lam if outputs_eigenvalues else table).copy()
        out[entry] += 1e-9
        return verify(table, out, what, rate) if outputs_eigenvalues else verify(out, lam, what, rate)

    convert = getattr(module, name)
    convert(inputs[name])
    monkeypatch.setattr(module, "_verify_images", nudged)
    with pytest.raises(InvariantError, match=f"{name}: closed-form output fails"):
        convert(inputs[name])
