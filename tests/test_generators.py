import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmchan.basis import full_basis
from gmchan.channels import EigenChannel, apply_ev
from gmchan.errors import ConstraintViolated, InvariantError, NotEV, NotLF, ZeroEigenvalue
from gmchan.generators import (
    EigenGenerator,
    LindbladGenerator,
    apply_lf,
    eta_from_lambda,
    ev_is_lf,
    ev_to_lf,
    lambda_from_eta,
    lf_is_ev,
    lf_to_ev,
)
from sampling import random_lf_ev_admissible

from dense_route import rate_action


def test_lf_annihilates_identity():
    rng = np.random.default_rng(9)
    g = rng.uniform(0, 1, (3, 3))
    g[0, 0] = 0.0
    gen = LindbladGenerator(n=3, gamma=g)
    ident = np.eye(3, dtype=complex)
    assert np.max(np.abs(apply_lf(gen, ident))) <= 1e-13


def test_lf_output_traceless():
    rng = np.random.default_rng(10)
    g = rng.uniform(0, 1, (4, 4))
    g[0, 0] = 0.0
    gen = LindbladGenerator(n=4, gamma=g)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(np.trace(apply_lf(gen, x))) <= 1e-12


def test_pauli_degeneration_frozen():
    # gamma = (a, a, 0) <-> eta = (-2a, -2a, -4a)
    a = 0.37
    eg = EigenGenerator(n=2, eta=np.array([[0.0, -2 * a], [-2 * a, -4 * a]]))
    lf = ev_to_lf(eg)
    assert np.allclose(lf.gamma, [[0.0, a], [a, 0.0]], atol=1e-14)
    back = lf_to_ev(lf)
    assert np.allclose(back.eta, eg.eta, atol=1e-14)


def test_lf_is_ev_violation_triple():
    g = np.array([[0.0, 0.21, 0.13], [0.17, 0.31, 0.23], [0.29, 0.11, 0.37]])
    gen = LindbladGenerator(n=3, gamma=g)
    ok, violations = lf_is_ev(gen)
    assert not ok
    assert violations == [(0, 1, 2)]
    with pytest.raises(NotEV) as exc:
        lf_to_ev(gen)
    assert exc.value.violations == [(0, 1, 2)]


def test_ev_is_lf_detects_bad_diagonal():
    rng = np.random.default_rng(3)
    gen = random_lf_ev_admissible(rng, 4)
    eta = lf_to_ev(gen).eta.copy()
    eta[2, 2] += 0.5  # break the diagonal chain condition
    ok, violations = ev_is_lf(EigenGenerator(n=4, eta=eta))
    assert not ok
    assert any(v[0] == "diag" for v in violations)
    with pytest.raises(NotLF):
        ev_to_lf(EigenGenerator(n=4, eta=eta))


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_lf_ev_lf(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(25):
        gen = random_lf_ev_admissible(rng, n)
        ev = lf_to_ev(gen)
        back = ev_to_lf(ev)
        assert np.max(np.abs(back.gamma - gen.gamma)) <= 1e-11
        again = lf_to_ev(back)
        assert np.max(np.abs(again.eta - ev.eta)) <= 1e-11


@pytest.mark.parametrize("n", range(2, 7))
def test_generator_eigenvector_oracle(n):
    rng = np.random.default_rng(400 + n)
    b = full_basis(n)
    for _ in range(10):
        gen = random_lf_ev_admissible(rng, n)
        ev = lf_to_ev(gen)
        for i in range(n):
            for j in range(n):
                got = apply_lf(gen, b.matrix(i, j))
                want = ev.eta[i, j] * b.matrix(i, j)
                assert np.max(np.abs(got - want)) <= 1e-11


def _dyadic_rates(rng, n, scale):
    # basis-diagonal with dyadic entries: in each column l the symmetrized
    # rates g_jl + g_lj are all exactly c_l; scale is a power of two
    c = rng.integers(0, 64, n) / 16.0
    a = rng.integers(-32, 33, (n, n)) / 32.0
    g = np.triu(c / 2.0 + a, 1) + np.triu(c / 2.0 - a, 1).T
    g[np.arange(1, n), np.arange(1, n)] = rng.integers(0, 64, n - 1) / 16.0
    return scale * g


@pytest.mark.parametrize("n", range(2, 17))
def test_lf_to_ev_matches_dense_rate_action(n):
    # eta_b = Tr(sigma_b L[sigma_b]) / Tr(sigma_b²), read off the dense reference action
    rng = np.random.default_rng(500 + n)
    b = full_basis(n)
    for scale in (2.0**-20, 1.0, 2.0**20):
        g = _dyadic_rates(rng, n, scale)
        images = rate_action(g, b.stack)
        want = (np.einsum("aij,aji->a", b.stack, images).real / b.norms_sq).reshape(n, n)
        got = lf_to_ev(LindbladGenerator(n=n, gamma=g)).eta
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("scale", (2.0**12, 2.0**14))
def test_lf_to_ev_accepts_large_tables(scale):
    # exactly basis-diagonal, so the conversion is correct; the oracle's
    # rounding grows with the entries and its bound must grow with them
    rng = np.random.default_rng(7)
    for n in range(2, 17):
        for _ in range(10):
            g = _dyadic_rates(rng, n, 1.0)
            eta = lf_to_ev(LindbladGenerator(n=n, gamma=scale * g)).eta
            # a power-of-two scale changes no rounding
            assert np.array_equal(eta, scale * lf_to_ev(LindbladGenerator(n=n, gamma=g)).eta)


def test_lf_to_ev_refuses_an_overflowed_verification():
    # both superoperators overflow, so the defect is NaN, which no bound admits
    g = 1e308 * random_lf_ev_admissible(np.random.default_rng(0), 3).gamma
    want = "lf_to_ev: closed-form output fails the application oracle"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvariantError, match=want):
        lf_to_ev(LindbladGenerator(n=3, gamma=g))


def test_ev_to_lf_inverts_lf_to_ev_on_large_tables():
    # ev_is_lf's rounding grows with the table, so must its threshold
    rng = np.random.default_rng(7)
    for n in range(2, 17):
        for _ in range(10):
            g = _dyadic_rates(rng, n, 2.0**14)
            back = ev_to_lf(lf_to_ev(LindbladGenerator(n=n, gamma=g))).gamma
            assert np.max(np.abs(back - g)) <= 1e-11 * 2.0**14


@pytest.mark.parametrize("n", range(3, 9))
def test_ev_is_lf_violations_do_not_depend_on_scale(n):
    # an admissible table with entries above 1, plus violations far past
    # tol and far within it; a power-of-two scale changes no rounding
    rng = np.random.default_rng(40 + n)
    eta = lf_to_ev(LindbladGenerator(n=n, gamma=_dyadic_rates(rng, n, 4.0))).eta.copy()
    assert np.max(np.abs(eta)) > 1.0
    eta[1, 2] += 1e-3  # breaks ht_02 = ht_12
    eta[2, n - 1] += 1e-14
    ok, violations = ev_is_lf(EigenGenerator(n=n, eta=eta))
    assert not ok
    assert ev_is_lf(EigenGenerator(n=n, eta=2.0**14 * eta)) == (ok, violations)


def test_apply_ev_gen_scales():
    # an eigenvalue-form generator acts as apply_ev on its table
    eta = np.array([[0.0, -1.0], [-2.0, -3.0]])
    gen = EigenGenerator(n=2, eta=eta)
    b = full_basis(2)
    got = apply_ev(EigenChannel(n=2, lam=gen.eta), b.matrix(1, 1))
    assert np.allclose(got, -3.0 * b.matrix(1, 1), atol=1e-15)


def test_nonzero_corner_rate_warns_and_is_zeroed():
    g = np.zeros((2, 2))
    g[0, 0] = 0.4
    g[0, 1] = 0.2
    g[1, 0] = 0.2
    with pytest.warns(UserWarning):
        gen = LindbladGenerator(n=2, gamma=g)
    assert gen.gamma[0, 0] == 0.0


def test_eta_from_lambda_recovers_constant_rate():
    grid = np.linspace(0.0, 2.0, 401)
    a = 0.7
    lams = np.exp(-a * grid)[:, None, None] * np.ones((1, 2, 2))
    lams[:, 0, 0] = 1.0
    etas = eta_from_lambda(lams, grid)
    assert np.max(np.abs(etas[:, 1, 1] + a)) <= 1e-10
    assert np.max(np.abs(etas[:, 0, 0])) <= 1e-12


def test_eta_from_lambda_rejects_zero_crossing():
    grid = np.linspace(0.0, 2.0, 101)
    lams = np.ones((101, 2, 2))
    lams[:, 1, 1] = 1.0 - grid  # crosses zero at t=1
    with pytest.raises(ZeroEigenvalue) as exc:
        eta_from_lambda(lams, grid)
    assert exc.value.component == (1, 1)


def test_lambda_from_eta_trapezoid_matches_quadratic_decay():
    grid = np.linspace(0.0, 1.0, 1001)
    a = 0.9
    etas = np.zeros((1001, 2, 2))
    etas[:, 1, 1] = -2 * a * grid  # eta = d/dt ln exp(-a t^2)
    lams = lambda_from_eta(etas, grid)
    assert np.max(np.abs(lams[:, 1, 1] - np.exp(-a * grid**2))) <= 1e-8
    assert np.all(lams[0] == 1.0)


def test_lambda_from_eta_needs_grid_from_zero():
    grid = np.linspace(0.5, 1.0, 11)
    with pytest.raises(ConstraintViolated):
        lambda_from_eta(np.zeros((11, 2, 2)), grid)


def test_round_trip_eta_lambda_order():
    # second-order scheme: halving h cuts the defect by about 4
    a = 1.3

    def defect(points):
        grid = np.linspace(0.0, 1.0, points)
        etas = np.zeros((points, 2, 2))
        etas[:, 1, 1] = -(1.0 + a * grid**2)
        lams = lambda_from_eta(etas, grid)
        back = eta_from_lambda(lams, grid)
        return float(np.max(np.abs(back[:, 1, 1] - etas[:, 1, 1])))

    e1, e2 = defect(101), defect(201)
    order = np.log2(e1 / e2)
    assert order >= 1.9


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 5))
def test_lf_ev_round_trip_hypothesis(seed, n):
    rng = np.random.default_rng(seed)
    gen = random_lf_ev_admissible(rng, n)
    back = ev_to_lf(lf_to_ev(gen))
    assert np.max(np.abs(back.gamma - gen.gamma)) <= 1e-11


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
def test_eta_from_lambda_rejects_non_finite_samples(value):
    # a NaN is no sign change and an infinity no rate: both are reported as
    # non-finite entries, before the zero and sign scans; a component that is 0
    # in frame 0 is scanned without 0 * inf, so no RuntimeWarning comes first
    grid = np.linspace(0.0, 1.0, 11)
    for zero_at in ((7, 1, 1), (0, 1, 0)):
        lams = np.exp(-np.outer(grid, [0.0, 0.5, 0.5, 1.0])).reshape(11, 2, 2)
        lams[4, 1, 0] = value
        lams[zero_at] = 0.0
        with pytest.raises(InvariantError, match=r"1 non-finite entries, the first at "
                                                 r"component \(1, 0\), grid index 4"):
            eta_from_lambda(lams, grid)


@pytest.mark.parametrize("first, later, message", [
    (0.0, 0.5, "vanishes at grid index 0"),
    (-0.0, 0.5, "vanishes at grid index 0"),
    (0.5, -0.25, r"changes sign by grid index 6 \(crossed zero between samples\)"),
    (-0.5, 0.25, "changes sign by grid index 6"),
])
def test_eta_from_lambda_names_the_first_zero_or_sign_change(first, later, message):
    # one scan reads each sample against its first frame's sign; the message names the first
    # failing sample, frame by frame
    grid = np.linspace(0.0, 1.0, 11)
    lams = np.ones((11, 2, 2))
    lams[:, 0, 1] = -np.exp(-grid)  # a fixed negative sign is fine
    lams[:6, 1, 0], lams[6:, 1, 0] = first, later
    with pytest.raises(ZeroEigenvalue, match=message) as exc:
        eta_from_lambda(lams, grid)
    assert exc.value.component == (1, 0)


def _uneven(points):
    steps = np.random.default_rng(points).uniform(0.5, 1.5, points - 1)
    return np.concatenate([[0.0], np.cumsum(steps)]) / points


@pytest.mark.parametrize("points", (3, 4, 201))
@pytest.mark.parametrize("grid_of", (
    lambda p: np.arange(p) * 0.125,  # every step exactly equal: numpy's uniform formulas
    lambda p: np.linspace(0.0, 1.3, p),  # steps differ in the last bit
    _uneven,
), ids=("exact", "linspace", "uneven"))
def test_eta_from_lambda_equals_numpy_gradient_bitwise(points, grid_of):
    grid = grid_of(points)
    rng = np.random.default_rng(points)
    lams = np.exp(np.cumsum(rng.uniform(-1.0, 0.5, (points, 3, 3)), axis=0) * 0.1)
    lams[:, 1, 2] *= -1.0  # a fixed negative sign is fine
    want = np.gradient(np.log(np.abs(lams)), grid, axis=0, edge_order=2)
    assert eta_from_lambda(lams, grid).tobytes() == want.tobytes()
