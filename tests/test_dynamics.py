import warnings

import numpy as np
import pytest

from gmchan.channels import (
    DEFAULT_TOL, DensityMatrix, apply_ev, choi, cp_check_normalized, cp_check_oracle,
)
from gmchan.dynamics import (
    RateProfile,
    Trajectory,
    evolve_semigroup,
    evolve_state,
    evolve_timedep,
    uniform_grid,
)
from gmchan.errors import (
    ConstraintViolated,
    DimensionMismatch,
    IndexOutOfRange,
    InvariantError,
    NotCPAtTime,
    ZeroEigenvalue,
)
from gmchan.generators import (
    EigenGenerator,
    LindbladGenerator,
    eta_from_lambda,
    lambda_from_eta,
    lf_to_ev,
)
from sampling import random_lf_ev_admissible


def test_rate_profile_shapes():
    t = np.array([0.0, 0.5, 1.0])
    assert np.allclose(RateProfile.constant(2.0)(t), [2, 2, 2])
    assert np.allclose(RateProfile.exponential(3.0, 1.0)(t), 3 * np.exp(-t))
    assert np.allclose(RateProfile.polynomial(1.0, 0.0, 2.0)(t), 1 + 2 * t**2)
    tab = RateProfile.tabulated([0.0, 1.0], [0.0, 2.0])
    assert np.allclose(tab(t), 2 * t)


def test_tabulated_profile_rejects_extrapolation():
    tab = RateProfile.tabulated([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConstraintViolated):
        tab(np.array([0.5, 1.5]))


@pytest.mark.parametrize("times", ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]))
def test_tabulated_profile_refuses_non_finite_times(times):
    # NaN fails every comparison of the increasing-times test
    with pytest.raises(ConstraintViolated, match="tabulated times must be finite"):
        RateProfile.tabulated(times, [1.0, 2.0, 3.0])


def test_uniform_grid():
    g = uniform_grid(2.0, 5)
    assert np.allclose(g, [0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ConstraintViolated):
        uniform_grid(-1.0)
    for t_final in (np.nan, np.inf):
        with pytest.raises(ConstraintViolated, match="final time must be finite"):
            uniform_grid(t_final)


@pytest.mark.parametrize("grid, where", [([0.0, np.nan, 1.0], 1), ([0.0, 1.0, np.inf], 2),
                                         ([0.0, 1.0, -np.inf], 2)])
def test_grids_refuse_non_finite_points(grid, where):
    # NaN compares false with every step, and inf - inf warns before any check
    gen = EigenGenerator(n=2, eta=np.array([[0.0, -1.0], [-1.0, -1.0]]))
    match = f"time grid point {where} is not finite"
    with pytest.raises(ConstraintViolated, match=match):
        evolve_semigroup(gen, grid)
    with pytest.raises(ConstraintViolated, match=match):
        lambda_from_eta(np.zeros((3, 2, 2)), grid)
    with pytest.raises(ConstraintViolated, match=match):
        eta_from_lambda(np.ones((3, 2, 2)), grid)
    with pytest.raises(ConstraintViolated, match="point 0 is not finite"):
        eta_from_lambda(np.ones((3, 2, 2)), [np.nan, 1.0, 2.0])


def test_tabulated_profile_copies_its_inputs():
    t, v = np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5)
    prof = RateProfile.tabulated(t, v)
    assert t.flags.writeable and v.flags.writeable
    t[0], v[0] = -1.0, 7.0
    assert prof.times[0] == 0.0 and prof.values[0] == 1.0
    assert not prof.times.flags.writeable and not prof.values.flags.writeable


def test_trajectory_must_start_at_identity():
    grid = np.array([0.0, 1.0])
    lams = np.ones((2, 2, 2))
    lams[0, 1, 1] = 0.5
    with pytest.raises(InvariantError):
        Trajectory(n=2, grid=grid, lams=lams)


@pytest.mark.parametrize("frame, value", [(0, np.nan), (1, np.nan), (1, np.inf), (1, -np.inf)])
def test_trajectory_rejects_non_finite_frames(frame, value):
    # every comparison with a NaN is False, so the identity test alone would
    # pass a NaN first frame; a directly built trajectory is checked like an evolved one
    lams = np.ones((2, 2, 2))
    lams[frame, 1, 1] = value
    with pytest.raises(InvariantError, match="non-finite"):
        Trajectory(n=2, grid=np.array([0.0, 1.0]), lams=lams)


def test_trajectory_trace_eigenvalue_pinned():
    grid = np.array([0.0, 1.0])
    lams = np.ones((2, 2, 2))
    lams[1, 0, 0] = 0.9  # trace eigenvalue must stay 1
    with pytest.raises(InvariantError):
        Trajectory(n=2, grid=grid, lams=lams)


def test_semigroup_law():
    eta = np.array([[0.0, -0.8], [-0.5, -1.1]])
    gen = EigenGenerator(n=2, eta=eta)
    grid = uniform_grid(3.0, 31)  # contains 0.5, 1.0, 1.5
    traj = evolve_semigroup(gen, grid, cp_stride=10)
    lam_s = traj.lams[5]  # t = 0.5
    lam_t = traj.lams[10]  # t = 1.0
    lam_st = traj.lams[15]  # t = 1.5
    assert np.max(np.abs(lam_s * lam_t - lam_st)) <= 1e-14
    assert traj.frame(0).lam[1, 1] == 1.0


def test_semigroup_cp_flags_with_stride():
    eta = np.array([[0.0, -1.0], [-1.0, -2.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(1.0, 11), cp_stride=5)
    assert traj.cp_flags[0] is True
    assert traj.cp_flags[1] is None
    assert traj.cp_flags[5] is True
    assert traj.cp_flags[10] is True  # last frame always checked


def test_timedep_constant_profiles_match_semigroup():
    eta = np.array([[0.0, -0.6], [-0.9, -1.2]])
    gen = EigenGenerator(n=2, eta=eta)
    grid = uniform_grid(1.0, 1001)
    traj_a = evolve_semigroup(gen, grid, cp_stride=100)
    profiles = [
        [None if (i, j) == (0, 0) else RateProfile.constant(eta[i, j]) for j in range(2)]
        for i in range(2)
    ]
    traj_b = evolve_timedep(profiles, grid, cp_stride=100)
    assert np.max(np.abs(traj_a.lams - traj_b.lams)) <= 1e-8


def test_timedep_quadratic_decay_closed_form():
    a = 0.8
    grid = uniform_grid(1.0, 1001)  # h = 1e-3
    profiles = [[None, RateProfile.polynomial(0.0, -2 * a)], [None, None]]
    traj = evolve_timedep(profiles, grid, cp_stride=200)
    target = np.exp(-a * grid**2)
    assert np.max(np.abs(traj.lams[:, 0, 1] - target)) <= 1e-8


def test_quadrature_error_drops_with_halved_step():
    # rate c*exp(-a t) integrates to c(1 - exp(-a t))/a; the trapezoid error
    # on it is genuinely O(h^2), unlike constant or linear rates
    c, a = -1.5, 2.0

    def err(points):
        grid = uniform_grid(1.0, points)
        profiles = [[None, RateProfile.exponential(c, a)], [None, None]]
        traj = evolve_timedep(profiles, grid, cp_stride=points)
        target = np.exp(c * (1.0 - np.exp(-a * grid)) / a)
        return float(np.max(np.abs(traj.lams[:, 0, 1] - target)))

    assert err(101) / err(201) >= 3.5


def test_cp_flag_transition_reported_at_index():
    # Markovian start, rate turning negative later: z rate 1 - t^2 flips the
    # trajectory out of CP somewhere after t = 1
    eta_xy = RateProfile.polynomial(-4.0, 0.0, 2.0)  # -2(g_y + g_z) with g_z = 1 - t^2
    profiles = [
        [None, eta_xy],
        [eta_xy, RateProfile.constant(-4.0)],
    ]
    traj = evolve_timedep(profiles, uniform_grid(3.0, 121))
    flags = list(traj.cp_flags)
    assert flags[0] is True
    assert False in flags
    first_bad = flags.index(False)
    assert first_bad > 5  # stays CP while the rates are still nonnegative
    assert all(f is True for f in flags[:first_bad])


@pytest.mark.parametrize("n", (2, 3, 4))
def test_constant_nonnegative_rates_stay_cp(n):
    rng = np.random.default_rng(500 + n)
    gen = random_lf_ev_admissible(rng, n, nonnegative=True)
    ev = lf_to_ev(gen)
    traj = evolve_semigroup(ev, uniform_grid(2.0, 41))
    assert all(flag is True for flag in traj.cp_flags)


def test_depolarizing_state_limit():
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(20.0, 201))
    rho0 = DensityMatrix(n=2, entries=np.array([[1, 0], [0, 0]], dtype=complex))
    rho_t = evolve_state(traj, rho0, len(traj) - 1)
    assert np.max(np.abs(rho_t.entries - np.eye(2) / 2)) <= 1e-6


def test_evolve_state_rejects_noncp_frame():
    eta = np.array([[0.0, 1.0], [0.0, 0.0]])  # growing eigenvalue, not CP
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(1.0, 11))
    assert traj.cp_flags[-1] is False
    rho0 = DensityMatrix(n=2, entries=np.eye(2, dtype=complex) / 2)
    with pytest.raises(NotCPAtTime) as exc:
        evolve_state(traj, rho0, 10)
    assert exc.value.time_index == 10


def test_evolve_state_rejects_a_state_of_another_dimension():
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(1.0, 11))
    rho0 = DensityMatrix(n=3, entries=np.eye(3, dtype=complex) / 3)
    with pytest.raises(DimensionMismatch):
        evolve_state(traj, rho0, 5)


@pytest.mark.parametrize("index", (1.5, np.float64(2.0), "1", None, -1, 11, 2**70))
def test_frame_indices_that_are_not_integers_in_range_are_refused(index):
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(1.0, 11))
    rho0 = DensityMatrix(n=2, entries=np.eye(2, dtype=complex) / 2)
    with pytest.raises(IndexOutOfRange):
        traj.frame(index)
    with pytest.raises(IndexOutOfRange):
        evolve_state(traj, rho0, index)


def test_numpy_integer_frame_indices_are_accepted():
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(1.0, 11))
    rho0 = DensityMatrix(n=2, entries=np.eye(2, dtype=complex) / 2)
    for index in (np.int64(3), np.uint8(3)):
        assert traj.frame(index).lam.tobytes() == traj.frame(3).lam.tobytes()
        got = evolve_state(traj, rho0, index).entries
        assert got.tobytes() == evolve_state(traj, rho0, 3).entries.tobytes()


def test_an_infinite_tolerance_reads_every_frame_cp():
    # the stacked flags read the single-frame verdict, without a warning
    rates = random_lf_ev_admissible(np.random.default_rng(8), 3, nonnegative=True).gamma.copy()
    rates[1, 1] = -0.3
    gen = lf_to_ev(LindbladGenerator(n=3, gamma=rates))
    rho0 = DensityMatrix(n=3, entries=np.eye(3, dtype=complex) / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = evolve_semigroup(gen, uniform_grid(4.0, 41))
        traj = evolve_semigroup(gen, uniform_grid(4.0, 41), tol=np.inf)
        evolve_state(traj, rho0, 40)
    assert False in strict.cp_flags
    assert traj.cp_flags == (True,) * 41


def test_evolve_state_computes_skipped_flags():
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(1.0, 11), cp_stride=100)
    assert traj.cp_flags[3] is None
    rho0 = DensityMatrix(n=2, entries=np.eye(2, dtype=complex) / 2)
    evolve_state(traj, rho0, 3)  # flag computed on demand, frame is CP


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a pair margin may overflow to -inf
@pytest.mark.parametrize("n", (2, 3, 5, 8, 16))
def test_skipped_frames_near_float_max_are_decided(n):
    # entries up to float max with lam_00 = 1 (a trace-preserving CP map has |lam| <= 1, so
    # none is CP): the on-demand verdict is that of the table's normalized check, NotCPAtTime,
    # never a LinAlgError from the eigensolve
    rng = np.random.default_rng(80 + n)
    top = np.finfo(float).max
    sym = rng.uniform(-1.0, 1.0, (2, n, n))
    huge = [top * np.ones((n, n)), top * rng.uniform(-1.0, 1.0, (n, n)),
            1.7e308 * ((sym[0] + sym[0].T) / 2), top * ((np.abs(sym[1]) + np.abs(sym[1].T)) / 2)]
    for lam in huge:
        lam[0, 0] = 1.0
    lams = np.stack([np.ones((n, n)), *huge, np.ones((n, n))])
    traj = Trajectory(n=n, grid=np.arange(len(lams), dtype=float), lams=lams,
                      cp_flags=(True,) + (None,) * len(huge) + (True,))
    rho0 = DensityMatrix(n=n, entries=np.eye(n) / n)
    for k in range(1, len(huge) + 1):
        assert not cp_check_normalized(traj.frame(k)).is_cp
        with pytest.raises(NotCPAtTime):
            evolve_state(traj, rho0, k)


def test_singular_frames_flagged_but_evolution_continues():
    # strong decay underflows the eigenvalue below the zero threshold
    eta = np.array([[0.0, -8.0], [-8.0, -8.0]])
    traj = evolve_semigroup(EigenGenerator(n=2, eta=eta), uniform_grid(5.0, 26), cp_stride=25)
    assert traj.singular_flags[0] is False
    assert traj.singular_flags[-1] is True
    with pytest.raises(ZeroEigenvalue):
        eta_from_lambda(traj.lams, traj.grid)
    # the map itself is still usable
    rho0 = DensityMatrix(n=2, entries=np.eye(2, dtype=complex) / 2)
    evolve_state(traj, rho0, len(traj) - 1)


def test_eternally_nonmarkovian_qubit_is_cp_every_frame():
    # rates (1, 1, -tanh t): the z rate is negative for all t > 0, yet the
    # trajectory stays CP
    grid = uniform_grid(3.0, 301)
    gz = -np.tanh(grid)
    # generator eigenvalues: eta_x = -2(g_y + g_z), eta_y = -2(g_x + g_z),
    # eta_z = -2(g_x + g_y)
    ex = RateProfile.tabulated(grid, -2.0 * (1.0 + gz))
    ey = RateProfile.tabulated(grid, -2.0 * (1.0 + gz))
    ez = RateProfile.constant(-4.0)
    profiles = [[None, ex], [ey, ez]]
    traj = evolve_timedep(profiles, grid)
    assert all(flag is True for flag in traj.cp_flags)


def test_timedep_ignores_corner_profile():
    grid = uniform_grid(1.0, 11)
    profiles = [[RateProfile.constant(5.0), RateProfile.constant(-1.0)],
                [RateProfile.constant(-1.0), RateProfile.constant(-1.0)]]
    traj = evolve_timedep(profiles, grid, cp_stride=10)
    assert np.max(np.abs(traj.lams[:, 0, 0] - 1.0)) == 0.0


def _negative_rate_semigroup(stride):
    # admissible nonnegative rates with one diagonal rate made negative: the
    # frames leave CP right after t = 0 and re-enter it near t = 1.5
    rates = random_lf_ev_admissible(np.random.default_rng(0), 3, nonnegative=True).gamma.copy()
    rates[2, 2] = -0.1
    gen = lf_to_ev(LindbladGenerator(n=3, gamma=rates))
    return evolve_semigroup(gen, uniform_grid(6.0, 61), cp_stride=stride)


def _oscillating_timedep(stride):
    # Markovian generator times cos(3t): the integrated rates follow sin(3t),
    # so the frames leave and re-enter CP every half period
    gen = lf_to_ev(random_lf_ev_admissible(np.random.default_rng(8), 3, nonnegative=True))
    grid = uniform_grid(4.0, 81)
    profiles = [
        [RateProfile.tabulated(grid, gen.eta[i, j] * np.cos(3.0 * grid)) for j in range(3)]
        for i in range(3)
    ]
    return evolve_timedep(profiles, grid, cp_stride=stride)


@pytest.mark.parametrize("stride", (1, 7))
@pytest.mark.parametrize("build", (_negative_rate_semigroup, _oscillating_timedep))
def test_batched_flags_match_per_frame_choi(build, stride):
    traj = build(stride)
    last = len(traj) - 1
    seen = set()
    for idx, flag in enumerate(traj.cp_flags):
        if idx % stride and idx != last:
            assert flag is None
            continue
        frame = traj.frame(idx)
        margin = choi(lambda X: apply_ev(frame, X), traj.n).min_eigenvalue
        if abs(margin) <= 1e-8:
            continue
        assert flag is (margin >= -DEFAULT_TOL), f"frame {idx}: margin {margin:+.3e}"
        seen.add(flag)
    assert seen == {True, False}


@pytest.mark.parametrize("stride", (0, -3))
def test_nonpositive_stride_rejected(stride):
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    grid = uniform_grid(1.0, 11)
    with pytest.raises(ConstraintViolated):
        evolve_semigroup(EigenGenerator(n=2, eta=eta), grid, cp_stride=stride)
    profiles = [[None, RateProfile.constant(-1.0)], [RateProfile.constant(-1.0), None]]
    with pytest.raises(ConstraintViolated):
        evolve_timedep(profiles, grid, cp_stride=stride)


def test_non_finite_checked_frame_rejected():
    # exp(800) overflows: a frame with an infinite eigenvalue has no verdict
    eta = np.array([[0.0, 800.0], [0.0, 0.0]])
    with pytest.raises(InvariantError):
        evolve_semigroup(EigenGenerator(n=2, eta=eta), np.array([0.0, 1.0]))


@pytest.mark.parametrize("stride", (1, 100))
def test_overflowed_frame_rejected_at_any_stride(stride):
    # the integrated rate 4000 t - 4000 t² overflows exp around t = 0.5 and is
    # back to 0 at t = 1, so at stride 100 only unchecked frames overflow
    rate = RateProfile.polynomial(4000.0, -8000.0)
    profiles = [[None, rate], [rate, rate]]
    with pytest.raises(InvariantError):
        evolve_timedep(profiles, uniform_grid(1.0, 101), cp_stride=stride)


def test_skipped_noncp_frame_decided_on_demand():
    traj = _negative_rate_semigroup(7)
    rho0 = DensityMatrix(n=3, entries=np.eye(3, dtype=complex) / 3)
    skipped = [i for i, flag in enumerate(traj.cp_flags) if flag is None]
    margins = {i: cp_check_oracle(traj.frame(i)).margin for i in skipped}
    noncp = [i for i in skipped if margins[i] < -1e-8]
    assert noncp
    for idx in skipped:
        if abs(margins[idx]) <= 1e-8:
            continue
        if idx in noncp:
            with pytest.raises(NotCPAtTime) as exc:
                evolve_state(traj, rho0, idx)
            assert exc.value.time_index == idx
        else:
            evolve_state(traj, rho0, idx)


# One trajectory is validated and constructed once, and its rate profiles are
# evaluated in groups; none of that may change a bit of the output.


def _profile_alone(prof, t):
    """A profile's values as each kind's own formula gives them, one entry at a time."""
    if prof.kind == "constant":
        return np.full_like(t, prof.params[0])
    if prof.kind == "exponential":
        c, a = prof.params
        return c * np.exp(-a * t)
    if prof.kind == "polynomial":
        return np.polynomial.polynomial.polyval(t, np.array(prof.params))
    return np.interp(t, prof.times, prof.values)


def _mixed_profiles(rng, n):
    """An n×n table of every kind: mixed degrees, two tabulated time sets, None entries."""
    knots_a, knots_b = np.linspace(0.0, 2.0, 9), np.array([0.0, 0.3, 0.35, 1.1, 2.0])
    makers = (
        lambda: RateProfile.constant(rng.normal()),
        lambda: RateProfile.exponential(rng.normal(), rng.normal()),
        lambda: RateProfile.polynomial(rng.normal()),
        lambda: RateProfile.polynomial(*rng.normal(size=2)),
        lambda: RateProfile.polynomial(*rng.normal(size=4)),
        lambda: RateProfile.tabulated(knots_a, rng.normal(size=9)),
        lambda: RateProfile.tabulated(knots_b, [0.0, -0.0, 1.0, 1.0, -2.0]),
        lambda: RateProfile.tabulated(knots_b, rng.normal(size=5)),
        lambda: None,
    )
    return [[makers[(i * n + j) % len(makers)]() for j in range(n)] for i in range(n)]


GRIDS = (
    uniform_grid(2.0, 201),
    np.arange(17) * 0.125,  # hits every knot of the first time set
    np.array([0.0, 0.3, 0.35, 0.5, 1.1, 2.0]),  # and of the second
)


@pytest.mark.parametrize("grid", GRIDS, ids=("linspace", "exact", "knots"))
def test_grouped_profiles_equal_each_profile_alone_bitwise(grid):
    from gmchan.dynamics import _evaluate

    n = 5
    profiles = _mixed_profiles(np.random.default_rng(31), n)
    assert profiles[0][0] is not None  # ignored, though given
    entries = [p for row in profiles for p in row if p is not None]
    together = _evaluate(entries, grid)
    for col, prof in enumerate(entries):
        assert together[:, col].tobytes() == prof(grid).tobytes()
        assert prof(grid).tobytes() == _profile_alone(prof, grid).tobytes()
    etas = np.zeros((grid.size, n, n))
    for i in range(n):
        for j in range(n):
            if profiles[i][j] is not None and (i, j) != (0, 0):
                etas[:, i, j] = _profile_alone(profiles[i][j], grid)
    traj = evolve_timedep(profiles, grid, cp_stride=3)
    assert traj.lams.tobytes() == lambda_from_eta(etas, grid).tobytes()


def test_profile_overflow_reaches_the_trajectory_without_warnings():
    grid = uniform_grid(10.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grow = RateProfile.exponential(-1.0, -1e3)  # -exp(1000 t) overflows to -inf
        assert np.isneginf(grow(grid[1:])).all()
        traj = evolve_timedep([[None, grow], [grow, grow]], grid, cp_stride=10)
        assert traj.singular_flags[-1] is True  # the eigenvalues decayed to exactly 0
        huge = RateProfile.polynomial(1e308, 1e308)
        with pytest.raises(InvariantError, match="eigenvalue table contains non-finite entries"):
            evolve_timedep([[None, huge], [huge, huge]], grid, cp_stride=10)
        flat = RateProfile.constant(1e308)  # finite rates whose integral overflows
        with pytest.raises(InvariantError, match="eigenvalue table contains non-finite entries"):
            evolve_timedep([[None, flat], [flat, flat]], grid, cp_stride=10)


def _build_counted(monkeypatch):
    calls = []
    original = Trajectory.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(Trajectory, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("stride", (1, 50))
def test_each_evolve_call_builds_its_trajectory_once(monkeypatch, stride):
    calls = _build_counted(monkeypatch)
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    grid = uniform_grid(1.0, 201)
    semigroup = evolve_semigroup(EigenGenerator(n=2, eta=eta), grid, cp_stride=stride)
    assert calls == [semigroup]
    profiles = [[None, RateProfile.exponential(-1.0, 0.5)], [RateProfile.constant(-1.0), None]]
    timedep = evolve_timedep(profiles, grid, cp_stride=stride)
    assert calls == [semigroup, timedep]


def _seeded_trajectories(n, stride):
    # a Markovian generator with one diagonal rate made negative, as a
    # semigroup, and the Markovian one times a tabulated cos(3t), whose
    # frames leave and re-enter CP
    rng = np.random.default_rng(700 + n)
    rates = random_lf_ev_admissible(rng, n, nonnegative=True).gamma
    markovian = lf_to_ev(LindbladGenerator(n=n, gamma=rates)).eta
    rates = rates.copy()
    rates[1, 1] = -0.05
    eta = lf_to_ev(LindbladGenerator(n=n, gamma=rates)).eta
    grid = uniform_grid(4.0, 201)
    cos = np.cos(3.0 * grid)
    profiles = [[RateProfile.tabulated(grid, markovian[i, j] * cos) for j in range(n)]
                for i in range(n)]
    return (evolve_semigroup(EigenGenerator(n=n, eta=eta), grid, cp_stride=stride),
            evolve_timedep(profiles, grid, cp_stride=stride))


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_on_demand_verdicts_equal_stored_stride_one_flags(n):
    rho0 = DensityMatrix(n=n, entries=np.eye(n, dtype=complex) / n)
    seen = set()
    for every, strided in zip(_seeded_trajectories(n, 1), _seeded_trajectories(n, 50)):
        assert strided.lams.tobytes() == every.lams.tobytes()
        for idx, (stored, flag) in enumerate(zip(every.cp_flags, strided.cp_flags)):
            if flag is not None:
                assert flag is stored
                continue
            seen.add(stored)
            if stored:
                got = evolve_state(strided, rho0, idx).entries
                assert got.tobytes() == evolve_state(every, rho0, idx).entries.tobytes()
            else:
                with pytest.raises(NotCPAtTime):
                    evolve_state(strided, rho0, idx)
    assert seen == {True, False}
