"""Time evolution of eigenvalue-form channels.

A Trajectory samples the channel eigenvalue table on a time grid starting at
t = 0, where the map is the identity. Two builders:

  evolve_semigroup  constant generator eigenvalues, closed form exp(eta * t)
  evolve_timedep    per-entry rate profiles, evaluated in groups (`_evaluate`),
                    and trapezoid quadrature of the integral the eigenvalues
                    exponentiate

Each checks its grid and builds its Trajectory once, whose constructor alone
validates the frames. A frame can carry a CP verdict (every frame by default; a
stride skips frames, leaving their flag None), the normalized block criterion's
(`_psd_blocks`): for the checked frames together, pair margins and Cholesky
pivots of their blocks laid out frame-last, no eigensolve; for a skipped one,
on demand, margin >= -tol of the margin `cp_check_normalized` reports, pair
margins first. The block spectra make up the Choi spectrum: each verdict is the
oracle's. Frames where some eigenvalue sits within 1e-13 of zero are flagged
singular: the map is fine, but no generator eigenvalue table exists there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_TOL, DensityMatrix, EigenChannel, _eigen_action, _psd_blocks,
)
from .errors import (
    ConstraintViolated, DimensionMismatch, IndexOutOfRange, InvariantError, NotCPAtTime,
)
from .generators import EigenGenerator, ZERO_TOL, _check_grid, _integrated


@dataclass(frozen=True)
class RateProfile:
    """One scalar function of time t >= 0, in one of four shapes.

    constant     params = (c,)          value c
    exponential  params = (c, a)        c * exp(-a t)
    polynomial   params = (c0, c1, ..)  sum c_m t^m
    tabulated    (times, values)        linear interpolation, no extrapolation
    """

    kind: str
    params: tuple = ()
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, c: float) -> "RateProfile":
        return cls(kind="constant", params=(float(c),))

    @classmethod
    def exponential(cls, c: float, a: float) -> "RateProfile":
        return cls(kind="exponential", params=(float(c), float(a)))

    @classmethod
    def polynomial(cls, *coeffs: float) -> "RateProfile":
        if not coeffs:
            raise ConstraintViolated("polynomial profile needs coefficients")
        return cls(kind="polynomial", params=tuple(float(c) for c in coeffs))

    @classmethod
    def tabulated(cls, times, values) -> "RateProfile":
        t = np.array(times, dtype=float)  # copies: the caller's arrays stay writable
        v = np.array(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise DimensionMismatch("tabulated profile needs matching 1-d tables")
        if not np.isfinite(t).all():
            raise ConstraintViolated("tabulated times must be finite")
        if (t[1:] <= t[:-1]).any():
            raise ConstraintViolated("tabulated times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        return cls(kind="tabulated", times=t, values=v)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return _evaluate([self], t.ravel()).reshape(t.shape)


def _evaluate(profiles: list, t: np.ndarray) -> np.ndarray:
    """Each profile on the 1-d times t, as the columns of a (t.size, len(profiles)) array.

    One broadcast pass per kind and polynomial degree, each column computed as
    alone; one range check per tabulated time set, then np.interp per column.
    Overflow is not reported: a trajectory rejects non-finite frames."""
    groups = {}
    for col, prof in enumerate(profiles):
        key = (prof.kind, len(prof.params), None if prof.times is None else prof.times.tobytes())
        groups.setdefault(key, []).append(col)
    out = np.empty((t.size, len(profiles)))
    with np.errstate(over="ignore", invalid="ignore"):
        for (kind, _, _), cols in groups.items():
            c = np.array([profiles[k].params for k in cols]).T  # (len(params), len(cols))
            if kind == "constant":
                out[:, cols] = c[0]
            elif kind == "exponential":
                out[:, cols] = c[0] * np.exp(-c[1] * t[:, None])
            elif kind == "polynomial":
                out[:, cols] = np.polynomial.polynomial.polyval(t[:, None], c, tensor=False)
            elif kind == "tabulated":
                times = profiles[cols[0]].times
                if np.any(t < times[0]) or np.any(t > times[-1]):
                    raise ConstraintViolated(f"tabulated profile covers [{times[0]:g}, "
                                             f"{times[-1]:g}]; refusing to extrapolate")
                for k in cols:
                    out[:, k] = np.interp(t, times, profiles[k].values)
            else:
                raise ConstraintViolated(f"unknown profile kind {kind!r}")
    return out


def uniform_grid(t_final: float, points: int = 1001) -> np.ndarray:
    """Uniform grid on [0, t_final]."""
    if t_final <= 0:
        raise ConstraintViolated(f"final time must be positive, got {t_final!r}")
    if not t_final < np.inf:
        raise ConstraintViolated(f"final time must be finite, got {t_final!r}")
    if points < 2:
        raise ConstraintViolated("grid needs at least 2 points")
    return np.linspace(0.0, float(t_final), int(points))


@dataclass(frozen=True)
class Trajectory:
    """Sampled eigenvalue-form evolution.

    lams has shape (len(grid), n, n); cp_flags holds True/False per checked
    frame and None where the check was skipped by stride; singular_flags
    marks frames with an eigenvalue within 1e-13 of zero.
    """

    n: int
    grid: np.ndarray
    lams: np.ndarray
    cp_flags: tuple = field(default=())
    singular_flags: tuple = field(default=())

    def __post_init__(self):
        grid = _check_grid(self.grid)
        lams = np.asarray(self.lams, dtype=float)
        if lams.shape != (grid.size, self.n, self.n):
            raise DimensionMismatch(
                f"expected lams shape {(grid.size, self.n, self.n)}, got {lams.shape}")
        # every frame must be finite, checked for CP or not
        if not np.isfinite(lams).all():
            raise InvariantError("eigenvalue table contains non-finite entries")
        if not abs(lams[0] - 1.0).max() <= 1e-12:
            raise InvariantError("first frame must be the identity map")
        if not abs(lams[:, 0, 0] - 1.0).max() <= 1e-12:
            raise InvariantError("the (0,0) eigenvalue must stay 1 (trace)")
        grid.setflags(write=False)
        lams.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lams", lams)

    def __len__(self) -> int:
        return self.grid.size

    def _index(self, t_index) -> int:
        """t_index as a frame number; IndexOutOfRange unless a Python or numpy integer in range."""
        try:
            k = operator.index(t_index)
        except TypeError:
            raise IndexOutOfRange(f"frame index must be an integer, got {t_index!r}") from None
        if not 0 <= k < len(self):
            raise IndexOutOfRange(f"frame {k} outside 0..{len(self) - 1}")
        return k

    def frame(self, t_index: int) -> EigenChannel:
        return EigenChannel(n=self.n, lam=self.lams[self._index(t_index)], trace_preserving=True)

    @property
    def frames(self) -> list:
        return [self.frame(i) for i in range(len(self))]


def _check_stride(cp_stride: int) -> None:
    if cp_stride < 1:
        raise ConstraintViolated(f"CP stride must be at least 1, got {cp_stride!r}")


def _flagged(traj: Trajectory, cp_stride: int, tol: float) -> Trajectory:
    """Set a new trajectory's CP flags (None where the stride skips a frame) and singular flags.

    Frames 0, cp_stride, 2*cp_stride, ... and the last frame are checked.
    Trajectory's constructor has refused a non-finite frame, checked or not.
    """
    lams, last = traj.lams, traj.lams.shape[0] - 1
    checked = lams if cp_stride == 1 else np.concatenate([lams[:last:cp_stride], lams[last:]])
    flags = _psd_blocks(checked, tol).tolist()
    cp = [None] * (last + 1)
    cp[:last:cp_stride], cp[last] = flags[:-1], flags[-1]
    singular = (abs(lams) <= ZERO_TOL).any(axis=(1, 2))
    object.__setattr__(traj, "cp_flags", tuple(cp))
    object.__setattr__(traj, "singular_flags", tuple(singular.tolist()))
    return traj


def evolve_semigroup(
    gen: EigenGenerator, grid, cp_stride: int = 1, tol: float = DEFAULT_TOL
) -> Trajectory:
    """Closed-form trajectory exp(eta * t) for a constant generator."""
    _check_stride(cp_stride)
    grid = _check_grid(grid)
    with np.errstate(over="ignore"):  # Trajectory rejects an overflowed frame
        lams = np.exp(grid[:, None, None] * gen.eta[None, :, :])
    return _flagged(Trajectory(n=gen.n, grid=grid, lams=lams), cp_stride, tol)


def evolve_timedep(
    profiles, grid, cp_stride: int = 1, tol: float = DEFAULT_TOL
) -> Trajectory:
    """Quadrature trajectory for per-entry time-dependent rate profiles.

    `profiles` is an n×n nested sequence of RateProfile (None meaning zero).
    The (0,0) profile, if any, is ignored: that eigenvalue stays 0.
    """
    _check_stride(cp_stride)
    grid = _check_grid(grid)
    rows = [list(row) for row in profiles]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise DimensionMismatch(f"profile row {i} has {len(row)} entries")
    given = {i * n + j: prof for i, row in enumerate(rows) for j, prof in enumerate(row)
             if prof is not None and (i, j) != (0, 0)}
    etas = np.zeros((grid.size, n * n))
    etas[:, list(given)] = _evaluate(list(given.values()), grid)
    lams = _integrated(etas.reshape(grid.size, n, n), grid)
    return _flagged(Trajectory(n=n, grid=grid, lams=lams), cp_stride, tol)


def evolve_state(
    traj: Trajectory, rho0, t_index: int, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Apply the frame at t_index to an initial state.

    The frame must be CP: a stored False flag raises NotCPAtTime; a skipped
    flag (None) is decided on demand by the normalized block criterion. The
    frame scales rho0's basis coefficients, decomposed once per state object.
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(n=traj.n, entries=rho0)
    t_index = traj._index(t_index)
    flag = traj.cp_flags[t_index] if traj.cp_flags else None
    if flag is None:
        flag = _psd_blocks(traj.lams[t_index], tol)
    if not flag:
        raise NotCPAtTime(
            f"map at grid index {t_index} (t={traj.grid[t_index]:g}) is not CP",
            time_index=t_index,
        )
    return DensityMatrix(n=traj.n, entries=_eigen_action(traj.lams[t_index], rho0))
