"""Time evolution of eigenvalue-form channels.

A Trajectory samples the channel eigenvalue table on a time grid starting at
t = 0, where the map is the identity. Two builders:

  evolve_semigroup  constant generator eigenvalues, closed form exp(eta * t)
  evolve_timedep    per-entry rate profiles, trapezoid quadrature of the
                    integral the eigenvalues exponentiate

Each frame can carry a CP verdict (every frame by default; a stride skips
frames on large grids, leaving their flag None). The checked frames are
decided together in one batched pass of the normalized block criterion: a
stacked eigensolve of the (T, n, n) diagonal-sector blocks plus the pair
margins as arrays. The union of the block spectra is the Choi spectrum, so
each verdict is the Choi oracle's, without building any n²×n² matrix.
Frames where some eigenvalue sits within 1e-13 of zero are flagged singular:
the map is still fine, but no generator eigenvalue table exists there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channels import DEFAULT_TOL, DensityMatrix, EigenChannel, _block_margins, apply_ev
from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    IndexOutOfRange,
    InvariantError,
    NotCPAtTime,
)
from .generators import EigenGenerator, ZERO_TOL, _check_grid, lambda_from_eta


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
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise DimensionMismatch("tabulated profile needs matching 1-d tables")
        if np.any(np.diff(t) <= 0):
            raise ConstraintViolated("tabulated times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        return cls(kind="tabulated", times=t, values=v)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.params[0])
        if self.kind == "exponential":
            c, a = self.params
            return c * np.exp(-a * t)
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(t, np.array(self.params))
        if self.kind == "tabulated":
            lo, hi = self.times[0], self.times[-1]
            if np.any(t < lo) or np.any(t > hi):
                raise ConstraintViolated(
                    f"tabulated profile covers [{lo:g}, {hi:g}]; "
                    "refusing to extrapolate"
                )
            return np.interp(t, self.times, self.values)
        raise ConstraintViolated(f"unknown profile kind {self.kind!r}")


def uniform_grid(t_final: float, points: int = 1001) -> np.ndarray:
    """Uniform grid on [0, t_final]."""
    if t_final <= 0:
        raise ConstraintViolated(f"final time must be positive, got {t_final!r}")
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
                f"expected lams shape {(grid.size, self.n, self.n)}, got {lams.shape}"
            )
        # every frame must be finite, checked for CP or not
        if not np.all(np.isfinite(lams)):
            raise InvariantError("eigenvalue table contains non-finite entries")
        if not float(np.max(np.abs(lams[0] - 1.0))) <= 1e-12:
            raise InvariantError("first frame must be the identity map")
        if not float(np.max(np.abs(lams[:, 0, 0] - 1.0))) <= 1e-12:
            raise InvariantError("the (0,0) eigenvalue must stay 1 (trace)")
        grid.setflags(write=False)
        lams.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lams", lams)

    def __len__(self) -> int:
        return self.grid.size

    def frame(self, t_index: int) -> EigenChannel:
        if not 0 <= t_index < len(self):
            raise IndexOutOfRange(f"frame {t_index} outside 0..{len(self) - 1}")
        return EigenChannel(n=self.n, lam=self.lams[t_index], trace_preserving=True)

    @property
    def frames(self) -> list:
        return [self.frame(i) for i in range(len(self))]


def _check_stride(cp_stride: int) -> None:
    if cp_stride < 1:
        raise ConstraintViolated(f"CP stride must be at least 1, got {cp_stride!r}")


def _flagged(traj: Trajectory, cp_stride: int, tol: float) -> Trajectory:
    """`traj` with CP flags (None where the stride skips a frame) and singular flags.

    Frames 0, cp_stride, 2*cp_stride, ... and the last frame are checked.
    Trajectory has refused a non-finite frame, checked or not.
    """
    lams = traj.lams
    last = lams.shape[0] - 1
    checked = np.zeros(last + 1, dtype=bool)
    checked[::cp_stride] = True
    checked[last] = True
    cp = np.full(last + 1, None, dtype=object)
    cp[checked] = (_block_margins(lams[checked])[3] >= -tol).tolist()
    singular = np.any(np.abs(lams) <= ZERO_TOL, axis=(1, 2))
    return replace(traj, cp_flags=tuple(cp), singular_flags=tuple(singular.tolist()))


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
    rows = list(profiles)
    n = len(rows)
    etas = np.zeros((grid.size, n, n))
    for i, row in enumerate(rows):
        entries = list(row)
        if len(entries) != n:
            raise DimensionMismatch(f"profile row {i} has {len(entries)} entries")
        for j, prof in enumerate(entries):
            if prof is None or (i, j) == (0, 0):
                continue
            etas[:, i, j] = prof(grid)
    return _flagged(Trajectory(n=n, grid=grid, lams=lambda_from_eta(etas, grid)), cp_stride, tol)


def evolve_state(
    traj: Trajectory, rho0, t_index: int, tol: float = DEFAULT_TOL
) -> DensityMatrix:
    """Apply the frame at t_index to an initial state.

    The frame must be CP: a stored False flag raises NotCPAtTime; a skipped
    flag (None) is decided on demand by the normalized block criterion.
    """
    if not isinstance(rho0, DensityMatrix):
        rho0 = DensityMatrix(n=traj.n, entries=rho0)
    if not 0 <= t_index < len(traj):
        raise IndexOutOfRange(f"frame {t_index} outside 0..{len(traj) - 1}")
    flag = traj.cp_flags[t_index] if traj.cp_flags else None
    if flag is None:
        flag = bool(_block_margins(traj.lams[t_index])[3] >= -tol)
    if not flag:
        raise NotCPAtTime(
            f"map at grid index {t_index} (t={traj.grid[t_index]:g}) is not CP",
            time_index=t_index,
        )
    return DensityMatrix(n=traj.n, entries=apply_ev(traj.frame(t_index), rho0.entries))
