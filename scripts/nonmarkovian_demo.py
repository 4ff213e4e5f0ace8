#!/usr/bin/env python3
"""Qubit with an eternally negative decoherence rate that stays CP.

Rate table gamma_x = gamma_y = 1, gamma_z = -tanh(t): the third rate is
negative at every t > 0, yet the generated family of maps is completely
positive at all times. Negative time-local rates signal memory effects, not
broken dynamics; complete positivity lives at the trajectory level.

The rate table is converted to generator eigenvalues frame by frame through
the package converter (no hand-derived formulas), tabulated, integrated by
quadrature, and CP-checked on a frame stride by the batched normalized block
criterion, whose blocks are exactly the Choi matrix.
Writes a TSV trajectory and prints a summary.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from gmchan.dynamics import RateProfile, evolve_timedep, uniform_grid
from gmchan.generators import LindbladGenerator, lf_to_ev


@dataclass(frozen=True)
class DemoConfig:
    t_final: float = 5.0
    points: int = 501
    cp_stride: int = 10
    out: str = "nonmarkovian_trajectory.tsv"


def parse_args() -> DemoConfig:
    defaults = DemoConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-final", type=float, default=defaults.t_final)
    ap.add_argument("--points", type=int, default=defaults.points)
    ap.add_argument("--cp-stride", type=int, default=defaults.cp_stride)
    ap.add_argument("--out", default=defaults.out)
    args = ap.parse_args()
    return DemoConfig(
        t_final=args.t_final,
        points=args.points,
        cp_stride=args.cp_stride,
        out=args.out,
    )


def gamma_z(t: np.ndarray) -> np.ndarray:
    return -np.tanh(t)


def main() -> None:
    cfg = parse_args()
    grid = uniform_grid(cfg.t_final, cfg.points)

    # generator eigenvalues at each sampled time, via the rate-table converter
    etas = np.empty((grid.size, 2, 2))
    for idx, t in enumerate(grid):
        gen = LindbladGenerator(n=2, gamma=np.array([[0.0, 1.0], [1.0, gamma_z(t)]]))
        etas[idx] = lf_to_ev(gen).eta

    drift = float(np.max(np.abs(etas[:, 1, 1] - etas[0, 1, 1])))
    assert drift <= 1e-12, "the z eigenvalue should be time-independent here"

    profiles = [
        [None, RateProfile.tabulated(grid, etas[:, 0, 1])],
        [
            RateProfile.tabulated(grid, etas[:, 1, 0]),
            RateProfile.constant(etas[0, 1, 1]),
        ],
    ]
    traj = evolve_timedep(profiles, grid, cp_stride=cfg.cp_stride)

    checked = [f for f in traj.cp_flags if f is not None]
    all_cp = all(checked)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write("t\tgamma_z\tlambda_x\tlambda_y\tlambda_z\tcp\n")
        for idx in range(len(traj)):
            flag = traj.cp_flags[idx]
            cell = "-" if flag is None else ("1" if flag else "0")
            fh.write(
                "\t".join(
                    [
                        format(traj.grid[idx], ".12g"),
                        format(gamma_z(traj.grid[idx]), ".12g"),
                        format(traj.lams[idx, 0, 1], ".12g"),
                        format(traj.lams[idx, 1, 0], ".12g"),
                        format(traj.lams[idx, 1, 1], ".12g"),
                        cell,
                    ]
                )
                + "\n"
            )

    print(f"rate gamma_z range: [{gamma_z(grid).min():+.4f}, {gamma_z(grid).max():+.4f}]")
    print(f"constant z eigenvalue: {etas[0, 1, 1]:+.6f}")
    print(f"CP at all {len(checked)} checked frames: {all_cp}")
    print(f"wrote {cfg.out}")
    if not all_cp:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
