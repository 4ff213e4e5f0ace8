"""Built-in worked examples, runnable from the CLI.

Example 1 (label paper-1): an n=4 trace-preserving weight-table channel whose
off-diagonal column sums agree in columns 2 and for rows 0,1 of column 3, but
not for row 2. The channel is a valid quantum channel yet fails to
diagonalize in the matrix basis: sigma_22 and sigma_33 mix into each other.

Example 2 (label paper-2): an n=3 Lindblad rate table with generic rates.
The generator annihilates sigma_00 and scales each off-diagonal sigma_ij,
but sigma_11 and sigma_22 mix, so no eigenvalue table exists for it.

Each runner recomputes every closed-form coefficient displayed in the
worked example directly from the input numbers and compares it against what
the library produces. A report lists one defect per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gell_mann
from .channels import apply_kf, complete_tp
from .converters import kf_is_ev
from .generators import LindbladGenerator, apply_lf, lf_is_ev

EXAMPLE_TOL = 1e-12


@dataclass(frozen=True)
class ExampleReport:
    name: str
    checks: tuple  # of (label, defect)
    notes: tuple = ()

    @property
    def max_defect(self) -> float:
        return max(d for _, d in self.checks)

    def ok(self, tol: float = EXAMPLE_TOL) -> bool:
        return self.max_defect <= tol


def _unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def run_example_1() -> ExampleReport:
    n = 4
    off = np.zeros((n, n))
    off[0, 1], off[1, 0] = 0.013, 0.009
    off[0, 2], off[2, 0] = 0.017, 0.007
    off[1, 2], off[2, 1] = 0.012, 0.012
    off[0, 3], off[3, 0] = 0.011, 0.011
    off[1, 3], off[3, 1] = 0.015, 0.007
    off[2, 3], off[3, 2] = 0.019, 0.019
    p11 = 0.05

    pt = off + off.T  # column sums p~_kl
    pt01, pt02, pt03 = pt[0, 1], pt[0, 2], pt[0, 3]
    pt12, pt13, pt23 = pt[1, 2], pt[1, 3], pt[2, 3]

    ch = complete_tp(off, p11)

    checks = []
    # trace preservation constraint on the off-diagonal block
    checks.append(
        ("column constraint", abs((pt12 - pt02) - (pt13 - pt03)))
    )
    # diagonal completion in closed form
    checks.append(
        ("p_22", abs(ch.p[2, 2] - (p11 + pt01 - pt12 + pt03 - pt23)))
    )
    checks.append(
        (
            "p_33",
            abs(ch.p[3, 3] - (p11 + pt01 - pt23 + 0.5 * (3 * pt02 - 2 * pt12 - pt03))),
        )
    )
    checks.append(
        (
            "p_00",
            abs(
                ch.p[0, 0]
                - (
                    1
                    + 0.5 * (pt12 + pt23)
                    - 1.5 * (p11 + pt01)
                    - 1.25 * (pt02 + pt03)
                )
            ),
        )
    )
    # the two columns that do satisfy the diagonalizability condition
    checks.append(("p~_02 = p~_12", abs(pt02 - pt12)))
    checks.append(("p~_03 = p~_13", abs(pt03 - pt13)))

    # action on the diagonal basis matrices
    mix = _unit(n, 3, 3) - _unit(n, 2, 2)
    targets = [
        ("image sigma_00", gell_mann(n, 0, 0), gell_mann(n, 0, 0)),
        (
            "image sigma_11",
            gell_mann(n, 1, 1),
            (1 - 2 * pt01 - pt02 - pt03) * gell_mann(n, 1, 1),
        ),
        (
            "image sigma_22",
            gell_mann(n, 2, 2),
            (1 - 3 * pt02 - pt03) * gell_mann(n, 2, 2)
            + (2 * np.sqrt(3) / 3) * (pt03 - pt23) * mix,
        ),
        (
            "image sigma_33",
            gell_mann(n, 3, 3),
            (1 - 4 * pt03) * gell_mann(n, 3, 3)
            - (2 * np.sqrt(6) / 3) * (pt03 - pt23) * mix,
        ),
    ]
    for label, arg, expected in targets:
        got = apply_kf(ch, arg)
        checks.append((label, float(np.max(np.abs(got - expected)))))

    is_ev, violations = kf_is_ev(ch)
    checks.append(
        (
            "diagonalizability verdict",
            0.0 if (not is_ev and violations == [(0, 2, 3), (1, 2, 3)]) else 1.0,
        )
    )
    notes = (
        f"p~_23 = {pt23:.3f} differs from p~_03 = {pt03:.3f}",
        f"violations: {violations}",
    )
    return ExampleReport(name="paper-1", checks=tuple(checks), notes=notes)


def run_example_2() -> ExampleReport:
    n = 3
    g = np.array(
        [
            [0.0, 0.21, 0.13],
            [0.17, 0.31, 0.23],
            [0.29, 0.11, 0.37],
        ]
    )
    gen = LindbladGenerator(n=n, gamma=g)

    gt = g + g.T  # symmetrized rates gamma~_kl
    gt01, gt02, gt12 = gt[0, 1], gt[0, 2], gt[1, 2]

    targets = [
        ("image sigma_00", (0, 0), 0.0 * gell_mann(n, 0, 0)),
        (
            "image sigma_01",
            (0, 1),
            -0.5 * (4 * g[1, 0] + 4 * g[1, 1] + gt02 + gt12) * gell_mann(n, 0, 1),
        ),
        (
            "image sigma_10",
            (1, 0),
            -0.5 * (4 * g[0, 1] + 4 * g[1, 1] + gt02 + gt12) * gell_mann(n, 1, 0),
        ),
        (
            "image sigma_02",
            (0, 2),
            -0.5
            * (gt01 + g[1, 1] + 4 * g[2, 0] + gt12 + 3 * g[2, 2])
            * gell_mann(n, 0, 2),
        ),
        (
            "image sigma_20",
            (2, 0),
            -0.5
            * (gt01 + g[1, 1] + 4 * g[0, 2] + gt12 + 3 * g[2, 2])
            * gell_mann(n, 2, 0),
        ),
        (
            "image sigma_12",
            (1, 2),
            -0.5
            * (gt01 + g[1, 1] + gt02 + 4 * g[2, 1] + 3 * g[2, 2])
            * gell_mann(n, 1, 2),
        ),
        (
            "image sigma_21",
            (2, 1),
            -0.5
            * (gt01 + g[1, 1] + gt02 + 4 * g[1, 2] + 3 * g[2, 2])
            * gell_mann(n, 2, 1),
        ),
        (
            "image sigma_11",
            (1, 1),
            -0.5
            * (
                (4 * gt01 + gt02 + gt12) * gell_mann(n, 1, 1)
                + np.sqrt(3) * (gt02 - gt12) * gell_mann(n, 2, 2)
            ),
        ),
        (
            "image sigma_22",
            (2, 2),
            -0.5
            * (
                np.sqrt(3) * (gt02 - gt12) * gell_mann(n, 1, 1)
                + 3 * (gt02 + gt12) * gell_mann(n, 2, 2)
            ),
        ),
    ]
    checks = []
    for label, (i, j), expected in targets:
        got = apply_lf(gen, gell_mann(n, i, j))
        checks.append((label, float(np.max(np.abs(got - expected)))))

    is_ev, violations = lf_is_ev(gen)
    checks.append(
        (
            "diagonalizability verdict",
            0.0 if (not is_ev and violations == [(0, 1, 2)]) else 1.0,
        )
    )
    notes = (
        f"gamma~_02 = {gt02:.2f} differs from gamma~_12 = {gt12:.2f}",
        f"violations: {violations}",
    )
    return ExampleReport(name="paper-2", checks=tuple(checks), notes=notes)


RUNNERS = {"paper-1": run_example_1, "paper-2": run_example_2}
