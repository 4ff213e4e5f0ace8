#!/usr/bin/env python3
"""Sweep the CP-check agreement experiment over dimensions.

For each n this draws seeded random eigenvalue tables, runs the three
complete-positivity checks (Choi oracle, normalized block conditions,
unnormalized block conditions), filters out samples whose margins sit inside
the numerical noise band, and records the agreement rates. The normalized
conditions are expected to track the oracle exactly; the unnormalized ones
are only necessary for n >= 3, and this sweep measures how often the gap
actually bites on uniform random tables.

Writes the full per-n reports (including up to five disagreeing tables each)
as JSON and prints a one-line summary per dimension. The tables come from
the test suite's seeded samplers (`tests/sampling.py`). From a source checkout:

    PYTHONPATH=src python3 scripts/crossval_sweep.py --n 3 --samples 300 --seed 7

`crossval_report` computes one dimension's report; the tests load it from
this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gmchan.channels import DEFAULT_TOL, cp_check_normalized, cp_check_oracle, cp_check_paper
from gmchan.errors import ConstraintViolated

sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))  # the seeded samplers
from sampling import random_ev_channel  # noqa: E402


def _halved_self_term_spectrum(A: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Spectrum of A with its diagonal self-term (2k/(k+1)) l_kk halved."""
    k = np.arange(lam.shape[0])
    A = A.copy()
    A[k, k] -= (k / (k + 1.0)) * lam[k, k]
    return np.linalg.eigvalsh(A)


def crossval_report(
    n: int,
    samples: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    margin_filter: float = 1e-8,
) -> dict:
    """Agreement experiment between the three CP checks on random tables.

    Draws eigenvalue tables uniformly from [-1.5, 1.5], skips samples where any
    method's margin is within margin_filter of zero (verdicts there hinge on
    eigensolver noise), and counts verdict agreement on the rest. Also scores
    two variants of cp_check_paper's diagonal-sector matrix A: the one with a
    halved diagonal self-term, and the sign-of-det(A) shortcut. Needs at
    least one sample.
    """
    if samples < 1:
        raise ConstraintViolated(f"crossval needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    cp_counts = {"oracle": 0, "paper": 0, "normalized": 0}
    compared = 0
    agree_all = 0
    agree = {"paper_vs_oracle": 0, "normalized_vs_oracle": 0, "paper_vs_normalized": 0}
    printed_compared = 0
    printed_agree = 0
    det_conflicts = 0
    disagreements = []
    for _ in range(samples):
        ch = random_ev_channel(rng, n)
        rep_o = cp_check_oracle(ch, tol)
        rep_p = cp_check_paper(ch, tol)
        rep_n = cp_check_normalized(ch, tol)
        cp_counts["oracle"] += rep_o.is_cp
        cp_counts["paper"] += rep_p.is_cp
        cp_counts["normalized"] += rep_n.is_cp

        diag = rep_p.diagnostics
        A = diag["a_matrix"]
        pair_min = min(diag["pair_margins"].values())
        printed_margin = min(float(_halved_self_term_spectrum(A, ch.lam)[0]), pair_min)
        if min(abs(rep_o.margin), abs(printed_margin)) > margin_filter:
            printed_compared += 1
            printed_agree += (printed_margin >= -tol) == rep_o.is_cp
        if (float(np.linalg.det(A)) >= 0) != (float(diag["a_spectrum"][0]) >= -tol):
            det_conflicts += 1

        if min(abs(rep_o.margin), abs(rep_p.margin), abs(rep_n.margin)) <= margin_filter:
            continue
        compared += 1
        agree["paper_vs_oracle"] += rep_p.is_cp == rep_o.is_cp
        agree["normalized_vs_oracle"] += rep_n.is_cp == rep_o.is_cp
        agree["paper_vs_normalized"] += rep_p.is_cp == rep_n.is_cp
        if rep_o.is_cp == rep_p.is_cp == rep_n.is_cp:
            agree_all += 1
        elif len(disagreements) < 5:
            disagreements.append(
                {
                    "lam": ch.lam.tolist(),
                    "oracle_margin": rep_o.margin,
                    "paper_margin": rep_p.margin,
                    "normalized_margin": rep_n.margin,
                }
            )
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "margin_filter": margin_filter,
        "cp_counts": cp_counts,
        "compared": compared,
        "three_way_agreement": (agree_all / compared) if compared else None,
        "pairwise_agreement": {
            k: (v / compared if compared else None) for k, v in agree.items()
        },
        "printed_variant": {
            "compared": printed_compared,
            "agreement_with_oracle": (
                printed_agree / printed_compared if printed_compared else None
            ),
        },
        "det_a_sign_conflicts": det_conflicts,
        "disagreement_examples": disagreements,
    }


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple = (2, 3, 4, 5, 6)
    samples: int = 10_000
    seed: int = 404
    tolerance: float = 1e-10
    margin_filter: float = 1e-8
    out: str = "crossval_sweep.json"


def parse_args() -> SweepConfig:
    defaults = SweepConfig()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(defaults.n_values))
    ap.add_argument("--samples", type=int, default=defaults.samples)
    ap.add_argument("--seed", type=int, default=defaults.seed)
    ap.add_argument("--tolerance", type=float, default=defaults.tolerance)
    ap.add_argument("--margin-filter", type=float, default=defaults.margin_filter)
    ap.add_argument("--out", default=defaults.out)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error(f"--samples must be at least 1, got {args.samples}")
    return SweepConfig(
        n_values=tuple(args.n),
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tolerance,
        margin_filter=args.margin_filter,
        out=args.out,
    )


def _rate(value) -> str:
    """An agreement rate, or n/a when no sample survived the margin filter."""
    return "n/a" if value is None else f"{value:.4f}"


def main() -> None:
    cfg = parse_args()
    reports = []
    for n in cfg.n_values:
        rep = crossval_report(
            n,
            cfg.samples,
            cfg.seed,
            tol=cfg.tolerance,
            margin_filter=cfg.margin_filter,
        )
        reports.append(rep)
        print(
            f"n={n}: three-way agreement {_rate(rep['three_way_agreement'])} "
            f"on {rep['compared']} filtered samples; "
            f"unnormalized-vs-oracle {_rate(rep['pairwise_agreement']['paper_vs_oracle'])}; "
            f"halved-self-term variant {_rate(rep['printed_variant']['agreement_with_oracle'])}"
        )
    with open(cfg.out, "w", encoding="utf-8") as fh:
        json.dump({"config": asdict(cfg), "reports": reports}, fh, indent=2)
    print(f"wrote {cfg.out}")


if __name__ == "__main__":
    main()
