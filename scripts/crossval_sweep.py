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
as JSON and prints a one-line summary per dimension.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass

from gmchan.cli import crossval_report


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
