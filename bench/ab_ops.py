"""Op-by-op A/B timing of two or more gmchan source trees in one process.

    python bench/ab_ops.py --tree LABEL=DIR --tree LABEL=DIR [--workload NAME]
                           [--seed S] [--cycles C] [--out FILE]

Each tree's `src/gmchan` and `gmchan.cli` are imported in turn and then
removed from `sys.modules`, so the next import loads the next tree; the
module objects stay alive through the references kept here. This works
because `src/gmchan` imports nothing inside its functions. The inputs are
perfbench's own seeded cycles (`perfbench/workloads.py`, imported as is and
never written): cycle i of `--seed` S, i = 1..C, shuffled as the perfbench
worker shuffles them, after one untimed warm-up op of each kind, size and
category of cycle 0 per tree. Every op runs on every tree back to back, a
chained op (a convert round trip) together with the op it follows, and the
tree that goes first alternates from op to op, so a slow spell of a shared
host falls on every tree alike. Each run is checked with the workload's own
`check`, untimed. BLAS threads are pinned to 1 before numpy is imported.

Printed per tree: the summed op time, its ratio to the first tree's (above
1 is faster), the median over ops of the first tree's time over this tree's
time for the same op (one stall moves the sum, not this median), the p50
and p90 op latency in ms and the number of ops whose check failed or that
raised; then, per tree after the first, that paired median ratio for each
(op kind, n), with its op count, so the ops of each kind show where a saving
lands. Certify's kf ops are split by `op.ref["diagonal"]` into "kf-diag",
basis-diagonal tables, which a TP op also converts (`kf_to_ev` and the
three checks of its result), and "kf-offdiag", which stop after `kf_is_ev`. The times are plain wall time, not perfbench's host-calibrated
time: both trees run each op within milliseconds of each other, so their
ratio needs no calibration. --out writes the same figures and the per-op
times as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _load(tree: str):
    """gmchan (with gmchan.cli) from tree/src, then forgotten by the import system."""
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    try:
        import gmchan
        import gmchan.cli
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules if m == "gmchan" or m.startswith("gmchan.")]:
            del sys.modules[name]
    where = os.path.dirname(os.path.abspath(gmchan.__file__))
    if where != os.path.join(os.path.abspath(src), "gmchan"):
        sys.exit(f"ab_ops: gmchan imported from {where}, not from {src}")
    return gmchan


def _kind(workload: str, op) -> str:
    """The op's kind, certify's kf ops split by whether the table is basis-diagonal."""
    if workload == "certify" and op.kind == "kf":
        return "kf-diag" if op.ref["diagonal"] else "kf-offdiag"
    return op.kind


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--workload", default="evolve", choices=("certify", "evolve", "files"))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--cycles", type=int, default=8)
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args()
    if len(args.tree) < 2:
        ap.error("need at least two --tree LABEL=DIR")
    os.environ.update(PINNED)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import numpy as np
    import workloads as W

    trees = {label: _load(path) for label, path in (t.split("=", 1) for t in args.tree)}
    with tempfile.TemporaryDirectory() as workdir:
        workload = W.make(args.workload, workdir)
        seen = set()
        for op in workload.cycle(np.random.default_rng([args.seed, 0]), 0):
            if (op.kind, op.n, op.tag) not in seen:
                seen.add((op.kind, op.n, op.tag))
                for gm in trees.values():
                    for step in W.chained([op]):
                        workload.run(gm, step)
        times = {label: [] for label in trees}
        keys = []  # (kind, n) of each timed step, in the order of every tree's times
        failed = dict.fromkeys(trees, 0)
        checkers = {label: W.Checker() for label in trees}
        shuffle = random.Random(args.seed)
        turn = 0
        for index in range(1, args.cycles + 1):
            ops = workload.cycle(np.random.default_rng([args.seed, index]), index)
            shuffle.shuffle(ops)
            for op in ops:
                order = list(trees)[:: 1 if turn % 2 == 0 else -1]
                turn += 1
                keys += [(_kind(args.workload, step), step.n) for step in W.chained([op])]
                for label in order:
                    for step in W.chained([op]):
                        c = checkers[label]
                        c.op_ok = True
                        t0 = time.perf_counter()
                        try:
                            out = workload.run(trees[label], step)
                        except Exception:  # an op that raises counts as failed, as in perfbench
                            times[label].append(time.perf_counter() - t0)
                            failed[label] += 1
                            continue
                        times[label].append(time.perf_counter() - t0)
                        workload.check(step, out, c)
                        failed[label] += not c.op_ok
    first = next(iter(trees))
    result = {"workload": args.workload, "seed": args.seed, "cycles": args.cycles,
              "ops": len(times[first]), "trees": {}}
    print(f"{args.workload} seed {args.seed}: {args.cycles} cycles, "
          f"{len(times[first])} ops per tree")
    for label, xs in times.items():
        p50, p90 = (float(q) for q in 1e3 * np.percentile(xs, [50, 90]))
        ratio = sum(times[first]) / sum(xs)
        paired = float(np.median(np.array(times[first]) / np.array(xs)))
        result["trees"][label] = {"total_s": sum(xs), "ops_ratio_to_" + first: ratio,
                                  "paired_median_ratio": paired, "p50_ms": p50, "p90_ms": p90,
                                  "failed": failed[label], "op_s": xs}
        print(f"  {label:10s} total {sum(xs):8.3f} s  ops ratio {ratio:.3f}  paired {paired:.3f}  "
              f"p50 {p50:.3f} ms  p90 {p90:.3f} ms  failed {failed[label]}")
    for label, xs in list(times.items())[1:]:
        ratios = {}
        for key, base, x in zip(keys, times[first], xs, strict=True):
            ratios.setdefault(key, []).append(base / x)
        cells = {f"{kind} n={n}": (float(np.median(r)), len(r)) for (kind, n), r in sorted(ratios.items())}
        result["trees"][label]["paired_median_ratio_by_kind_n"] = {
            key: {"ratio": ratio, "ops": count} for key, (ratio, count) in cells.items()}
        print(f"  {label} paired median ratio to {first} by op kind and n:")
        for key, (ratio, count) in cells.items():
            print(f"    {key:16s} {ratio:.3f}  ({count} ops)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
            fh.write("\n")


if __name__ == "__main__":
    main()
