"""Per-call timings of gmchan's small-table layers, for one or more source trees.

    python bench/layers.py --out FILE [--tree LABEL=DIR ...] [--rounds R]
                           [--repeats K] [--tier1] [--perfbench FILE]
                           [--previous FILE]

Times `cp_check_oracle`, `cp_check_normalized`, `cp_check_paper`,
`tp_residuals`, `kf_is_ev`, `kf_to_ev`, `lf_to_ev`, `apply_kf`, `apply_lf`
and `apply_ev` per call at n in {2, 3, 4, 6, 8, 12, 16}. Channels keep
per-object memos, so every timed call builds a fresh channel (or generator)
from its stored table, and `construct_kf`/`construct_ev` time that
construction alone; the `apply_*` layers read no memo and act on one random
complex matrix with one object built beforehand. `validate_kf`
and `validate_ev` replay the call sequence that perfbench's certify workload
makes on one fresh object: for a weight table the TP check, the oracle,
`kf_is_ev`, `kf_to_ev` and the three CP checks of the result; for an
eigenvalue table the three CP checks. Each tree is a source checkout
(default: this one, labelled "change"); its `src/` is imported in a child
process started
with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1. The
rounds run the trees in turn, first tree first in odd rounds and last in
even ones, so slow spells of a shared host fall on every tree alike. Each
round takes K samples per (layer, n); a sample is the mean of as many calls
as fill about 2 ms. The file written holds the environment, the median and
quartiles of the R * K samples in microseconds, the ratio of each tree's
medians to the first tree's, and, on request, the Tier-1 wall time of each
tree and a perfbench summary read from a JSON file. --previous prints the
change of each median against an earlier file with the same tree labels.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (2, 3, 4, 6, 8, 12, 16)
LAYERS = ("construct_kf", "construct_ev", "cp_check_oracle", "cp_check_normalized",
          "cp_check_paper", "tp_residuals", "kf_is_ev", "kf_to_ev", "lf_to_ev",
          "apply_kf", "apply_lf", "apply_ev", "validate_kf", "validate_ev")
VERDICT_TOL = 1e-10  # certify's tolerance
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SAMPLE_S = 0.002
SEED = 6


def _child(src: str, repeats: int) -> None:
    """Print {layer: {n: [seconds per call, ...]}} for the gmchan under `src`."""
    sys.path.insert(0, src)
    import gmchan as gm
    from gmchan import sampling

    def ev_checks(ch):
        return [check(ch, VERDICT_TOL)
                for check in (gm.cp_check_oracle, gm.cp_check_paper, gm.cp_check_normalized)]

    def validate_kf(n, p):  # perfbench/workloads.py, Certify.run on a kf op
        ch = gm.KrausChannel(n=n, p=p)
        out = [float(np.max(np.abs(gm.tp_residuals(ch)))) <= VERDICT_TOL,
               gm.cp_check_oracle(ch, VERDICT_TOL)]
        if out[0] and gm.kf_is_ev(ch)[0]:
            out += ev_checks(gm.kf_to_ev(ch))
        return out

    calls = {}
    for n in SIZES:
        rng = np.random.default_rng([SEED, n])
        p = sampling.random_kf_ev_admissible(rng, n).p
        lam = gm.kf_to_ev(gm.KrausChannel(n=n, p=p)).lam
        gamma = sampling.random_lf_ev_admissible(rng, n).gamma
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        acting = (gm.KrausChannel(n=n, p=p), gm.LindbladGenerator(n=n, gamma=gamma),
                  gm.EigenChannel(n=n, lam=lam))

        def kf(n=n, p=p):
            return gm.KrausChannel(n=n, p=p)

        def ev(n=n, lam=lam):
            return gm.EigenChannel(n=n, lam=lam)

        calls.update({
            ("construct_kf", n): kf,
            ("construct_ev", n): ev,
            ("cp_check_oracle", n): lambda ev=ev: gm.cp_check_oracle(ev()),
            ("cp_check_normalized", n): lambda ev=ev: gm.cp_check_normalized(ev()),
            ("cp_check_paper", n): lambda ev=ev: gm.cp_check_paper(ev()),
            ("tp_residuals", n): lambda kf=kf: gm.tp_residuals(kf()),
            ("kf_is_ev", n): lambda kf=kf: gm.kf_is_ev(kf()),
            ("kf_to_ev", n): lambda kf=kf: gm.kf_to_ev(kf()),
            ("lf_to_ev", n): lambda n=n, g=gamma: gm.lf_to_ev(gm.LindbladGenerator(n=n, gamma=g)),
            ("apply_kf", n): lambda a=acting, X=X: gm.apply_kf(a[0], X),
            ("apply_lf", n): lambda a=acting, X=X: gm.apply_lf(a[1], X),
            ("apply_ev", n): lambda a=acting, X=X: gm.apply_ev(a[2], X),
            ("validate_kf", n): lambda n=n, p=p: validate_kf(n, p),
            ("validate_ev", n): lambda ev=ev: ev_checks(ev()),
        })
    number = {}
    for key, call in calls.items():  # warm caches, then size each sample
        start, count = time.perf_counter(), 0
        while time.perf_counter() - start < SAMPLE_S:
            call()
            count += 1
        number[key] = count
    samples = {key: [] for key in calls}
    for _ in range(repeats):  # every cell once per repeat, so drift spreads
        for key, call in calls.items():
            start = time.perf_counter()
            for _ in range(number[key]):
                call()
            samples[key].append((time.perf_counter() - start) / number[key])
    out = {layer: {str(n): samples[layer, n] for n in SIZES} for layer in LAYERS}
    print(json.dumps(out))


def _quantiles(xs: list) -> dict:
    q1, median, q3 = (float(q) for q in 1e6 * np.percentile(xs, [25, 50, 75]))
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1, "samples": len(xs)}


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name", "?"), "version": blas.get("version", "?")},
        "nproc": os.cpu_count(), "cpu": cpu, "threads": PINNED,
    }


def _tier1(tree: str) -> dict:
    env = {**os.environ, **PINNED, "PYTHONPATH": os.path.join(tree, "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    counts = dict((k, int(v)) for v, k in re.findall(r"(\d+) (passed|failed|error)", proc.stdout))
    return {"wall_s": round(wall, 2), "exit": proc.returncode, **counts}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=5, help="samples per cell per round")
    ap.add_argument("--tier1", action="store_true", help="also time each tree's test suite")
    ap.add_argument("--perfbench", help="JSON summary of perfbench runs to include")
    ap.add_argument("--previous", help="earlier output to print the change against")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child, args.repeats)
        return
    if not args.out:
        ap.error("--out is required")
    if args.rounds * args.repeats < 15:
        ap.error("need at least 15 samples per cell (--rounds x --repeats)")
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": ROOT}
    samples = {label: {layer: {str(n): [] for n in SIZES} for layer in LAYERS} for label in trees}
    env = {**os.environ, **PINNED}
    for r in range(args.rounds):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", os.path.join(trees[label], "src"),
                 "--repeats", str(args.repeats)],
                env=env, capture_output=True, text=True, check=True,
            )
            for layer, cells in json.loads(proc.stdout).items():
                for n, xs in cells.items():
                    samples[label][layer][n] += xs
    result = {
        "environment": _environment(),
        "settings": {"trees": list(trees), "rounds": args.rounds, "repeats": args.repeats,
                     "sample_s": SAMPLE_S, "seed": SEED, "sizes": list(SIZES)},
        "layers": {label: {layer: {n: _quantiles(xs) for n, xs in cells.items()}
                           for layer, cells in per.items()} for label, per in samples.items()},
    }
    first = next(iter(trees))
    base = result["layers"][first]
    result["ratio_to_" + first] = {
        label: {layer: {n: round(cell["median_us"] / base[layer][n]["median_us"], 3)
                        for n, cell in cells.items()} for layer, cells in per.items()}
        for label, per in result["layers"].items() if label != first
    }
    if args.tier1:
        result["tier1"] = {label: _tier1(tree) for label, tree in trees.items()}
    if args.perfbench:
        with open(args.perfbench, encoding="utf-8") as fh:
            result["perfbench"] = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    previous = None
    if args.previous:
        with open(args.previous, encoding="utf-8") as fh:
            previous = json.load(fh)["layers"]
    for label, per in result["layers"].items():
        note = " and change against the previous file" if previous else ""
        print(f"[{label}] median us per call (IQR){note}")
        print(f"{'layer':20s}" + "".join(f"{'n=' + str(n):>18s}" for n in SIZES))
        for layer, cells in per.items():
            row = ""
            for n, cell in cells.items():
                text = f"{cell['median_us']:.1f} ({cell['iqr_us']:.1f})"
                old = (previous or {}).get(label, {}).get(layer, {}).get(n)
                if old:
                    text += f" {cell['median_us'] / old['median_us'] - 1:+.0%}"
                row += f"{text:>18s}"
            print(f"{layer:20s}{row}")
    if "tier1" in result:
        print("tier-1:", json.dumps(result["tier1"]))


if __name__ == "__main__":
    main()
