"""gmchan benchmark runner.

    python3 perfbench/run.py --workload {certify,evolve,files} --seed N
                             --seconds S --trace {0,1}

Runs from the root of a source checkout; gmchan is imported from its src/.
The runner itself never imports numpy. It starts one measuring worker (see
worker.py) with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1. The worker runs the
workload in a closed loop on fresh seeded inputs, times a fixed host speed
probe (hostspeed.py) between ops, and every couple of seconds, between
cycles, waits for a fresh set-up child that times `import gmchan,
gmchan.cli` plus the basis build for the workload's sizes. Only one of the
two processes works at a time. Times are reported calibrated: each is
scaled by PROBE_REF_S over the probe time measured around it.

It prints a report with every metric and its unit, writes the result file
perfbench/out/result-<workload>-seed<N>-trace<T>.json, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (and the report adds the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from plan import WORKLOADS, per_layer_metrics  # noqa: E402

DEADLINE_S = 170.0
# Calibrated times are what the host takes when one probe takes this long.
# It is a fixed unit, about the probe's time on an idle 2-vCPU KVM guest
# (Intel Xeon, Python 3.11, numpy 2.4 on OpenBLAS); busy, that host took up to
# twice as long.
PROBE_REF_S = 1.0e-3
# probes on each side of an op whose median gives the host speed at the op
PROBE_WINDOW = 2
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(args: list, timeout: float) -> str:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _calibrated(run: dict) -> list:
    """Each op's wall time scaled to the host speed PROBE_REF_S stands for.

    The speed at an op is the median of the probes from PROBE_WINDOW before
    the last probe ahead of it to PROBE_WINDOW after: a fraction of a second
    either side, shorter than the host's slow episodes.
    """
    probes = run["probes_s"]
    out = []
    for took, j in zip(run["latencies_s"], run["probe_at"]):
        near = probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1]
        out.append(took * PROBE_REF_S / statistics.median(near))
    return out


def _latency_stats(run: dict) -> dict:
    """Throughput and latency quantiles of one pass, from calibrated times."""
    per_op = _calibrated(run)
    p50 = statistics.median(per_op)
    p90 = statistics.quantiles(per_op, n=10)[8] if len(per_op) >= 2 else per_op[0]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "samples": len(per_op),
        "beyond_p90": sum(x >= p90 for x in per_op),
        "host_slowdown": statistics.median(run["probes_s"]) / PROBE_REF_S,
    }


def _setup_estimate(samples: list) -> float:
    """Median of the calibrated set-up samples taken through the run."""
    return statistics.median(took * PROBE_REF_S / probe for took, probe in samples)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_layers(traced: dict, untraced_ops_per_s: float) -> dict:
    """Per-layer table of the traced pass; returns the metrics for the JSON line."""
    values = traced["layers"]
    missing = set(traced["missing"])
    stats = _latency_stats(traced)
    print(f"per-layer metrics (traced pass: {traced['attempted']} ops in {traced['cycles']} "
          f"whole cycles; spans seen {traced['spans']['seen']}, kept {traced['spans']['kept']} "
          f"in {traced['spans']['file']}):")
    metrics = {}
    for name, unit, spans in per_layer_metrics():
        value = values[name]
        gone = name in missing or (spans and all(s in missing for s in spans))
        shown = "missing" if gone else _fmt(value)
        print(f"  {name:44s} {shown:>12s} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"  boundaries never entered (reported as 0 in the JSON line): "
          f"{', '.join(sorted(missing)) or 'none'}")
    print(f"tracing overhead: traced ops_per_s {_fmt(stats['ops_per_s'])} 1/s, "
          f"untraced {_fmt(untraced_ops_per_s)} 1/s, "
          f"ratio untraced/traced {_fmt(untraced_ops_per_s / stats['ops_per_s'])}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=_seed, required=True, help="a nonnegative integer")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="stop each pass after this many ops (self-test)")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one compared reference verdict (self-test)")
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(args, name) for name in names)


def run(args, workload: str) -> int:
    """Run one workload; print its report and, last, its JSON line."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "gmchan", "__init__.py")):
        print(f"perfbench: no gmchan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        raw_path = os.path.join(OUT, f"raw-{workload}-{os.getpid()}.json")
        cmd = ["measure", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw_path]
        if args.max_ops:
            cmd += ["--max-ops", str(args.max_ops)]
        if args.corrupt:
            cmd.append("--corrupt")
        _worker(cmd, DEADLINE_S - 10.0 - (time.monotonic() - started))
        with open(raw_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        os.remove(raw_path)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    threads = raw["environment"]["threads"]
    unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if not threads.get(v)]
    if unset:
        print(f"perfbench: worker ran with {', '.join(unset)} unset; refusing its timings",
              file=sys.stderr)
        return 1

    passes = [raw["untraced"]] + ([raw["traced"]] if args.trace else [])
    attempted = sum(x["attempted"] for x in passes)
    failed = sum(x["failed"] for x in passes)
    checks = {k: sum(x["checks"][k] for x in passes) for k in ("compared", "not_compared", "failed")}
    untraced = _latency_stats(raw["untraced"])
    e2e = {
        "ops_per_s": untraced["ops_per_s"],
        "latency_p50_ms": untraced["latency_p50_ms"],
        "latency_p90_ms": untraced["latency_p90_ms"],
        "setup_s": _setup_estimate(raw["setup_samples_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    error_rate = raw["untraced"]["failed"] / raw["untraced"]["attempted"]

    env = raw["environment"]
    print(f"perfbench {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']!r}, threads {threads}")
    digests = raw["cycle_sha256"]
    print(f"inputs: {len(digests)} timed cycles of fresh inputs, generated in "
          f"{raw['generate_s']:.2f} s; first cycle sha256 {digests[0]}")
    u = raw["untraced"]
    print(f"untraced: {u['attempted']} ops in {u['cycles']} whole cycles, {u['wall_s']:.2f} s wall, "
          f"{sum(u['latencies_s']):.2f} s in ops; {untraced['samples']} latency samples, "
          f"{untraced['beyond_p90']} at or beyond p90; {len(u['probes_s'])} probes, "
          f"median {untraced['host_slowdown']:.3f} x PROBE_REF_S")
    print(f"correctness: checks compared {checks['compared']}, not compared {checks['not_compared']}, "
          f"failed {checks['failed']}; ops failed {failed} of {attempted}")
    for message in sum((x["messages"] for x in passes), [])[:10]:
        print(f"  failure: {message}")
    print("end-to-end metrics:")
    for name, value in e2e.items():
        print(f"  {name:18s} {_fmt(value):>12s} {END_TO_END_UNITS[name]}")
    print(f"  {'error_rate':18s} {_fmt(error_rate):>12s} ratio")
    print(f"  setup samples (s, probe ms): "
          f"{' '.join(f'{x:.4f}/{p * 1e3:.3f}' for x, p in raw['setup_samples_s'])}")

    result = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "cycle_sha256": digests,
        "end_to_end": dict(e2e, error_rate=error_rate), "samples": untraced["samples"],
        "beyond_p90": untraced["beyond_p90"], "setup_samples_s": raw["setup_samples_s"],
        "attempted": attempted, "failed": failed, "checks": checks,
        "cycle_s": raw["untraced"]["cycle_s"],
        "latencies_s": raw["untraced"]["latencies_s"],
        "probes_s": raw["untraced"]["probes_s"],
        "probe_at": raw["untraced"]["probe_at"],
    }
    if args.trace:
        metrics = _print_layers(raw["traced"], untraced["ops_per_s"])
        result["per_layer"] = metrics
        result["missing"] = raw["traced"]["missing"]
        result["spans"] = raw["traced"]["spans"]
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}

    result_path = os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"result file: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": failed == 0 and checks["failed"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
