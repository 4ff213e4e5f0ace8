"""Benchmark worker: one process with pinned BLAS threads.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py measure --workload NAME --seed S --seconds T
                                        --trace 0|1 --out FILE

`setup` times what every CLI invocation pays: importing gmchan and
gmchan.cli and building the basis for the workload's sizes; then it times
the host speed probe (hostspeed.py). `measure` runs the workload in a closed
loop with one client (the next op starts when the previous one has returned
and been checked) and writes the raw results as JSON. Between ops it times
the probe at least every PROBE_EVERY_S. Between cycles, untimed, it
generates the next cycle's seeded inputs and their references, and every
SETUP_EVERY_S it waits for one `setup` child, so the set-up samples are
spread through the run. With --trace 1 an
untraced pass of a third of the time comes first, so the tracing overhead is
measured in the same process.

Both refuse to run unless the BLAS thread variables are set; run.py sets
them. gmchan is imported from this checkout's src/ and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_EVERY_S = 2.0
PROBE_EVERY_S = 0.025


def _require_pinned_threads() -> None:
    unset = [v for v in THREAD_VARS if not os.environ.get(v)]
    if unset:
        sys.exit(f"worker: refusing to run with {', '.join(unset)} unset")


def _import_gmchan():
    sys.path.insert(0, SRC)
    import gmchan
    import gmchan.cli

    where = os.path.dirname(os.path.abspath(gmchan.__file__))
    if where != os.path.join(SRC, "gmchan"):
        sys.exit(f"worker: gmchan imported from {where}, not from {SRC}")
    return gmchan


def cmd_setup(args) -> None:
    from plan import SIZES  # no numpy: its import belongs to the timed part

    start = time.perf_counter()
    gm = _import_gmchan()
    for n in SIZES[args.workload]:
        gm.full_basis(n)
    took = time.perf_counter() - start
    import hostspeed

    print(json.dumps({"setup_s": took, "probe_s": hostspeed.settled_probe()}))


def _environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "?"), "version": blas.get("version", "?")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("MKL_NUM_THREADS",)},
    }


def _setup_sample(workload: str) -> list:
    """[set-up time, probe time] of one fresh `setup` child; this process
    waits for it."""
    import subprocess

    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup",
                           "--workload", workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"worker: setup exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    return [sample["setup_s"], sample["probe_s"]]


def _digest(np, ops) -> str:
    import hashlib

    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                h.update(key.encode())
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            for item in value:
                feed(item)
        else:
            h.update(repr(value).encode())

    for op in ops:
        feed([op.kind, op.n, op.inputs])
    return h.hexdigest()


class Loop:
    """Runs shuffled cycles of fresh inputs until the time budget is spent.

    Cycle i draws its inputs from a generator seeded with (seed, i), so the
    same seed gives the same cycles however many a run reaches, and no two
    cycles share an input: a timed op never sees an input twice. Cycle 0 is
    the warm-up and is never timed.
    """

    def __init__(self, workload, name: str, gm, seed: int, max_ops: int | None,
                 corrupt: bool = False):
        import random

        self.workload = workload
        self.name = name
        self.gm = gm
        self.seed = seed
        self.random = random.Random(seed)
        self.max_ops = max_ops
        self.corrupt = corrupt
        self.cycles_made = 0  # timed cycles; they have indices 1, 2, ...
        self.digests = []  # SHA-256 of each timed cycle's inputs, in order
        self.generate_s = 0.0
        self.setup_s = []
        self._last_setup = None

    def _make(self, index: int) -> list:
        import numpy as np

        t0 = time.perf_counter()
        ops = self.workload.cycle(np.random.default_rng([self.seed, index]), index)
        self.generate_s += time.perf_counter() - t0
        return ops

    def _next_cycle(self) -> list:
        import numpy as np

        import workloads as W

        self.cycles_made += 1
        ops = self._make(self.cycles_made)
        self.digests.append(_digest(np, W.chained(ops)))
        self.random.shuffle(ops)
        if self.corrupt:
            # the corrupted op runs first, so even a run of a few ops meets it
            self.corrupt = False
            op = self.workload.corrupt(ops)
            if op is None:
                sys.exit("worker: no compared verdict to corrupt")
            ops.insert(0, ops.pop(next(i for i, o in enumerate(ops) if o is op)))
        return W.chained(ops)

    def warm_up(self) -> None:
        """Run one op of each kind, size and category of the warm-up cycle,
        untimed and unchecked, so lazy set-up inside numpy and the program is
        done before timing."""
        import workloads as W

        seen = set()
        for op in self._make(0):
            key = (op.kind, op.n, op.tag)
            if key not in seen:
                seen.add(key)
                for step in W.chained([op]):
                    self.workload.run(self.gm, step)

    def _sample_setup(self) -> None:
        now = time.perf_counter()
        if self._last_setup is None or now - self._last_setup >= SETUP_EVERY_S:
            self._last_setup = now
            self.setup_s.append(_setup_sample(self.name))

    def run(self, seconds: float, tracer=None, sample_setup: bool = False) -> dict:
        """Whole periods of cycles (see workloads) until `seconds` of wall
        time (generation and set-up samples included) have passed, or until
        max_ops ops have run.

        Before an op, when PROBE_EVERY_S have passed since the last probe,
        the host speed probe runs; each op records the index of the last
        probe before it. One more probe closes the pass."""
        import hostspeed
        import workloads as W

        checker = W.Checker()
        latencies, failed, errors = [], 0, []
        probes, probe_at = [], []
        probed = None
        cycle_s = []  # time in ops of each whole cycle
        start = time.perf_counter()
        done = False
        while not done:
            if sample_setup:
                self._sample_setup()
            ops = self._next_cycle()
            first = len(latencies)
            for op in ops:
                if tracer is not None:
                    tracer.op = len(latencies)
                    tracer.tag = op.tag
                if probed is None or time.perf_counter() - probed >= PROBE_EVERY_S:
                    probes.append(hostspeed.probe())
                    probed = time.perf_counter()
                probe_at.append(len(probes) - 1)
                checker.op_ok = True
                t0 = time.perf_counter()
                try:
                    out = self.workload.run(self.gm, op)
                except Exception as e:  # an op that raises counts as failed
                    latencies.append(time.perf_counter() - t0)
                    failed += 1
                    if len(errors) < 20:
                        errors.append(f"{op.kind} n={op.n}: {type(e).__name__}: {e}")
                else:
                    latencies.append(time.perf_counter() - t0)
                    self.workload.check(op, out, checker)
                    failed += not checker.op_ok
                if self.max_ops and len(latencies) >= self.max_ops:
                    done = True
                    break
            else:
                cycle_s.append(sum(latencies[first:]))
                done = (time.perf_counter() - start >= seconds
                        and len(cycle_s) % self.workload.period == 0)
        probes.append(hostspeed.probe())
        return {
            "latencies_s": latencies,
            "probes_s": probes,
            "probe_at": probe_at,
            "wall_s": time.perf_counter() - start,
            "cycles": len(cycle_s),
            "cycle_s": cycle_s,
            "attempted": len(latencies),
            "failed": failed,
            "checks": {"compared": checker.compared, "not_compared": checker.not_compared,
                       "failed": checker.failed},
            "messages": errors + checker.messages,
        }


def cmd_measure(args) -> None:
    import resource
    import shutil

    import numpy as np

    import tracing
    import workloads as W

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = W.make(args.workload, workdir)
        result = {"environment": _environment(np)}
        gm = _import_gmchan()
        for n in workload.ns:
            gm.full_basis(n)
        loop = Loop(workload, args.workload, gm, args.seed, args.max_ops, args.corrupt)
        if not args.max_ops:
            loop.warm_up()
        budget = args.seconds / 3 if args.trace else args.seconds
        result["untraced"] = loop.run(budget, sample_setup=True)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            installed = tracing.install(gm, tracer)
            try:
                traced = loop.run(args.seconds - budget, tracer)
            finally:
                installed.remove()
            layers = tracer.metrics(traced["attempted"])
            spans_file = os.path.join(out_dir, f"spans-{args.workload}.npz")
            tracer.save(spans_file)
            traced["layers"] = layers["values"]
            traced["missing"] = sorted(set(layers["missing"]) | set(installed.absent))
            traced["spans"] = {"seen": tracer.spans_seen, "kept": min(tracer.spans_seen, tracing.SPAN_CAP),
                               "file": os.path.relpath(spans_file, ROOT)}
            result["traced"] = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples_s"] = loop.setup_s
    result["cycle_sha256"] = loop.digests
    result["generate_s"] = loop.generate_s
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    _require_pinned_threads()
    sys.path.insert(0, HERE)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.set_defaults(func=cmd_setup)
    m = sub.add_parser("measure")
    m.add_argument("--workload", required=True)
    m.add_argument("--seed", type=int, required=True, help="a nonnegative integer")
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--out", required=True)
    m.add_argument("--max-ops", type=int, default=None)
    m.add_argument("--corrupt", action="store_true")
    m.set_defaults(func=cmd_measure)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
