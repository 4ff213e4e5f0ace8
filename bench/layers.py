"""Per-call timings of gmchan's small-table layers, for one or more source trees.

    python bench/layers.py --out FILE [--tree LABEL=DIR ...] [--rounds R]
                           [--repeats K] [--tier1] [--perfbench FILE]
                           [--previous FILE]
    python bench/layers.py --workload NAME [--tree LABEL=DIR ...] [--seed S]
                           [--cycles C] [--out FILE]

Times `cp_check_oracle`, `cp_check_normalized`, `cp_check_paper`,
`tp_residuals`, `complete_tp`, `kf_is_ev`, `kf_to_ev`, `ev_to_kf`, `lf_to_ev`, `ev_to_lf`,
`apply_kf`, `apply_lf`, `apply_ev`, `choi_of_channel`, `evolve_state`,
`evolve_timedep`, `eta_from_lambda`, `decompose` and `recompose` per call
at n in {2, 3, 4, 6, 8, 12, 16}. Channels keep per-object memos, so every
timed call builds a fresh channel (or generator) from its stored table, and
`construct_kf`/`construct_ev` time that construction alone; `construct_state`
times a `DensityMatrix` built from a random density matrix. `decompose` and
`recompose` take one random complex matrix (its coefficient table) and the
basis from `full_basis(n)`, looked up in the call. The `apply_*` layers
read no memo and act on one random complex matrix with one object built
beforehand. `choi_of_channel_kf`/`_ev` assemble the Choi matrix (blocks,
spectrum and the dense n²×n² entries) of a fresh channel of that weight
and eigenvalue table, and `choi_blocks_kf`/`_ev` do the oracle's work on
one without its report (`channels._choi_blocks`: the fill, the one n×n
eigensolve and the 2×2 blocks' centres and radii). `evolve_state` applies the last frame of an 11-frame semigroup
trajectory, built beforehand with its CP flags, to one random
`DensityMatrix`, built beforehand too: on a tree where a state keeps its
basis coefficients, every call after the first reads them from that memo,
as the 11 frames of one perfbench evolve op do; `evolve_state_skipped`
applies its middle frame from a copy built with a CP stride that skips it,
so its verdict is decided on demand. `block_margins` reads the block
criterion of the (CP) eigenvalue table, `channels._block_margins` on one
table, which keeps no memo, so each call starts afresh;
`is_cp_frame` decides that table's verdict as `evolve_state` does for a frame
the stride skipped: its `_block_margins` margin against the tolerance.
`trajectory_flags` sets the stride-1 CP flags
(`dynamics._flagged`) of a 201-frame semigroup trajectory, built beforehand, of
a rate table with one negative diagonal rate, so its verdicts flip, and
`is_cp_stack` decides that trajectory's 201 frames alone (`channels._is_cp` on
the (201, n, n) stack). One `evolve_timedep` call builds four
201-point trajectories of a Markovian generator: with tabulated (9 knots)
and with quadratic polynomial profiles, each at CP stride 1 and 50.
`eta_from_lambda` differentiates the stride-1 tabulated one.
`report_diagnostics` runs the three checks on a fresh channel of the
eigenvalue table, as `validate_ev` does, and then reads every value of each
report's `diagnostics` (the path of `scripts/crossval_sweep.py`, which reads
the paper diagnostics). `basis_build` times one cold build of the Gell-Mann
basis through its cache's uncached `__wrapped__` function (`basis._build_basis`), and
`eigvalsh_block` one n×n Hermitian eigensolve alone, of that table's
diagonal-sector block (`channels._block_margins`), the one the oracle and
the block criterion each run per table: `choi_blocks_*` over it is the
oracle's cost per eigensolve. `ev_is_kf`, `ev_is_lf` and
`lf_is_ev` run the admissibility checks on a fresh object of the admissible
eigenvalue, generator-eigenvalue and rate tables; their `_bad` twins, and
`kf_is_ev_bad`, on tables with every entry but the inert (0, 0) one off by up
to 1e-3 (for the weight table, only the weights among rows and columns >= 2,
completed to trace preservation), which fail every condition they touch.
`validate_kf` and `validate_ev`
replay the call sequence that perfbench's certify workload makes on one
fresh object: for a weight table the TP check, the oracle,
`kf_is_ev`, `kf_to_ev` and the three CP checks of the result; for an
eigenvalue table the three CP checks. `document_text` renders the eigenvalue
channel as channel-file text and `parse_document` parses that text back
(`fileio._parse_document`: JSON, schema and the coefficient table, no file
I/O and no object built). `complete_tp` completes the admissible weight
table's off-diagonals and p_11. `maps_build` times one cold build of the
reverse converters' data (`channels._reverse_maps`, through its uncached
`__wrapped__` function, so the data the other layers read stay cached): the
one-off cost a process pays per size on its first conversions. `evolve_table`
writes the `gmchan evolve` table of a 501-frame semigroup trajectory, built
beforehand with CP stride 500 as perfbench's files workload runs it, to an
in-memory text stream (`fileio._write_trajectory_table`).

Each tree is a source checkout (default: this one, labelled "change"). Each
round starts one child process, with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1, that imports every tree's `src/gmchan` as its own
set of module objects (`_load`) and runs this checkout's `tests/sampling.py`
once against each, so every tree draws the same random inputs from one
sampler file. The child times each (layer, n) cell on every tree back to
back, and which tree goes first alternates from cell to cell, from sample to
sample and from round to round (`_alternate`), so a slow spell of a shared
host falls on every tree alike. Each round takes
K samples per cell and tree; a sample is the mean of as many calls as fill
about 2 ms on the fastest tree. A tree without a layer's function (an older
checkout) gets no samples for it. The file written holds the environment, the
median and quartiles of the R * K samples in microseconds, each later tree's
`ratio_to_<first>`, its time over the first tree's per paired sample (same
cell, round and repeat) as `_paired` reads it, and, on request, the Tier-1
wall time of each tree and a perfbench summary read from a JSON file. --previous
prints the change of each median against an earlier file with the same tree
labels.

Each round also starts one fresh process per tree that runs the four
converters (`kf_to_ev`, `ev_to_kf`, `lf_to_ev`, `ev_to_lf`) once at every
n = 2..16 and reports its peak RSS (`ru_maxrss`) before and after; the file
holds their quartiles per tree under "convert_rss". Each round then starts
one fresh process per tree and n in {32, 48, 64} that runs the first
`cp_check_oracle` of the depolarizing eigenvalue channel (lam_00 = 1, every
other entry 0.5), then `ev_to_kf` of it and `kf_to_ev` of the result, and
reports each call's time and the process's peak RSS after it ("large_n";
the peak is the process's own high-water mark, VmHWM, where Linux gives it:
a child's `ru_maxrss` starts at its parent's RSS). A second fresh process per
tree and n runs the state path on that channel ("large_n_state"): the first
and a later `apply_ev` on one random real matrix, then `evolve_semigroup`
of a 3-point trajectory with its CP flags (every off-diagonal generator
eigenvalue -0.5), then the first `evolve_state` of its last frame on a new
`DensityMatrix` (which decomposes the state) and a later one (which reads
its coefficients back); each step reports its time and the peak RSS after
it. Last, each round runs four CLI
subcommands as subprocesses per tree (`python -m gmchan.cli`, numpy's import
included) and records their wall times: `gmchan validate` ("cli_validate"),
`gmchan convert --to ev --out` ("cli_convert") and `gmchan choi`
("cli_choi") on one admissible n = 16 kf file, and `gmchan evolve --t 1
--steps 500 --stride 500 --out` with `--state` ("cli_evolve") on an n = 8
eigenvalue-form generator and an n = 8 state file, as perfbench's files
workload runs it.

--workload NAME times perfbench's seeded ops op by op instead, in one child
that loads the trees as above. The inputs are perfbench's own
(`perfbench/workloads.py`, imported as is and never written): cycle i of
--seed S, i = 1..C, shuffled as the perfbench worker shuffles them, after one
untimed warm-up op of each kind, size and tag of cycle 0 per tree. Every op
runs on every tree back to back through the same alternation, a chained op (a
convert round trip) together with the op it follows, and each run is checked
with the workload's own `check`, untimed. Printed per tree: its op count, the
ops whose check failed or that raised, the median and quartiles of op time,
and, per tree after the first, its time over the first tree's for the same op
as `_paired` reads it (one stall moves a summed time, not this ratio), over
all ops and per (op kind, n; certify's kf ops split into "kf-diag", which a
TP op also converts, and "kf-offdiag"). The times are plain wall time, not
perfbench's host-calibrated time. --out writes the same figures and each op's
times as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import random
import re
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (2, 3, 4, 6, 8, 12, 16)
VERDICT_TOL = 1e-10  # certify's tolerance
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SAMPLE_S = 0.002
SEED = 6
LARGE_SIZES = (32, 48, 64)
CHANNEL_STEPS = ("cp_check_oracle", "ev_to_kf", "kf_to_ev")
STATE_STEPS = ("apply_ev", "apply_ev_later", "evolve_semigroup", "evolve_state",
               "evolve_state_later")


def _load(tree: str):
    """gmchan (with gmchan.cli) from tree/src, and this checkout's tests/sampling.py run on it,
    as module objects the import system then forgets, so the next call loads the next tree
    afresh. This works because `src/gmchan` imports nothing inside its functions."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    try:
        import gmchan
        import gmchan.cli
        spec = importlib.util.spec_from_file_location(
            "sampling", os.path.join(ROOT, "tests", "sampling.py"))
        sampling = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sampling)
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules if m == "gmchan" or m.startswith("gmchan.")]:
            del sys.modules[name]
    if os.path.dirname(gmchan.__file__) != os.path.join(src, "gmchan"):
        sys.exit(f"layers: gmchan imported from {gmchan.__file__}, not from {src}")
    return gmchan, sampling


def _alternate(labels: list, cells, measure) -> tuple:
    """Each cell of the (turn, cell) pairs of `cells` measured on every tree back to back, the
    first tree first on even turns and last on odd ones, so a slow spell falls on every tree
    alike: ({label: [measure(label, cell), ...]}, [whether the first tree went first, ...])."""
    out, forward = {label: [] for label in labels}, []
    for turn, cell in cells:
        forward.append(turn % 2 == 0)
        for label in labels[:: 1 if forward[-1] else -1]:
            out[label].append(measure(label, cell))
    return out, forward


def _cells(gm, sampling, n: int) -> dict:
    """{layer: call} at n on one tree's gmchan, its inputs drawn with seed (SEED, n)."""
    channels, dynamics, fileio = gm.channels, gm.dynamics, gm.fileio

    def ev_checks(ch):
        return [check(ch, VERDICT_TOL)
                for check in (gm.cp_check_oracle, gm.cp_check_paper, gm.cp_check_normalized)]

    def validate_kf():  # perfbench/workloads.py, Certify.run on a kf op
        ch = kf()
        out = [float(np.max(np.abs(gm.tp_residuals(ch)))) <= VERDICT_TOL,
               gm.cp_check_oracle(ch, VERDICT_TOL)]
        if out[0] and gm.kf_is_ev(ch)[0]:
            out += ev_checks(gm.kf_to_ev(ch))
        return out

    rng = np.random.default_rng([SEED, n])
    p = sampling.random_kf_ev_admissible(rng, n).p
    lam = gm.kf_to_ev(gm.KrausChannel(n=n, p=p)).lam
    gamma = sampling.random_lf_ev_admissible(rng, n).gamma
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    acting = (gm.KrausChannel(n=n, p=p), gm.LindbladGenerator(n=n, gamma=gamma),
              gm.EigenChannel(n=n, lam=lam))
    eta = gm.lf_to_ev(gm.LindbladGenerator(n=n, gamma=gamma)).eta
    markovian = gm.lf_to_ev(sampling.random_lf_ev_admissible(rng, n, nonnegative=True))
    traj = gm.evolve_semigroup(markovian, gm.uniform_grid(1.0, 11))
    skipping = gm.evolve_semigroup(markovian, gm.uniform_grid(1.0, 11), cp_stride=100)
    rho = sampling.random_density(rng, n)
    rho0 = gm.DensityMatrix(n=n, entries=rho)
    grid = gm.uniform_grid(1.0, 201)
    knots, shape = np.linspace(0.0, 1.0, 9), 1.0 + 0.5 * np.sin(rng.uniform(2.0, 6.0, 9))
    coeffs = (1.0, rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5))
    h = markovian.eta
    tables = [[[None if (i, j) == (0, 0) else make(h[i, j]) for j in range(n)]
               for i in range(n)]
              for make in (lambda e: gm.RateProfile.tabulated(knots, e * shape),
                           lambda e: gm.RateProfile.polynomial(*(e * c for c in coeffs)))]
    tabulated = gm.evolve_timedep(tables[0], grid)
    rates = sampling.random_lf_ev_admissible(np.random.default_rng([SEED, n, 1]), n,
                                             nonnegative=True).gamma.copy()
    rates[1, 1] = -0.05  # frames leave CP, then re-enter it
    flipping = gm.evolve_semigroup(gm.lf_to_ev(gm.LindbladGenerator(n=n, gamma=rates)),
                                   gm.uniform_grid(4.0, 201))
    text = fileio.document_text(acting[2])
    table = gm.evolve_semigroup(markovian, gm.uniform_grid(4.0, 501), cp_stride=500)
    block = channels._block_margins(lam)[0]
    # inadmissible twins: every entry but the inert (0, 0) one off by up to 1e-3
    off = 1e-3 * rng.uniform(-1.0, 1.0, (n, n))
    off[0, 0] = 0.0
    bad_lam, bad_eta, bad_gamma = lam + off, eta + off, gamma + off
    # weights among rows and columns >= 2 alone, which leaves rows 0 and 1 balanced
    inner = np.arange(n) > 1
    bad_p = gm.complete_tp(p + np.abs(off) * np.outer(inner, inner), p[1, 1]).p

    def kf():
        return gm.KrausChannel(n=n, p=p)

    def ev():
        return gm.EigenChannel(n=n, lam=lam)

    return {
        "construct_kf": kf,
        "construct_ev": ev,
        "cp_check_oracle": lambda: gm.cp_check_oracle(ev()),
        "cp_check_normalized": lambda: gm.cp_check_normalized(ev()),
        "cp_check_paper": lambda: gm.cp_check_paper(ev()),
        "tp_residuals": lambda: gm.tp_residuals(kf()),
        "complete_tp": lambda: gm.complete_tp(p, p[1, 1]),
        "kf_is_ev": lambda: gm.kf_is_ev(kf()),
        "kf_to_ev": lambda: gm.kf_to_ev(kf()),
        "ev_to_kf": lambda: gm.ev_to_kf(ev()),
        "lf_to_ev": lambda: gm.lf_to_ev(gm.LindbladGenerator(n=n, gamma=gamma)),
        "ev_to_lf": lambda: gm.ev_to_lf(gm.EigenGenerator(n=n, eta=eta)),
        "apply_kf": lambda: gm.apply_kf(acting[0], X),
        "apply_lf": lambda: gm.apply_lf(acting[1], X),
        "apply_ev": lambda: gm.apply_ev(acting[2], X),
        "evolve_state": lambda: gm.evolve_state(traj, rho0, 10),
        "validate_kf": validate_kf,
        "validate_ev": lambda: ev_checks(ev()),
        "construct_state": lambda: gm.DensityMatrix(n=n, entries=rho),
        "evolve_state_skipped": lambda: gm.evolve_state(skipping, rho0, 5),
        "trajectory_flags": lambda: dynamics._flagged(flipping, 1, VERDICT_TOL),
        "evolve_timedep": lambda: [gm.evolve_timedep(t, grid, cp_stride=s)
                                   for t in tables for s in (1, 50)],
        "eta_from_lambda": lambda: gm.eta_from_lambda(tabulated.lams, tabulated.grid),
        "choi_of_channel_kf": lambda: gm.choi_of_channel(kf()),
        "choi_of_channel_ev": lambda: gm.choi_of_channel(ev()),
        "document_text": lambda: fileio.document_text(acting[2]),
        "parse_document": lambda: fileio._parse_document(text),
        "maps_build": lambda: channels._reverse_maps.__wrapped__(n),
        "evolve_table": lambda: fileio._write_trajectory_table(io.StringIO(), table),
        "block_margins": lambda: channels._block_margins(lam),
        "is_cp_frame": lambda: dynamics._block_margins(lam)[3] >= -VERDICT_TOL,
        "is_cp_stack": lambda: channels._is_cp(flipping.lams, VERDICT_TOL),
        "decompose": lambda: gm.decompose(X, gm.full_basis(n)),
        "recompose": lambda: gm.recompose(X, gm.full_basis(n)),
        "report_diagnostics": lambda: [tuple(rep.diagnostics.values()) for rep in ev_checks(ev())],
        "basis_build": lambda: gm.basis._build_basis.__wrapped__(n),
        "eigvalsh_block": lambda: np.linalg.eigvalsh(block),
        "choi_blocks_kf": lambda: channels._choi_blocks(kf()),
        "choi_blocks_ev": lambda: channels._choi_blocks(ev()),
        "ev_is_kf": lambda: gm.ev_is_kf(ev()),
        "ev_is_kf_bad": lambda: gm.ev_is_kf(gm.EigenChannel(n=n, lam=bad_lam)),
        "ev_is_lf": lambda: gm.ev_is_lf(gm.EigenGenerator(n=n, eta=eta)),
        "ev_is_lf_bad": lambda: gm.ev_is_lf(gm.EigenGenerator(n=n, eta=bad_eta)),
        "lf_is_ev": lambda: gm.lf_is_ev(gm.LindbladGenerator(n=n, gamma=gamma)),
        "lf_is_ev_bad": lambda: gm.lf_is_ev(gm.LindbladGenerator(n=n, gamma=bad_gamma)),
        "kf_is_ev_bad": lambda: gm.kf_is_ev(gm.KrausChannel(n=n, p=bad_p)),
    }


def _time_layers(trees: dict, rnd: int, repeats: int) -> dict:
    """`repeats` samples of every (layer, n) cell on every loaded tree, the first tree going
    first by the parity of round + repeat + cell: {"times": {label: {layer: {n: [seconds per
    call, ...]}}}, "forward": {layer: {n: [whether the first tree went first, ...]}}}."""
    calls = {label: {(layer, n): call for n in SIZES for layer, call in _cells(*mods, n).items()}
             for label, mods in trees.items()}
    labels, keys = list(trees), list(calls[next(iter(trees))])

    def fill(label, key):  # warm caches, then count the calls of one sample; 0: no such layer
        call, start, count = calls[label][key], time.perf_counter(), 0
        try:
            while time.perf_counter() - start < SAMPLE_S:
                call()
                count += 1
        except AttributeError:  # a tree without this layer's function
            del calls[label][key]
            return 0
        return count

    counts = zip(keys, *_alternate(labels, enumerate(keys), fill)[0].values())
    number = {key: min(c for c in per if c) for key, *per in counts if any(per)}

    def sample(label, key):
        call = calls[label].get(key)
        if call is None:
            return None
        start = time.perf_counter()
        for _ in range(number[key]):
            call()
        return (time.perf_counter() - start) / number[key]

    turns = [(rnd + r + c, key) for r in range(repeats) for c, key in enumerate(number)]
    times, forward = _alternate(labels, turns, sample)
    out = {"times": {label: {} for label in labels}, "forward": {}}
    for (_, (layer, n)), f in zip(turns, forward):
        out["forward"].setdefault(layer, {}).setdefault(str(n), []).append(f)
    for label, xs in times.items():
        for (_, (layer, n)), x in zip(turns, xs, strict=True):
            if x is not None:
                out["times"][label].setdefault(layer, {}).setdefault(str(n), []).append(x)
    return out


def _op_times(trees: dict, W, workload, ops: list) -> dict:
    """{label: [[kind, n, seconds, failed, forward], ...] per step}: each op of perfbench's
    `workload` (module W, `perfbench/workloads.py`), with the ops chained to it, run on every
    loaded tree back to back (`_alternate`; forward: the first tree went first), each run
    checked untimed. Certify's kf ops are split into "kf-diag" and "kf-offdiag" by whether the
    table is basis-diagonal."""
    checkers = {label: W.Checker() for label in trees}

    def run(label, op):
        gm, c, out = trees[label][0], checkers[label], []
        for step in W.chained([op]):
            kind = step.kind
            if isinstance(workload, W.Certify) and kind == "kf":
                kind = "kf-diag" if step.ref["diagonal"] else "kf-offdiag"
            c.op_ok = True
            start = time.perf_counter()
            try:
                result = workload.run(gm, step)
            except Exception:  # an op that raises counts as failed, as in perfbench
                c.op_ok = False
            seconds = time.perf_counter() - start
            if c.op_ok:
                workload.check(step, result, c)
            out.append([kind, step.n, seconds, not c.op_ok])
        return out

    times, forward = _alternate(list(trees), enumerate(ops), run)
    return {label: [step + [f] for steps, f in zip(per, forward) for step in steps]
            for label, per in times.items()}


def _time_workload(trees: dict, name: str, seed: int, cycles: int) -> dict:
    """`_op_times` of perfbench workload `name`'s cycles 1..`cycles` of `seed`, shuffled as the
    perfbench worker shuffles them, after one untimed warm-up op of each kind, size and tag of
    cycle 0 per tree."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads as W

    with tempfile.TemporaryDirectory() as workdir:
        workload = W.make(name, workdir)
        warm = {}
        for op in workload.cycle(np.random.default_rng([seed, 0]), 0):
            warm.setdefault((op.kind, op.n, op.tag), op)
        for op in warm.values():
            for gm, _ in trees.values():
                for step in W.chained([op]):
                    workload.run(gm, step)
        ops, shuffle = [], random.Random(seed)
        for index in range(1, cycles + 1):
            cycle = workload.cycle(np.random.default_rng([seed, index]), index)
            shuffle.shuffle(cycle)
            ops += cycle
        return _op_times(trees, W, workload, ops)


def _convert_rss(tree: str) -> None:
    """Print the peak RSS in MB of this fresh process before and after converting at every n."""
    gm, sampling = _load(tree)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for n in range(2, 17):
        rng = np.random.default_rng([SEED, n])
        lam = gm.kf_to_ev(sampling.random_kf_ev_admissible(rng, n)).lam
        gm.ev_to_kf(gm.EigenChannel(n=n, lam=lam))
        eta = gm.lf_to_ev(sampling.random_lf_ev_admissible(rng, n)).eta
        gm.ev_to_lf(gm.EigenGenerator(n=n, eta=eta))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"before_mb": before, "after_mb": after}))


def _peak_mb() -> float:
    """This process's peak RSS in MB: its own VmHWM where Linux gives it, else ru_maxrss."""
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _large_n(tree: str, n: int, part: str) -> None:
    """Print the time and peak RSS after the first oracle check and conversions at n
    (part "channel") or after the first and a later apply_ev and evolve_state ("state")."""
    gm, _ = _load(tree)
    lam = np.full((n, n), 0.5)
    lam[0, 0] = 1.0
    ev = gm.EigenChannel(n=n, lam=lam)
    X = np.random.default_rng([SEED, n]).normal(size=(n, n))
    out = {"start_mb": _peak_mb()}

    def timed(name, call):
        start = time.perf_counter()
        value = call()
        out[name] = {"s": time.perf_counter() - start, "peak_mb": _peak_mb()}
        return value

    if part == "channel":
        timed("cp_check_oracle", lambda: gm.cp_check_oracle(ev))
        kf = timed("ev_to_kf", lambda: gm.ev_to_kf(ev))
        timed("kf_to_ev", lambda: gm.kf_to_ev(kf))
    else:
        timed("apply_ev", lambda: gm.apply_ev(ev, X))
        timed("apply_ev_later", lambda: gm.apply_ev(ev, X))
        eta = np.full((n, n), -0.5)
        eta[0, 0] = 0.0
        traj = timed("evolve_semigroup", lambda: gm.evolve_semigroup(
            gm.EigenGenerator(n=n, eta=eta), gm.uniform_grid(1.0, 3)))
        rho = gm.DensityMatrix(n=n, entries=np.diag(np.linspace(1.0, 3.0, n)) / (2.0 * n))
        timed("evolve_state", lambda: gm.evolve_state(traj, rho, 2))
        timed("evolve_state_later", lambda: gm.evolve_state(traj, rho, 2))
    print(json.dumps(out))


def _write_files(scratch: str) -> None:
    """Save the CLI layers' inputs, drawn with seed SEED: an admissible n = 16 weight table,
    and an n = 8 eigenvalue-form generator of nonnegative rates with a random n = 8 state."""
    gm, sampling = _load(ROOT)
    gm.fileio.save(sampling.random_kf_ev_admissible(np.random.default_rng([SEED, 16]), 16),
                   os.path.join(scratch, "kf16.json"))
    rng = np.random.default_rng([SEED, 8])
    gm.fileio.save(gm.lf_to_ev(sampling.random_lf_ev_admissible(rng, 8, nonnegative=True)),
                   os.path.join(scratch, "gen8.json"))
    gm.fileio.save(gm.DensityMatrix(n=8, entries=sampling.random_density(rng, 8)),
                   os.path.join(scratch, "state8.json"))


def _quantiles(xs: list) -> dict:
    q1, median, q3 = (float(q) for q in 1e6 * np.percentile(xs, [25, 50, 75]))
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1, "samples": len(xs)}


def _paired(xs: list, base: list, forward: list) -> float:
    """xs over base, sample by sample: the geometric mean of the median over the samples where
    the first tree went first (`forward`) and that over the samples where it went last, so the
    lift that going second gives (up to 30% on some cells: state that the same work on the
    other tree has just warmed) cancels even where the two orders are not taken equally often.
    Above 1, xs took longer."""
    ratios, forward = np.divide(xs, base), np.asarray(forward, dtype=bool)
    medians = [np.median(ratios[forward == side]) for side in (True, False) if any(forward == side)]
    return round(float(np.exp(np.mean(np.log(medians)))), 3)


def _op_summary(times: dict) -> dict:
    """Per tree: op and failure counts, op time quantiles and, after the first tree, the paired
    ratio (`_paired`) of its op times to the first tree's, over all ops and per (op kind, n)."""
    first = next(iter(times))
    base = [s for _, _, s, _, _ in times[first]]
    forward = [f for *_, f in times[first]]
    out = {}
    for label, steps in times.items():
        xs = [s for _, _, s, _, _ in steps]
        out[label] = {"ops": len(xs), "failed": sum(f for *_, f, _ in steps), **_quantiles(xs)}
        if label != first:
            by = {}
            for (kind, n, s, _, f), b in zip(steps, base, strict=True):
                for column, x in zip(by.setdefault((kind, n), ([], [], [])), (s, b, f)):
                    column.append(x)
            out[label]["ratio_to_" + first] = _paired(xs, base, forward)
            out[label]["by_kind_n"] = {f"{kind} n={n}": {"ratio": _paired(*cell), "ops": len(cell[0])}
                                       for (kind, n), cell in sorted(by.items())}
        out[label]["op_s"] = xs
    return out


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


def _in_child(rnd: int) -> dict:
    """What this script prints, as JSON, run on the same arguments with --child `rnd` in a child
    process whose BLAS threads are pinned."""
    proc = subprocess.run([sys.executable, __file__, *sys.argv[1:], "--child", str(rnd)],
                          env={**os.environ, **PINNED}, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout)


def _workload_main(args) -> None:
    """Run --workload's op-by-op timing in one child and print (and write) its summary."""
    summary = _op_summary(_in_child(0))
    first = next(iter(summary))
    print(f"{args.workload} seed {args.seed}: {args.cycles} cycles, "
          f"{summary[first]['ops']} ops per tree")
    for label, cell in summary.items():
        ratio = cell.get("ratio_to_" + first)
        print(f"  {label:10s} median {cell['median_us'] / 1e3:.3f} ms "
              f"(IQR {cell['iqr_us'] / 1e3:.3f})  failed {cell['failed']}"
              + (f"  paired ratio to {first} {ratio:.3f}, by op kind and n:" if ratio else ""))
        for key, pair in cell.get("by_kind_n", {}).items():
            print(f"    {key:16s} {pair['ratio']:.3f}  ({pair['ops']} ops)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "cycles": args.cycles,
                       "trees": summary}, fh)
            fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=5, help="samples per cell per round")
    ap.add_argument("--tier1", action="store_true", help="also time each tree's test suite")
    ap.add_argument("--perfbench", help="JSON summary of perfbench runs to include")
    ap.add_argument("--previous", help="earlier output to print the change against")
    ap.add_argument("--workload", choices=("certify", "evolve", "files"),
                    help="time perfbench's ops of this workload instead of the layers")
    ap.add_argument("--seed", type=int, default=11, help="--workload's seed")
    ap.add_argument("--cycles", type=int, default=8, help="--workload's cycles")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--rss-child", help=argparse.SUPPRESS)
    ap.add_argument("--large-child", nargs=3, help=argparse.SUPPRESS)
    ap.add_argument("--files", help=argparse.SUPPRESS)
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": ROOT}
    if args.child is not None:
        loaded = {label: _load(tree) for label, tree in trees.items()}
        print(json.dumps(_time_workload(loaded, args.workload, args.seed, args.cycles)
                         if args.workload else _time_layers(loaded, args.child, args.repeats)))
        return
    if args.rss_child:
        _convert_rss(args.rss_child)
        return
    if args.large_child:
        _large_n(args.large_child[0], int(args.large_child[1]), args.large_child[2])
        return
    if args.files:
        _write_files(args.files)
        return
    if args.workload:
        _workload_main(args)
        return
    if not args.out:
        ap.error("--out is required")
    if args.rounds * args.repeats < 15:
        ap.error("need at least 15 samples per cell (--rounds x --repeats)")
    env = {**os.environ, **PINNED}
    samples, forward = {label: {} for label in trees}, {}
    rss = {label: {"before_mb": [], "after_mb": []} for label in trees}
    large = {part: {label: {str(n): [] for n in LARGE_SIZES} for label in trees}
             for part in ("channel", "state")}
    with tempfile.TemporaryDirectory() as scratch:
        # in a child: a child's ru_maxrss starts at its parent's RSS, so this process stays lean
        subprocess.run([sys.executable, __file__, "--files", scratch], env=env, check=True)
        kf_file, out = os.path.join(scratch, "kf16.json"), os.path.join(scratch, "out")
        commands = {
            "validate": ["validate", kf_file],
            "convert": ["convert", kf_file, "--to", "ev", "--out", out],
            "choi": ["choi", kf_file],
            "evolve": ["evolve", "--generator", os.path.join(scratch, "gen8.json"), "--t", "1",
                       "--steps", "500", "--stride", "500", "--state",
                       os.path.join(scratch, "state8.json"), "--out", out],
        }
        cli = {name: {label: [] for label in trees} for name in commands}

        def fresh(label, _):  # one tree's fresh-process sections of a round
            tree = trees[label]
            proc = subprocess.run([sys.executable, __file__, "--rss-child", tree],
                                  env=env, capture_output=True, text=True, check=True)
            for key, mb in json.loads(proc.stdout).items():
                rss[label][key].append(mb)
            for part in large:
                for n in LARGE_SIZES:
                    proc = subprocess.run(
                        [sys.executable, __file__, "--large-child", tree, str(n), part],
                        env=env, capture_output=True, text=True, check=True)
                    large[part][label][str(n)].append(json.loads(proc.stdout))
            for name, argv in commands.items():
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "gmchan.cli", *argv],
                                      env={**env, "PYTHONPATH": os.path.join(tree, "src")},
                                      capture_output=True, text=True)
                cli[name][label].append(time.perf_counter() - start)
                if proc.returncode != 0:
                    sys.exit(f"{label}: gmchan {name} exited {proc.returncode}: {proc.stderr}")

        for r in range(args.rounds):
            child = _in_child(r)
            for into, per in ((forward, child["forward"]), *((samples[label], per)
                              for label, per in child["times"].items())):
                for layer, cells in per.items():
                    for n, xs in cells.items():
                        into.setdefault(layer, {}).setdefault(n, []).extend(xs)
            _alternate(list(trees), [(r, r)], fresh)
    first = next(iter(trees))
    base = samples[first]
    result = {
        "environment": _environment(),
        "settings": {"trees": list(trees), "rounds": args.rounds, "repeats": args.repeats,
                     "sample_s": SAMPLE_S, "seed": SEED, "sizes": list(SIZES)},
        "layers": {label: {layer: {n: _quantiles(xs) for n, xs in cells.items()}
                           for layer, cells in per.items()}
                   for label, per in samples.items()},
        "convert_rss": {label: {key: dict(zip(("q1", "median", "q3"), np.percentile(xs, [25, 50, 75])))
                                for key, xs in per.items() if xs}
                        for label, per in rss.items()},
        **{key: {label: {n: {"start_mb": float(np.median([run["start_mb"] for run in runs])),
                                 **{step: {k: float(np.median([run[step][k] for run in runs]))
                                           for k in ("s", "peak_mb")}
                                    for step in steps}}
                             for n, runs in per.items()}
                     for label, per in large[part].items()}
           for key, part, steps in (("large_n", "channel", CHANNEL_STEPS),
                                    ("large_n_state", "state", STATE_STEPS))},
        **{"cli_" + name: {label: _quantiles(xs) for label, xs in per.items()}
           for name, per in cli.items()},
        "ratio_to_" + first: {
            label: {layer: {n: _paired(xs, base[layer][n], forward[layer][n])
                            for n, xs in cells.items()}
                    for layer, cells in per.items() if layer in base}
            for label, per in samples.items() if label != first},
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
    for label, per in result["convert_rss"].items():
        print(f"[{label}] peak RSS converting at n = 2..16, MB:",
              ", ".join(f"{key} {q['median']:.2f} ({q['q1']:.2f}-{q['q3']:.2f})" for key, q in per.items()))
    for key, steps in (("large_n", CHANNEL_STEPS), ("large_n_state", STATE_STEPS)):
        for label, per in result[key].items():
            for n, cell in per.items():
                print(f"[{label}] n = {n}, from {cell['start_mb']:.1f} MB:", ", ".join(
                    f"{step} {cell[step]['s'] * 1e3:.2f} ms, peak {cell[step]['peak_mb']:.1f} MB"
                    for step in steps))
    for name in commands:
        for label, cell in result["cli_" + name].items():
            print(f"[{label}] gmchan {name}, subprocess: "
                  f"{cell['median_us'] / 1e3:.1f} ms ({cell['iqr_us'] / 1e3:.1f})")
    if "tier1" in result:
        print("tier-1:", json.dumps(result["tier1"]))


if __name__ == "__main__":
    main()
