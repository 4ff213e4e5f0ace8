"""Per-call timings of gmchan's small-table layers, for one or more source trees.

    python bench/layers.py --out FILE [--tree LABEL=DIR ...] [--rounds R]
                           [--repeats K] [--tier1] [--perfbench FILE]
                           [--previous FILE]

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
the stride skipped: its `_block_margins` margin against the tolerance, or, on
an older tree whose `dynamics` does not read `_block_margins`, `channels._is_cp`
on the one table. `trajectory_flags` sets the stride-1 CP flags
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
basis through its cache's uncached `__wrapped__` function (`full_basis`, or
`basis._build_basis` where `full_basis` checks n first and looks it up), and
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
reverse converters' data and, on a tree that has them, of the per-n dense
eigenvalue readers (`channels._reverse_maps` and `channels._affine_maps`,
through their uncached `__wrapped__` functions, so the data the other layers
read stay cached): the one-off cost a process pays per size on its first
conversions. `evolve_table` writes the
`gmchan evolve` table of a 501-frame semigroup trajectory, built beforehand
with CP stride 500 as perfbench's files workload runs it, to an in-memory
text stream (`fileio._write_trajectory_table`; on a tree without it, the
one-`%`-template-per-row writer that `cmd_evolve` held before). A tree
without a layer's function (an older checkout) gets no samples for it. Each
tree is a source checkout (default: this one, labelled "change"); its `src/`
is imported in a child process started with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1. Every tree's random inputs come
from the samplers of this checkout's `tests/sampling.py`, run on that tree's
gmchan, so trees with and without a `gmchan.sampling` draw the same ones. The
rounds run the trees in turn, first tree first in odd rounds and last in
even ones, so slow spells of a shared host fall on every tree alike. Each
round takes K samples per (layer, n); a sample is the mean of as many calls
as fill about 2 ms. The file written holds the environment, the median and
quartiles of the R * K samples in microseconds, the ratio of each tree's
medians to the first tree's, and, on request, the Tier-1 wall time of each
tree and a perfbench summary read from a JSON file. --previous prints the
change of each median against an earlier file with the same tree labels.
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
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (2, 3, 4, 6, 8, 12, 16)
LAYERS = ("construct_kf", "construct_ev", "cp_check_oracle", "cp_check_normalized",
          "cp_check_paper", "tp_residuals", "complete_tp", "kf_is_ev", "kf_to_ev", "ev_to_kf", "lf_to_ev",
          "ev_to_lf", "apply_kf", "apply_lf", "apply_ev", "evolve_state", "validate_kf",
          "validate_ev", "construct_state", "evolve_state_skipped", "trajectory_flags",
          "evolve_timedep", "eta_from_lambda", "choi_of_channel_kf", "choi_of_channel_ev",
          "document_text", "parse_document", "maps_build", "evolve_table", "block_margins",
          "is_cp_frame", "is_cp_stack", "decompose", "recompose", "report_diagnostics", "basis_build",
          "eigvalsh_block", "choi_blocks_kf", "choi_blocks_ev", "ev_is_kf", "ev_is_kf_bad",
          "ev_is_lf", "ev_is_lf_bad", "lf_is_ev", "lf_is_ev_bad", "kf_is_ev_bad")
VERDICT_TOL = 1e-10  # certify's tolerance
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SAMPLE_S = 0.002
SEED = 6
LARGE_SIZES = (32, 48, 64)
CHANNEL_STEPS = ("cp_check_oracle", "ev_to_kf", "kf_to_ev")
STATE_STEPS = ("apply_ev", "apply_ev_later", "evolve_semigroup", "evolve_state",
               "evolve_state_later")


def _rows_table(out, traj) -> None:
    # the trajectory table as `cmd_evolve` wrote it before the fileio kernel
    n = traj.n
    names = [f"lambda_{i}_{j}" for i in range(n) for j in range(n)]
    out.write("\t".join(["t"] + names + ["cp"]) + "\n")
    row_format = "%.17g\t" * (1 + n * n) + "%s\n"
    cells = ["-" if flag is None else ("1" if flag else "0") for flag in traj.cp_flags]
    rows = np.column_stack([traj.grid, traj.lams.reshape(len(traj), -1)]).tolist()
    out.writelines(row_format % (*row, cell) for row, cell in zip(rows, cells, strict=True))


def _use_tree(src: str) -> None:
    """Import gmchan from `src`, and `sampling` from this checkout's tests/, whatever the tree:
    every tree draws its inputs from the one sampler file, run on its own gmchan."""
    sys.path.insert(0, src)
    sys.path.append(os.path.join(ROOT, "tests"))


def _child(src: str, repeats: int) -> None:
    """Print {layer: {n: [seconds per call, ...]}} for the gmchan under `src`."""
    _use_tree(src)
    import gmchan as gm
    import sampling
    from gmchan import basis, channels, dynamics, fileio

    def ev_checks(ch):
        return [check(ch, VERDICT_TOL)
                for check in (gm.cp_check_oracle, gm.cp_check_paper, gm.cp_check_normalized)]

    def diagnostics(ch):  # every diagnostics value, read after the checks
        return [tuple(rep.diagnostics.values()) for rep in ev_checks(ch)]

    build_basis = next(f.__wrapped__ for f in (basis.full_basis, getattr(basis, "_build_basis", None))
                       if hasattr(f, "__wrapped__"))
    # a skipped frame's verdict as the tree's evolve_state takes it: its one-table margin where
    # dynamics reads `_block_margins`, else (an older tree) `_is_cp` on the one table
    margins = getattr(dynamics, "_block_margins", None)
    frame_verdict = ((lambda lam: margins(lam)[3] >= -VERDICT_TOL) if margins
                     else (lambda lam: channels._is_cp(lam, VERDICT_TOL)))

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
        write_table = getattr(fileio, "_write_trajectory_table", _rows_table)
        block = channels._block_margins(lam)[0]
        # inadmissible twins: every entry but the inert (0, 0) one off by up to 1e-3
        off = 1e-3 * rng.uniform(-1.0, 1.0, (n, n))
        off[0, 0] = 0.0
        bad = {"lam": lam + off, "eta": eta + off, "gamma": gamma + off}
        # weights among rows and columns >= 2 alone, which leaves rows 0 and 1 balanced
        inner = np.arange(n) > 1
        bad_p = gm.complete_tp(p + np.abs(off) * np.outer(inner, inner), p[1, 1]).p

        def timedep(tables=tables, grid=grid):
            return [gm.evolve_timedep(t, grid, cp_stride=s) for t in tables for s in (1, 50)]

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
            ("complete_tp", n): lambda p=p: gm.complete_tp(p, p[1, 1]),
            ("kf_is_ev", n): lambda kf=kf: gm.kf_is_ev(kf()),
            ("kf_to_ev", n): lambda kf=kf: gm.kf_to_ev(kf()),
            ("ev_to_kf", n): lambda ev=ev: gm.ev_to_kf(ev()),
            ("lf_to_ev", n): lambda n=n, g=gamma: gm.lf_to_ev(gm.LindbladGenerator(n=n, gamma=g)),
            ("ev_to_lf", n): lambda n=n, h=eta: gm.ev_to_lf(gm.EigenGenerator(n=n, eta=h)),
            ("apply_kf", n): lambda a=acting, X=X: gm.apply_kf(a[0], X),
            ("apply_lf", n): lambda a=acting, X=X: gm.apply_lf(a[1], X),
            ("apply_ev", n): lambda a=acting, X=X: gm.apply_ev(a[2], X),
            ("evolve_state", n): lambda tr=traj, r=rho0: gm.evolve_state(tr, r, 10),
            ("validate_kf", n): lambda n=n, p=p: validate_kf(n, p),
            ("validate_ev", n): lambda ev=ev: ev_checks(ev()),
            ("construct_state", n): lambda n=n, r=rho: gm.DensityMatrix(n=n, entries=r),
            ("evolve_state_skipped", n): lambda tr=skipping, r=rho0: gm.evolve_state(tr, r, 5),
            ("trajectory_flags", n): lambda tr=flipping: dynamics._flagged(tr, 1, VERDICT_TOL),
            ("evolve_timedep", n): timedep,
            ("eta_from_lambda", n): lambda tr=tabulated: gm.eta_from_lambda(tr.lams, tr.grid),
            ("choi_of_channel_kf", n): lambda kf=kf: gm.choi_of_channel(kf()),
            ("choi_of_channel_ev", n): lambda ev=ev: gm.choi_of_channel(ev()),
            ("choi_blocks_kf", n): lambda kf=kf: channels._choi_blocks(kf()),
            ("choi_blocks_ev", n): lambda ev=ev: channels._choi_blocks(ev()),
            ("document_text", n): lambda a=acting: fileio.document_text(a[2]),
            ("parse_document", n): lambda text=text: fileio._parse_document(text),
            ("evolve_table", n): lambda tr=table: write_table(io.StringIO(), tr),
            ("block_margins", n): lambda lam=lam: channels._block_margins(lam),
            ("is_cp_frame", n): lambda lam=lam: frame_verdict(lam),
            ("is_cp_stack", n): lambda lams=flipping.lams: channels._is_cp(lams, VERDICT_TOL),
            ("decompose", n): lambda n=n, X=X: gm.decompose(X, gm.full_basis(n)),
            ("recompose", n): lambda n=n, X=X: gm.recompose(X, gm.full_basis(n)),
            ("report_diagnostics", n): lambda ev=ev: diagnostics(ev()),
            ("basis_build", n): lambda n=n: build_basis(n),
            ("eigvalsh_block", n): lambda block=block: np.linalg.eigvalsh(block),
            ("ev_is_kf", n): lambda ev=ev: gm.ev_is_kf(ev()),
            ("ev_is_kf_bad", n): lambda n=n, l=bad["lam"]: gm.ev_is_kf(gm.EigenChannel(n=n, lam=l)),
            ("ev_is_lf", n): lambda n=n, h=eta: gm.ev_is_lf(gm.EigenGenerator(n=n, eta=h)),
            ("ev_is_lf_bad", n): lambda n=n, h=bad["eta"]: gm.ev_is_lf(gm.EigenGenerator(n=n, eta=h)),
            ("lf_is_ev", n): lambda n=n, g=gamma: gm.lf_is_ev(gm.LindbladGenerator(n=n, gamma=g)),
            ("lf_is_ev_bad", n):
                lambda n=n, g=bad["gamma"]: gm.lf_is_ev(gm.LindbladGenerator(n=n, gamma=g)),
            ("kf_is_ev_bad", n): lambda n=n, p=bad_p: gm.kf_is_ev(gm.KrausChannel(n=n, p=p)),
        })
        builds = [getattr(channels, name).__wrapped__
                  for name in ("_affine_maps", "_reverse_maps") if hasattr(channels, name)]
        calls["maps_build", n] = lambda n=n, builds=builds: [build(n) for build in builds]
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
    out = {layer: {str(n): samples[layer, n] for n in SIZES}
           for layer in LAYERS if (layer, SIZES[0]) in samples}
    print(json.dumps(out))


def _convert_rss(src: str) -> None:
    """Print the peak RSS in MB of this fresh process before and after converting at every n."""
    _use_tree(src)
    import gmchan as gm
    import sampling

    def peak_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    before = peak_mb()
    for n in range(2, 17):
        rng = np.random.default_rng([SEED, n])
        lam = gm.kf_to_ev(sampling.random_kf_ev_admissible(rng, n)).lam
        gm.ev_to_kf(gm.EigenChannel(n=n, lam=lam))
        eta = gm.lf_to_ev(sampling.random_lf_ev_admissible(rng, n)).eta
        gm.ev_to_lf(gm.EigenGenerator(n=n, eta=eta))
    print(json.dumps({"before_mb": before, "after_mb": peak_mb()}))


def _peak_mb() -> float:
    """This process's peak RSS in MB: its own VmHWM where Linux gives it, else ru_maxrss."""
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _large_n(src: str, n: int, part: str) -> None:
    """Print the time and peak RSS after the first oracle check and conversions at n
    (part "channel") or after the first and a later apply_ev and evolve_state ("state")."""
    sys.path.insert(0, src)
    import gmchan as gm

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


def _write_files(src: str, scratch: str) -> None:
    """Save the CLI layers' inputs, drawn with seed SEED: an admissible n = 16 weight table,
    and an n = 8 eigenvalue-form generator of nonnegative rates with a random n = 8 state."""
    _use_tree(src)
    import gmchan as gm
    import sampling
    from gmchan import fileio

    fileio.save(sampling.random_kf_ev_admissible(np.random.default_rng([SEED, 16]), 16),
                os.path.join(scratch, "kf16.json"))
    rng = np.random.default_rng([SEED, 8])
    fileio.save(gm.lf_to_ev(sampling.random_lf_ev_admissible(rng, 8, nonnegative=True)),
                os.path.join(scratch, "gen8.json"))
    fileio.save(gm.DensityMatrix(n=8, entries=sampling.random_density(rng, 8)),
                os.path.join(scratch, "state8.json"))


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
    ap.add_argument("--rss-child", help=argparse.SUPPRESS)
    ap.add_argument("--large-child", nargs=3, help=argparse.SUPPRESS)
    ap.add_argument("--files", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child, args.repeats)
        return
    if args.rss_child:
        _convert_rss(args.rss_child)
        return
    if args.large_child:
        _large_n(args.large_child[0], int(args.large_child[1]), args.large_child[2])
        return
    if args.files:
        _write_files(*args.files)
        return
    if not args.out:
        ap.error("--out is required")
    if args.rounds * args.repeats < 15:
        ap.error("need at least 15 samples per cell (--rounds x --repeats)")
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": ROOT}
    samples = {label: {layer: {str(n): [] for n in SIZES} for layer in LAYERS} for label in trees}
    rss = {label: {"before_mb": [], "after_mb": []} for label in trees}
    large = {part: {label: {str(n): [] for n in LARGE_SIZES} for label in trees}
             for part in ("channel", "state")}
    env = {**os.environ, **PINNED}
    with tempfile.TemporaryDirectory() as scratch:
        subprocess.run([sys.executable, __file__, "--files", os.path.join(ROOT, "src"), scratch],
                       env=env, check=True)
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
                proc = subprocess.run(
                    [sys.executable, __file__, "--rss-child", os.path.join(trees[label], "src")],
                    env=env, capture_output=True, text=True, check=True,
                )
                for key, mb in json.loads(proc.stdout).items():
                    rss[label][key].append(mb)
                src = os.path.join(trees[label], "src")
                for part in large:
                    for n in LARGE_SIZES:
                        proc = subprocess.run(
                            [sys.executable, __file__, "--large-child", src, str(n), part],
                            env=env, capture_output=True, text=True, check=True)
                        large[part][label][str(n)].append(json.loads(proc.stdout))
                for name, argv in commands.items():
                    start = time.perf_counter()
                    proc = subprocess.run([sys.executable, "-m", "gmchan.cli", *argv],
                                          env={**env, "PYTHONPATH": src}, capture_output=True,
                                          text=True)
                    cli[name][label].append(time.perf_counter() - start)
                    if proc.returncode != 0:
                        sys.exit(f"{label}: gmchan {name} exited {proc.returncode}: {proc.stderr}")
    result = {
        "environment": _environment(),
        "settings": {"trees": list(trees), "rounds": args.rounds, "repeats": args.repeats,
                     "sample_s": SAMPLE_S, "seed": SEED, "sizes": list(SIZES)},
        "layers": {label: {layer: {n: _quantiles(xs) for n, xs in cells.items()}
                           for layer, cells in per.items() if any(cells.values())}
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
    }
    first = next(iter(trees))
    base = result["layers"][first]
    result["ratio_to_" + first] = {
        label: {layer: {n: round(cell["median_us"] / base[layer][n]["median_us"], 3)
                        for n, cell in cells.items()} for layer, cells in per.items()
                if layer in base}
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
