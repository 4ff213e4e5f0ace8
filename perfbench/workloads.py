"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload builds its inputs one cycle at a time with the benchmark's own
numpy code (never gmchan.sampling), computes the expected outputs with
`reference` before timing starts, runs one op against gmchan's public API,
and compares the op's output with the reference outside the timed interval.

A workload's `period` consecutive cycles have a fixed composition: every
seed runs the same number of ops of each kind, size and category in them,
so seeds differ in table values but not in the work mix.
The worker makes every cycle from a generator of its own, so no two cycles
share an input, and shuffles it, so sizes interleave and per-size caches in
the program see mixed sizes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import reference as R
from plan import SIZES

TOL = R.VERDICT_TOL


@dataclass
class Op:
    kind: str
    n: int
    inputs: dict  # everything handed to the program; hashed
    ref: dict = field(default_factory=dict)  # expected outputs; not hashed
    tag: str = ""  # op category the traced run reports ratios by
    then: "Op | None" = None  # op that reads this op's output; runs right after it


def chained(ops: list) -> list:
    """The ops with every chained op placed right after the op it follows."""
    out = []
    for op in ops:
        while op is not None:
            out.append(op)
            op = op.then
    return out


class Checker:
    """Counts comparisons of one run: compared, not compared, failed."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.compared = 0
        self.not_compared = 0
        self.failed = 0
        self.messages = []
        self.op_ok = True

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.compared += 1
            return
        self.failed += 1
        self.op_ok = False
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(what)

    def verdict(self, got: bool, margin: float, what: str) -> None:
        """Compare a CP verdict with the reference margin's sign.

        A reference margin within MARGIN_FILTER of zero makes the verdict
        depend on eigensolver noise, so it is counted as not compared.
        """
        if abs(margin) <= R.MARGIN_FILTER:
            self.not_compared += 1
            return
        self.expect(bool(got) == (margin >= -TOL),
                    f"{what}: verdict {got}, reference margin {margin:+.3e}")

    def margin(self, got: float, want: float, what: str, scale: float = 1.0) -> None:
        self.expect(abs(got - want) <= 1e-8 * max(1.0, scale),
                    f"{what}: margin {got:+.6e}, reference {want:+.6e}")

    def close(self, got, want, tol: float, what: str) -> None:
        self.expect(R.close(got, want, tol), f"{what}: differs from reference beyond {tol:g}")


# ---------------------------------------------------------------- inputs


def tp_weights(rng, n: int, diagonal: bool) -> np.ndarray:
    """Nonnegative trace-preserving weight table.

    Trace preservation means sum_a p_a s_a^2 = I. With r_k the symmetrized
    off-diagonal weight in row k, that pins r_0 = r_1 and
    p_{k+1,k+1} = p_kk + (k+1)/(2k) (r_k - r_{k+1}); p_11 is free and p_00
    takes the rest. `diagonal` makes the symmetrized columns constant, so
    the channel is diagonal in the basis.
    """
    p = np.zeros((n, n))
    for l in range(1, n):
        if diagonal:
            col = rng.uniform(0.01, 0.06)
            for j in range(l):
                d = rng.uniform(-0.5, 0.5) * col / 2
                p[j, l], p[l, j] = col / 2 + d, col / 2 - d
        else:
            p[:l, l] = rng.uniform(0.0, 0.03, size=l)
            p[l, :l] = rng.uniform(0.0, 0.03, size=l)
    pt = p + p.T
    if n >= 3:
        gap = float(np.sum(pt[1, 2:] - pt[0, 2:]))  # r_1 - r_0
        if gap > 0:
            p[0, 2] += gap
        else:
            p[1, 2] -= gap
        pt = p + p.T
    r = pt.sum(axis=1)
    diag = np.zeros(n)
    for k in range(1, n - 1):
        diag[k + 1] = diag[k] + (k + 1) / (2 * k) * (r[k] - r[k + 1])
    diag[1:] += -diag[1:].min() + rng.uniform(0.05, 0.15)
    np.fill_diagonal(p, diag)
    w2 = np.array([0.0] + [2.0 / (j * (j + 1)) for j in range(1, n)])
    used = r[0] + float(np.sum(diag * w2))
    p00 = rng.uniform(0.2, 0.6)
    p *= (1.0 - p00) / used
    p[0, 0] = p00
    return p


def signed_weights(rng, p: np.ndarray) -> np.ndarray:
    """Move weight between a pair so one entry turns negative.

    p_jl + p_lj is unchanged, so trace preservation and diagonality hold,
    but the Choi matrix gets a negative eigenvalue: the map is not CP.
    """
    n = p.shape[0]
    j, l = sorted(rng.choice(n, size=2, replace=False))
    shift = p[l, j] + rng.uniform(0.005, 0.02)
    q = p.copy()
    q[j, l] += shift
    q[l, j] -= shift
    return q


def uniform_eigenvalues(rng, n: int) -> np.ndarray:
    """Unit-trace eigenvalue table uniform in [-1.5, 1.5], as crossval draws."""
    lam = rng.uniform(-1.5, 1.5, size=(n, n))
    lam[0, 0] = 1.0
    return lam


def cp_eigenvalues(rng, n: int) -> np.ndarray:
    """CP eigenvalue table: a uniform table shrunk towards full depolarization.

    The depolarizing table e_00 has J = I/n, so J(s) = I/n + s K and its
    smallest eigenvalue is 1/n + s min(K); s is a random share of the
    largest step that keeps J positive.
    """
    u = rng.uniform(-1.5, 1.5, size=(n, n))
    u[0, 0] = 0.0
    k_min = R.ev_choi_min(u)
    s = rng.uniform(0.3, 0.9) * (1.0 / n) / max(-k_min, 1e-12)
    lam = s * u
    lam[0, 0] = 1.0
    return lam


def diagonal_rates(rng, n: int) -> np.ndarray:
    """Nonnegative rate table whose symmetrized columns are constant."""
    g = np.zeros((n, n))
    for l in range(1, n):
        col = rng.uniform(0.1, 1.0)
        for j in range(l):
            d = rng.uniform(-0.5, 0.5) * col / 2
            g[j, l], g[l, j] = col / 2 + d, col / 2 - d
    g[np.arange(1, n), np.arange(1, n)] = rng.uniform(0.0, 0.6, size=n - 1)
    return g


def with_negative_rate(rng, g: np.ndarray) -> np.ndarray:
    """Make one off-diagonal rate negative, keeping the column sums."""
    n = g.shape[0]
    j, l = sorted(rng.choice(n, size=2, replace=False))
    col = g[j, l] + g[l, j]
    q = g.copy()
    q[l, j] = -rng.uniform(0.1, 0.5) * col
    q[j, l] = col - q[l, j]
    return q


def density_matrix(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


# ---------------------------------------------------------------- certify


# (form, n) -> ops per cycle. More tables at small n. At the parent commit
# the one kf table at n=16 is about a third of the cycle time, the median op
# falls in the middle of the kf n=2 ops and the 90th percentile among the kf
# n=8 and ev n=12 ops, whose costs are close: a quantile that sits between
# two cells of very different cost jumps with noise.
CERTIFY_CELLS = {
    ("kf", 2): 48, ("kf", 3): 24, ("kf", 4): 16, ("kf", 6): 14,
    ("kf", 8): 12, ("kf", 12): 4, ("kf", 16): 1,
    ("ev", 2): 36, ("ev", 3): 28, ("ev", 4): 24, ("ev", 6): 16,
    ("ev", 8): 12, ("ev", 12): 12, ("ev", 16): 5,
}


class Certify:
    """Decide one channel table the way `gmchan validate` does."""

    ns = SIZES["certify"]
    period = 2  # signed and CP tables alternate by cycle

    def cycle(self, rng, index: int) -> list:
        ops = []
        for (form, n), count in CERTIFY_CELLS.items():
            for k in range(count):
                if form == "kf":
                    # diagonal tables cost more (kf_to_ev and two more
                    # checks), so each cycle has the same split of them;
                    # signed or not costs the same and alternates by cycle
                    p = tp_weights(rng, n, diagonal=k % 2 == 0)
                    if (k // 2 + index) % 2:
                        p = signed_weights(rng, p)
                    ref = self._kf_ref(p)
                    ops.append(Op("kf", n, {"table": p}, ref))
                else:
                    cp = (k + index) % 2
                    lam = cp_eigenvalues(rng, n) if cp else uniform_eigenvalues(rng, n)
                    ref = self._ev_ref(lam)
                    ops.append(Op("ev", n, {"table": lam}, ref))
        return ops

    @staticmethod
    def _ev_ref(lam) -> dict:
        return {"oracle": R.ev_choi_min(lam), "paper": R.ev_unnormalized_min(lam),
                "scale": float(np.max(np.abs(lam)))}

    def _kf_ref(self, p) -> dict:
        ref = {"tp": R.kf_tp_defect(p) <= TOL, "oracle": R.kf_choi_min(p),
               "diagonal": R.column_violations(p) == 0}
        if ref["diagonal"]:
            lam = R.kf_eigenvalues(p)
            ref["lam"] = lam
            ref["ev"] = self._ev_ref(lam)
        return ref

    def run(self, gm, op):
        if op.kind == "ev":
            ch = gm.EigenChannel(n=op.n, lam=op.inputs["table"])
            return self._ev_reports(gm, ch)
        ch = gm.KrausChannel(n=op.n, p=op.inputs["table"])
        out = {"tp": float(np.max(np.abs(gm.tp_residuals(ch)))) <= TOL,
               "oracle": gm.cp_check_oracle(ch, TOL)}
        if out["tp"]:
            out["diagonal"], _ = gm.kf_is_ev(ch)
            if out["diagonal"]:
                ev = gm.kf_to_ev(ch)
                out["lam"] = ev.lam
                out["ev"] = self._ev_reports(gm, ev)
        return out

    @staticmethod
    def _ev_reports(gm, ch) -> dict:
        return {"oracle": gm.cp_check_oracle(ch, TOL),
                "paper": gm.cp_check_paper(ch, TOL),
                "normalized": gm.cp_check_normalized(ch, TOL)}

    def check(self, op, out, c: Checker) -> None:
        ref = op.ref
        where = f"{op.kind} n={op.n}"
        if op.kind == "ev":
            self._check_ev(out, ref, c, where)
            return
        c.expect(out["tp"] == ref["tp"], f"{where}: trace preservation {out['tp']}")
        c.verdict(out["oracle"].is_cp, ref["oracle"], f"{where} oracle")
        c.margin(out["oracle"].margin, ref["oracle"], f"{where} oracle")
        if not out["tp"]:
            return
        c.expect(out["diagonal"] == ref["diagonal"], f"{where}: kf_is_ev {out['diagonal']}")
        if out["diagonal"] and ref["diagonal"]:
            c.close(out["lam"], ref["lam"], 1e-10, f"{where} kf_to_ev table")
            self._check_ev(out["ev"], ref["ev"], c, where + " (as ev)")

    @staticmethod
    def _check_ev(reports, ref, c: Checker, where: str) -> None:
        scale = ref["scale"]
        for method, want in (("oracle", ref["oracle"]), ("normalized", ref["oracle"]),
                             ("paper", ref["paper"])):
            rep = reports[method]
            c.verdict(rep.is_cp, want, f"{where} {method}")
            c.margin(rep.margin, want, f"{where} {method}", scale)

    def corrupt(self, ops) -> "Op | None":
        for op in ops:
            if abs(op.ref["oracle"]) > R.MARGIN_FILTER:
                op.ref["oracle"] = -op.ref["oracle"]
                return op
        return None


# ---------------------------------------------------------------- evolve


SHAPES = ("constant", "exponential", "polynomial", "tabulated")
EVOLVE_POINTS = 201
COARSE_STRIDE = 50
# Per n and cycle: one stride-1 op of each shape and one strided op of each
# time-dependent shape. Whether a table has a negative rate alternates by
# cycle, so each (n, shape, stride, negative rate) combination gets an op every
# other cycle. With 12 strided ops of 28 the median op is a stride-1 op at
# n=2 and the 90th percentile one at n=6.
STATE_FRAMES = 11


def _shape(kind: str, params: dict, t: np.ndarray) -> np.ndarray:
    """Time shape f(t) multiplying every generator eigenvalue."""
    if kind == "constant":
        return np.ones_like(t)
    if kind == "exponential":
        return np.exp(-params["a"] * t)
    if kind == "polynomial":
        c = params["coeffs"]
        return c[0] + t * (c[1] + t * c[2])
    return np.interp(t, params["times"], params["values"])


def _trapezoid(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    steps = 0.5 * (f[1:] + f[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _log_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite differences on a uniform grid, along axis 0."""
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2 * h)
    d[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
    d[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
    return d


def _shape_params(rng, kind: str, reach: float) -> tuple:
    """Shape parameters and the final time at which integral f = reach."""
    if kind == "constant":
        return {}, reach
    if kind == "exponential":
        u = rng.uniform(0.5, 1.5)  # a * t_final
        t_final = reach * u / (1.0 - math.exp(-u))
        return {"a": u / t_final}, t_final
    if kind == "polynomial":
        b1, b2 = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)
        t_final = reach / (1.0 + b1 / 2 + b2 / 3)
        return {"coeffs": (1.0, b1 / t_final, b2 / t_final ** 2)}, t_final
    s = np.linspace(0.0, 1.0, 9)
    v = 1.0 + 0.5 * np.sin(rng.uniform(2.0, 6.0) * s + rng.uniform(0.0, 2 * math.pi))
    t_final = reach / float(np.sum(0.5 * (v[1:] + v[:-1])) / 8)
    return {"times": s * t_final, "values": v}, t_final


class Evolve:
    """Build one trajectory from a rate table and propagate a state."""

    ns = SIZES["evolve"]
    period = 2  # negative rates alternate by cycle

    def cycle(self, rng, index: int) -> list:
        ops = []
        for n in self.ns:
            for k, kind in enumerate(SHAPES):
                ops.append(self._op(rng, n, kind, 1, (k + index) % 2 == 0))
            for k, kind in enumerate(SHAPES[1:]):
                ops.append(self._op(rng, n, kind, COARSE_STRIDE, (k + index) % 2 == 0))
        return ops

    def _op(self, rng, n, kind, stride, flip) -> Op:
        for _ in range(1000):
            op = self._try_op(rng, n, kind, EVOLVE_POINTS, stride, flip)
            if op is not None:
                return op
        raise RuntimeError(f"no {kind} trajectory with flip={flip} at n={n}")

    def _try_op(self, rng, n, kind, points, stride, flip):
        g = diagonal_rates(rng, n)
        if flip:
            g = with_negative_rate(rng, g)
        eta = R.lf_eigenvalues(g)
        decay = -np.delete(eta.ravel(), 0)
        if decay.min() <= 1e-3:
            return None
        if flip:
            # integral of f at which the semigroup turns CP for good
            s = np.linspace(0.0, 20.0 / decay.max(), 200)
            m = R.ev_choi_min_batch(np.exp(s[:, None, None] * eta))
            bad = np.nonzero(m < -1e-6)[0]
            if bad.size == 0 or bad[-1] >= 100:
                return None
            reach = s[bad[-1] + 1] / rng.uniform(0.35, 0.65)
        else:
            reach = rng.uniform(2.0, 6.0) / decay.max()
        params, t_final = _shape_params(rng, kind, reach)
        grid = np.linspace(0.0, t_final, points)
        F = grid if kind == "constant" else _trapezoid(_shape(kind, params, grid), grid)
        lams = np.exp(F[:, None, None] * eta)
        margins = R.ev_choi_min_batch(lams)
        checked = [i % stride == 0 or i == points - 1 for i in range(points)]
        sure = [m for m, c in zip(margins, checked) if c and abs(m) > R.MARGIN_FILTER]
        if flip and not (min(sure) < 0 < max(sure)):
            return None
        inputs = {"rates": g, "t_final": t_final, "points": points, "stride": stride,
                  "rho0": density_matrix(rng, n), **params}
        ref = {"eta": eta, "F": F, "margins": margins, "checked": checked,
               "picks": np.unique(np.round(np.linspace(0, points - 1, STATE_FRAMES)).astype(int))}
        tag = "stride1" if stride == 1 else "strided"
        return Op(kind, n, inputs, ref, tag=tag)

    @staticmethod
    def _profiles(gm, op, eta):
        x = op.inputs
        n = op.n

        def profile(e):
            if op.kind == "exponential":
                return gm.RateProfile.exponential(e, x["a"])
            if op.kind == "polynomial":
                return gm.RateProfile.polynomial(*(e * c for c in x["coeffs"]))
            return gm.RateProfile.tabulated(x["times"], e * x["values"])

        return [[None if (i, j) == (0, 0) or eta[i, j] == 0.0 else profile(eta[i, j])
                 for j in range(n)] for i in range(n)]

    def run(self, gm, op):
        x = op.inputs
        gen = gm.lf_to_ev(gm.LindbladGenerator(n=op.n, gamma=x["rates"]))
        grid = gm.uniform_grid(x["t_final"], x["points"])
        if op.kind == "constant":
            traj = gm.evolve_semigroup(gen, grid, cp_stride=x["stride"])
        else:
            traj = gm.evolve_timedep(self._profiles(gm, op, gen.eta), grid, cp_stride=x["stride"])
        eta_back = gm.eta_from_lambda(traj.lams, traj.grid)
        rho0 = gm.DensityMatrix(n=op.n, entries=x["rho0"])
        states = []
        for idx in op.ref["picks"]:
            try:
                states.append(gm.evolve_state(traj, rho0, int(idx)).entries)
            except gm.NotCPAtTime:
                states.append(None)
        return gen.eta, traj, eta_back, states

    def check(self, op, out, c: Checker) -> None:
        eta, traj, eta_back, states = out
        ref = op.ref
        where = f"{op.kind} n={op.n} stride={op.inputs['stride']}"
        c.close(eta, ref["eta"], 1e-10, f"{where} lf_to_ev table")
        lams = np.exp(ref["F"][:, None, None] * ref["eta"])
        c.close(traj.lams, lams, 1e-9, f"{where} trajectory")
        for idx, (flag, checked, m) in enumerate(zip(traj.cp_flags, ref["checked"], ref["margins"])):
            if not checked:
                c.expect(flag is None, f"{where} frame {idx}: flag {flag} at a skipped frame")
            elif flag is None:
                c.expect(False, f"{where} frame {idx}: no CP flag")
            else:
                c.verdict(flag, m, f"{where} frame {idx}")
        h = float(traj.grid[1] - traj.grid[0])
        c.close(eta_back, _log_derivative(np.log(lams), h), 1e-8, f"{where} eta_from_lambda")
        coeffs = R.decompose(op.inputs["rho0"])
        for idx, state in zip(ref["picks"], states):
            m = ref["margins"][idx]
            if state is None:
                c.verdict(False, m, f"{where} evolve_state frame {idx}")
                continue
            if abs(m) > R.MARGIN_FILTER:
                c.verdict(True, m, f"{where} evolve_state frame {idx}")
            c.close(state, R.recompose(coeffs * lams[idx]), 1e-10, f"{where} state at frame {idx}")

    def corrupt(self, ops) -> "Op | None":
        for op in ops:
            for idx, (checked, m) in enumerate(zip(op.ref["checked"], op.ref["margins"])):
                if checked and abs(m) > R.MARGIN_FILTER:
                    op.ref["margins"] = op.ref["margins"].copy()
                    op.ref["margins"][idx] = -m
                    return op
        return None


# ---------------------------------------------------------------- files


# Copies of each n's job list per cycle: more files at small n.
FILES_REPS = {n: 3 if n <= 4 else 2 if n <= 8 else 1 for n in SIZES["files"]}
# evolve tables are written only up to this n: beyond it the two Choi
# checks of an evolve call cost more than writing its table.
FILES_EVOLVE_MAX_N = 8
FILES_EVOLVE_STEPS = 500
BAD_KINDS = ("kf", "ev", "lf", "ev-gen")
TARGET = {"kf": "ev", "ev": "kf", "lf": "ev-gen", "ev-gen": "lf"}


def _document(form: str, table: np.ndarray, metadata=None) -> str:
    return R.render_document({
        "format_version": "1", "n": table.shape[0], "form": form,
        "coefficients": table.tolist(), "metadata": metadata or {},
    })


def _validate_text(form: str, n: int, table: np.ndarray, violations: int) -> str:
    lines = [f"form: {form}  n: {n}"]
    if form == "lf":
        lines.append(f"min rate: {float(np.min(table)):+.6e}")
        lines.append("diagonalizes in the matrix basis: " + (
            "yes" if violations == 0 else f"no ({violations} violating triples)"))
    else:
        lines.append("admits a rate-table form: " + (
            "yes" if violations == 0 else f"no ({violations} violated constraints)"))
    return "\n".join(lines) + "\n"


class Files:
    """One in-process `gmchan.cli.main` call on files written beforehand."""

    ns = SIZES["files"]
    period = 4  # the inadmissible form cycles through BAD_KINDS

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def _op(self, kind, n, argv, ref, table=None) -> Op:
        # argv holds names relative to workdir, so the input hash does not
        # depend on where the checkout lives
        return Op(kind, n, {"argv": argv, "table": table}, ref)

    def cycle(self, rng, index: int) -> list:
        """Jobs per n: a kf round trip, an lf round trip, one inadmissible
        conversion, validate on lf / ev-gen / state files and, up to
        FILES_EVOLVE_MAX_N, an evolve whose table is the output.

        The files of the cycle before are removed first: cycles run one
        after the other, and every name carries the cycle's index."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        ops = []
        for n in self.ns:
            for rep in range(FILES_REPS[n]):
                tag = f"c{index}n{n}r{rep}"
                ops += self._round_trip(tag, "kf", "ev", tp_weights(rng, n, diagonal=True))
                ops += self._round_trip(tag, "lf", "ev-gen", diagonal_rates(rng, n))
                bad = BAD_KINDS[(n + rep + index) % len(BAD_KINDS)]
                if n >= (4 if bad == "kf" else 3):
                    ops.append(self._inadmissible(rng, tag, bad, n))
                ops += self._validations(rng, tag, n, admissible=(rep + index) % 2 == 0)
                if n <= FILES_EVOLVE_MAX_N:
                    ops.append(self._evolve(rng, tag, n))
        return ops

    def _round_trip(self, tag, form, other, table) -> list:
        n = table.shape[0]
        src = self._write(f"{tag}-{form}.json", _document(form, table))
        mid, back = f"{tag}-{form}-{other}.json", f"{tag}-{form}-back.json"
        forward = self._op("convert", n,
                           ["convert", src, "--to", other, "--out", mid],
                           {"out": mid, "form": other, "from": form}, table)
        forward.then = self._op("convert", n,
                                ["convert", mid, "--to", form, "--out", back],
                                {"out": back, "form": form, "from": other, "original": table})
        return [forward]

    def _inadmissible(self, rng, tag, form, n) -> Op:
        if form == "kf":
            table = tp_weights(rng, n, diagonal=False)
            count = R.column_violations(table)
        elif form == "lf":
            table = rng.uniform(0.0, 1.0, size=(n, n))
            table[0, 0] = 0.0
            count = R.column_violations(table)
        else:
            table = rng.uniform(-1.0, 1.0, size=(n, n))
            table[0, 0] = 1.0 if form == "ev" else 0.0
            count = R.generic_violations(form, n)
        src = self._write(f"{tag}-bad-{form}.json", _document(form, table))
        argv = ["convert", src, "--to", TARGET[form], "--out", f"{tag}-bad-out.json"]
        return self._op("reject", n, argv, {"admissible": False, "violations": count},
                        table)

    def _validations(self, rng, tag, n, admissible: bool) -> list:
        g = diagonal_rates(rng, n)
        if admissible:
            eta = R.lf_eigenvalues(g)
        else:
            g = g + rng.uniform(0.0, 0.1, size=(n, n))
            g[0, 0] = 0.0
            eta = rng.uniform(-1.0, 0.0, size=(n, n))
            eta[0, 0] = 0.0
        rho = density_matrix(rng, n)
        state = R.decompose(rho).real
        ops = []
        evgen_violations = 0 if admissible else R.generic_violations("ev-gen", n)
        for form, table, count in (("lf", g, R.column_violations(g)),
                                   ("ev-gen", eta, evgen_violations)):
            name = self._write(f"{tag}-val-{form}.json", _document(form, table))
            ref = {"stdout": _validate_text(form, n, table, count)}
            ops.append(self._op("validate", n, ["validate", name], ref, table))
        name = self._write(f"{tag}-val-state.json", _document("state", state))
        rho_file = R.recompose(state)
        ops.append(self._op("validate", n, ["validate", name], {
            "state": True, "min_eigenvalue": float(R._eigvalsh(rho_file)[0])}, state))
        return ops

    def _evolve(self, rng, tag, n) -> Op:
        g = diagonal_rates(rng, n)
        eta = R.lf_eigenvalues(g)
        t_final = rng.uniform(2.0, 6.0) / float(-np.delete(eta.ravel(), 0).min())
        t_arg = format(t_final, ".17g")
        src = self._write(f"{tag}-gen.json", _document("lf", g))
        steps = str(FILES_EVOLVE_STEPS)
        out = f"{tag}-traj.tsv"
        grid = np.linspace(0.0, float(t_arg), FILES_EVOLVE_STEPS + 1)
        last = R.ev_choi_min(np.exp(grid[-1] * eta))
        argv = ["evolve", "--generator", src, "--t", t_arg, "--steps", steps,
                "--stride", steps, "--out", out]
        return self._op("evolve", n, argv, {"out": out, "eta": eta, "grid": grid,
                                                  "last_margin": last}, g)

    def run(self, gm, op):
        argv = [os.path.join(self.workdir, a) if a.endswith((".json", ".tsv")) else a
                for a in op.inputs["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gm.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return fh.read()

    def check(self, op, out, c: Checker) -> None:
        code, stdout, stderr = out
        ref = op.ref
        where = f"{' '.join(op.inputs['argv'][:1])} n={op.n}"
        if op.kind == "reject":
            want = 0 if ref["admissible"] else 3
            c.expect(code == want, f"{where} {op.inputs['argv'][1]}: exit {code}, expected {want}")
            got = sum(line.startswith("  violated:") for line in stderr.splitlines())
            c.expect(got == ref["violations"],
                     f"{where}: {got} violations reported, expected {ref['violations']}")
            return
        c.expect(code == 0, f"{where}: exit {code}: {stderr.strip()[:200]}")
        if code != 0:
            return
        if op.kind == "convert":
            text = self._read(ref["out"])
            doc = R.parse_document(text)
            c.expect(R.render_document(doc) == text, f"{where}: {ref['out']} is not canonical")
            c.expect(doc["form"] == ref["form"] and doc["metadata"].get("converted_from") == ref["from"],
                     f"{where}: form/metadata of {ref['out']}")
            if "original" in ref:
                c.close(np.array(doc["coefficients"], dtype=float), ref["original"], 1e-10,
                        f"{where} round trip {ref['from']}->{ref['form']}")
        elif op.kind == "validate" and "state" in ref:
            lines = stdout.splitlines()
            c.expect(len(lines) == 3 and lines[0] == f"form: state  n: {op.n}",
                     f"{where}: state report {lines}")
            if len(lines) == 3:
                trace = float(lines[1].split()[-1])
                low = float(lines[2].split()[-1])
                want = ref["min_eigenvalue"]
                c.expect(abs(trace - 1.0) <= 1e-11, f"{where}: trace {trace}")
                c.expect(abs(low - want) <= 1e-6 * abs(want) + 1e-12,
                         f"{where}: min eigenvalue {low}, reference {want}")
        elif op.kind == "validate":
            c.expect(stdout == ref["stdout"], f"{where}: report {stdout!r}, expected {ref['stdout']!r}")
        else:
            self._check_table(op, c, where)

    def _check_table(self, op, c: Checker, where: str) -> None:
        ref = op.ref
        rows = [line.split("\t") for line in self._read(ref["out"]).splitlines()]
        n = op.n
        header = ["t"] + [f"lambda_{i}_{j}" for i in range(n) for j in range(n)] + ["cp"]
        c.expect(rows[0] == header and len(rows) == len(ref["grid"]) + 1,
                 f"{where}: table shape")
        body = rows[1:]
        values = np.array([[float(x) for x in row[:-1]] for row in body])
        grid = ref["grid"]
        lams = np.exp(grid[:, None] * ref["eta"].ravel()[None, :])
        c.close(values[:, 0], grid, 1e-12, f"{where} time column")
        c.close(values[:, 1:], lams, 1e-9, f"{where} trajectory")
        flags = [row[-1] for row in body]
        c.expect(all(f == "-" for f in flags[1:-1]), f"{where}: strided frames carry flags")
        c.expect(flags[0] in ("0", "1") and flags[-1] in ("0", "1"), f"{where}: end flags")
        c.verdict(flags[-1] == "1", ref["last_margin"], f"{where} last frame")

    def corrupt(self, ops) -> "Op | None":
        for op in ops:
            if op.kind == "reject":
                op.ref["admissible"] = True
                return op
        return None


def make(name: str, workdir: str):
    if name == "certify":
        return Certify()
    if name == "evolve":
        return Evolve()
    if name == "files":
        return Files(workdir)
    raise KeyError(name)

