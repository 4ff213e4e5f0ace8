"""Command-line interface.

    gmchan validate FILE            trace + complete-positivity reports
    gmchan convert FILE --to FORM   apply the matching representation change
    gmchan choi FILE                Choi spectrum of a channel file
    gmchan evolve --generator FILE  trajectory table, optional state snapshots
    gmchan examples {paper-1,paper-2}  bundled regression examples

Exit codes: 0 success; 1 I/O, parse, or usage problems; 2 a validation
answered no; 3 a conversion precondition failed. The default tolerance is
1e-10, overridable by the GMCHAN_TOLERANCE environment variable and the
--tolerance flag (flag wins).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

import numpy as np

from .channels import (
    COND_TOL,
    DEFAULT_TOL,
    DensityMatrix,
    cp_check_normalized,
    cp_check_oracle,
    cp_check_paper,
    choi_of_channel,
)
from .converters import ev_to_kf, kf_to_ev
from .dynamics import RateProfile, evolve_semigroup, evolve_state, evolve_timedep, uniform_grid
from .errors import (
    ConstraintViolated,
    GellMannError,
    InvalidChannel,
    NotCPAtTime,
    NotEV,
    NotKF,
    NotLF,
    NotTracePreserving,
)
from .examples import RUNNERS
from .fileio import _write_trajectory_table, document_text, load_document, save
from .generators import ev_is_lf, ev_to_lf, lf_is_ev, lf_to_ev

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are I/O-level failures (exit 1), not validation verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


def _tolerance(args, default: float = DEFAULT_TOL) -> float:
    """The flag's tolerance, else the environment's, else `default`; a NaN,
    infinite or negative one decides nothing and is refused, naming its source."""
    if getattr(args, "tolerance", None) is not None:
        tol, source = args.tolerance, "--tolerance"
    else:
        env = os.environ.get("GMCHAN_TOLERANCE")
        if not env:
            return default
        try:
            tol, source = float(env), "GMCHAN_TOLERANCE"
        except ValueError:
            raise ConstraintViolated(f"GMCHAN_TOLERANCE is not a number: {env!r}")
    if not 0.0 <= tol < np.inf:
        raise ConstraintViolated(f"{source} must be finite and nonnegative, got {tol!r}")
    return tol


def _print_report(label: str, rep) -> None:
    print(f"cp {label:11s} {rep.verdict:6s} margin {rep.margin:+.6e}")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported once, as an error
def cmd_validate(args) -> int:
    tol = _tolerance(args)
    doc = load_document(args.file)
    obj = doc.obj
    print(f"form: {doc.form}  n: {doc.n}")

    if doc.form == "kf":
        residual, tp_ok = f"max residual {obj._tp_worst:.3e}", obj._tp_worst <= tol
    elif doc.form == "ev":
        dev = abs(float(obj.lam[0, 0]) - 1.0)
        residual, tp_ok = f"|lambda_00 - 1| = {dev:.3e}", dev <= tol
    elif doc.form == "lf":
        diagonalizes, violations = lf_is_ev(obj, tol=min(tol, COND_TOL))
        print(f"min rate: {float(np.min(obj.gamma)):+.6e}")
        if diagonalizes:
            print("diagonalizes in the matrix basis: yes")
        else:
            print(f"diagonalizes in the matrix basis: no ({len(violations)} violating triples)")
        return EXIT_OK
    elif doc.form == "ev-gen":
        representable, violations = ev_is_lf(obj, tol=min(tol, COND_TOL))
        if representable:
            print("admits a rate-table form: yes")
        else:
            print(f"admits a rate-table form: no ({len(violations)} violated constraints)")
        return EXIT_OK
    else:  # state
        spectrum = np.linalg.eigvalsh(obj.entries)
        print(f"trace: {float(np.trace(obj.entries).real):.12f}")
        print(f"min eigenvalue: {float(spectrum[0]):+.6e}")
        return EXIT_OK

    print(f"trace preservation: {residual} ({'ok' if tp_ok else 'violated'})")
    oracle = cp_check_oracle(obj, tol)
    _print_report("oracle", oracle)
    ev, reason = obj, None
    if doc.form == "kf":
        ev, reason = None, "not trace-preserving"
        if tp_ok:
            try:
                ev = kf_to_ev(obj)
            except NotEV:
                reason = "weight table does not diagonalize"
            except NotTracePreserving as e:
                # within the user's tolerance but not the converter's own
                reason = str(e)
    if ev is not None:
        _print_report("paper", cp_check_paper(ev, tol))
        _print_report("normalized", cp_check_normalized(ev, tol))
    else:
        print(f"cp paper       n/a ({reason})")
        print(f"cp normalized  n/a ({reason})")
    ok = tp_ok and oracle.is_cp
    print(f"verdict: {'valid quantum channel' if ok else 'not a valid quantum channel'}")
    return EXIT_OK if ok else EXIT_INVALID


_CONVERSIONS = {
    ("kf", "ev"): kf_to_ev,
    ("ev", "kf"): ev_to_kf,
    ("lf", "ev-gen"): lf_to_ev,
    ("ev-gen", "lf"): ev_to_lf,
}


def cmd_convert(args) -> int:
    tol = _tolerance(args, COND_TOL)
    doc = load_document(args.file)
    fn = _CONVERSIONS.get((doc.form, args.to))
    if fn is None:
        print(f"error: no conversion from form {doc.form!r} to {args.to!r}", file=sys.stderr)
        return EXIT_ERROR
    result = fn(doc.obj, tol=tol)
    metadata = dict(doc.metadata)
    metadata["converted_from"] = doc.form
    if args.out:
        save(result, args.out, metadata=metadata)
    else:
        sys.stdout.write(document_text(result, metadata=metadata))
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")  # as cmd_validate's
def cmd_choi(args) -> int:
    doc = load_document(args.file)
    if doc.form not in ("kf", "ev"):
        print(f"error: choi needs a channel file, got form {doc.form!r}", file=sys.stderr)
        return EXIT_ERROR
    cm = choi_of_channel(doc.obj)
    print("spectrum: " + " ".join(format(x, ".17g") for x in cm.spectrum))
    print(f"min eigenvalue: {cm.min_eigenvalue:+.17g}")
    print(f"hermiticity defect: {cm.hermiticity_defect:.3e}")
    return EXIT_OK


def _parse_profile(spec: str):
    """Scalar time-shape: constant | exp:A | poly:c0,c1,... | tab:FILE.

    Returns a callable mapping a scale into a RateProfile, so the shape can
    multiply each generator eigenvalue.
    """
    if spec == "constant":
        return lambda scale: RateProfile.constant(scale)
    kind, _, rest = spec.partition(":")
    if kind == "exp":
        try:
            a = float(rest)
        except ValueError:
            raise ConstraintViolated(f"bad profile {spec!r}, expected exp:RATE")
        return lambda scale: RateProfile.exponential(scale, a)
    if kind == "poly":
        try:
            coeffs = tuple(float(c) for c in rest.split(","))
        except ValueError:
            raise ConstraintViolated(f"bad profile {spec!r}, expected poly:C0,C1,...")
        return lambda scale: RateProfile.polynomial(*(scale * c for c in coeffs))
    if kind == "tab":
        data = np.loadtxt(rest)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConstraintViolated(f"profile table {rest!r} must have two columns")
        times, values = data[:, 0], data[:, 1]
        return lambda scale: RateProfile.tabulated(times, scale * values)
    raise ConstraintViolated(
        f"unknown profile {spec!r}; expected constant, exp:A, poly:C0,C1,..., tab:FILE"
    )


def cmd_evolve(args) -> int:
    tol = _tolerance(args)
    doc = load_document(args.generator)
    if doc.form == "lf":
        gen = lf_to_ev(doc.obj)
    elif doc.form == "ev-gen":
        gen = doc.obj
    else:
        print(
            f"error: generator file must have form lf or ev-gen, got {doc.form!r}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    grid = uniform_grid(args.t, args.steps + 1)
    if args.profile == "constant":
        traj = evolve_semigroup(gen, grid, cp_stride=args.stride, tol=tol)
    else:
        shape = _parse_profile(args.profile)
        n = gen.n
        with np.errstate(over="ignore"):  # the trajectory rejects an overflowed scale
            profiles = [[None if (i, j) == (0, 0) or gen.eta[i, j] == 0.0 else shape(gen.eta[i, j])
                         for j in range(n)] for i in range(n)]
        traj = evolve_timedep(profiles, grid, cp_stride=args.stride, tol=tol)

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        _write_trajectory_table(out, traj)
    finally:
        if args.out:
            out.close()

    if args.state:
        state_doc = load_document(args.state)
        if not isinstance(state_doc.obj, DensityMatrix):
            print(
                f"error: --state file must have form 'state', got {state_doc.form!r}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        picks = np.unique(np.round(np.linspace(0, len(traj) - 1, 11)).astype(int))
        for idx in picks:
            rho_t = evolve_state(traj, state_doc.obj, int(idx), tol=tol)
            print(f"state t={traj.grid[idx]:.17g}")
            for row in rho_t.entries:
                print("  " + "  ".join(f"{z.real:+.12e}{z.imag:+.12e}j" for z in row))
    return EXIT_OK


def cmd_examples(args) -> int:
    report = RUNNERS[args.which]()
    for label, defect in report.checks:
        print(f"{label:28s} defect {defect:.3e}")
    for note in report.notes:
        print(note)
    if report.ok():
        print("all displayed values reproduced")
        return EXIT_OK
    print("MISMATCH against stored displays")
    return EXIT_INVALID


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the comparison tolerance (default 1e-10 or GMCHAN_TOLERANCE)",
    )

    p = _Parser(prog="gmchan", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    v = sub.add_parser("validate", parents=[common], help="trace + CP reports")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("convert", parents=[common], help="change representation")
    c.add_argument("file")
    c.add_argument("--to", required=True, choices=["ev", "kf", "lf", "ev-gen"])
    c.add_argument("--out", help="write the result here instead of stdout")
    c.set_defaults(func=cmd_convert)

    ch = sub.add_parser("choi", parents=[common], help="Choi spectrum of a channel")
    ch.add_argument("file")
    ch.set_defaults(func=cmd_choi)

    e = sub.add_parser("evolve", parents=[common], help="trajectory from a generator")
    e.add_argument("--generator", required=True)
    e.add_argument("--profile", default="constant")
    e.add_argument("--t", type=float, required=True)
    e.add_argument("--steps", type=int, default=1000)
    e.add_argument("--stride", type=int, default=1, help="CP-check every k-th frame")
    e.add_argument("--state", help="density matrix file to evolve")
    e.add_argument("--out", help="write the trajectory table here")
    e.set_defaults(func=cmd_evolve)

    x = sub.add_parser("examples", parents=[common], help="bundled worked examples")
    x.add_argument("which", choices=sorted(RUNNERS))
    x.set_defaults(func=cmd_examples)
    return p


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    # building the parser costs more than most commands; parsing keeps no
    # state on it, so one per process serves every call of main
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotEV, NotKF, NotLF) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        for item in e.violations or ():
            print(f"  violated: {item}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NotTracePreserving as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvalidChannel, NotCPAtTime) as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (GellMannError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
