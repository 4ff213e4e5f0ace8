"""What the runner needs to know about the workloads, without numpy."""

WORKLOADS = ("certify", "evolve", "files")

# Matrix sizes each workload uses; set-up builds the basis for each.
SIZES = {
    "certify": (2, 3, 4, 6, 8, 12, 16),
    "evolve": (2, 3, 4, 6),
    "files": tuple(range(2, 17)),
}

# Traced layers: gmchan modules, plus `kernel`, numpy's eigvalsh.
LAYERS = {
    "basis": ("full_basis", "decompose", "recompose"),
    "channels": ("apply_kf", "apply_ev", "choi", "cp_check_oracle",
                 "cp_check_normalized", "cp_check_paper", "tp_residuals"),
    "kernel": ("eigvalsh",),
    "converters": ("kf_is_ev", "kf_to_ev", "ev_is_kf", "ev_to_kf"),
    "generators": ("lf_is_ev", "lf_to_ev", "ev_is_lf", "ev_to_lf",
                   "lambda_from_eta", "eta_from_lambda"),
    "dynamics": ("evolve_semigroup", "evolve_timedep", "evolve_state"),
    "fileio": ("load_document", "save"),
    "cli": ("main",),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
ORACLE = "channels.cp_check_oracle"
EVOLVE = ("dynamics.evolve_semigroup", "dynamics.evolve_timedep", "dynamics.evolve_state")
REJECTING = ("converters.kf_to_ev", "converters.ev_to_kf",
             "generators.lf_to_ev", "generators.ev_to_lf")
# name -> (unit, spans the count is read at)
COUNTERS = {
    "converters.rejected": ("count/op", REJECTING),
    "dynamics.frames": ("frames/op", EVOLVE[:2]),
    "dynamics.frames_cp_checked": ("frames/op", EVOLVE[:2]),
    "fileio.bytes_read": ("B/op", ("fileio.load_document",)),
    "fileio.bytes_written": ("B/op", ("fileio.save",)),
}
RATIOS = ("channels.oracle_per_eigensolve", "dynamics.cp_share",
          "dynamics.cp_share.stride1", "dynamics.cp_share.strided")


def per_layer_metrics() -> list:
    """(name, unit, spans it is measured at) of every per-layer metric.

    Counts and times are per op of the traced pass, so runs of different
    length compare; a ratio has no span of its own.
    """
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "calls/op", (span,)))
        out.append((f"{span}.self_s", "s/op", (span,)))
        if span == ORACLE:
            out.append((f"{span}.total_s", "s/op", (span,)))
    out += [(name, unit, spans) for name, (unit, spans) in COUNTERS.items()]
    return out + [(name, "ratio", ()) for name in RATIOS]
