"""Generalized Gell-Mann matrices, channels built on them, and their dynamics.

The library covers a basis of n×n Gell-Mann matrices with a flat two-index
labeling, quantum channels given either by a Kraus weight table (kf) or by an
eigenvalue table (ev), the analogous generator forms (lf, ev-gen), converters
between the paired forms with explicit admissibility conditions, three
complete-positivity checks (two closed-form condition sets and a Choi-matrix
oracle), and time evolution with per-frame CP certification.
"""

from .basis import GellMannBasis, decompose, full_basis, gell_mann, hs_inner, recompose
from .channels import (
    ChoiMatrix,
    CpReport,
    DensityMatrix,
    EigenChannel,
    KrausChannel,
    apply_ev,
    apply_kf,
    apply_to_state,
    choi,
    choi_of_channel,
    complete_tp,
    cp_check_normalized,
    cp_check_oracle,
    cp_check_paper,
    tp_residuals,
)
from .converters import ev_is_kf, ev_to_kf, kf_is_ev, kf_to_ev
from .dynamics import (
    RateProfile,
    Trajectory,
    evolve_semigroup,
    evolve_state,
    evolve_timedep,
    uniform_grid,
)
from .errors import (
    BadDimension,
    ConstraintViolated,
    DimensionMismatch,
    GellMannError,
    IndexOutOfRange,
    InvalidChannel,
    InvariantError,
    NegativeCoefficient,
    NonLinearMap,
    NotCPAtTime,
    NotEV,
    NotKF,
    NotLF,
    NotTracePreserving,
    ParseError,
    SchemaError,
    ZeroEigenvalue,
)
from .fileio import ChannelFile, load, load_document, save
from .generators import (
    EigenGenerator,
    LindbladGenerator,
    apply_lf,
    eta_from_lambda,
    ev_is_lf,
    ev_to_lf,
    lambda_from_eta,
    lf_is_ev,
    lf_to_ev,
)

__version__ = "0.1.0"

__all__ = [
    "BadDimension",
    "ChannelFile",
    "ChoiMatrix",
    "ConstraintViolated",
    "CpReport",
    "DensityMatrix",
    "DimensionMismatch",
    "EigenChannel",
    "EigenGenerator",
    "GellMannBasis",
    "GellMannError",
    "IndexOutOfRange",
    "InvalidChannel",
    "InvariantError",
    "KrausChannel",
    "LindbladGenerator",
    "NegativeCoefficient",
    "NonLinearMap",
    "NotCPAtTime",
    "NotEV",
    "NotKF",
    "NotLF",
    "NotTracePreserving",
    "ParseError",
    "RateProfile",
    "SchemaError",
    "Trajectory",
    "ZeroEigenvalue",
    "apply_ev",
    "apply_kf",
    "apply_lf",
    "apply_to_state",
    "choi",
    "choi_of_channel",
    "complete_tp",
    "cp_check_normalized",
    "cp_check_oracle",
    "cp_check_paper",
    "decompose",
    "eta_from_lambda",
    "ev_is_kf",
    "ev_is_lf",
    "ev_to_kf",
    "ev_to_lf",
    "evolve_semigroup",
    "evolve_state",
    "evolve_timedep",
    "full_basis",
    "gell_mann",
    "hs_inner",
    "kf_is_ev",
    "kf_to_ev",
    "lambda_from_eta",
    "lf_is_ev",
    "lf_to_ev",
    "load",
    "load_document",
    "recompose",
    "save",
    "tp_residuals",
    "uniform_grid",
]
