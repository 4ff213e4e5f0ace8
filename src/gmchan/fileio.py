"""JSON channel files.

A channel file is a JSON object with keys format_version, n, form,
coefficients, metadata. The form names the object kind:

  kf      trace-or-not Kraus weight table
  ev      channel eigenvalue table
  lf      Lindblad rate table
  ev-gen  generator eigenvalue table
  state   density matrix, stored as its real basis-coefficient table

Floats are rendered at 17 significant digits so a load/save cycle reproduces
the coefficient text exactly. The stdlib encoder cannot be told to do that,
hence the small emitter here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import decompose, full_basis, recompose
from .channels import DensityMatrix, EigenChannel, KrausChannel
from .errors import InvariantError, ParseError, SchemaError
from .generators import EigenGenerator, LindbladGenerator

FORMAT_VERSION = "1"

FORMS = ("kf", "ev", "lf", "ev-gen", "state")

_INT_OVERFLOW = 2 ** 1024 - 2 ** 970  # the least int that float() rounds past the largest float

_FORM_OF_TYPE = {
    KrausChannel: "kf",
    EigenChannel: "ev",
    LindbladGenerator: "lf",
    EigenGenerator: "ev-gen",
    DensityMatrix: "state",
}


@dataclass(frozen=True)
class ChannelFile:
    """Parsed document plus the object it describes."""

    format_version: str
    n: int
    form: str
    coefficients: np.ndarray
    metadata: dict = field(default_factory=dict)
    obj: object = None


def _fmt(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise InvariantError(f"cannot serialize non-finite value {v!r}")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype == float and len(value) and np.isfinite(value).all():
            # one "%.17g" template per row; the scalar route below names a non-finite value
            row = pad + "  [" + ", ".join(["%.17g"] * value.shape[1]) + "]"
            return "[\n" + ",\n".join(row % tuple(r) for r in value.tolist()) + "\n" + pad + "]"
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        items = list(value)
        if all(not isinstance(x, (list, tuple, dict, np.ndarray)) for x in items):
            return "[" + ", ".join(_fmt(x, 0) for x in items) + "]"
        inner = ",\n".join(pad + "  " + _fmt(x, indent + 1) for x in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _fmt(v, indent + 1)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise InvariantError(f"cannot serialize {type(value).__name__}")


def _check_kf_sign(table: np.ndarray) -> None:
    # the kf file form carries probability weights; a table with negative
    # entries (a legal in-memory object) has no kf serialization
    bad = np.argwhere(table < 0)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise InvariantError(f"kf coefficient ({i},{j}) is negative")


def _coefficients_of(obj) -> np.ndarray:
    if isinstance(obj, KrausChannel):
        _check_kf_sign(obj.p)
        return obj.p
    if isinstance(obj, EigenChannel):
        return obj.lam
    if isinstance(obj, LindbladGenerator):
        return obj.gamma
    if isinstance(obj, EigenGenerator):
        return obj.eta
    if isinstance(obj, DensityMatrix):
        c = decompose(obj.entries, full_basis(obj.n))
        if float(np.max(np.abs(c.imag))) > 1e-12:
            raise InvariantError("state has non-real basis coefficients")
        return c.real
    raise SchemaError(f"cannot save object of type {type(obj).__name__}")


def document_text(obj, metadata: dict | None = None) -> str:
    """Render an object to channel-file JSON text."""
    form = _FORM_OF_TYPE.get(type(obj))
    if form is None:
        raise SchemaError(f"cannot save object of type {type(obj).__name__}")
    doc = {
        "format_version": FORMAT_VERSION,
        "n": obj.n,
        "form": form,
        "coefficients": _coefficients_of(obj),
        "metadata": dict(metadata or {}),
    }
    return _fmt(doc, 0) + "\n"


def save(obj, path, metadata: dict | None = None) -> None:
    text = document_text(obj, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _schema_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key!r} must be an integer, got {value!r}")
    return value


def _parse_document(text: str) -> ChannelFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from e
    if not isinstance(doc, dict):
        raise SchemaError("channel file must be a JSON object")
    for key in ("format_version", "n", "form", "coefficients"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {doc['format_version']!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    n = _schema_int(doc, "n")
    if n < 2:
        raise SchemaError(f"n must be at least 2, got {n}")
    form = doc["form"]
    if form not in FORMS:
        raise SchemaError(f"unknown form {form!r}, expected one of {FORMS}")
    rows = doc["coefficients"]
    if not isinstance(rows, list) or len(rows) != n:
        raise SchemaError(f"coefficients must be a list of {n} rows")
    try:  # whole rows of JSON ints and floats (a bool is neither), one finiteness test
        table = np.array(rows, dtype=float) if all(
            type(row) is list and len(row) == n and {int, float}.issuperset(map(type, row))
            for row in rows) else None
    except OverflowError:  # an int beyond the float range
        table = None
    if table is None or not np.isfinite(table).all():  # name the first bad row or entry
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"coefficient row {i} must hold {n} numbers")
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise SchemaError(f"coefficient ({i},{j}) is not a number: {x!r}")
                if isinstance(x, int) and abs(x) >= _INT_OVERFLOW or not np.isfinite(float(x)):
                    raise InvariantError(f"coefficient ({i},{j}) is not finite")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be a JSON object")
    return ChannelFile(
        format_version=FORMAT_VERSION,
        n=n,
        form=form,
        coefficients=table,
        metadata=metadata,
    )


def _build(cf: ChannelFile):
    if cf.form == "kf":
        _check_kf_sign(cf.coefficients)
        return KrausChannel(n=cf.n, p=cf.coefficients)
    if cf.form == "ev":
        return EigenChannel(n=cf.n, lam=cf.coefficients)
    if cf.form == "lf":
        return LindbladGenerator(n=cf.n, gamma=cf.coefficients)
    if cf.form == "ev-gen":
        return EigenGenerator(n=cf.n, eta=cf.coefficients)
    rho = recompose(cf.coefficients.astype(complex), full_basis(cf.n))
    return DensityMatrix(n=cf.n, entries=rho)


def load_document(path) -> ChannelFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cf = _parse_document(text)
    obj = _build(cf)
    return ChannelFile(
        format_version=cf.format_version,
        n=cf.n,
        form=cf.form,
        coefficients=cf.coefficients,
        metadata=cf.metadata,
        obj=obj,
    )


def load(path):
    """Load a channel file and return the object it describes."""
    return load_document(path).obj
