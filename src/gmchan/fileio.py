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

The `gmchan evolve` trajectory table is written by `_write_trajectory_table`
through a chunked numpy kernel whose text is byte-identical to Python's
"%.17g": digits from a double-double product against an exact table of
powers of ten, records assembled from lookup words, and Python's own "%.17g"
for the cells the kernel leaves out (zero, near-ties, exponents beyond 280).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .basis import full_basis, recompose
from .channels import DensityMatrix, EigenChannel, KrausChannel
from .errors import InvariantError, ParseError, SchemaError
from .generators import EigenGenerator, LindbladGenerator

FORMAT_VERSION = "1"

# each file form: the type of its object and the field holding its table, for a state
# its basis coefficients, which must be real
_FORMS = {
    "kf": (KrausChannel, "p"),
    "ev": (EigenChannel, "lam"),
    "lf": (LindbladGenerator, "gamma"),
    "ev-gen": (EigenGenerator, "eta"),
    "state": (DensityMatrix, "_coefficients"),
}
FORMS = tuple(_FORMS)
_FORM_OF_TYPE = {cls: form for form, (cls, _) in _FORMS.items()}

_INT_OVERFLOW = 2 ** 1024 - 2 ** 970  # the least int that float() rounds past the largest float


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


_CHUNK_CELLS = 4096  # cells per written chunk: each temporary stays under 128 KB
_EXP_MAX = 280  # cells with a larger decimal exponent take Python's "%.17g"
_TIE = 1e-6  # rounding fractions this close to 1/2 take Python's "%.17g"


def _le_word(text: str) -> int:
    # the uint64 whose little-endian bytes spell `text`, NUL-padded
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


@lru_cache(maxsize=None)
def _g17_tables() -> SimpleNamespace:
    """Lookup tables of the "%.17g" kernel, built from Python integers on first use.

    A cell's record is four little-endian uint64 words, NUL-padded: the head
    (sign, and the "0." lead of fixed form below 1), 18 body bytes (the 17
    digits with a point after the first p of them) and, after the last two
    body bytes, the exponent and a tab.
    """
    hi, lo = [], []  # 10^k = hi + lo, k in [-300, 300] at index k + 300
    for k in range(-300, 301):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            den = 10 ** -k
            hi.append(1 / den)  # int true division rounds correctly
            num, pow2 = hi[-1].as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))
    hi, lo = np.array(hi), np.array(lo)
    split = hi * 134217729.0  # Dekker's split, 2^27 + 1
    hh = split - (split - hi)
    g = np.arange(10000)
    chars = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    chars = chars.view("<u4").ravel().astype(np.uint64)  # "0000".."9999"
    last = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)  # to the last nonzero digit
    # record byte masks per key p * 18 + s, s the digits up to the last
    # nonzero one; body byte j is record byte 8 + j
    p, s, j = np.ogrid[:18, :18, :18]
    masks = np.zeros((3, 18, 18, 32), dtype=np.uint8)
    keep, shift, point = masks
    keep[..., :8] = keep[..., 26:] = 0xFF  # head, exponent and tab
    keep[..., 8:26] = np.where(j < p, 0xFF, 0)  # digit j
    shift[..., 8:26] = np.where((j > p) & (j <= s), 0xFF, 0)  # digit j - 1
    point[..., 8:26] = np.where((j == p) & (0 < p) & (p < s), ord("."), 0)
    keep, shift, point = (m.reshape(-1, 32).view("V32").ravel() for m in masks)
    # per decimal exponent X in [-300, 300] (index X + 300): exponent form
    # below -4 and above 16, else fixed with a "0." lead below 0
    exps = np.arange(-300, 301)
    exp_form = (exps < -4) | (exps > 16)
    heads = np.array([_le_word(sign + lead) for sign in ("", "-")
                      for lead in ("", "0.", "0.0", "0.00", "0.000")], dtype=np.uint64)
    lead_zeros = np.where(exp_form, 0, np.maximum(-exps, 0))
    return SimpleNamespace(
        hi=hi, lo=lo, hh=hh, hl=hi - hh, ceil=np.where(lo > 0, np.nextafter(hi, np.inf), hi),
        digit=np.arange(48, 58, dtype=np.uint64), chars8=chars << 8, chars40=chars << 40,
        chars24=chars >> 24, keep=keep, shift=shift, point=point,
        # s if the last nonzero digit is in this group of four (lead digit first)
        sig=[np.where(g == 0, base == 1, base + last).astype(np.int8) for base in (1, 5, 9, 13)],
        point_key=18 * np.where(exp_form, 1, np.maximum(exps + 1, 0)),
        head=np.concatenate([heads[lead_zeros], heads[lead_zeros + 5]]),
        tail=np.array([_le_word(f"\0\0e{x:+03d}\t" if e else "\0\0\t")
                       for x, e in zip(exps, exp_form)], dtype=np.uint64),
        cp=np.array([_le_word(c + "\n") for c in "01-"], dtype=np.uint64),
    )


def _g17_digits(v: np.ndarray, tb: SimpleNamespace):
    """The decimal exponent X (as the table index X + 300), the 17 rounded
    digits and the fallback mask of each finite v.

    A function of its own so that its dozen temporaries are freed before the
    record words are made: a chunk's heap peak, which glibc hands back and
    the next chunk faults in again, drops by about half.
    """
    ax = np.abs(v)
    with np.errstate(divide="ignore"):
        lg = np.floor(np.log10(ax))
    fallback = np.abs(lg) > _EXP_MAX  # zero reads -inf
    if fallback.any():
        ax[fallback] = 1.0
        lg[fallback] = 0.0
    # i = X + 300 for the decimal exponent X: 10^X <= |v| < 10^(X+1), exactly
    i = lg.astype(np.intp) + 300
    i -= ax < tb.ceil[i]
    i += ax >= tb.ceil[i + 1]
    # |v| * 10^(16 - X) = p + t - 1/2: Dekker's exact product with hi, plus
    # |v| * lo; p is a double above 2^53, so an integer
    k = 616 - i  # 16 - X + 300
    split = ax * 134217729.0
    ah = split - (split - ax)
    al = ax - ah
    hh, hl = tb.hh[k], tb.hl[k]
    p = ax * tb.hi[k]
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + ax * tb.lo[k] + 0.5
    whole = np.floor(t)
    fallback |= np.abs(t - whole - 0.5) > 0.5 - _TIE  # a possible tie
    d = p.astype(np.int64) + whole.astype(np.int64)  # the 17 digits, rounded
    carry = d == 10 ** 17
    if carry.any():
        d[carry] = 10 ** 16
        i += carry
    return i, d, fallback


def _g17_records(x: np.ndarray, out: np.ndarray) -> None:
    """Write the record of "%.17g\\t" % v for each finite v of the (rows, cols)
    array x into out[row, col, :4]."""
    tb = _g17_tables()
    v = x.ravel()
    i, d, fallback = _g17_digits(v, tb)
    # the lead digit and four groups of four; s digits up to the last nonzero
    top = d // 10 ** 8
    low = d - top * 10 ** 8
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    g1 = top // 10 ** 4
    g2 = top - g1 * 10 ** 4
    g3 = low // 10 ** 4
    g4 = low - g3 * 10 ** 4
    s1, s2, s3, s4 = tb.sig
    sig = np.maximum(np.maximum(s1[g1], s2[g2]), np.maximum(s3[g3], s4[g4]))
    # the record with the digits at body bytes 0..16 and, in `shifted`, at
    # 1..17; the masks of key (p, s) keep the first p, a point and the rest
    words = np.empty(x.shape + (4,), dtype=np.uint64)
    w = words.reshape(-1, 4)
    w[:, 0] = tb.head[i + 601 * np.signbit(v)]
    w[:, 1] = tb.digit[lead] | tb.chars8[g1] | tb.chars40[g2]
    w[:, 2] = tb.chars24[g2] | tb.chars8[g3] | tb.chars40[g4]
    w[:, 3] = tb.chars24[g4] | tb.tail[i]
    shifted = words << 8
    s = shifted.reshape(-1, 4)
    s[:, 2] |= w[:, 1] >> 56
    s[:, 3] |= w[:, 2] >> 56
    key = tb.point_key[i] + sig
    words &= tb.keep.take(key).view("<u8").reshape(words.shape)
    shifted &= tb.shift.take(key).view("<u8").reshape(words.shape)
    words |= shifted
    np.bitwise_or(words, tb.point.take(key).view("<u8").reshape(words.shape), out=out)
    if fallback.any():
        rows, cols = np.nonzero(fallback.reshape(x.shape))
        text = b"".join(("%.17g\t" % c).encode("ascii").ljust(32, b"\0")
                        for c in x[rows, cols].tolist())
        out[rows, cols] = np.frombuffer(text, dtype="<u8").reshape(-1, 4)


def _write_trajectory_table(out, traj) -> None:
    """Write `traj` as the `gmchan evolve` table: a header, then one row per
    frame of t and the n² eigenvalues, each as "%.17g", and the CP flag
    (1, 0, or - where the check was skipped), tab-separated.

    Rows go out in chunks of about _CHUNK_CELLS cells; the text equals
    `"%.17g" % v` for every value.
    """
    n = traj.n
    names = [f"lambda_{i}_{j}" for i in range(n) for j in range(n)]
    out.write("\t".join(["t"] + names + ["cp"]) + "\n")
    tb = _g17_tables()
    width = 1 + n * n
    rows = max(1, _CHUNK_CELLS // (width + 1))
    flags = np.array([2 if f is None else int(f) for f in traj.cp_flags], dtype=np.intp)
    lams = traj.lams.reshape(len(traj), -1)
    for start in range(0, len(traj), rows):
        stop = min(start + rows, len(traj))
        cells = np.empty((stop - start, width))
        cells[:, 0] = traj.grid[start:stop]
        cells[:, 1:] = lams[start:stop]
        rec = np.empty((stop - start, 4 * width + 1), dtype="<u8")
        _g17_records(cells, rec[:, :-1].reshape(stop - start, width, 4))
        rec[:, -1] = tb.cp[flags[start:stop]]
        out.write(rec.tobytes().translate(None, b"\0").decode("ascii"))  # drop the padding


def _check_kf_sign(table: np.ndarray) -> None:
    # the kf file form carries probability weights; a table with negative
    # entries (a legal in-memory object) has no kf serialization
    bad = np.argwhere(table < 0)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise InvariantError(f"kf coefficient ({i},{j}) is negative")


def document_text(obj, metadata: dict | None = None) -> str:
    """Render an object to channel-file JSON text."""
    form = _FORM_OF_TYPE.get(type(obj))
    if form is None:
        raise SchemaError(f"cannot save object of type {type(obj).__name__}")
    table = getattr(obj, _FORMS[form][1])
    if form == "kf":
        _check_kf_sign(table)
    elif form == "state":
        if float(np.max(np.abs(table.imag))) > 1e-12:
            raise InvariantError("state has non-real basis coefficients")
        table = table.real
    doc = {
        "format_version": FORMAT_VERSION,
        "n": obj.n,
        "form": form,
        "coefficients": table,
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
    cls, name = _FORMS[cf.form]
    if cls is DensityMatrix:
        # the file's coefficients stay the state's own, so saving it writes them back unchanged
        with np.errstate(over="ignore", invalid="ignore"):  # DensityMatrix refuses an overflow
            rho = recompose(cf.coefficients, full_basis(cf.n))
        return DensityMatrix._of(cf.n, rho, cf.coefficients)
    if cls is KrausChannel:
        _check_kf_sign(cf.coefficients)
    return cls(n=cf.n, **{name: cf.coefficients})


def load_document(path) -> ChannelFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cf = _parse_document(text)
    return replace(cf, obj=_build(cf))


def load(path):
    """Load a channel file and return the object it describes."""
    return load_document(path).obj
