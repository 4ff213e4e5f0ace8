import copy
import json
import math
import os
import pickle
import runpy
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmchan.channels import DensityMatrix, EigenChannel, KrausChannel, cp_check_oracle
from gmchan.cli import main
from gmchan.errors import ConstraintViolated, InvariantError, ParseError, SchemaError
from gmchan.fileio import (
    _fmt,
    _g17_records,
    _parse_document,
    document_text,
    load,
    load_document,
    save,
)
from gmchan.generators import EigenGenerator, LindbladGenerator, lf_to_ev
from sampling import random_density


SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "crossval_sweep.py"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _doc(n, form, coefficients, **extra):
    doc = {"format_version": "1", "n": n, "form": form, "coefficients": coefficients}
    doc.update(extra)
    return json.dumps(doc)


# ---------------------------------------------------------------- file layer


def test_round_trip_all_forms(tmp_path):
    rng = np.random.default_rng(5)
    third = 1.0 / 3.0
    gamma = rng.uniform(0.0, 0.5, (3, 3))
    gamma[0, 0] = 0.0
    eta = rng.uniform(-2.0, 0.0, (3, 3))
    eta[0, 0] = 0.0
    objects = [
        KrausChannel(n=3, p=rng.uniform(0.0, 0.2, (3, 3))),
        EigenChannel(n=3, lam=rng.uniform(-1.0, 1.0, (3, 3))),
        LindbladGenerator(n=3, gamma=gamma),
        EigenGenerator(n=3, eta=eta),
        EigenChannel(n=2, lam=np.array([[1.0, third], [third, third]])),
    ]
    for k, obj in enumerate(objects):
        path = tmp_path / f"obj{k}.json"
        save(obj, path, metadata={"note": "round trip"})
        doc = load_document(path)
        assert type(doc.obj) is type(obj)
        assert doc.n == obj.n
        assert doc.metadata == {"note": "round trip"}
        # 17 significant digits reproduce every double bit for bit
        table = {"kf": "p", "ev": "lam", "lf": "gamma", "ev-gen": "eta"}[doc.form]
        assert np.array_equal(getattr(doc.obj, table), getattr(obj, table))


def test_state_round_trip(tmp_path):
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    state = DensityMatrix(n=2, entries=rho)
    path = tmp_path / "state.json"
    save(state, path)
    doc = load_document(path)
    assert doc.form == "state"
    assert isinstance(doc.obj, DensityMatrix)
    assert np.max(np.abs(doc.obj.entries - rho)) <= 1e-14


def test_save_load_save_is_byte_identical(tmp_path):
    lam = np.array([[1.0, 1 / 3, -1 / 7], [0.1, -0.99, 0.5], [2 / 3, 0.0, 1e-17]])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save(EigenChannel(n=3, lam=lam), a, metadata={"k": 2})
    save(load(a), b, metadata={"k": 2})
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n", range(2, 17))
def test_state_documents_are_a_fixed_point_of_load_then_save(tmp_path, n):
    # a loaded state keeps the file's coefficients, and so do its copies and pickles;
    # their entries, recomposed from them, decompose back only up to rounding
    path = tmp_path / "state.json"
    for k in range(20):
        text = document_text(DensityMatrix(n=n, entries=random_density(np.random.default_rng([n, k]), n)))
        path.write_text(text, encoding="utf-8")
        state = load(path)
        twins = [copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        for obj in (state, *twins):
            assert document_text(obj) == text
            assert not obj._coefficients.flags.writeable


def test_seventeen_digit_rendering():
    lam = np.array([[1.0, 1 / 3], [0.05, -0.013]])
    text = document_text(EigenChannel(n=2, lam=lam))
    assert "0.33333333333333331" in text
    assert "0.050000000000000003" in text
    assert "-0.012999999999999999" in text


def test_parse_error_carries_position(tmp_path):
    path = _write(tmp_path / "bad.json", '{"format_version": "1",\n  "n": 2,, }')
    with pytest.raises(ParseError) as exc:
        load(path)
    assert exc.value.line == 2
    assert exc.value.column == 10


def test_schema_missing_key(tmp_path):
    path = _write(tmp_path / "k.json", '{"format_version": "1", "n": 2, "form": "ev"}')
    with pytest.raises(SchemaError, match="coefficients"):
        load(path)


def test_schema_wrong_table_shape(tmp_path):
    rows = [[0.1] * 3 for _ in range(3)]
    path = _write(tmp_path / "shape.json", _doc(4, "kf", rows))
    with pytest.raises(SchemaError, match="4 rows"):
        load(path)


def test_schema_bool_n(tmp_path):
    path = _write(tmp_path / "booln.json", _doc(True, "ev", [[1.0]]))
    with pytest.raises(SchemaError, match="integer"):
        load(path)


def test_schema_unknown_form(tmp_path):
    path = _write(tmp_path / "form.json", _doc(2, "choi", [[1, 0], [0, 1]]))
    with pytest.raises(SchemaError, match="unknown form"):
        load(path)


def test_schema_version_mismatch(tmp_path):
    text = '{"format_version": "7", "n": 2, "form": "ev", "coefficients": [[1,0],[0,1]]}'
    path = _write(tmp_path / "ver.json", text)
    with pytest.raises(SchemaError, match="format_version"):
        load(path)


def test_schema_non_number_entry(tmp_path):
    path = _write(tmp_path / "str.json", _doc(2, "ev", [[1.0, "x"], [0.0, 0.0]]))
    with pytest.raises(SchemaError, match=r"\(0,1\)"):
        load(path)


def test_nonfinite_entry_rejected(tmp_path):
    # the stdlib parser accepts Infinity, the schema does not
    text = '{"format_version": "1", "n": 2, "form": "ev", "coefficients": [[1.0, Infinity], [0.0, 0.0]]}'
    path = _write(tmp_path / "inf.json", text)
    with pytest.raises(InvariantError, match="not finite"):
        load(path)


def test_negative_kf_file_rejected(tmp_path):
    rows = [[0.9, -0.05, 0.05], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    path = _write(tmp_path / "neg.json", _doc(3, "kf", rows))
    with pytest.raises(InvariantError, match=r"\(0,1\)"):
        load(path)


def test_save_refuses_negative_kf(tmp_path):
    p = np.zeros((2, 2))
    p[1, 1] = -0.5  # legal in memory, no kf file form
    ch = KrausChannel(n=2, p=p)
    with pytest.raises(InvariantError, match=r"\(1,1\)"):
        save(ch, tmp_path / "nope.json")


def test_identity_kf_file_loads(tmp_path):
    p = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    path = _write(tmp_path / "id.json", _doc(3, "kf", p))
    ch = load(path)
    assert isinstance(ch, KrausChannel)
    assert ch.n == 3
    assert ch.p[0, 0] == 1.0


def test_huge_integer_coefficient_is_refused(tmp_path, capsys):
    # JSON ints have no size limit: one beyond the float range is not finite,
    # and one beyond int64 but within the range loads as its nearest float
    path = _write(tmp_path / "big.json", _doc(2, "ev", [[1, 10**400], [0, 0]]))
    for argv in (["validate", path], ["convert", path, "--to", "kf"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: coefficient (0,1) is not finite\n")
    wide = _write(tmp_path / "wide.json", _doc(2, "ev", [[1, 2**70], [0, 0]]))
    assert load(wide).lam[0, 1] == 2.0**70


# the scalar parse and render that the row-wise ones replaced, kept as references


def _scalar_table(rows, n):
    table = np.empty((n, n))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"coefficient row {i} must hold {n} numbers")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise SchemaError(f"coefficient ({i},{j}) is not a number: {x!r}")
            try:
                finite = math.isfinite(x)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise InvariantError(f"coefficient ({i},{j}) is not finite")
            table[i, j] = x
    return table


def _scalar_fmt(value, indent):
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
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        items = list(value)
        if all(not isinstance(x, (list, tuple, dict, np.ndarray)) for x in items):
            return "[" + ", ".join(_scalar_fmt(x, 0) for x in items) + "]"
        inner = ",\n".join(pad + "  " + _scalar_fmt(x, indent + 1) for x in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _scalar_fmt(v, indent + 1)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise InvariantError(f"cannot serialize {type(value).__name__}")


def _raised(call, *args):
    with pytest.raises((SchemaError, InvariantError)) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1.0, -7.0, 2.0**53, 1e300, 1e-300)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.integers(-10**6, 10**6).map(float),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_table_rendering_matches_the_scalar_route(data):
    n = data.draw(st.integers(2, 16))
    table = data.draw(arrays(np.float64, (n, n), elements=_FLOATS))
    metadata = {"note": "x", "values": [1.5, -0.0, 3], "nested": {"t": table[0]}}
    doc = {"format_version": "1", "n": n, "form": "ev", "coefficients": table,
           "metadata": metadata}
    assert document_text(EigenChannel(n=n, lam=table), metadata) == _scalar_fmt(doc, 0) + "\n"
    for _ in range(data.draw(st.integers(1, 2))):  # the first non-finite value is named
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[i, j] = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    assert _raised(_fmt, table, 1) == _raised(_scalar_fmt, table, 1)


_BAD_ENTRIES = (True, "x", None, [1.0], math.nan, math.inf, -math.inf, 10**400, "short", "long")


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_bad_entries_are_named_as_by_the_scalar_scan(data):
    n = data.draw(st.integers(2, 6))
    number = st.one_of(_FLOATS, st.integers(-2**70, 2**70))
    rows = data.draw(st.lists(st.lists(number, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 2))
        bad = data.draw(st.sampled_from(_BAD_ENTRIES))
        if bad == "short":
            rows[i] = rows[i][:-1]
        elif bad == "long":  # two more entries: a short row made long stays bad
            rows[i] = rows[i] + [0.0, 0.0]
        else:
            rows[i][j] = bad
    text = _doc(n, "ev", rows)
    want = _raised(_scalar_table, json.loads(text)["coefficients"], n)
    assert _raised(_parse_document, text) == want


@pytest.mark.parametrize("rows, error", [
    ([[1.0, "x"], [0.0]], (SchemaError, "coefficient (0,1) is not a number: 'x'")),
    ([[0.0], [1.0, "x"]], (SchemaError, "coefficient row 0 must hold 2 numbers")),
    ([[math.nan, "x"], [0.0, 0.0]], (InvariantError, "coefficient (0,0) is not finite")),
    ([[1.0, 0.0], [10**400, None]], (InvariantError, "coefficient (1,0) is not finite")),
])
def test_bad_entries_are_named_in_row_order(rows, error):
    assert _raised(_parse_document, _doc(2, "ev", rows)) == error
    assert _raised(_scalar_table, rows, 2) == error


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=4,
        max_size=4,
    )
)
def test_round_trip_preserves_floats(tmp_path_factory, values):
    lam = np.array(values).reshape(2, 2)
    path = tmp_path_factory.mktemp("rt") / "ch.json"
    save(EigenChannel(n=2, lam=lam), path)
    assert np.array_equal(load(path).lam, lam)


# ----------------------------------------------------------------- CLI layer


@pytest.fixture
def identity_kf(tmp_path):
    p = np.zeros((2, 2))
    p[0, 0] = 1.0
    path = tmp_path / "identity.json"
    save(KrausChannel(n=2, p=p), path)
    return str(path)


@pytest.fixture
def noncp_ev(tmp_path):
    lam = np.array([[1.0, 0.9], [0.9, -0.9]])  # violates 1 + l_z >= |l_x + l_y|
    path = tmp_path / "noncp.json"
    save(EigenChannel(n=2, lam=lam), path)
    return str(path)


@pytest.fixture
def borderline_ev(tmp_path):
    s = -1.0 / 3.0 - 1e-6  # 1.5e-6 past the CP boundary
    path = tmp_path / "borderline.json"
    save(EigenChannel(n=2, lam=np.array([[1.0, s], [s, s]])), path)
    return str(path)


def test_validate_identity_exit_ok(identity_kf, capsys):
    assert main(["validate", identity_kf]) == 0
    out = capsys.readouterr().out
    assert "form: kf  n: 2" in out
    assert "valid quantum channel" in out
    assert "cp oracle" in out and "cp paper" in out and "cp normalized" in out


def test_validate_noncp_exit_two(noncp_ev, capsys):
    assert main(["validate", noncp_ev]) == 2
    assert "not a valid quantum channel" in capsys.readouterr().out


def test_validate_non_tp_ev(tmp_path, capsys):
    path = tmp_path / "scaled.json"
    save(EigenChannel(n=2, lam=np.array([[0.9, 0.5], [0.5, 0.5]])), path)
    rc = main(["validate", str(path)])
    assert rc == 2
    assert "violated" in capsys.readouterr().out


def test_validate_non_tp_kf_exit_two(tmp_path, capsys):
    rows = [[0.5, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]]
    path = _write(tmp_path / "ntp.json", _doc(3, "kf", rows))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "form: kf  n: 3\n"
        "trace preservation: max residual 3.333e-02 (violated)\n"
        "cp oracle      CP     margin +2.000000e-01\n"
        "cp paper       n/a (not trace-preserving)\n"
        "cp normalized  n/a (not trace-preserving)\n"
        "verdict: not a valid quantum channel\n"
    )
    assert captured.err == ""


def test_validate_kf_within_flag_tolerance_exit_ok(tmp_path, capsys):
    # residual 1e-6: trace-preserving at --tolerance 1e-3, but not at the
    # converter's own 1e-10, so the closed-form checks are skipped
    path = _write(tmp_path / "near.json", _doc(2, "kf", [[0.700001, 0.1], [0.1, 0.1]]))
    assert main(["validate", path, "--tolerance", "1e-3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "form: kf  n: 2\n"
        "trace preservation: max residual 1.000e-06 (ok)\n"
        "cp oracle      CP     margin +2.000000e-01\n"
        "cp paper       n/a (max trace residual 1.000e-06 exceeds 1e-10)\n"
        "cp normalized  n/a (max trace residual 1.000e-06 exceeds 1e-10)\n"
        "verdict: valid quantum channel\n"
    )
    assert captured.err == ""


def test_validate_kf_evaluates_trace_residuals_at_most_twice(tmp_path, monkeypatch, capsys):
    # the TP residuals are evaluated once per channel object, however many checks
    # read them, so validate stays well inside the bound of two evaluations
    import gmchan.channels

    calls = []
    original = gmchan.channels._square_sums

    def counted(table):  # the one evaluation of a table's TP residuals
        calls.append(table.shape)
        return original(table)

    monkeypatch.setattr(gmchan.channels, "_square_sums", counted)
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    save(KrausChannel(n=3, p=p), tmp_path / "id.json")
    assert main(["validate", str(tmp_path / "id.json")]) == 0
    out = capsys.readouterr().out
    assert "cp paper       CP" in out and "cp normalized  CP" in out
    assert calls == [(3, 3)]


def test_validate_lf_state_evgen_exit_ok(tmp_path, capsys):
    save(LindbladGenerator(n=2, gamma=np.array([[0.0, 0.3], [0.2, 0.1]])), tmp_path / "lf.json")
    save(EigenGenerator(n=2, eta=np.array([[0.0, -1.0], [-1.0, -2.0]])), tmp_path / "g.json")
    save(DensityMatrix(n=2, entries=np.diag([0.75, 0.25]).astype(complex)), tmp_path / "s.json")
    assert main(["validate", str(tmp_path / "lf.json")]) == 0
    assert main(["validate", str(tmp_path / "g.json")]) == 0
    assert main(["validate", str(tmp_path / "s.json")]) == 0
    out = capsys.readouterr().out
    assert "min rate" in out
    assert "admits a rate-table form" in out
    assert "trace: 1.000000000000" in out


def test_validate_missing_file_exit_one(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_bad_json_exit_one(tmp_path, capsys):
    path = _write(tmp_path / "junk.json", "not json at all")
    assert main(["validate", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_kf_whose_choi_blocks_overflow_exit_one(tmp_path, capsys):
    # finite weights whose Choi blocks overflow: an error, not "NotCP margin nan",
    # and no numpy warning before it
    path = _write(tmp_path / "huge.json", _doc(2, "kf", [[1.7e308, 1.7e308]] * 2))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["validate", path]) == 1
    out, err = capsys.readouterr()
    assert "cp oracle" not in out
    assert err == "error: the Choi blocks of this table overflow the float range\n"
    assert [str(w.message) for w in seen] == []


def test_validate_kf_whose_block_minima_are_both_huge_exit_two(tmp_path, capsys):
    # a finite Choi spectrum [1e308] * 4 is decided, CP; the weights sum past the float
    # range, so trace preservation fails
    path = _write(tmp_path / "huge.json", _doc(2, "kf", [[5e307, 5e307]] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["validate", path]) == 2
    out, err = capsys.readouterr()
    assert "cp oracle      CP     margin +1.000000e+308\n" in out
    assert "trace preservation: max residual inf (violated)\n" in out
    assert err == ""


@pytest.mark.parametrize("n", (2, 4))
def test_choi_and_validate_decide_a_float_max_table_by_one_rule(tmp_path, capsys, n):
    # 5e307·ones: the Choi minima are finite, so validate decides the oracle CP; choi
    # decides from the same minima, printing a top that overflows (at n = 4) as inf
    p = 5e307 * np.ones((n, n))
    path = _write(tmp_path / "huge.json", _doc(n, "kf", p.tolist()))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["validate", path]) == 2
        validated = capsys.readouterr().out
        assert main(["choi", path]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            margin = cp_check_oracle(KrausChannel(n=n, p=p)).margin
    out, err = capsys.readouterr()
    assert [str(w.message) for w in seen] == [] and err == ""
    assert f"cp oracle      CP     margin {margin:+.6e}\n" in validated
    spectrum, low, _ = (line.split(":")[1].split() for line in out.splitlines())
    assert float(low[0]) == margin == float(spectrum[0])
    assert spectrum[-1] == ("1e+308" if n == 2 else "inf")
    assert "nan" not in out


@pytest.mark.parametrize("form", ("kf", "ev"))
@pytest.mark.parametrize("n", (2, 4))
def test_choi_whose_blocks_overflow_exit_one(tmp_path, capsys, form, n):
    # finite float-max tables: where the oracle refuses the blocks (a NaN or +inf minimum),
    # choi is one error, with no spectrum and no numpy warning, whether or not the n×n
    # eigensolve fails; elsewhere it prints the spectrum, whose minimum is the oracle's margin
    rng = np.random.default_rng(n)
    for table in (np.ones((n, n)), *rng.uniform(0.0, 1.0, (4, n, n))):
        path = _write(tmp_path / "huge.json", _doc(n, form, (1.7e308 * table).tolist()))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["choi", path])
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    margin = cp_check_oracle(load(path)).margin
                except InvariantError:
                    margin = None
        out, err = capsys.readouterr()
        assert [str(w.message) for w in seen] == []
        if margin is None:
            assert (rc, out, err) == (1, "", "error: the Choi blocks of this table overflow the float range\n")
        else:
            numbers = [float(x) for line in out.splitlines() for x in line.split(":")[1].split()]
            assert rc == 0 and len(numbers) == n * n + 2 and not np.isnan(numbers).any()
            assert numbers[0] == numbers[n * n] == margin


def test_validate_negative_kf_exit_one(tmp_path, capsys):
    rows = [[0.9, -0.05], [0.1, 0.05]]
    path = _write(tmp_path / "neg.json", _doc(2, "kf", rows))
    assert main(["validate", path]) == 1
    assert "(0,1)" in capsys.readouterr().err


def test_convert_kf_to_ev(tmp_path, capsys):
    p = np.array([[5 / 8, 1 / 8], [1 / 8, 1 / 8]])
    save(KrausChannel(n=2, p=p), tmp_path / "kf.json")
    rc = main(["convert", str(tmp_path / "kf.json"), "--to", "ev"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["form"] == "ev"
    assert doc["metadata"]["converted_from"] == "kf"
    assert np.allclose(doc["coefficients"], [[1.0, 0.5], [0.5, 0.5]])


def test_convert_writes_out_file(tmp_path):
    p = np.array([[5 / 8, 1 / 8], [1 / 8, 1 / 8]])
    save(KrausChannel(n=2, p=p), tmp_path / "kf.json")
    out = tmp_path / "ev.json"
    rc = main(["convert", str(tmp_path / "kf.json"), "--to", "ev", "--out", str(out)])
    assert rc == 0
    assert load(out).lam[1, 1] == 0.5


def test_convert_large_rate_table(tmp_path, capsys):
    # exactly basis-diagonal (g_jl + g_lj = (l + 1)/2 in column l), scaled by
    # 2^14, so its conversion is correct and must pass the oracle
    k = np.arange(4)
    a = np.subtract.outer(k, k) / 8.0
    g = np.triu((k + 1) / 4.0 + a, 1) + np.triu((k + 1) / 4.0 - a, 1).T
    g[k, k] = k / 4.0
    save(LindbladGenerator(n=4, gamma=2.0**14 * g), tmp_path / "g.json")
    argv = ["convert", str(tmp_path / "g.json"), "--to", "ev-gen", "--out", str(tmp_path / "e.json")]
    assert main(argv) == 0, capsys.readouterr().err
    eta = load(tmp_path / "e.json").eta
    assert np.array_equal(eta, 2.0**14 * lf_to_ev(LindbladGenerator(n=4, gamma=g)).eta)
    # and the file it wrote converts back
    argv = ["convert", str(tmp_path / "e.json"), "--to", "lf", "--out", str(tmp_path / "back.json")]
    assert main(argv) == 0, capsys.readouterr().err
    assert np.max(np.abs(load(tmp_path / "back.json").gamma - 2.0**14 * g)) <= 1e-11 * 2.0**14


@pytest.mark.parametrize("n", range(2, 17))
def test_convert_identity_channel_to_kf_and_back(tmp_path, capsys, n):
    # the identity's weights are p_00 = 1 and zeros, which rounding must not make negative
    save(EigenChannel(n=n, lam=np.ones((n, n))), tmp_path / "id.json")
    argv = ["convert", str(tmp_path / "id.json"), "--to", "kf", "--out", str(tmp_path / "kf.json")]
    assert main(argv) == 0, capsys.readouterr().err
    p = load(tmp_path / "kf.json").p
    assert not np.signbit(p).any()
    assert main(["convert", str(tmp_path / "kf.json"), "--to", "ev", "--out", str(tmp_path / "ev.json")]) == 0
    assert np.max(np.abs(load(tmp_path / "ev.json").lam - 1.0)) <= 1e-12


def test_convert_precondition_exit_three(tmp_path, capsys):
    g = np.array([[0.0, 0.21, 0.13], [0.17, 0.31, 0.23], [0.29, 0.11, 0.37]])
    save(LindbladGenerator(n=3, gamma=g), tmp_path / "lf.json")
    rc = main(["convert", str(tmp_path / "lf.json"), "--to", "ev-gen"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert "violated: (0, 1, 2)" in err


def test_convert_incompatible_pair_exit_one(identity_kf, capsys):
    assert main(["convert", identity_kf, "--to", "lf"]) == 1
    assert "no conversion" in capsys.readouterr().err


def test_choi_identity(identity_kf, capsys):
    assert main(["choi", identity_kf]) == 0
    out = capsys.readouterr().out
    spectrum = [float(x) for x in out.splitlines()[0].split()[1:]]
    assert np.allclose(sorted(spectrum), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_rejects_generator(tmp_path, capsys):
    save(EigenGenerator(n=2, eta=np.diag([0.0, -1.0])), tmp_path / "g.json")
    assert main(["choi", str(tmp_path / "g.json")]) == 1


def _sweep(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["crossval_sweep.py", *argv])
    runpy.run_path(str(SWEEP), run_name="__main__")


def test_crossval_deterministic(tmp_path, monkeypatch):
    out = tmp_path / "sweep.json"
    argv = ["--n", "2", "--samples", "150", "--seed", "7", "--out", str(out)]
    _sweep(monkeypatch, *argv)
    first = out.read_bytes()
    _sweep(monkeypatch, *argv)
    assert out.read_bytes() == first
    report = json.loads(first)["reports"][0]
    assert report["three_way_agreement"] == 1.0
    assert report["seed"] == 7


def test_cli_has_no_crossval():
    # the experiment lives in scripts/ only: the CLI neither loads it nor offers it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import gmchan.cli\n"
        "assert 'gmchan.crossval' not in sys.modules\n"
        "assert 'gmchan.sampling' not in sys.modules\n"
        "sys.exit(gmchan.cli.main(['crossval', '--n', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "invalid choice: 'crossval'" in proc.stderr


def test_examples_exit_ok(capsys):
    assert main(["examples", "paper-1"]) == 0
    assert "all displayed values reproduced" in capsys.readouterr().out
    assert main(["examples", "paper-2"]) == 0
    assert "all displayed values reproduced" in capsys.readouterr().out


def test_evolve_table(tmp_path, capsys):
    # depolarizing semigroup, every eigenvalue e^{-t}, CP at all times
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    save(EigenGenerator(n=2, eta=eta), tmp_path / "g.json")
    out = tmp_path / "traj.tsv"
    rc = main(
        [
            "evolve",
            "--generator",
            str(tmp_path / "g.json"),
            "--t",
            "1.0",
            "--steps",
            "10",
            "--stride",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t\tlambda_0_0\tlambda_0_1\tlambda_1_0\tlambda_1_1\tcp"
    assert len(lines) == 12
    last = lines[-1].split("\t")
    assert float(last[0]) == 1.0
    assert abs(float(last[4]) - np.exp(-1.0)) <= 1e-12
    assert last[5] == "1"
    assert lines[1].split("\t")[5] == "1"  # frame 0 checked
    assert lines[2].split("\t")[5] == "-"  # stride skips frame 1


def test_evolve_keeps_the_identity_frame_cp_at_tolerance_zero(tmp_path):
    # frame 0 is the identity: at n = 2 its diagonal-sector Choi block is all
    # ones, its margin exactly 0, and its last Cholesky pivot exactly 0
    eta = np.array([[0.0, -1.0], [-1.0, -1.0]])
    save(EigenGenerator(n=2, eta=eta), tmp_path / "g.json")
    out = tmp_path / "traj.tsv"
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--t", "1.0", "--steps", "10",
            "--tolerance", "0", "--out", str(out)]
    assert main(argv) == 0
    assert [line.split("\t")[-1] for line in out.read_text().splitlines()[1:3]] == ["1", "1"]


def test_evolve_deterministic(tmp_path):
    save(LindbladGenerator(n=2, gamma=np.diag([0.0, 0.4])), tmp_path / "lf.json")
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    argv = ["evolve", "--generator", str(tmp_path / "lf.json"), "--t", "2.0", "--steps", "50"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evolve_state_snapshots(tmp_path, capsys):
    eta = np.array([[0.0, -2.0], [-2.0, -2.0]])
    save(EigenGenerator(n=2, eta=eta), tmp_path / "g.json")
    save(DensityMatrix(n=2, entries=np.diag([0.75, 0.25]).astype(complex)), tmp_path / "s.json")
    out = tmp_path / "traj.tsv"
    rc = main(
        [
            "evolve",
            "--generator",
            str(tmp_path / "g.json"),
            "--t",
            "1.0",
            "--steps",
            "100",
            "--state",
            str(tmp_path / "s.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count("state t=") == 11
    assert "state t=0" in text and "state t=1" in text


def test_evolve_timedep_profile(tmp_path):
    eta = np.array([[0.0, -2.0], [-2.0, -2.0]])
    save(EigenGenerator(n=2, eta=eta), tmp_path / "g.json")
    out = tmp_path / "traj.tsv"
    argv = [
        "evolve",
        "--generator",
        str(tmp_path / "g.json"),
        "--profile",
        "poly:0,1",  # rate grows linearly, lambda_11 = exp(-t^2)
        "--t",
        "1.0",
        "--steps",
        "1000",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    last = out.read_text().splitlines()[-1].split("\t")
    assert abs(float(last[4]) - np.exp(-1.0)) <= 1e-6


def _table_by_cell(traj):
    # the trajectory table as written one format() call per cell
    n = traj.n
    names = [f"lambda_{i}_{j}" for i in range(n) for j in range(n)]
    lines = ["\t".join(["t"] + names + ["cp"])]
    for idx in range(len(traj)):
        flag = traj.cp_flags[idx]
        cell = "-" if flag is None else ("1" if flag else "0")
        row = [format(traj.grid[idx], ".17g")]
        row += [format(x, ".17g") for x in traj.lams[idx].ravel()]
        lines.append("\t".join(row + [cell]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", (2, 3, 5, 8))
@pytest.mark.parametrize("profile", ("constant", "poly:1,-0.4", "exp:0.5"))
def test_evolve_table_bytes_match_per_cell_writer(tmp_path, monkeypatch, n, profile):
    # 501 rows are several chunks of the writer at n >= 5; the fast decay
    # (and, under poly:1,-0.4, growth) takes cells to e-163 and e+244, and
    # the time column passes 10
    import gmchan.cli

    trajectories = []

    def recording(evolve):
        def run(*args, **kwargs):
            trajectories.append(evolve(*args, **kwargs))
            return trajectories[-1]
        return run

    for name in ("evolve_semigroup", "evolve_timedep"):
        monkeypatch.setattr(gmchan.cli, name, recording(getattr(gmchan.cli, name)))
    eta = -30.0 * np.random.default_rng(n).uniform(0.2, 1.0, (n, n))
    eta[0, 0] = 0.0
    eta[1, 1] = 0.3  # a growing eigenvalue: later frames are not CP
    save(EigenGenerator(n=n, eta=eta), tmp_path / "g.json")
    out = tmp_path / "traj.tsv"
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--profile", profile,
            "--t", "12.5", "--steps", "500", "--stride", "3", "--out", str(out)]
    assert main(argv) == 0
    (traj,) = trajectories
    assert out.read_bytes() == _table_by_cell(traj).encode("utf-8")
    assert {line.rsplit("\t", 1)[1] for line in out.read_text().splitlines()[1:]} == {"-", "0", "1"}


def _kernel_text(values) -> str:
    # the "%.17g\t" records of the trajectory-table kernel, NUL padding dropped
    x = np.asarray(values, dtype=float).reshape(1, -1)
    rec = np.empty(x.shape + (4,), dtype="<u8")
    _g17_records(x, rec)
    return rec.tobytes().translate(None, b"\0").decode("ascii")


def _percent_text(values) -> str:
    return "".join("%.17g\t" % v for v in np.asarray(values, dtype=float).tolist())


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1,
                max_size=40)
       | st.lists(st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
                  min_size=1, max_size=40))
def test_g17_kernel_matches_percent_format(values):
    assert _kernel_text(values) == _percent_text(values)


def _g17_edge_values() -> list:
    values = []
    for k in range(-323, 309):  # each power of ten's double and both neighbours
        x = float(f"1e{k}")
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values += [2.0 ** k for k in range(-1074, 1024)]
    values += [float(2 ** 53 + d) for d in range(-40, 41)]
    values += [sys.float_info.max, sys.float_info.min, 5e-324, 0.0]
    for e in range(2, 23):  # exact halves: odd / 2^e with 18 significant digits
        first = -(-10 ** 17 // 5 ** e) | 1
        values += [(first + 2 * i) / 2 ** e for i in range(4)]
    return values + [-v for v in values]


def test_g17_kernel_matches_percent_format_on_edges():
    values = _g17_edge_values()
    assert _kernel_text(values) == _percent_text(values)
    texts = _percent_text(values).split("\t")
    # the list reaches the cases a kernel can get wrong: 17-digit rounding
    # that carries to the next power of ten, and exact ties
    assert sum(t.startswith(("1e", "-1e")) and abs(Decimal(v)) < abs(Decimal(t))
               for t, v in zip(texts, values)) >= 8
    assert sum(Decimal(v).as_tuple().digits[17:] == (5,) for v in values) >= 80


def test_import_builds_no_g17_table():
    # the kernel's tables are built on first use: importing the package and
    # its CLI builds none and loads no module beyond this fixed set
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import gmchan, gmchan.cli\n"
        "new = sorted(m for m in set(sys.modules) - before if not m.startswith('gmchan'))\n"
        "print(new, gmchan.fileio._g17_tables.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = ["__future__", "_json", "argparse", "copy", "dataclasses", "gettext", "json",
                "json.decoder", "json.encoder", "json.scanner"]
    assert proc.stdout == f"{expected} 0\n"


def test_tolerance_env_flips_borderline_verdict(borderline_ev, monkeypatch, capsys):
    monkeypatch.delenv("GMCHAN_TOLERANCE", raising=False)
    assert main(["validate", borderline_ev]) == 2
    capsys.readouterr()
    monkeypatch.setenv("GMCHAN_TOLERANCE", "1e-3")
    assert main(["validate", borderline_ev]) == 0
    capsys.readouterr()
    # explicit flag beats the environment
    assert main(["validate", borderline_ev, "--tolerance", "1e-10"]) == 2


def test_main_calls_share_no_state(borderline_ev, monkeypatch, capsys):
    # one parser serves every call; each call parses its own arguments
    from gmchan.cli import _parser

    monkeypatch.delenv("GMCHAN_TOLERANCE", raising=False)
    assert main(["validate", borderline_ev, "--tolerance", "1e-3"]) == 0
    assert main(["validate", borderline_ev]) == 2
    monkeypatch.setenv("GMCHAN_TOLERANCE", "1e-3")
    assert main(["validate", borderline_ev]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gmchan validate [-h] [--tolerance TOLERANCE] file\n")
    assert err.endswith("error: the following arguments are required: file\n")
    monkeypatch.delenv("GMCHAN_TOLERANCE")
    assert main(["validate", borderline_ev]) == 2
    assert _parser() is _parser()


@pytest.mark.parametrize("value", ("nan", "inf", "-inf", "-1"))
def test_tolerance_that_decides_nothing_is_refused(identity_kf, tmp_path, monkeypatch, capsys,
                                                    value):
    # a NaN tolerance passes every check it reaches (comparisons with NaN are
    # false), a negative one fails every check; both names where it came from
    save(EigenGenerator(n=2, eta=np.array([[0.0, -1.0], [-1.0, -1.0]])), tmp_path / "g.json")
    commands = (["validate", identity_kf], ["convert", identity_kf, "--to", "ev"],
                ["evolve", "--generator", str(tmp_path / "g.json"), "--t", "1", "--steps", "4"])
    monkeypatch.delenv("GMCHAN_TOLERANCE", raising=False)
    for argv in commands:
        assert main(argv + [f"--tolerance={value}"]) == 1
        assert capsys.readouterr() == (
            "", f"error: --tolerance must be finite and nonnegative, got {float(value)!r}\n")
    monkeypatch.setenv("GMCHAN_TOLERANCE", value)
    for argv in commands:
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: GMCHAN_TOLERANCE must be finite and nonnegative, got {float(value)!r}\n")
    # the flag still wins over the environment
    assert main(commands[0] + ["--tolerance", "1e-10"]) == 0


@pytest.mark.parametrize("t_final", ("nan", "inf"))
def test_evolve_refuses_a_non_finite_final_time(tmp_path, t_final):
    save(EigenGenerator(n=2, eta=np.array([[0.0, -1.0], [-1.0, -1.0]])), tmp_path / "g.json")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gmchan.cli", "evolve",
         "--generator", str(tmp_path / "g.json"), "--t", t_final],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: final time must be finite, got {t_final}\n"


def test_evolve_refuses_a_tabulated_profile_with_a_nan_time(tmp_path, capsys):
    save(EigenGenerator(n=2, eta=np.array([[0.0, -1.0], [-1.0, -1.0]])), tmp_path / "g.json")
    table = _write(tmp_path / "tab.txt", "0 1\nnan 2\n1 3\n")
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--profile", f"tab:{table}",
            "--t", "1", "--steps", "10", "--out", str(tmp_path / "t.tsv")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: tabulated times must be finite\n")


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "whatever.json"])  # missing required --to
    assert exc.value.code == 1


def test_cli_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gmchan.cli", "examples", "paper-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all displayed values reproduced" in proc.stdout


@pytest.mark.parametrize("stride", ("0", "-3"))
def test_evolve_rejects_nonpositive_stride(tmp_path, capsys, stride):
    save(EigenGenerator(n=2, eta=np.array([[0.0, -1.0], [-1.0, -1.0]])), tmp_path / "g.json")
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--t", "1.0", "--steps", "10"]
    assert main(argv + ["--stride", stride, "--out", str(tmp_path / "t.tsv")]) == 1
    assert "stride must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "t.tsv").exists()


def test_crossval_rejects_zero_samples(tmp_path, monkeypatch, capsys):
    with pytest.raises(ConstraintViolated):
        runpy.run_path(str(SWEEP))["crossval_report"](2, 0, seed=1)
    with pytest.raises(SystemExit) as exc:
        _sweep(monkeypatch, "--n", "2", "--samples", "0", "--out", str(tmp_path / "sweep.json"))
    assert exc.value.code == 2  # argparse's usage error
    assert "--samples must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


def test_crossval_sweep_prints_na_without_compared_samples(tmp_path, monkeypatch, capsys):
    # a margin filter wider than every margin leaves nothing to compare
    out = tmp_path / "sweep.json"
    _sweep(monkeypatch, "--n", "2", "--samples", "5", "--margin-filter", "1e9", "--out", str(out))
    line = capsys.readouterr().out.splitlines()[0]
    assert line == (
        "n=2: three-way agreement n/a on 0 filtered samples; "
        "unnormalized-vs-oracle n/a; halved-self-term variant n/a"
    )
    assert json.loads(out.read_text())["reports"][0]["compared"] == 0


def test_evolve_rejects_overflowed_unchecked_frames(tmp_path, capsys):
    # the profile's integral overflows exp mid-grid; --stride 100 checks only
    # the first and last frame, which are finite
    save(EigenGenerator(n=2, eta=np.array([[0.0, 1.0], [1.0, 1.0]])), tmp_path / "g.json")
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--profile", "poly:4000,-8000",
            "--t", "1.0", "--steps", "100", "--stride", "100"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "inf" not in captured.out


def test_evolve_overflow_leaves_one_error_line(tmp_path):
    # numpy's overflow warning must not reach the user's stderr
    eta = np.ones((2, 2))
    eta[0, 0] = 0.0
    save(EigenGenerator(n=2, eta=eta), tmp_path / "g.json")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--profile", "poly:4000,-8000",
            "--t", "1", "--steps", "100", "--stride", "100"]
    proc = subprocess.run(
        [sys.executable, "-m", "gmchan.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: eigenvalue table contains non-finite entries\n"


@pytest.mark.parametrize("n", (3, 5, 8))
def test_state_whose_entries_overflow_is_refused_without_numpy_warnings(tmp_path, capsys, n):
    # finite coefficients whose recomposed entries overflow: loading refuses the state
    # with the same error as before, and no numpy overflow warning reaches stderr
    c = np.zeros((n, n))
    c[0, 0], c[n - 1, n - 1], c[0, n - 1] = 1.0 / n, 1.7e308, 1.7e308
    state = _write(tmp_path / "state.json", _doc(n, "state", c.tolist()))
    with pytest.raises(InvariantError, match="^density matrix contains non-finite entries$"):
        load(state)
    save(EigenGenerator(n=n, eta=np.eye(1, n * n).reshape(n, n) - 1.0), tmp_path / "g.json")
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--t", "1", "--steps", "5",
            "--state", state]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: density matrix contains non-finite entries\n"


def test_nonmarkovian_demo_smoke(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "nonmarkovian_demo.py"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "trajectory.tsv"
    proc = subprocess.run(
        [sys.executable, str(script), "--points", "51", "--cp-stride", "5", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[0].split("\t")[0] == "t"
    assert len(rows) == 1 + 51


@pytest.mark.parametrize("profile, code, err", [
    ("exp:-1e3", 0, ""),  # overflows to -inf: the eigenvalues decay to 0
    ("poly:1e308,1e308", 1, "error: eigenvalue table contains non-finite entries\n"),
])
def test_evolve_profile_overflow_prints_no_numpy_warning(tmp_path, profile, code, err):
    save(LindbladGenerator(n=2, gamma=np.array([[0.0, 0.5], [0.5, 0.5]])), tmp_path / "g.json")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["evolve", "--generator", str(tmp_path / "g.json"), "--profile", profile,
            "--t", "10", "--steps", "10", "--stride", "10", "--out", str(tmp_path / "t.tsv")]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gmchan.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (code, err)
