import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmchan import channels, converters, generators
from gmchan.basis import full_basis
from gmchan.channels import (
    EigenChannel, KrausChannel, _choi_layout, _column_residuals, _column_triples, _table_scale,
    _violations, apply_kf, complete_tp,
)
from gmchan.converters import ev_is_kf, ev_to_kf, kf_is_ev, kf_to_ev
from gmchan.errors import InvariantError, NegativeCoefficient, NotEV, NotKF, NotTracePreserving
from gmchan.generators import EigenGenerator, LindbladGenerator, ev_to_lf, lf_is_ev, lf_to_ev
from sampling import random_kf_ev_admissible, random_lf_ev_admissible

import paper_forms


def test_kf_to_ev_frozen_qubit():
    # p = (5/8, 1/8, 1/8, 1/8) -> lambda = (1/2, 1/2, 1/2)
    ch = KrausChannel(n=2, p=np.array([[5 / 8, 1 / 8], [1 / 8, 1 / 8]]))
    ev = kf_to_ev(ch)
    assert ev.trace_preserving
    assert np.allclose(ev.lam, [[1.0, 0.5], [0.5, 0.5]], atol=1e-15)


def test_ev_to_kf_frozen_qubit():
    # lambda = (1/2, 1/4, 1/4) -> p = (1/2, 1/4, 1/8, 1/8)
    ev = EigenChannel(n=2, lam=np.array([[1.0, 0.5], [0.25, 0.25]]))
    kf = ev_to_kf(ev)
    assert np.allclose(kf.p, [[0.5, 0.25], [0.125, 0.125]], atol=1e-15)


def test_ev_to_kf_negative_weights_reported_not_rejected():
    # lambda = (1, 1, -1) is a valid channel with a negative weight table
    ev = EigenChannel(n=2, lam=np.array([[1.0, 1.0], [1.0, -1.0]]))
    kf = ev_to_kf(ev)
    assert np.allclose(kf.p, [[0.5, 0.5], [0.5, -0.5]], atol=1e-14)
    assert not kf.nonnegative


def test_kf_is_ev_reports_column_violations():
    off = np.zeros((4, 4))
    off[0, 1], off[1, 0] = 0.013, 0.009
    off[0, 2], off[2, 0] = 0.017, 0.007
    off[1, 2], off[2, 1] = 0.012, 0.012
    off[0, 3], off[3, 0] = 0.011, 0.011
    off[1, 3], off[3, 1] = 0.015, 0.007
    off[2, 3], off[3, 2] = 0.019, 0.019
    ch = complete_tp(off, 0.05)
    ok, violations = kf_is_ev(ch)
    assert not ok
    assert violations == [(0, 2, 3), (1, 2, 3)]
    with pytest.raises(NotEV) as exc:
        kf_to_ev(ch)
    assert exc.value.violations == [(0, 2, 3), (1, 2, 3)]


def test_kf_to_ev_requires_trace_preservation():
    p = np.zeros((3, 3))
    p[0, 0] = 0.5  # trace lost
    with pytest.raises(NotTracePreserving):
        kf_to_ev(KrausChannel(n=3, p=p))


def test_ev_is_kf_violation_tags():
    # diagonal eigenvalues out of the reachable pattern
    lam = np.eye(4)
    lam[1, 1], lam[2, 2], lam[3, 3] = 0.9, 0.1, 0.9
    lam[0, 1] = lam[1, 0] = 0.9
    lam[0, 2] = lam[2, 0] = 0.9
    lam[0, 3] = lam[3, 0] = 0.9
    lam[1, 2] = lam[2, 1] = 0.9
    lam[1, 3] = lam[3, 1] = 0.9
    lam[2, 3] = lam[3, 2] = 0.9
    ev = EigenChannel(n=4, lam=lam)
    ok, violations = ev_is_kf(ev)
    assert not ok
    kinds = {v[0] for v in violations}
    assert "diag" in kinds
    with pytest.raises(NotKF):
        ev_to_kf(ev)


def test_ev_to_kf_requires_unit_trace_eigenvalue():
    lam = np.full((3, 3), 0.5)
    with pytest.raises(NotTracePreserving):
        ev_to_kf(EigenChannel(n=3, lam=lam))


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_kf_ev_kf(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        ch = random_kf_ev_admissible(rng, n)
        ev = kf_to_ev(ch)
        back = ev_to_kf(ev)
        assert np.max(np.abs(back.p - ch.p)) <= 1e-11
        again = kf_to_ev(back)
        assert np.max(np.abs(again.lam - ev.lam)) <= 1e-11


@pytest.mark.parametrize("n", range(2, 7))
def test_eigenvector_oracle_on_converted(n):
    rng = np.random.default_rng(200 + n)
    b = full_basis(n)
    for _ in range(10):
        ch = random_kf_ev_admissible(rng, n)
        ev = kf_to_ev(ch)
        for i in range(n):
            for j in range(n):
                got = apply_kf(ch, b.matrix(i, j))
                want = ev.lam[i, j] * b.matrix(i, j)
                assert np.max(np.abs(got - want)) <= 1e-11


def test_unconditional_offdiagonal_formula():
    # lambda_kl for k > l must follow the weight asymmetry, not transpose
    rng = np.random.default_rng(42)
    ch = random_kf_ev_admissible(rng, 3)
    ev = kf_to_ev(ch)
    asym = ev.lam - ev.lam.T
    p_asym = ch.p - ch.p.T
    for k in range(3):
        for l in range(3):
            if k != l:
                assert abs(asym[k, l] - 2 * p_asym[k, l]) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 5))
def test_conversion_closes_under_hypothesis(seed, n):
    rng = np.random.default_rng(seed)
    ch = random_kf_ev_admissible(rng, n)
    back = ev_to_kf(kf_to_ev(ch))
    assert np.max(np.abs(back.p - ch.p)) <= 1e-11


def _column_violations_by_loop(table, tol=1e-12):
    # the column-equality check as the converters wrote it out, loop by loop
    n = table.shape[0]
    sym = table + table.T
    violations = []
    for l in range(1, n):
        for j in range(l):
            for k in range(j + 1, l):
                if abs(sym[j, l] - sym[k, l]) > tol:
                    violations.append((j, k, l))
    return violations


def _planted_columns(rng, n, scale):
    # random table whose symmetrized entries agree within each column for a
    # random subset of rows (always rows 0 and 1, which keeps a weight table
    # balanced), off by 3e-12 for another subset, and random elsewhere
    t = scale * rng.uniform(0.0, 1.0, (n, n))
    for l in range(1, n):
        common = 2.0 * scale * rng.uniform()
        for j in range(l):
            kind = 0 if j < 2 else rng.integers(0, 3)
            if kind < 2:
                t[l, j] = common + 3e-12 * kind - t[j, l]
    return t


@pytest.mark.parametrize("form", ("kf", "ev", "lf"))
def test_column_violations_match_loop_form(form):
    rng = np.random.default_rng(12)
    seen = 0
    for n in (*range(2, 11), 16):
        for _ in range(6):
            if form == "kf":
                table = _planted_columns(rng, n, 1e-3)
                try:
                    ch = complete_tp(table, 0.1)
                except NegativeCoefficient:
                    continue
                ok, got = kf_is_ev(ch)
                want = _column_violations_by_loop(ch.p)
            elif form == "ev":
                table = _planted_columns(rng, n, 1.0)
                table[0, 0] = 1.0
                ok, got = ev_is_kf(EigenChannel(n=n, lam=table))
                got = [v[1:] for v in got if v[0] == "tilde"]
                want = _column_violations_by_loop(table)
            else:
                table = _planted_columns(rng, n, 1.0)
                table[0, 0] = 0.0
                ok, got = lf_is_ev(LindbladGenerator(n=n, gamma=table))
                want = _column_violations_by_loop(table)
            assert got == want
            assert all(type(i) is int for v in got for i in v)
            # tol < 0 flags every triple j < k < l: all of them, in loop order
            every = _violations(_column_triples(n)[2], _column_residuals(table), -1.0)
            assert every == _column_violations_by_loop(table, -1.0)
            seen += bool(want)
    assert seen >= 20


@pytest.mark.parametrize("name", ("kf_to_ev", "ev_to_kf", "lf_to_ev", "ev_to_lf"))
@pytest.mark.parametrize("entry", ((3, 7), (15, 15)))
def test_converters_reject_a_perturbed_closed_form(monkeypatch, name, entry):
    # the converter's output, nudged by 1e-9 before the converter verifies it; the
    # eigenvalue readers pass the superoperator M they read it off, which stays as it is
    rng = np.random.default_rng(16)
    ch = random_kf_ev_admissible(rng, 16)
    gen = random_lf_ev_admissible(rng, 16)
    inputs = {"kf_to_ev": ch, "ev_to_kf": kf_to_ev(ch), "lf_to_ev": gen, "ev_to_lf": lf_to_ev(gen)}
    owner = converters if name in ("kf_to_ev", "ev_to_kf") else generators
    outputs_eigenvalues = name in ("kf_to_ev", "lf_to_ev")
    # the eigenvalue readers verify inside their shared core in channels
    module = channels if outputs_eigenvalues else owner
    verify = module._verify_images

    def nudged(table, lam, what, rate=False, M=None):
        out = (lam if outputs_eigenvalues else table).copy()
        out[entry] += 1e-9
        if outputs_eigenvalues:
            return verify(table, out, what, rate, M)
        return verify(out, lam, what, rate, M)

    convert = getattr(owner, name)
    convert(inputs[name])
    monkeypatch.setattr(module, "_verify_images", nudged)
    with pytest.raises(InvariantError, match=f"{name}: closed-form output fails"):
        convert(inputs[name])


def test_kf_is_ev_at_two_tolerances_matches_fresh_objects():
    # one weight channel, its column gaps computed once, thresholded per call
    rng = np.random.default_rng(21)
    seen = set()
    for n in (3, 4, 6):
        for _ in range(6):
            try:
                ch = complete_tp(_planted_columns(rng, n, 1e-3), 0.1)
            except NegativeCoefficient:
                continue
            for tol in (1e-12, 1e-11, 1e-2, 1e-12):
                got = kf_is_ev(ch, tol)
                assert got == kf_is_ev(KrausChannel(n=n, p=ch.p), tol)
                assert got[1] == _column_violations_by_loop(ch.p, tol)
                seen.add((tol, got[0]))
    assert {(1e-12, False), (1e-11, False), (1e-2, True)} <= seen


def _ev_is_lf_by_loop(eta, tol=1e-12):
    # ev_is_lf's three condition families, written out loop by loop, each
    # against tol times the table's scale
    n = eta.shape[0]
    tol *= max(1.0, float(np.max(np.abs(eta))))
    ht = eta + eta.T
    violations = [("tilde01", l) for l in range(2, n) if abs(ht[0, l] - ht[1, l]) > tol]
    acc = eta[1, 1]
    for k in range(2, n - 1):
        j = k - 1
        acc += (j + 1.0) / 2.0 * (
            -(j + 2.0) / j * (ht[j, j + 2] - ht[j + 1, j + 2]) + ht[j - 1, j] - ht[j - 1, j + 1]
        )
        if abs(eta[k, k] - acc) > tol:
            violations.append(("diag", k))
    for k in range(1, n):
        for l in range(k + 1, n):
            for m in range(l + 1, n):
                if abs((ht[k, l] - ht[k - 1, l]) - (ht[k, m] - ht[k - 1, m])) > tol:
                    violations.append(("mixing", k, l, m))
    return violations


def _ev_is_kf_diag_by_loop(lam, tol=1e-12):
    n = lam.shape[0]
    lt = lam + lam.T
    bad = []
    for k in range(2, n):
        target = lam[1, 1] + 0.5 * (lt[0, 1] + np.sum(lt[0, 1:k]) - k * lt[0, k])
        if abs(lam[k, k] - target) > tol:
            bad.append(("diag", k))
    return bad


@pytest.mark.parametrize("n", range(2, 17))
def test_ev_conditions_match_loop_form(n):
    rng = np.random.default_rng(300 + n)
    seen = 0
    for trial in range(8):
        eta = generators.lf_to_ev(random_lf_ev_admissible(rng, n)).eta.copy()
        lam = converters.kf_to_ev(random_kf_ev_admissible(rng, n)).lam.copy()
        for table in (eta, lam):
            # plant violations of every family: far past tol, just past it, within
            # it, in units of the table's scale (which ev_is_lf's tol follows)
            for size in (1e-3, 3e-12, 5e-13)[: trial % 4]:
                size *= max(1.0, float(np.max(np.abs(table))))
                table[rng.integers(1, n), rng.integers(0, n)] += size  # never (0, 0)
        gen = generators.EigenGenerator(n=n, eta=eta)
        got = generators.ev_is_lf(gen)[1]
        assert got == _ev_is_lf_by_loop(gen.eta)
        assert all(type(i) is int for v in got for i in v[1:])
        assert generators.ev_is_lf(gen, -1.0)[1] == _ev_is_lf_by_loop(gen.eta, -1.0)
        ch = EigenChannel(n=n, lam=lam)
        got = [v for v in ev_is_kf(ch)[1] if v[0] == "diag"]
        assert got == _ev_is_kf_diag_by_loop(ch.lam)
        assert all(type(v[1]) is int for v in got)
        seen += bool(_ev_is_lf_by_loop(gen.eta)) + bool(got)
    assert seen >= (4 if n >= 4 else 0)


@pytest.mark.parametrize("n", range(2, 17))
def test_reverse_converters_match_the_paper_closed_forms(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        lam = kf_to_ev(random_kf_ev_admissible(rng, n)).lam
        p, want = ev_to_kf(EigenChannel(n=n, lam=lam)).p, paper_forms.ev_to_kf(lam)
        assert np.max(np.abs(p - want)) <= 1e-14 * _table_scale(lam, want)
        eta = lf_to_ev(random_lf_ev_admissible(rng, n)).eta
        g, want = ev_to_lf(EigenGenerator(n=n, eta=eta)).gamma, paper_forms.ev_to_lf(eta)
        assert np.max(np.abs(g - want)) <= 1e-14 * _table_scale(eta, want)


# Dimension counts of the admissible tables: exact rank over the rationals up
# to n = 6, SVD rank above.

def _exact_rank(rows):
    """Rank of a list of rows of Fractions, by Gaussian elimination."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _svd_rank(rows):
    """Rank as the singular values above 1e-9 of the largest; the rest must sit below 1e-12 of it."""
    s = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    kept = s > 1e-9 * s[0]
    assert not np.any((s > 1e-12 * s[0]) & ~kept)
    return int(kept.sum())


def _column_rows(n):
    """t_jl + t_lj = t_kl + t_lk for every j < k < l, as rows over the flat table."""
    rows = []
    for j, k, l in itertools.combinations(range(n), 3):
        row = [0] * (n * n)
        row[j * n + l] = row[l * n + j] = 1
        row[k * n + l] = row[l * n + k] = -1
        rows.append(row)
    return rows


def _unit_rows(residuals, n):
    """The matrix of a linear residual helper, read off the n² unit tables: one row per condition."""
    return np.stack([residuals(u) for u in np.eye(n * n).reshape(n * n, n, n)], axis=1)


@pytest.mark.parametrize("n", range(2, 17))
def test_admissible_subspaces_have_the_paper_dimensions(n):
    squares = _choi_layout(n).squares.T  # sum_a p_a sigma_a² = I, one row per diagonal entry
    # the package's own condition maps: the column check's and the two eigenvalue checks'
    columns = _unit_rows(_column_residuals, n)
    weights = _unit_rows(converters._kf_residuals, n)
    rates = _unit_rows(generators._lf_residuals, n)
    assert sorted(map(tuple, columns.tolist())) == sorted(map(tuple, _column_rows(n)))
    if n <= 6:
        # the entries are 1, 2/(j(j+1)), 2j/(j+1) and the recursions' (j+1)(j+2)/(2j):
        # rationals with small denominators
        def exact(rows):
            fs = [[Fraction(x).limit_denominator(1000) for x in row] for row in rows]
            assert all(abs(float(f) - x) <= 1e-15 for row, r in zip(rows, fs) for x, f in zip(row, r))
            return fs
        tp, weights, rates = (exact(m) for m in (squares, weights, rates))
        rank = _exact_rank
    else:
        tp, weights, rates, rank = squares.tolist(), weights.tolist(), rates.tolist(), _svd_rank
    pin = [[1] + [0] * (n * n - 1)]  # a generator's inert (0, 0) rate, a channel's lam_00 = 1
    assert rank(tp) == (1 if n == 2 else n)
    assert n * n - rank(tp + _column_rows(n)) == n * (n + 1) // 2
    assert n * n - rank(pin + _column_rows(n)) == (n + 4) * (n - 1) // 2
    # the eigenvalue checks leave as many tables as the weight and rate checks do, so
    # each converter pair is a bijection between the admissible sets
    assert rank(weights) == (n + 1) * (n - 2) // 2
    assert rank(rates) == (n - 1) * (n - 2) // 2
    assert n * n - rank(pin + weights) == n * (n + 1) // 2
    assert n * n - rank(pin + rates) == (n + 4) * (n - 1) // 2
