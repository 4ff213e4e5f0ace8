"""Acceptance gate: nine numbered end-to-end checks over the full surface.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s, and in
the failure report otherwise) and asserts. Volumes and tolerances are fixed;
every random draw is seeded, so a failure reproduces exactly.
"""

import warnings

import numpy as np

from gmchan.basis import full_basis, gell_mann
from gmchan.channels import (
    DEFAULT_TOL,
    KrausChannel,
    apply_kf,
    cp_check_normalized,
    cp_check_oracle,
    cp_check_paper,
    tp_residuals,
)
from gmchan.cli import main
from gmchan.converters import ev_to_kf, kf_to_ev
from gmchan.dynamics import (
    RateProfile,
    evolve_semigroup,
    evolve_timedep,
    uniform_grid,
)
from gmchan.examples import run_example_1, run_example_2
from gmchan.generators import (
    apply_lf,
    ev_to_lf,
    eta_from_lambda,
    lambda_from_eta,
    lf_to_ev,
)
from sampling import (
    random_complex_matrix,
    random_ev_channel,
    random_ev_generator,
    random_kf_ev_admissible,
    random_lf_ev_admissible,
    random_noncp_ev,
    random_tp_kraus,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_basis_invariants():
    worst = 0.0
    for n in range(2, 9):
        b = full_basis(n)
        s = b.stack
        worst = max(worst, float(np.max(np.abs(s - s.conj().transpose(0, 2, 1)))))
        traces = np.einsum("aii->a", s).real
        worst = max(worst, abs(traces[0] - n), float(np.max(np.abs(traces[1:]))))
        gram = np.einsum("aij,bji->ab", s.conj().transpose(0, 2, 1), s).real
        expected = 2.0 * np.eye(n * n)
        expected[0, 0] = n
        worst = max(worst, float(np.max(np.abs(gram - expected))))

    pauli = {
        (0, 0): np.eye(2),
        (0, 1): np.array([[0, 1], [1, 0]]),
        (1, 0): np.array([[0, -1j], [1j, 0]]),
        (1, 1): np.array([[1, 0], [0, -1]]),
    }
    exact = all(np.array_equal(gell_mann(2, i, j), m) for (i, j), m in pauli.items())
    _report(
        1,
        worst <= 1e-14 and exact,
        f"n=2..8 invariant defect {worst:.2e}, n=2 Pauli exact: {exact}",
    )


def test_criterion_2_qubit_four_way_agreement():
    # direct evaluation of the two qubit closed-form inequalities
    def fa_margin(lam):
        lx, ly, lz = lam[0, 1], lam[1, 0], lam[1, 1]
        return min(1.0 + lz - abs(lx + ly), 1.0 - lz - abs(lx - ly))

    rng = np.random.default_rng(202)
    compared = agreed = 0
    for _ in range(10_000):
        ch = random_ev_channel(rng, 2)
        margins = [
            cp_check_oracle(ch).margin,
            cp_check_paper(ch).margin,
            cp_check_normalized(ch).margin,
            fa_margin(ch.lam),
        ]
        if min(abs(m) for m in margins) <= 1e-8:
            continue
        compared += 1
        verdicts = {m >= -DEFAULT_TOL for m in margins}
        agreed += len(verdicts) == 1
    _report(
        2,
        agreed == compared and compared > 9000,
        f"{agreed}/{compared} filtered samples agree across all four checks "
        f"(seed 202)",
    )


def test_criterion_3_oracle_soundness():
    rng = np.random.default_rng(303)
    worst_cp = np.inf
    for n in range(2, 7):
        for _ in range(1000):
            ch = random_tp_kraus(rng, n)
            worst_cp = min(worst_cp, cp_check_oracle(ch).margin)
    caught = 0
    for n in range(2, 7):
        for _ in range(200):
            caught += not cp_check_oracle(random_noncp_ev(rng, n)).is_cp
    _report(
        3,
        worst_cp >= -1e-10 and caught == 1000,
        f"5000 nonnegative completed tables: min Choi eigenvalue {worst_cp:.2e}; "
        f"{caught}/1000 constructed violators flagged NotCP (seed 303)",
    )


def test_criterion_4_normalized_equivalence():
    rng = np.random.default_rng(404)
    total = mismatched = 0
    paper_rates = {}
    for n in range(3, 7):
        paper_compared = paper_agreed = 0
        for _ in range(10_000):
            ch = random_ev_channel(rng, n)
            rep_o = cp_check_oracle(ch)
            rep_n = cp_check_normalized(ch)
            if min(abs(rep_o.margin), abs(rep_n.margin)) > 1e-8:
                total += 1
                mismatched += rep_n.is_cp != rep_o.is_cp
            rep_p = cp_check_paper(ch)
            if min(abs(rep_o.margin), abs(rep_p.margin)) > 1e-8:
                paper_compared += 1
                paper_agreed += rep_p.is_cp == rep_o.is_cp
        paper_rates[n] = paper_agreed / paper_compared
    finding = ", ".join(f"n={n}: {r:.4f}" for n, r in paper_rates.items())
    warnings.warn(
        f"criterion 4 finding (seed 404, 10^4 samples per n): agreement of the "
        f"unnormalized closed-form check with the Choi oracle is {finding}; "
        f"the check is necessary but not sufficient for n >= 3",
        stacklevel=1,
    )
    _report(
        4,
        mismatched == 0 and total > 30_000,
        f"normalized vs oracle: {total - mismatched}/{total} filtered samples "
        f"agree; unnormalized-check finding: {finding} (seed 404)",
    )


def test_criterion_5_trace_preservation():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in range(2, 7):
        stack = full_basis(n).stack
        for _ in range(1000):
            ch = random_tp_kraus(rng, n)
            X = np.stack([random_complex_matrix(rng, n) for _ in range(20)])
            images = np.einsum(
                "a,aij,xjk,akl->xil", ch.p.ravel(), stack, X, stack, optimize=True
            )
            defect = np.abs(
                np.einsum("xii->x", images) - np.einsum("xii->x", X)
            )
            worst = max(worst, float(np.max(defect)))

    # breaking the linear completion equations must show up as a trace
    # defect on some matrix unit
    violators_ok = 0
    trials = 0
    for n in range(2, 7):
        for _ in range(50):
            trials += 1
            base = random_tp_kraus(rng, n)
            p = base.p.copy()
            k = int(rng.integers(0, n - 1))
            l = int(rng.integers(k + 1, n))
            p[k, l] += 0.02
            bad = KrausChannel(n=n, p=p)
            assert float(np.max(np.abs(tp_residuals(bad)))) > 1e-6
            unit = np.zeros((n, n), dtype=complex)
            unit[k, k] = 1.0
            gap = abs(complex(np.trace(apply_kf(bad, unit))) - 1.0)
            violators_ok += gap > 1e-6
    _report(
        5,
        worst <= 1e-10 and violators_ok == trials,
        f"trace defect over 5000 channels x 20 operators: {worst:.2e}; "
        f"{violators_ok}/{trials} unbalanced tables caught on matrix units "
        f"(seed 505)",
    )


def test_criterion_6_round_trips():
    rng = np.random.default_rng(606)
    worst_kf = worst_lf = 0.0
    for n in range(2, 7):
        for _ in range(1000):
            kf = random_kf_ev_admissible(rng, n)
            ev = kf_to_ev(kf)  # the converter applies the eigenvector oracle
            back = ev_to_kf(ev)
            worst_kf = max(worst_kf, float(np.max(np.abs(back.p - kf.p))))
        for _ in range(1000):
            lf = random_lf_ev_admissible(rng, n)
            evg = lf_to_ev(lf)  # the converter applies the eigenvector oracle
            back = ev_to_lf(evg)
            worst_lf = max(worst_lf, float(np.max(np.abs(back.gamma - lf.gamma))))

    # independent spot check of the eigenvector property, straight from the
    # operator actions
    worst_eig = 0.0
    for n in range(2, 7):
        b = full_basis(n)
        for _ in range(10):
            kf = random_kf_ev_admissible(rng, n)
            lam = kf_to_ev(kf).lam.ravel()
            for a, sigma in enumerate(b.stack):
                worst_eig = max(
                    worst_eig,
                    float(np.max(np.abs(apply_kf(kf, sigma) - lam[a] * sigma))),
                )
            lf = random_lf_ev_admissible(rng, n)
            eta = lf_to_ev(lf).eta.ravel()
            for a, sigma in enumerate(b.stack):
                worst_eig = max(
                    worst_eig,
                    float(np.max(np.abs(apply_lf(lf, sigma) - eta[a] * sigma))),
                )
    _report(
        6,
        worst_kf <= 1e-11 and worst_lf <= 1e-11 and worst_eig <= 1e-11,
        f"round-trip defects over 1000 per n in 2..6: weight form {worst_kf:.2e}, "
        f"rate form {worst_lf:.2e}; eigenvector spot check {worst_eig:.2e} "
        f"(seed 606)",
    )


def test_criterion_7_example_regressions(capsys):
    rep1 = run_example_1()
    rep2 = run_example_2()
    rc1 = main(["examples", "paper-1"])
    rc2 = main(["examples", "paper-2"])
    capsys.readouterr()
    _report(
        7,
        rep1.ok(1e-12) and rep2.ok(1e-12) and rc1 == 0 and rc2 == 0,
        f"worked examples reproduce every displayed value: "
        f"max defects {rep1.max_defect:.2e} / {rep2.max_defect:.2e}",
    )


def test_criterion_8_dynamics():
    rng = np.random.default_rng(808)
    gen = random_ev_generator(rng, 3)
    traj = evolve_semigroup(gen, uniform_grid(3.0, 31), cp_stride=30)
    semi = 0.0
    for i, j in [(5, 10), (5, 5), (10, 15)]:
        semi = max(
            semi, float(np.max(np.abs(traj.lams[i] * traj.lams[j] - traj.lams[i + j])))
        )

    grid = uniform_grid(1.0, 1001)  # h = 1e-3
    a = 0.7
    prof = RateProfile.constant(-a)
    t1 = evolve_timedep([[None, prof], [prof, prof]], grid, cp_stride=1000)
    quad1 = float(np.max(np.abs(t1.lams[:, 1, 1] - np.exp(-a * grid))))
    b = 0.9
    prof2 = RateProfile.polynomial(0.0, -2.0 * b)
    t2 = evolve_timedep([[None, prof2], [prof2, prof2]], grid, cp_stride=1000)
    quad2 = float(np.max(np.abs(t2.lams[:, 1, 1] - np.exp(-b * grid**2))))

    all_cp = True
    for n in range(2, 5):
        for _ in range(3):
            lf = random_lf_ev_admissible(rng, n, nonnegative=True)
            tr = evolve_semigroup(lf_to_ev(lf), uniform_grid(2.0, 41))
            all_cp = all_cp and all(flag is True for flag in tr.cp_flags)
    _report(
        8,
        semi <= 1e-14 and quad1 <= 1e-8 and quad2 <= 1e-8 and all_cp,
        f"semigroup law defect {semi:.2e}; quadrature vs exp(-at) {quad1:.2e}, "
        f"vs exp(-at^2) {quad2:.2e} at h=1e-3; constant nonnegative-rate "
        f"trajectories CP at every frame for n=2..4 (seed 808)",
    )


def test_criterion_9_rate_eigenvalue_consistency():
    c, a = -1.5, 2.0

    def eta_exact(t):
        return c * np.exp(-a * t)

    def lam_exact(t):
        return np.exp(c * (1.0 - np.exp(-a * t)) / a)

    def tables(values, fill_identity):
        out = np.zeros((values.size, 2, 2)) + (1.0 if fill_identity else 0.0)
        for i, j in [(0, 1), (1, 0), (1, 1)]:
            out[:, i, j] = values
        return out

    def err_lam_round(points):
        grid = uniform_grid(2.0, points)
        lams = tables(lam_exact(grid), fill_identity=True)
        back = lambda_from_eta(eta_from_lambda(lams, grid), grid)
        return float(np.max(np.abs(back - lams)))

    def err_eta_round(points):
        grid = uniform_grid(2.0, points)
        etas = tables(eta_exact(grid), fill_identity=False)
        back = eta_from_lambda(lambda_from_eta(etas, grid), grid)
        return float(np.max(np.abs(back - etas)))

    order_lam = float(np.log2(err_lam_round(101) / err_lam_round(201)))
    order_eta = float(np.log2(err_eta_round(101) / err_eta_round(201)))
    _report(
        9,
        order_lam >= 1.9 and order_eta >= 1.9,
        f"round-trip convergence orders: eigenvalue direction {order_lam:.2f}, "
        f"rate direction {order_eta:.2f} (both must be >= 1.9)",
    )
