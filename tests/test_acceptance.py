"""End-to-end verification suite.

Each test covers one numbered exit criterion, runs at its stated tolerance,
and prints one PASS/FAIL line with the observed margin.
"""

import json
import math
import time

import numpy as np

from mchoeffding import (
    CoefficientMatrix,
    NormContext,
    SimConfig,
    bound_fjs,
    bound_mgf,
    bound_moment,
    bound_monomial,
    bound_rao,
    brute_force_distribution,
    contraction,
    deviation_norms,
    estimate_tail,
    exact_mgf,
    exact_moments,
    exact_monomial_expectation,
    opnorm,
    run_matrix_experiment,
    sign_family,
    two_state_chain,
    verify_holder_application,
)
from mchoeffding.chain import chain_to_dict
from mchoeffding.cli import main as cli_main
from mchoeffding.matrixlab import row_major_order
from mchoeffding.oracle import (
    evaluate_diagonal_chain_claim,
    evaluate_projector_chain_claim,
    lattice_distribution,
)
from mchoeffding.rng import trial_seeds

from conftest import lattice_instances, random_contractive_chain


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _close(x, y, tol=1e-10):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for chain, funcs in lattice_instances(101, 50):
        bf = brute_force_distribution(chain, funcs)
        dist = lattice_distribution(chain, funcs)
        for u in (0.25, 0.5, 1.0, 1.5, 2.5):
            t = u * funcs.a_l2
            worst = max(worst, abs(dist.tail(t) - bf.tail(t)))
            assert _close(dist.tail(t), bf.tail(t))
        table = exact_moments(chain, funcs, 6)
        for m in range(7):
            assert _close(table[m], bf.moment(m))
        for theta in (-0.1, 0.05, 0.1):
            assert _close(exact_mgf(chain, funcs, theta), bf.mgf(theta))
    elapsed = time.perf_counter() - start
    _report("criterion 1 (oracle equivalence, 50 chains)",
            elapsed < 30.0, f"worst tail gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_theorem_tail_dominance():
    start = time.perf_counter()
    u_grid = np.arange(0.5, 8.01, 0.5)
    violations = 0
    for chain, funcs in lattice_instances(202, 20, lam_cap=0.95):
        lam = contraction(chain)
        dist = lattice_distribution(chain, funcs)
        for u in u_grid:
            p = dist.tail(u * funcs.a_l2)
            if p > bound_rao(u, lam) or p > bound_fjs(u, lam):
                violations += 1
    elapsed = time.perf_counter() - start
    _report("criterion 2 (tail bound dominance, rao & fjs)",
            violations == 0 and elapsed < 60.0,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_3_moment_dominance():
    violations = 0
    for chain, funcs in lattice_instances(202, 20, lam_cap=0.95):
        lam = contraction(chain)
        table = exact_moments(chain, funcs, 12)
        for q in range(2, 13, 2):
            if table[q] > bound_moment(q, lam, funcs.bounds):
                violations += 1
    _report("criterion 3 (moment bound dominance, q <= 12)",
            violations == 0, f"{violations} violations")


def test_criterion_4_monomial_dominance():
    rng = np.random.default_rng(404)
    chains = lattice_instances(404, 5, lam_cap=0.999)
    violations = 0
    for trial in range(500):
        chain, funcs = chains[trial % len(chains)]
        lam = contraction(chain)
        q = int(rng.integers(2, 7))
        w = sorted(int(x) for x in rng.integers(1, funcs.n_steps + 1, size=q))
        lhs = exact_monomial_expectation(chain, funcs, w)
        if lhs > bound_monomial(w, lam, funcs.bounds) + 1e-9:
            violations += 1
    _report("criterion 4 (monomial lemma, 500 index vectors)",
            violations == 0, f"{violations} violations")


def test_criterion_5_mgf_step():
    n = 64
    funcs = sign_family(n)
    a_l2 = funcs.a_l2
    violations = 0
    worst_ratio = 0.0
    for lam in (0.0, 0.5, 0.9):
        chain = two_state_chain(lam)
        for u in range(1, 9):
            theta = (1.0 - lam) * u / (32.0 * a_l2)
            mgf = exact_mgf(chain, funcs, theta)
            cap = bound_mgf(u, lam)
            worst_ratio = max(worst_ratio, mgf / cap)
            if mgf > cap:
                violations += 1
    _report("criterion 5 (MGF step at tuned theta, n=64)",
            violations == 0, f"worst mgf/cap ratio {worst_ratio:.3f}")


def test_criterion_6_interpolation_claim():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        T = rng.normal(size=(n, n)) * rng.choice([0.1, 1.0, 10.0])
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        ctx = NormContext(pi)
        if opnorm(T, ctx, 2) ** 2 > opnorm(T, ctx, 1) * opnorm(T, ctx, np.inf) + 1e-9:
            violations += 1
    _report("criterion 6 (norm interpolation, 1000 instances)",
            violations == 0, f"{violations} violations")


def test_criterion_7_spectral_identities():
    ok = True
    details = []
    for lam in np.arange(0.0, 0.91, 0.1):
        got = contraction(two_state_chain(lam))
        if abs(got - lam) > 1e-10:
            ok = False
            details.append(f"lambda({lam:.1f}) -> {got}")
    rng = np.random.default_rng(707)
    worst_gap, least_margin = 0.0, math.inf
    for _ in range(5):
        chain = random_contractive_chain(rng, 4)
        norms = deviation_norms(chain, 20)
        lam = norms[0]
        ctx = NormContext(chain.stationary)
        E = np.tile(chain.stationary, (4, 1))
        for k in range(1, 21):
            # independent oracle: numpy's repeated squaring of A - E, one SVD per k
            oracle = opnorm(np.linalg.matrix_power(chain.transition - E, k), ctx, 2)
            gap, margin = abs(norms[k - 1] - oracle), 1 - norms[k - 1] / lam**k
            worst_gap = max(worst_gap, gap)
            if k > 1:  # at k = 1 the margin is 0 by definition
                least_margin = min(least_margin, margin)
            if gap > 1e-10:
                ok = False
                details.append(f"power identity k={k}")
            if norms[k - 1] > lam**k * (1 + 1e-9):
                ok = False
                details.append(f"decay k={k}")
    margins = (f"largest identity gap {worst_gap:.3g}, "
               f"smallest relative decay margin (k >= 2) {least_margin:.3g}")
    _report("criterion 7 (spectral identities)", ok, "; ".join(details + [margins]))


def test_criterion_8_appendix_claims():
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        g = rng.normal(size=(k + 1, n))
        us = [row - float(pi @ row) for row in g]
        Ts = [rng.normal(size=(n, n)) for _ in range(k)]
        lhs, rhs = verify_holder_application(pi, us, Ts)
        if lhs > rhs + 1e-9:
            violations += 1
        l1, factored, r1 = evaluate_projector_chain_claim(pi, Ts)
        if abs(l1) > r1 + 1e-9 or not _close(l1, factored, 1e-9):
            violations += 1
        l2, r2 = evaluate_diagonal_chain_claim(pi, us[:k], Ts[:k - 1])
        if l2 > r2 + 1e-9:
            violations += 1
    _report("criterion 8 (appendix lemma and claims, 1000 instances)",
            violations == 0, f"{violations} violations")


def test_criterion_9_monte_carlo_calibration():
    start = time.perf_counter()
    chain = two_state_chain(0.5)
    funcs = sign_family(6)
    threshold = 4.0
    exact_p = lattice_distribution(chain, funcs).tail(threshold)
    assert 0.01 < exact_p < 0.99
    u = threshold / funcs.a_l2
    covered = 0
    meta_seeds = trial_seeds(909, 100)
    for seed in meta_seeds:
        report = estimate_tail(chain, funcs, [u], SimConfig(trials=10_000, master_seed=int(seed)))
        if report.ci_low[0] <= exact_p <= report.ci_high[0]:
            covered += 1
    elapsed = time.perf_counter() - start
    _report("criterion 9 (Wilson coverage >= 90/100)",
            covered >= 90 and elapsed < 300.0,
            f"covered {covered}/100, exact p {exact_p:.4f}, {elapsed:.1f}s")


def test_criterion_10_matrix_corollary():
    start = time.perf_counter()
    d = 32
    B = CoefficientMatrix(np.ones((d, d)))
    order = row_major_order(d)
    ratios = {}
    max_norm = 0.0
    for lam in (0.0, 0.5, 0.9):
        chain = two_state_chain(lam)
        rep = run_matrix_experiment(B, order, chain, [1.0, -1.0],
                                    SimConfig(trials=500, master_seed=1010),
                                    lam=lam, gaussian_trials=100)
        max_norm = max(max_norm, float(rep.sample_norms.max()))
        ratios[lam] = rep.fitted_C
    c_star = max(ratios.values())
    elapsed = time.perf_counter() - start
    ok = (max_norm <= d + 1e-8
          and math.isfinite(c_star)
          and ratios[0.9] < 3.0 * ratios[0.0]
          and elapsed < 600.0)
    _report("criterion 10 (Schatten-inf corollary, d=32)", ok,
            f"max norm {max_norm:.6f} <= {d}, C* {c_star:.3f}, "
            f"ratios {dict((k, round(v, 3)) for k, v in ratios.items())}, {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path):
    chain = two_state_chain(0.5)
    funcs = sign_family(4)
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain_to_dict(chain, funcs)))

    def data(path):
        text = open(path).read()
        if text.lstrip().startswith("{"):
            return json.loads(text)["data"]  # manifest carries wall-clock duration
        return [ln for ln in text.splitlines() if not ln.startswith("#")]

    cases = [
        ["bounds", "--u-grid", "0:4:0.5", "--lambda", "0.3"],
        ["spectral", "--chain", str(chain_path), "--k", "4"],
        ["exact", "--chain", str(chain_path), "--q", "6"],
        ["simulate", "--chain", str(chain_path), "--u-grid", "0:2:1",
         "--trials", "1000", "--seed", "5"],
        ["matrix", "--d", "6", "--lambda", "0.5", "--trials", "10", "--seed", "5"],
        ["verify", "--chain", str(chain_path)],
    ]
    ok = True
    for i, argv in enumerate(cases):
        p1, p2 = tmp_path / f"o{i}a", tmp_path / f"o{i}b"
        assert cli_main(argv + ["--output", str(p1)]) == 0
        assert cli_main(argv + ["--output", str(p2)]) == 0
        if data(p1) != data(p2):
            ok = False
    _report("criterion 11 (byte-identical data sections)", ok, f"{len(cases)} subcommands")
