"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np

from perturb.arrowhead import arrowhead_eigvec, lower_bound_check, solve_gamma
from perturb.bounds import opnorm_dual_lower, opnorm_lower, verify_shifted_domination
from perturb.ensembles import (
    SpectrumSpec,
    derive_stream,
    realize_spectrum,
    rng_from_stream,
    sample_arrowhead_noise,
    sample_goe,
)
from perturb.experiments import ExperimentConfig, run_and_export, run_experiment
from perturb.matcore import EigDecomposition, dual_exponent, lp_norm, top_eigpair
from perturb.rs_solver import solve

MULTISCALE = SpectrumSpec("multiscale", 0, {"eps": 1.0})


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _diag_eig(spectrum):
    return EigDecomposition(spectrum=spectrum, basis=np.eye(spectrum.n))


def test_criterion_1_solver_oracle_equivalence():
    t0 = time.monotonic()
    eligible, bad = 0, 0
    for n in (8, 32, 128):
        spectrum = realize_spectrum(MULTISCALE.with_n(n))
        A = np.diag(spectrum.lambdas)
        eig = _diag_eig(spectrum)
        for t in range(100):
            E = sample_goe(n, derive_stream(1001, n, t))
            rep = solve(A, E, eig=eig, verify=False)
            if rep.method != "rs" or rep.contraction_upper > 0.9:
                continue
            eligible += 1
            lam_top, u_top = top_eigpair(A + E)
            overlap_gap = 1.0 - abs(complex(np.vdot(rep.u_tilde, u_top)))
            lam_err = abs(rep.lambda_tilde - lam_top)
            if overlap_gap > 1e-9 or lam_err > 1e-9 * (1.0 + abs(rep.lambda_tilde)):
                bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and eligible >= 250 and elapsed < 120.0
    _report(1, ok, f"{eligible} certified trials, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_2_arrowhead_secular_solver():
    worst_rel, worst_overlap, worst_resid = 0.0, 0.0, 0.0
    for n in (16, 64, 512):
        spectrum = realize_spectrum(MULTISCALE.with_n(n))
        A = np.diag(spectrum.lambdas)
        for t in range(50):
            g, E = sample_arrowhead_noise(n, derive_stream(1002, n, t))
            gamma = solve_gamma(spectrum, g)
            sol = arrowhead_eigvec(spectrum, g, gamma)
            resid = abs(gamma - float(np.sum(g * g / (spectrum.gaps() + gamma))))
            worst_resid = max(worst_resid, resid / max(gamma, 1.0))
            lam_top, u_top = top_eigpair(A + E)
            rel = abs(sol.top_eigenvalue - lam_top) / abs(sol.top_eigenvalue)
            overlap_gap = 1.0 - abs(float(np.dot(sol.vector(), u_top)))
            worst_rel = max(worst_rel, rel)
            worst_overlap = max(worst_overlap, overlap_gap)
    big_n = 4096
    spectrum = realize_spectrum(MULTISCALE.with_n(big_n))
    g, _ = sample_arrowhead_noise(big_n, derive_stream(1002, big_n, 0))
    gamma = solve_gamma(spectrum, g)
    resid_big = abs(gamma - float(np.sum(g * g / (spectrum.gaps() + gamma)))) / max(gamma, 1.0)
    ok = worst_rel <= 1e-10 and worst_overlap <= 1e-10 and worst_resid <= 1e-12 and resid_big <= 1e-12
    _report(2, ok, f"rel {worst_rel:.1e}, overlap {worst_overlap:.1e}, "
                   f"residual {worst_resid:.1e}, n=4096 residual {resid_big:.1e}")


def test_criterion_3_coordinatewise_upper_bound():
    cfg = ExperimentConfig(
        kind="upper_bound", spectrum=MULTISCALE, ensemble={"tag": "goe"},
        n_list=(64, 128, 256), trials=200, seed=1003, p=2.0,
    )
    records, summary = run_experiment(cfg)
    p99 = {g["n"]: g["stats"]["max_coord_ratio"]["p99"] for g in summary.groups}
    growth_ok = p99[256] <= 1.25 * p99[64]
    pooled = np.sort(np.array([r.statistics["max_coord_ratio"] for r in records]))
    C = float(np.quantile(pooled, 0.99))
    covered = sum(
        r.statistics["sin_theta"] <= C * r.statistics["rs_bound"] for r in records
    )
    cover_ok = covered >= math.ceil(0.99 * len(records))
    _report(3, growth_ok and cover_ok,
            f"p99 by n {({k: round(v, 3) for k, v in p99.items()})}, "
            f"C={C:.3f}, sin-theta coverage {covered}/{len(records)}")


def test_criterion_4_arrowhead_lower_bound():
    n, trials = 128, 200
    spectrum = realize_spectrum(MULTISCALE.with_n(n))
    held = 0
    for t in range(trials):
        g, _ = sample_arrowhead_noise(n, derive_stream(1004, n, t))
        sol = arrowhead_eigvec(spectrum, g, solve_gamma(spectrum, g))
        holds, _ = lower_bound_check(sol, spectrum, g)
        held += holds
    ok = held >= 0.95 * trials
    _report(4, ok, f"coordinatewise lower bound held on {held}/{trials} trials")


def test_criterion_5_inconsistency_trend():
    cfg = ExperimentConfig(
        kind="inconsistency", spectrum=SpectrumSpec("inconsistency", 0, {"p": 2.0}),
        ensemble={"tag": "goe"}, n_list=(200, 500, 1000), trials=100, seed=1005, p=2.0,
    )
    records, summary = run_experiment(cfg)
    freq = {g["n"]: g["stats"]["lambda_max_exceeds"]["frequency"] for g in summary.groups}
    trend_ok = freq[200] <= freq[500] <= freq[1000] and freq[1000] >= 0.9
    floor_ok = True
    for n in (200, 500, 1000):
        norms = np.array([r.statistics["tilde_norm_sq"] for r in records if r.n == n])
        lam2_sq = (3.0 * math.sqrt(n)) ** 2
        floor_ok &= norms.mean() >= lam2_sq + n - 3.0 * norms.std(ddof=1)
    _report(5, trend_ok and floor_ok,
            f"exceedance freq {freq}, norm-square floor holds: {bool(floor_ok)}")


def test_criterion_6_eigenvalue_domination():
    n, trials = 256, 200
    j = np.arange(1, n + 1, dtype=np.float64)
    mu = 10.0 * (n + 1 - j) * math.log(n) ** 3
    held = 0
    for t in range(trials):
        X = sample_goe(n, derive_stream(1006, n, t))
        holds, _ = verify_shifted_domination(X, mu, tau=0.0)
        held += holds
    freq_ok = held >= 0.95 * trials

    sign_matches = 0
    for t in range(20):
        rng = rng_from_stream(derive_stream(1006, 5, t))
        X = sample_goe(5, derive_stream(1016, 5, t))
        g = rng.standard_normal(5)
        scale = 8.0 if t % 2 == 0 else 2.0  # half comfortably dominated, half not
        holds, margin = verify_shifted_domination(X, np.full(5, scale), tau=1.0, g=g)
        Z = rng.standard_normal((100_000, 5))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        B = np.diag(np.full(5, scale)) - X
        brute = float((np.einsum("ij,jk,ik->i", Z, B, Z) - Z @ g).min())
        sign_matches += (margin >= 0) == (brute >= 0)
    ok = freq_ok and sign_matches == 20
    _report(6, ok, f"domination {held}/{trials} at n=256; brute-force sign agreement {sign_matches}/20")


def test_criterion_7_mixed_norm_scaling():
    ns = (32, 64, 128, 256, 512)
    slopes = {}
    for p in (2.0, 4.0):
        means = []
        for n in ns:
            vals = [
                opnorm_dual_lower(sample_goe(n, derive_stream(1007, n, t)), p,
                                  restarts=8, seed=derive_stream(1007, n, t))
                for t in range(20)
            ]
            means.append(np.mean(vals))
        slopes[p] = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    ok = all(abs(slopes[p] - 1.0 / p) <= 0.15 for p in (2.0, 4.0))
    _report(7, ok, f"log-log slopes {({p: round(s, 3) for p, s in slopes.items()})} "
                   f"vs targets {{2.0: 0.5, 4.0: 0.25}}")


def test_criterion_8_norm_lemmas():
    rng = rng_from_stream(1008)
    worst = 0.0
    for t in range(50):
        z = rng.standard_normal(16)
        for p in (2.0, 3.0, 4.0, math.inf):
            conj = math.inf if p == 2 else (1.0 if p == math.inf else p / (p - 2.0))
            truth = lp_norm(z, conj)
            est = opnorm_lower(np.diag(z), p, dual_exponent(p), restarts=4, seed=100 * t)
            worst = max(worst, abs(est - truth) / truth)
    diag_ok = worst <= 0.01

    violations = 0
    for t in range(1000):
        N = int(rng.choice([4, 64, 256]))
        p = float(rng.choice([2.0, 3.0, 4.0, 8.0]))
        x = rng.standard_normal(N)
        rhs = N ** (1.0 / p) * lp_norm(x, math.inf if p == 2 else p / (p - 2.0))
        violations += lp_norm(x, 2) > rhs
    ok = diag_ok and violations == 0
    _report(8, ok, f"diagonal identity worst rel err {worst:.2e}; "
                   f"l2-vs-conjugate violations {violations}/1000")


def test_criterion_9_phase_transition():
    n, trials = 1000, 50
    errs = {}
    for theta in (1.5, 3.0):
        spectrum = realize_spectrum(SpectrumSpec("lowrank", n, {"r": 1, "lambda1": theta, "delta": theta}))
        A = np.diag(spectrum.lambdas)
        overlaps = []
        for t in range(trials):
            E = sample_goe(n, derive_stream(1009, int(theta * 10), t)) / math.sqrt(n)
            top = top_eigpair(A + E)[1]
            overlaps.append(abs(top[0]) ** 2)
        target = max(0.0, 1.0 - 1.0 / theta**2)
        errs[theta] = abs(float(np.mean(overlaps)) - target)
    ok = all(e <= 0.1 for e in errs.values())
    _report(9, ok, f"mean overlap-squared error by spike {({k: round(v, 4) for k, v in errs.items()})}")


def test_criterion_10_replay_determinism(tmp_path):
    cfg = ExperimentConfig(
        kind="upper_bound", spectrum=MULTISCALE, ensemble={"tag": "goe"},
        n_list=(16, 32), trials=5, seed=1010, p=2.0,
        output={"path": "unused", "format": "csv"},
    )
    run_and_export(cfg, tmp_path / "a")
    run_and_export(cfg, tmp_path / "b")
    csv_same = (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()
    summary_same = (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    cfg_json = ExperimentConfig(
        kind="lower_bound", spectrum=MULTISCALE, ensemble={"tag": "goe"},
        n_list=(32,), trials=5, seed=1010, p=2.0,
        output={"path": "unused", "format": "json"},
    )
    run_and_export(cfg_json, tmp_path / "c")
    run_and_export(cfg_json, tmp_path / "d")
    json_same = (tmp_path / "c/records.json").read_bytes() == (tmp_path / "d/records.json").read_bytes()
    ok = csv_same and summary_same and json_same
    _report(10, ok, f"csv identical: {csv_same}, summary identical: {summary_same}, "
                    f"json identical: {json_same}")
