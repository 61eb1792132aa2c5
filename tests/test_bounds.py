import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturb import bounds
from perturb.bounds import (
    assumption_report,
    best_p,
    conjugate_gap_norm,
    davis_kahan_bound,
    ellipsoid_covering_bound,
    gap_vector,
    k_np,
    mu_assumption,
    opnorm_dual_lower,
    opnorm_lower,
    opnorm_pp_upper,
    rs_sin_theta_bound,
)
from perturb.ensembles import (
    SpectrumSpec,
    derive_stream,
    realize_spectrum,
    rng_from_stream,
    sample_goe,
    sample_gue,
)
from perturb.errors import InvalidSpectrumError, NumericFailureError
from perturb.matcore import (
    Spectrum,
    cholesky_below,
    dual_exponent,
    force_hermitian,
    hermitian_eig,
    lp_norm,
    operator_norm_exact,
)
from perturb.rs_solver import _blocks, build_shifted_gaps


def spectrum(*vals):
    return Spectrum(np.array(vals, dtype=float))


class TestGapVector:
    def test_direct(self):
        np.testing.assert_allclose(gap_vector(spectrum(3, 2, 1)), [1.0, 0.5])

    def test_two_point(self):
        np.testing.assert_allclose(gap_vector(spectrum(2, 1)), [1.0])

    def test_multiscale_formula(self):
        s = realize_spectrum(SpectrumSpec("multiscale", 256, {"eps": 1.0}))
        j = np.arange(1, 256)
        np.testing.assert_allclose(gap_vector(s), 1.0 / (j * math.log(256) ** 3), rtol=1e-13)

    def test_degenerate_gap_rejected(self):
        flat = object.__new__(Spectrum)  # bypass construction to hit the guard
        object.__setattr__(flat, "lambdas", np.array([2.0, 2.0, 1.0]))
        with pytest.raises(InvalidSpectrumError):
            gap_vector(flat)


class TestKnp:
    def test_p2(self):
        expected = math.sqrt(2 * math.log(3)) * math.sqrt(3) * 1.0
        assert k_np(spectrum(3, 2, 1), 2) == pytest.approx(expected, rel=1e-14)

    def test_pinf(self):
        assert k_np(spectrum(3, 2, 1), math.inf) == pytest.approx(math.log(3) * 1.5, rel=1e-14)

    def test_homogeneity(self):
        s = spectrum(3, 2, 1)
        assert k_np(spectrum(6, 4, 2), 3) == pytest.approx(k_np(s, 3) / 2, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            k_np(spectrum(3, 2, 1), 1.5)

    @given(st.floats(-50, 50), st.sampled_from([2.0, 3.0, 8.0, math.inf]))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, shift, p):
        base = spectrum(9, 5, 2, 1)
        shifted = Spectrum(base.lambdas + shift)
        assert k_np(shifted, p) == pytest.approx(k_np(base, p), rel=1e-12)


class TestBestP:
    def test_single_point_grid(self):
        s = spectrum(3, 2, 1)
        assert best_p(s, [2.0]) == (2.0, k_np(s, 2.0))

    def test_lowrank_prefers_large_p(self):
        n = 256
        lam1 = n * math.log(n)
        delta = 2 * math.log(n) ** 2
        s = realize_spectrum(SpectrumSpec("lowrank", n, {"r": 2, "lambda1": lam1, "delta": delta}))
        p_star, k_star = best_p(s)
        assert p_star > 2.0
        assert k_star <= k_np(s, 2.0)

    def test_multiscale_below_one(self):
        s = realize_spectrum(SpectrumSpec("multiscale", 256, {"eps": 1.0}))
        _, k_star = best_p(s)
        assert k_star < 1.0


class TestDavisKahan:
    def test_simple(self):
        assert davis_kahan_bound(spectrum(3, 1), 1.0) == 0.5

    def test_zero_noise(self):
        assert davis_kahan_bound(spectrum(2, 1), 0.0) == 0.0

    def test_multiscale(self):
        s = realize_spectrum(SpectrumSpec("multiscale", 256, {"eps": 1.0}))
        expected = 2 * math.sqrt(256) / math.log(256) ** 3
        assert davis_kahan_bound(s, 2 * math.sqrt(256)) == pytest.approx(expected, rel=1e-14)


class TestRsSinTheta:
    def test_two_point(self):
        assert rs_sin_theta_bound(spectrum(2, 1), 1.0) == pytest.approx(math.sqrt(math.log(2)))

    def test_halves_when_gaps_double(self):
        s, s2 = spectrum(3, 2, 1), spectrum(6, 4, 2)
        assert rs_sin_theta_bound(s2, 1.0) == pytest.approx(rs_sin_theta_bound(s, 1.0) / 2)

    def test_lowrank_shape(self):
        # bound ~ C sqrt(log n) (sqrt(r)/delta + sqrt(n-r)/lambda1) within factor 2
        n, r = 256, 2
        lam1 = n * math.log(n)
        delta = 2 * math.log(n) ** 2
        s = realize_spectrum(SpectrumSpec("lowrank", n, {"r": r, "lambda1": lam1, "delta": delta}))
        approx = math.sqrt(math.log(n)) * (math.sqrt(r) / delta + math.sqrt(n - r) / lam1)
        exact = rs_sin_theta_bound(s, 1.0)
        assert exact / 2 <= approx <= exact * 2


class TestMuAssumption:
    def test_pair(self):
        expected = math.sqrt(2 * math.log(2)) * math.sqrt(2)
        assert mu_assumption(np.array([1.0, 1.0]), 2) == pytest.approx(expected)

    def test_scaling(self):
        mu = np.ones(8)
        assert mu_assumption(10 * mu, 4) == pytest.approx(mu_assumption(mu, 4) / 10)

    def test_weyl_weights_small(self):
        n = 256
        j = np.arange(1, n + 1)
        mu = 10.0 * (n + 1 - j) * math.log(n) ** 3
        assert mu_assumption(mu, math.inf) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mu_assumption(np.array([1.0, -1.0]), 2)


class TestEllipsoidCovering:
    def test_small_axes_vanish(self):
        assert ellipsoid_covering_bound(np.array([0.5, 0.5]), 0.25) == 0.0

    def test_worked_example(self):
        got = ellipsoid_covering_bound(np.array([2.0, 2.0]), 0.25)
        assert got == pytest.approx(2 * math.log(2) + 2 * math.log(4 * math.e), rel=1e-14)

    def test_quarter_theta_accepted(self):
        ellipsoid_covering_bound(np.array([3.0, 0.1]), 0.25)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8), st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_axes(self, axes, idx):
        a = np.array(axes)
        bigger = a.copy()
        bigger[idx % a.size] *= 1.5
        assert ellipsoid_covering_bound(bigger, 0.25) >= ellipsoid_covering_bound(a, 0.25) - 1e-12


class TestOpnormUpper:
    def test_diagonal_all_p(self):
        M = np.diag([3.0, -1.0, 0.5])
        for p in (1.0, 1.7, 2.0, 5.0, math.inf):
            assert opnorm_pp_upper(M, p) == pytest.approx(3.0, rel=1e-12)

    def test_endpoints_exact(self):
        rng = rng_from_stream(2)
        M = rng.standard_normal((5, 5))
        assert opnorm_pp_upper(M, 1) == operator_norm_exact(M, 1)
        assert opnorm_pp_upper(M, math.inf) == operator_norm_exact(M, math.inf)

    def test_p2_dominates_exact(self):
        rng = rng_from_stream(4)
        for _ in range(10):
            M = rng.standard_normal((8, 8))
            assert opnorm_pp_upper(M, 2) >= operator_norm_exact(M, 2) - 1e-12


def random_matrix(kind: str, shape: tuple[int, int], seed: int) -> np.ndarray:
    """Gaussian test input: real, complex, graded columns or flat singular values."""
    rng = rng_from_stream(seed)
    M = rng.standard_normal(shape)
    if kind == "complex":
        M = M + 1j * rng.standard_normal(shape)
    elif kind == "graded":
        M = M * np.geomspace(1.0, 1e-6, shape[1])
    elif kind == "flat":
        M = np.linalg.qr(M)[0] * np.linspace(1.0, 0.9, shape[1])
    return M


def dense_certificate_input(n: int, scale: float, seed: int) -> np.ndarray:
    """E22 D^{-1} as solve forms it on a solve_dense-like input.

    A is dense complex with a random unitary eigenbasis and a multiscale
    spectrum, E is scaled GUE noise, and E22 lives in A's eigenbasis.
    """
    rng = rng_from_stream(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
    eig = hermitian_eig(force_hermitian((Q * s.lambdas) @ Q.conj().T))
    part = _blocks(eig, scale * sample_gue(n, seed))
    return part.e22 / build_shifted_gaps(eig.spectrum, part.e11)


class TestSpectralNormCertificate:
    """opnorm_pp_upper at p = 2: a Lanczos estimate proved by one Cholesky factorization."""

    @pytest.mark.parametrize("kind,shape", [
        *[(kind, (n, n)) for n in (2, 9, 70, 200) for kind in ("real", "complex")],
        ("real", (40, 90)), ("graded", (90, 40)), ("flat", (200, 200)),
    ])
    def test_within_relative_margin(self, kind, shape):
        M = random_matrix(kind, shape, 6)
        exact = operator_norm_exact(M, 2)
        assert exact <= opnorm_pp_upper(M, 2) <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("scale", [8.5, 12.0])
    def test_within_relative_margin_dense_solve(self, scale):
        M = dense_certificate_input(128, scale, 41)
        exact = operator_norm_exact(M, 2)
        assert exact <= opnorm_pp_upper(M, 2) <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_no_vdot_over_the_matrix(self, monkeypatch, kind):
        # the pad's ||M||_F^2 is a sum of one np.vecdot per row, never one
        # threaded np.vdot over all entries; the Lanczos vectors may use it
        vdot = np.vdot

        def checked(a, b):
            assert np.ndim(a) < 2, "np.vdot over a matrix"
            return vdot(a, b)

        M = random_matrix(kind, (70, 70), 6)
        want = opnorm_pp_upper(M, 2)
        monkeypatch.setattr(np, "vdot", checked)
        assert opnorm_pp_upper(M, 2) == want

    def test_failed_factorization_uses_exact(self, monkeypatch):
        def cholesky(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        M = dense_certificate_input(64, 8.5, 43)
        exact = operator_norm_exact(M, 2)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert opnorm_pp_upper(M, 2) == exact

    def test_low_estimate_not_certified(self, monkeypatch):
        # the estimate only chooses the shift: an estimate 1 % low makes the
        # factorization fail, and the exact norm decides
        M = random_matrix("real", (50, 50), 45)
        exact = operator_norm_exact(M, 2)
        top = bounds._lanczos_top
        monkeypatch.setattr(bounds, "_lanczos_top", lambda G: 0.99 * top(G))
        assert opnorm_pp_upper(M, 2) == exact

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_shift_covers_rounding(self, monkeypatch, complex_case):
        # the factorized matrix is (t - s) I - G with t + s + g <= c^2, where
        # g = 2 (m+2) u ||M||_F^2 bounds the rounding of G = M* M and
        # s = 2 (m+2) u trace(t I - G) the factorization's backward error
        M = random_matrix("complex" if complex_case else "real", (200, 200), 47)
        seen = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda H: seen.append(H.copy()) or cholesky(H))
        c = opnorm_pp_upper(M, 2)
        H, G = seen[0], M.conj().T @ M
        pad = 2 * (200 + 2) * np.finfo(float).eps / 2
        shift = (H + G).diagonal().real  # t - s on every diagonal entry
        s = pad * np.trace(H).real / (1 - 200 * pad)  # trace(t I - G) = trace(H) + 200 s
        g = pad * np.linalg.norm(M, "fro") ** 2
        assert shift.max() + s + g <= c * c * (1 + 1e-14)


class TestCholeskyBelow:
    """lambda_max(H) < t proved by factorizing (t - s) I - H, s = 2 (m+2) u trace(t I - H)."""

    @staticmethod
    def case(complex_case):
        H = force_hermitian(random_matrix("complex" if complex_case else "real", (60, 60), 51))
        top = float(np.linalg.eigvalsh(H)[-1])
        t = top + 1e-8 * abs(top)
        s = 2 * (60 + 2) * np.finfo(float).eps / 2 * float(np.trace(t * np.eye(60) - H).real)
        return H, top, t, s

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_proves_margin_above_top(self, complex_case):
        H, top, t, s = self.case(complex_case)
        assert 0 < s < t - top
        assert cholesky_below(H.copy(), t)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_inconclusive_at_top_and_within_shift(self, complex_case):
        # t I - H is positive definite for t = top + s/2, but the proof leaves
        # s for the factorization's rounding and cannot tell
        H, top, _, s = self.case(complex_case)
        assert not cholesky_below(H.copy(), top)
        assert not cholesky_below(H.copy(), top + s / 2)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_max_shift_skips_factorization(self, monkeypatch, complex_case):
        H, _, t, s = self.case(complex_case)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda M: calls.append(1) or cholesky(M))
        assert not cholesky_below(H.copy(), t, max_shift=s / 2)
        assert calls == []
        assert cholesky_below(H.copy(), t, max_shift=2 * s)
        assert calls == [1]


class TestOpnormLower:
    def test_zero_matrix(self):
        assert opnorm_dual_lower(np.zeros((4, 4)), 3.0) == 0.0
        assert opnorm_lower(np.zeros((4, 4)), 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("shape", ["goe", "gue", "rectangular", "non-self-adjoint"])
    def test_p2_is_the_spectral_norm(self, shape):
        # GOE n = 128 draws, on which 500 ascent steps stop short of ||M||_2
        # by more than 1e-12 relative; the closed form does not
        for t in range(4):
            stream = derive_stream(1007, 128, t)
            X = sample_gue(128, stream) if shape == "gue" else sample_goe(128, stream)
            M = {"rectangular": X[:, :96], "non-self-adjoint": np.triu(X)}.get(shape, X)
            val = opnorm_lower(M, 2.0, 2.0)
            exact = float(np.linalg.norm(M, 2))
            assert abs(val - exact) <= 1e-12 * exact
            assert val >= float(np.linalg.norm(M, axis=0).max())

    def test_p2_self_adjoint_takes_largest_magnitude(self):
        assert opnorm_lower(np.diag([1.0, -3.0, 2.0]), 2.0, 2.0) == 3.0

    def test_p2_ignores_seed_but_checks_restarts(self):
        M = sample_goe(16, 3)
        assert opnorm_lower(M, 2.0, 2.0, seed=0) == opnorm_lower(M, 2.0, 2.0, seed=99)
        with pytest.raises(ValueError, match="restarts"):
            opnorm_lower(M, 2.0, 2.0, restarts=0)

    @pytest.mark.parametrize("solver", ["eigh", "svd"])
    def test_p2_solver_failure_is_typed(self, monkeypatch, solver):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        M = sample_goe(8, 1) if solver == "eigh" else np.triu(sample_goe(8, 1))
        with pytest.raises(NumericFailureError):
            opnorm_lower(M, 2.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p_dom, p_tgt", [(2.0, 2.0), (4.0 / 3.0, 4.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, bad, p_dom, p_tgt):
        M = np.eye(4)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            opnorm_lower(M, p_dom, p_tgt)

    def test_non_finite_rejected_by_dual_lower(self):
        with pytest.raises(ValueError, match="finite"):
            opnorm_dual_lower(np.full((3, 3), math.nan), 4.0)

    def test_p2_matches_spectral(self):
        rng = rng_from_stream(8)
        for t in range(5):
            M = rng.standard_normal((24, 24))
            est = opnorm_dual_lower(M, 2.0, restarts=8, seed=t)
            assert est == pytest.approx(operator_norm_exact(M, 2), abs=1e-6)

    def test_diagonal_identity(self):
        # Lemma-5 pairing: ||diag(z)||_{p,p'} = ||z||_{p/(p-2)}; the ascent aimed
        # at that pairing reproduces it within 1%.
        rng = rng_from_stream(12)
        for t in range(10):
            z = rng.standard_normal(16)
            for p in (2.0, 3.0, 4.0, math.inf):
                conj = math.inf if p == 2 else (1.0 if p == math.inf else p / (p - 2))
                truth = lp_norm(z, conj)
                est = opnorm_lower(np.diag(z), p, dual_exponent(p), restarts=4, seed=t)
                assert abs(est - truth) <= 0.01 * truth

    def test_always_below_frobenius_and_exact2(self):
        rng = rng_from_stream(16)
        for t in range(200):
            n = int(rng.integers(2, 9))
            M = rng.standard_normal((n, n))
            p = float(rng.choice([2.0, 3.0, 4.0, 6.0]))
            lower = opnorm_dual_lower(M, p, restarts=2, seed=t)
            assert lower <= np.linalg.norm(M, "fro") * (1 + 1e-9)
            if p == 2.0:
                assert lower <= operator_norm_exact(M, 2) * (1 + 1e-9)

    def test_dual_lower_below_upper_and_complex(self):
        rng = rng_from_stream(20)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        est = opnorm_dual_lower(M, 2.0, restarts=6, seed=0)
        assert est == pytest.approx(operator_norm_exact(M, 2), abs=1e-6)


class TestAssumptionReport:
    def test_linear_n3(self):
        report = assumption_report(realize_spectrum(SpectrumSpec("linear", 3, {"scale": 1.0})))
        np.testing.assert_allclose(report.d, [1.0, 0.5])
        assert report.n == 3
        assert report.k_best == min(row["k"] for row in report.table)
        assert report.satisfied == (report.k_best <= report.c0)

    def test_satisfied_flag_tracks_threshold(self):
        s = realize_spectrum(SpectrumSpec("linear", 16, {"scale": 1000.0}))
        assert assumption_report(s, c0=0.1).satisfied
        assert not assumption_report(s, c0=1e-9).satisfied

    def test_infinity_in_default_grid(self):
        report = assumption_report(realize_spectrum(SpectrumSpec("linear", 8, {"scale": 1.0})))
        assert math.inf in [row["p"] for row in report.table]


class TestGoeScalingSmoke:
    def test_slope_near_quarter_p4_small(self):
        # tiny version of the scaling experiment; acceptance runs the real one
        ns = [32, 128]
        means = []
        for n in ns:
            vals = [opnorm_dual_lower(sample_goe(n, 100 + n + t), 4.0, restarts=4, seed=t)
                    for t in range(5)]
            means.append(np.mean(vals))
        slope = (math.log(means[1]) - math.log(means[0])) / (math.log(128) - math.log(32))
        assert 0.05 <= slope <= 0.45


def test_conjugate_gap_norm_endpoints():
    d = np.array([1.0, 0.5, 0.25])
    assert conjugate_gap_norm(d, 2) == 1.0
    assert conjugate_gap_norm(d, math.inf) == 1.75
    assert conjugate_gap_norm(d, 4.0) == pytest.approx(lp_norm(d, 2.0))
