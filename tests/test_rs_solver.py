import math

import numpy as np
import pytest

from perturb.bounds import best_p
from perturb.ensembles import (
    EntryDistribution,
    SpectrumSpec,
    derive_stream,
    realize_spectrum,
    rng_from_stream,
    sample_goe,
    sample_subgaussian_hermitian,
)
from perturb import rs_solver
from perturb.errors import (
    ContractionFailureError,
    GapCollapseError,
    InconsistentEigenvalueError,
    InvalidSpectrumError,
)
from perturb.matcore import (
    EigDecomposition,
    Spectrum,
    force_hermitian,
    hermitian_eig,
    lp_norm,
)
from perturb.rs_solver import (
    SolverReport,
    assemble_eigvec,
    build_shifted_gaps,
    contraction_certificate,
    coordinate_bounds,
    eigenvalue_from_q,
    partition,
    solve,
    solve_q,
    verify_shifted_domination,
    verify_solution,
)


def spectrum(*vals):
    return Spectrum(np.array(vals, dtype=float))


def diag_eig(s: Spectrum) -> EigDecomposition:
    return EigDecomposition(spectrum=s, basis=np.eye(s.n))


class TestPartition:
    def test_zero_noise(self):
        eig = hermitian_eig(np.diag([3.0, 2.0, 1.0]))
        part = partition(eig, np.zeros((3, 3)))
        assert part.e11 == 0.0
        assert np.all(part.e12 == 0) and np.all(part.e22 == 0)

    def test_diagonal_basis_passthrough(self):
        # diagonal A: identity eigenbasis, so the blocks are E's own blocks
        s = spectrum(3, 2, 1)
        E = sample_goe(3, 11)
        part = partition(diag_eig(s), E)
        assert part.e11 == pytest.approx(E[0, 0])
        np.testing.assert_allclose(part.e12, E[0, 1:])
        np.testing.assert_allclose(part.e22, E[1:, 1:])

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_reassembly_roundtrip(self, complex_case):
        rng = rng_from_stream(31)
        A = rng.standard_normal((8, 8))
        E = rng.standard_normal((8, 8))
        if complex_case:
            A = A + 1j * rng.standard_normal((8, 8))
            E = E + 1j * rng.standard_normal((8, 8))
        A, E = force_hermitian(A), force_hermitian(E)
        eig = hermitian_eig(A)
        part = partition(eig, E)
        back = eig.basis @ part.reassemble() @ eig.basis.conj().T
        assert np.linalg.norm(back - E, "fro") <= 1e-12 * np.linalg.norm(E, "fro")
        assert np.array_equal(part.e21, part.e12.conj())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partition(diag_eig(spectrum(3, 2, 1)), np.zeros((4, 4)))


class TestShiftedGaps:
    def test_plain(self):
        d = build_shifted_gaps(spectrum(3, 2, 1), 0.0)
        np.testing.assert_allclose(d, [1.0, 2.0])

    def test_collapse(self):
        with pytest.raises(GapCollapseError):
            build_shifted_gaps(spectrum(3, 2, 1), -1.0)

    def test_positive_shift(self):
        d = build_shifted_gaps(spectrum(3, 2, 1), 0.5)
        np.testing.assert_allclose(d, [1.5, 2.5])


def scaled_noise(s: Spectrum, rng, scale: float, coupling: float | None = None) -> np.ndarray:
    """Real symmetric noise, E11 = 0, whose E22 block has certificate ``scale`` at p = 2.

    With ``coupling`` set, E12 is rescaled so that ||E21||_2 = coupling * d_1.
    """
    E = force_hermitian(rng.standard_normal((s.n, s.n)))
    E[0, 0] = 0.0
    d = build_shifted_gaps(s, 0.0)
    E[1:, 1:] *= scale / contraction_certificate(d, E[1:, 1:], 2.0)
    if coupling is not None:
        k = coupling * d[0] / np.linalg.norm(E[1:, 0])
        E[0, 1:] *= k
        E[1:, 0] *= k
    return E


class TestJacobiInner:
    """solve_q's loop: the Jacobi splitting L = D - E22 with the quadratic term carried along."""

    def test_zero_block_single_iteration(self):
        # E12 = 0: q = 0 is the fixed point, reached and checked in one step
        s = spectrum(3, 2, 1)
        part = partition(diag_eig(s), np.diag([0.3, 0.1, -0.2]))
        q, iterations, _ = solve_q(part, s)
        assert np.all(q == 0)
        assert iterations == 1

    def test_matches_dense_solve(self):
        # q is the dense oracle's leading eigenvector scaled to unit head
        rng = rng_from_stream(37)
        s = Spectrum(np.arange(7, 0, -1.0) * 3.0)
        for t in range(10):
            E = scaled_noise(s, rng, 0.4)
            part = partition(diag_eig(s), E)
            q, _, _ = solve_q(part, s)
            top = hermitian_eig(np.diag(s.lambdas) + E).basis[:, 0]
            direct = top[1:] / top[0]
            assert np.linalg.norm(q - direct) <= 1e-10 * np.linalg.norm(direct)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_inverse_norm_bound(self, p):
        # D q = D L^{-1}(E21 - (E12 q) q), and ||D L^{-1}||_p <= 2 whenever
        # the certificate is <= 1/2
        rng = rng_from_stream(43)
        s = Spectrum(np.arange(9, 0, -1.0) * 2.0)
        done = 0
        while done < 100:
            E = force_hermitian(rng.standard_normal((9, 9))) * 0.4
            part = partition(diag_eig(s), E)
            try:
                q, _, _ = solve_q(part, s, p=p, certificate_cap=0.5)
            except ContractionFailureError:
                continue
            d = build_shifted_gaps(s, part.e11)
            rhs = part.e21 - (part.e12 @ q) * q
            assert lp_norm(d * q, p) <= 2.0 * lp_norm(rhs, p) + 1e-9
            done += 1

    def test_certificate_rejection(self):
        s = spectrum(3, 2, 1)
        part = partition(diag_eig(s), np.diag([0.0, 2.0, 0.0]))  # E22 D^{-1} has norm 2 > cap
        with pytest.raises(ContractionFailureError) as err:
            solve_q(part, s)
        assert err.value.certified_norm > 0.9

    def test_iteration_budget(self):
        # iterations <= 10 log2(1/tol) when the certificate is <= 1/2 and
        # ||E21||_2 <= d_1 / 8: the map then sends the ball ||D q||_2 <= 4 ||E21||_2
        # into itself with Lipschitz constant <= 1/2 + 8 / 8^2 = 5/8
        rng = rng_from_stream(47)
        s = Spectrum(np.arange(9, 0, -1.0) * 2.0)
        budget = 10 * math.log2(1e12)
        for t in range(20):
            part = partition(diag_eig(s), scaled_noise(s, rng, 0.5, coupling=1 / 8))
            _, iterations, cert = solve_q(part, s, tol=1e-12)
            assert cert <= 0.5 + 1e-12
            assert iterations <= budget


class TestSolveQ:
    def test_zero_noise(self):
        s = spectrum(3, 2, 1)
        part = partition(diag_eig(s), np.zeros((3, 3)))
        q, _, _ = solve_q(part, s)
        assert np.all(q == 0)
        u = assemble_eigvec(diag_eig(s), q)
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0])

    def test_scalar_case_closed_form(self):
        # n=2: q solves e12 q^2 + (delta + e11 - e22) q - e21 = 0, smaller root
        s = spectrum(3.0, 1.0)
        rng = rng_from_stream(53)
        for t in range(20):
            E = force_hermitian(rng.standard_normal((2, 2))) * 0.4
            part = partition(diag_eig(s), E)
            q, _, _ = solve_q(part, s)
            b = s.delta + part.e11 - part.e22[0, 0]
            e12, e21 = part.e12[0], part.e21[0]
            disc = math.sqrt(b * b + 4 * e12 * e21)
            root = 2 * e21 / (b + math.copysign(disc, b))  # stable smaller-magnitude root
            assert q[0] == pytest.approx(root, abs=1e-12)

    def test_q_small_under_assumption(self):
        # ||q||_2 <= 1/4 on instances whose gap functional clears the threshold
        n = 64
        s = Spectrum(realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0})).lambdas * 3.0)
        _, k_star = best_p(s)
        assert k_star <= 0.1
        for t in range(10):
            E = sample_goe(n, derive_stream(59, t))
            part = partition(diag_eig(s), E)
            q, _, _ = solve_q(part, s)
            assert np.linalg.norm(q) <= 0.25

    def test_fixed_point_residual(self):
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        tol = 1e-12
        for t in range(10):
            E = sample_goe(n, derive_stream(61, t))
            part = partition(diag_eig(s), E)
            q, iterations, _ = solve_q(part, s, tol=tol)
            d = build_shifted_gaps(s, part.e11)
            resid = np.linalg.norm(d * q - part.e22 @ q - (part.e21 - (part.e12 @ q) * q))
            assert resid <= tol * (np.linalg.norm(part.e21) + 1.0)
            assert iterations <= 10 * math.log2(1 / tol)

    def test_complex_noise(self):
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_subgaussian_hermitian(n, EntryDistribution("gaussian"), "complex", 5)
        part = partition(diag_eig(s), E)
        q, _, _ = solve_q(part, s)
        lam = eigenvalue_from_q(s.lambdas[0], part.e11, part.e12, q)
        u = assemble_eigvec(diag_eig(s), q)
        A_tilde = np.diag(s.lambdas) + E
        assert np.linalg.norm(A_tilde @ u - lam * u) <= 1e-10 * np.linalg.norm(A_tilde, "fro")


class TestAssembleEigvec:
    def test_zero_q(self):
        eig = diag_eig(spectrum(3, 2, 1))
        np.testing.assert_allclose(assemble_eigvec(eig, np.zeros(2)), [1, 0, 0])

    def test_equal_mix(self):
        eig = diag_eig(spectrum(2, 1))
        np.testing.assert_allclose(
            assemble_eigvec(eig, np.array([1.0])), [1 / math.sqrt(2), 1 / math.sqrt(2)]
        )

    def test_overlap_identity(self):
        rng = rng_from_stream(67)
        A = force_hermitian(rng.standard_normal((8, 8)))
        eig = hermitian_eig(A)
        q = rng.standard_normal(7)
        u = assemble_eigvec(eig, q)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        scale = 1 / math.sqrt(1 + np.dot(q, q))
        for j in range(7):
            assert np.vdot(eig.basis[:, j + 1], u) == pytest.approx(q[j] * scale, abs=1e-12)
        assert np.vdot(eig.basis[:, 0], u).real == pytest.approx(scale, abs=1e-12)


class TestEigenvalueFromQ:
    def test_zero(self):
        assert eigenvalue_from_q(3.0, 0.0, np.zeros(2), np.zeros(2)) == 3.0

    def test_2x2_quadratic_formula(self):
        s = spectrum(3.0, 1.0)
        E = force_hermitian(rng_from_stream(71).standard_normal((2, 2))) * 0.3
        part = partition(diag_eig(s), E)
        q, _, _ = solve_q(part, s)
        lam = eigenvalue_from_q(s.lambdas[0], part.e11, part.e12, q)
        top = hermitian_eig(np.diag(s.lambdas) + E).spectrum.lambdas[0]
        assert lam == pytest.approx(top, abs=1e-11)

    def test_matches_quadratic_form(self):
        n = 8
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_goe(n, 73)
        part = partition(diag_eig(s), E)
        q, _, _ = solve_q(part, s)
        lam = eigenvalue_from_q(s.lambdas[0], part.e11, part.e12, q)
        u = assemble_eigvec(diag_eig(s), q)
        direct = float(u @ (np.diag(s.lambdas) + E) @ u)
        assert lam == pytest.approx(direct, abs=1e-11)


class TestCoordinateBounds:
    def test_zero(self):
        assert np.all(coordinate_bounds(np.zeros(2), spectrum(3, 2, 1)) == 0)

    def test_unshifted_gap_definition(self):
        q = np.array([0.1, 0.01])
        s = spectrum(3, 2, 1)
        c = 1 / math.sqrt(1 + np.dot(q, q))
        expected = np.array([1 * 0.1, 2 * 0.01]) * c / math.sqrt(math.log(3))
        np.testing.assert_allclose(coordinate_bounds(q, s), expected, rtol=1e-14)

    def test_monotone_in_coordinate(self):
        s = spectrum(3, 2, 1)
        lo = coordinate_bounds(np.array([0.1, 0.2]), s)
        hi = coordinate_bounds(np.array([0.3, 0.2]), s)
        assert hi[0] > lo[0]


class TestVerifySolution:
    def test_zero_noise_certifies(self):
        s = spectrum(3, 2, 1)
        A = np.diag(s.lambdas)
        rep = solve(A, np.zeros((3, 3)))
        assert rep.residual2 == pytest.approx(0.0, abs=1e-14)
        assert rep.orth_residual == pytest.approx(0.0, abs=1e-14)
        assert rep.leading_certified
        assert rep.method == "rs"

    def test_adversarial_rank_one_rejected(self):
        # noise that swaps the top two eigenvectors: the fixed point finds the
        # continuation of u1, and the certificate flags it as non-leading
        s = spectrum(3, 2, 1)
        A = np.diag(s.lambdas)
        E = (s.delta + 0.1) * np.outer([0, 1, 0], [0, 1, 0])
        eig = diag_eig(s)
        part = partition(eig, E)
        q, iterations, cert = solve_q(part, s, certificate_cap=math.inf)
        rep = SolverReport(
            q=q,
            u_tilde=assemble_eigvec(eig, q),
            lambda_tilde=eigenvalue_from_q(s.lambdas[0], part.e11, part.e12, q),
            iterations=iterations,
            contraction_upper=cert,
        )
        verify_solution(A, E, rep, s, eig=eig)
        assert np.allclose(rep.q, 0)
        assert rep.lambda_tilde == pytest.approx(3.0)
        assert not rep.leading_certified

    def test_random_certified_residual(self):
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A = np.diag(s.lambdas)
        for t in range(5):
            E = sample_goe(n, derive_stream(79, t))
            rep = solve(A, E, eig=diag_eig(s))
            assert rep.leading_certified
            a_norm = np.abs(np.linalg.eigvalsh(A + E)).max()
            assert rep.residual2 <= 1e-9 * a_norm


class TestSolveDriver:
    def test_oracle_equivalence_when_certified(self):
        n = 24
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A = np.diag(s.lambdas)
        for t in range(10):
            E = sample_goe(n, derive_stream(83, t))
            rep = solve(A, E, eig=diag_eig(s))
            if not rep.leading_certified:
                continue
            oracle = hermitian_eig(A + E)
            assert 1 - abs(np.vdot(rep.u_tilde, oracle.basis[:, 0])) <= 1e-9

    def test_fallback_tagging(self):
        s = spectrum(3, 2, 1)
        A = np.diag(s.lambdas)
        E = (s.delta + 0.1) * np.outer([0, 1, 0], [0, 1, 0])
        rep = solve(A, E)
        assert rep.method == "oracle-fallback"
        assert rep.leading_certified  # the fallback pair is the true leading pair
        assert rep.lambda_tilde == pytest.approx(3.1)

    def test_report_json_fields(self):
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), np.zeros((3, 3)))
        d = rep.to_dict()
        for key in (
            "q", "u_tilde", "lambda_tilde", "iterations",
            "contraction_upper", "residual2", "orth_residual", "coord_ratios",
            "q_norm2", "leading_certified", "method",
        ):
            assert key in d

    def test_inconsistent_eigenvalue_falls_back(self, monkeypatch):
        def complex_eigenvalue(*args, **kwargs):
            raise InconsistentEigenvalueError("E12 q has imaginary part 1")

        monkeypatch.setattr(rs_solver, "eigenvalue_from_q", complex_eigenvalue)
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7))
        assert rep.method == "oracle-fallback"
        assert rep.leading_certified
        assert 0.0 < rep.contraction_upper <= 0.9  # the certificate solve_q computed

    def test_strong_coupling_still_solved(self):
        # ||E21||_2 near the gap: on some draws the fixed-point loop does not
        # converge and solve falls back; every report is still the leading pair
        rng = rng_from_stream(47)
        s = Spectrum(np.arange(9, 0, -1.0) * 2.0)
        A = np.diag(s.lambdas)
        for t in range(20):
            E = scaled_noise(s, rng, 0.5)
            rep = solve(A, E, eig=diag_eig(s))
            assert rep.leading_certified
            oracle = hermitian_eig(A + E)
            assert 1 - abs(np.vdot(rep.u_tilde, oracle.basis[:, 0])) <= 1e-9

    @pytest.mark.parametrize("method", ["rs", "oracle-fallback"])
    def test_certificate_computed_once(self, monkeypatch, method):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return contraction_certificate(*args, **kwargs)

        monkeypatch.setattr(rs_solver, "contraction_certificate", counted)
        s = spectrum(3, 2, 1)
        if method == "rs":
            E = 0.1 * sample_goe(3, 7)
        else:  # E22 D^{-1} has norm 1.1, above the cap
            E = (s.delta + 0.1) * np.outer([0, 1, 0], [0, 1, 0])
        rep = solve(np.diag(s.lambdas), E)
        assert rep.method == method
        assert len(calls) == 1

    @pytest.mark.parametrize("A,E,message", [
        (np.diag([3.0, 2.0, 1.0]), np.diag([0.0, math.nan, 0.0]), "E has non-finite entries"),
        (np.diag([3.0, 2.0, 1.0]), np.triu(np.ones((3, 3))), "E is not exactly self-adjoint"),
        (np.ones((3, 2)), np.zeros((3, 2)), "A must be a square matrix"),
        (np.diag([3.0, 2.0, 1.0]), np.zeros((2, 2)), "A has shape"),
    ])
    def test_bad_operands_rejected(self, A, E, message):
        with pytest.raises(ValueError, match=message):
            solve(A, E, verify=False)

    def test_degenerate_top_eigenvalue_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            solve(np.eye(3), np.zeros((3, 3)))

    def test_unit_norm_and_positive_overlap(self):
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A = np.diag(s.lambdas)
        E = sample_goe(n, 89)
        rep = solve(A, E, eig=diag_eig(s))
        assert np.linalg.norm(rep.u_tilde) == pytest.approx(1.0, abs=1e-12)
        assert rep.u_tilde[0].real >= 0  # e1 is the leading eigenvector of diagonal A


class TestLinearizedStatistic:
    def test_rescaled_linear_solution_stable_in_n(self):
        # max_j |[D L^{-1} E21]_j| / sqrt(log n): 99th percentile stays bounded
        p99 = {}
        for n in (64, 128, 256):
            s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
            vals = []
            for t in range(50):
                E = sample_goe(n, derive_stream(97, n, t))
                part = partition(diag_eig(s), E)
                d = build_shifted_gaps(s, part.e11)
                x = np.linalg.solve(np.diag(d) - part.e22, part.e21)
                vals.append(np.abs(d * x).max() / math.sqrt(math.log(n)))
            vals.sort()
            p99[n] = vals[int(0.99 * (len(vals) - 1))]
        assert p99[256] <= 1.25 * p99[64]
        assert all(v <= 3.0 for v in p99.values())


class TestShiftedDomination:
    def test_zero_noise(self):
        holds, margin = verify_shifted_domination(np.zeros((3, 3)), np.array([2.0, 1.0, 3.0]))
        assert holds and margin == pytest.approx(1.0)

    def test_1d_analytic(self):
        # n=1, tau=1: min over |z|=1 is (mu - X) - |g|
        for mu, x, g in [(2.0, 0.5, 1.0), (1.0, 0.2, 3.0), (5.0, -1.0, 2.0)]:
            holds, margin = verify_shifted_domination(
                np.array([[x]]), np.array([mu]), 1.0, np.array([g])
            )
            expected = (mu - x) - abs(g)
            assert margin == pytest.approx(expected, abs=1e-10)
            assert holds == (expected >= 0)

    def test_brute_force_agreement(self):
        # scaled instances: low curvature so 1e5 sphere samples resolve the
        # minimum to the 1e-3 tolerance
        for seed in (300, 303, 304, 305):
            rng = rng_from_stream(seed)
            X = 0.02 * sample_goe(5, seed=seed)
            g = 0.05 * rng.standard_normal(5)
            mu = 0.02 * (np.abs(rng.standard_normal(5)) + 1.0)
            holds, margin = verify_shifted_domination(X, mu, 0.5, g)
            Z = rng.standard_normal((100_000, 5))
            Z /= np.linalg.norm(Z, axis=1, keepdims=True)
            B = np.diag(mu) - X
            brute = float((np.einsum("ij,jk,ik->i", Z, B, Z) - Z @ (0.5 * g)).min())
            assert abs(margin - brute) <= 1e-3
            assert (margin >= 0) == (brute >= 0)

    def test_tau_zero_reduces_to_min_eig(self):
        X = sample_goe(6, 13)
        mu = np.full(6, 30.0)
        holds, margin = verify_shifted_domination(X, mu, 0.0)
        expected = 30.0 - np.linalg.eigvalsh(X)[-1]
        assert margin == pytest.approx(expected, abs=1e-10)
        assert holds

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            verify_shifted_domination(np.zeros((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            verify_shifted_domination(np.zeros((2, 2)), np.ones(2), tau=2.0)
