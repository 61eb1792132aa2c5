import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturb.bounds import best_p
from perturb.ensembles import (
    EntryDistribution,
    SpectrumSpec,
    derive_stream,
    realize_spectrum,
    rng_from_stream,
    sample_arrowhead_noise,
    sample_goe,
    sample_gue,
    sample_subgaussian_hermitian,
)
from perturb import rs_solver
from perturb.errors import (
    ContractionFailureError,
    GapCollapseError,
    InconsistentEigenvalueError,
    InvalidSpectrumError,
    NonConvergenceError,
    PerturbError,
)
from perturb.matcore import (
    EigDecomposition,
    Spectrum,
    force_hermitian,
    hermitian_eig,
    is_hermitian,
    lp_norm,
)
from perturb.rs_solver import (
    PartitionedPerturbation,
    SolverReport,
    assemble_eigvec,
    build_shifted_gaps,
    CERTIFICATE_CAP,
    DEFAULT_TOL,
    contraction_certificate,
    contraction_gate,
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

    @pytest.mark.parametrize("case", ["real", "complex", "non-hermitian", "complex-basis"])
    def test_identity_basis_matches_general_path(self, case):
        # the identity basis skips I* E I; -I is not detected as the identity and
        # takes the general path, whose products are exact as well. Neither
        # path symmetrizes a noise matrix that is not self-adjoint.
        n = 200
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        rng = rng_from_stream(29)
        E = rng.standard_normal((n, n))
        if case == "complex":
            E = E + 1j * rng.standard_normal((n, n))
        eye = np.eye(n, dtype=complex if case == "complex-basis" else float)
        if case == "non-hermitian":
            for basis in (eye, -eye):
                with pytest.raises(ValueError, match="E is not exactly self-adjoint"):
                    partition(EigDecomposition(s, basis), E)
            return
        E = force_hermitian(E)
        expected = force_hermitian(eye.T @ E @ eye)
        for basis in (eye, -eye):
            part = partition(EigDecomposition(s, basis), E)
            assert part.e11 == expected[0, 0].real
            assert np.array_equal(part.e12, expected[0, 1:])
            assert np.array_equal(part.e22, expected[1:, 1:])
            assert part.e22.dtype == expected.dtype
            assert is_hermitian(part.reassemble())

    def test_self_adjoint_noise_taken_as_is(self):
        # (E + E*)/2 would turn a finite 1e308 pair into inf; a self-adjoint E
        # is split without it
        s = spectrum(8, 6, 4, 2)
        E = np.zeros((4, 4))
        E[1, 3] = E[3, 1] = 1e308
        part = partition(diag_eig(s), E)
        assert np.array_equal(part.reassemble(), E)

    def test_identity_blocks_are_views(self):
        E = sample_goe(6, 13)
        part = partition(diag_eig(spectrum(6, 5, 4, 3, 2, 1)), E)
        assert np.shares_memory(part.e12, E) and np.shares_memory(part.e22, E)

    def test_identity_decided_once_per_decomposition(self, monkeypatch):
        eig = diag_eig(spectrum(3, 2, 1))
        seen = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(
            np, "count_nonzero", lambda a, *args, **kw: seen.append(a is eig.basis)
            or count_nonzero(a, *args, **kw)
        )
        for _ in range(2):
            solve(np.diag(eig.spectrum.lambdas), 0.1 * sample_goe(3, 7), eig=eig)
        assert seen.count(True) == 1

    def test_unit_diagonal_basis_is_conjugated(self):
        # a unit diagonal alone does not make the identity
        s = spectrum(3, 2, 1)
        basis = np.eye(3) + np.triu(np.ones((3, 3)), 1)
        E = sample_goe(3, 11)
        part = partition(EigDecomposition(s, basis), E)
        assert np.array_equal(part.reassemble(), force_hermitian(basis.T @ E @ basis))


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

    def test_strong_coupling_grid(self):
        # the quadratic term sits in the denominator, so the loop converges
        # with E12 scaled up to 1.5x its GOE size and certificates up to 0.7
        rng = rng_from_stream(101)
        for n in (9, 33):
            s = Spectrum(np.arange(n, 0, -1.0) * 2.0)
            for cert in (0.3, 0.5, 0.7):
                for coupling in (0.5, 1.0, 1.5):
                    for t in range(40):
                        E = scaled_noise(s, rng, cert)
                        E[0, 1:] *= coupling
                        E[1:, 0] *= coupling
                        q, _, _ = solve_q(partition(diag_eig(s), E), s)
                        top = np.linalg.eigh(np.diag(s.lambdas) + E)[1][:, -1]
                        direct = top[1:] / top[0]
                        assert np.linalg.norm(q - direct) <= 1e-10 * max(1.0, np.linalg.norm(direct))

    def test_closed_shifted_gap_raises(self):
        # with the gate lifted, E22 = -100 I drives Re(E12 q) to -1.2 on the
        # second step, closing d_1 + Re(E12 q); the loop stops with the gate's
        # bound, ||S||_F = 100 sqrt(1 + 1/4) on the first rung, while the
        # paper's ||E22 D^{-1}||_2 is 100
        s = spectrum(3, 2, 1)
        part = PartitionedPerturbation(0.0, np.array([0.1, 0.1]), -100.0 * np.eye(2))
        with pytest.raises(NonConvergenceError, match="not positive") as err:
            solve_q(part, s, certificate_cap=math.inf)
        assert err.value.rung == "weighted-frobenius"
        assert 100.0 * math.sqrt(1.25) <= err.value.certified_norm
        assert err.value.certified_norm == pytest.approx(100.0 * math.sqrt(1.25), rel=1e-12)
        d = build_shifted_gaps(s, part.e11)
        assert contraction_certificate(d, part.e22, 2.0) == pytest.approx(100.0, rel=1e-9)

    def test_certificate_rejection(self):
        s = spectrum(3, 2, 1)
        part = partition(diag_eig(s), np.diag([0.0, 2.0, 0.0]))  # E22 D^{-1} has norm 2 > cap
        with pytest.raises(ContractionFailureError) as err:
            solve_q(part, s)
        assert err.value.certified_norm > 0.9

    def test_iteration_budget(self):
        # iterations <= 10 log2(1/tol) when the certificate is <= 1/2 and
        # ||E21||_2 <= d_1 / 8: in x = D q the map x <- D (D + c)^{-1} (E22 D^{-1} x + E21),
        # c = Re(E12 D^{-1} x), sends the ball ||x||_2 <= 4 ||E21||_2 into itself
        # (|c| <= d_j / 16 there) with Lipschitz constant
        # <= (16/15) (1/2) + (16/15)^2 (3/64) < 5/8
        rng = rng_from_stream(47)
        s = Spectrum(np.arange(9, 0, -1.0) * 2.0)
        budget = 10 * math.log2(1e12)
        for t in range(20):
            part = partition(diag_eig(s), scaled_noise(s, rng, 0.5, coupling=1 / 8))
            d = build_shifted_gaps(s, part.e11)
            assert contraction_certificate(d, part.e22, 2.0) <= 0.5 + 1e-12
            _, iterations, gate = solve_q(part, s, tol=1e-12)
            assert gate.bound <= CERTIFICATE_CAP
            assert iterations <= budget


def abs2(z) -> Fraction:
    """|z|^2 of a float or complex entry, exactly."""
    z = complex(z)
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def random_hermitian(rng, m: int, complex_case: bool) -> np.ndarray:
    M = rng.standard_normal((m, m))
    if complex_case:
        M = M + 1j * rng.standard_normal((m, m))
    return force_hermitian(M)


class TestContractionGate:
    @pytest.mark.parametrize("noise", ["goe", "gue", "arrowhead"])
    def test_frobenius_rung_bounds_spectral_norm(self, noise):
        # ||S||_2 <= padded ||S||_F <= ||S||_F (1 + 1e-9); a random eigenbasis
        # puts the arrowhead's first row and column into E22 as well
        n = 40
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        rng = rng_from_stream(127)
        for t in range(10):
            Q = np.linalg.qr(random_hermitian(rng, n, noise == "gue"))[0]
            if noise == "goe":
                E = sample_goe(n, derive_stream(127, t))
            elif noise == "gue":
                E = sample_gue(n, derive_stream(127, t))
            else:
                E = sample_arrowhead_noise(n, derive_stream(127, t))[1]
            part = partition(EigDecomposition(s, Q), E)
            d = build_shifted_gaps(s, part.e11)
            S = part.e22 / np.sqrt(np.outer(d, d))
            gate = contraction_gate(d, part.e22, 2.0, math.inf)
            assert gate.rung == "weighted-frobenius"
            assert np.abs(np.linalg.eigvalsh(S)).max() <= gate.bound
            assert gate.bound <= np.linalg.norm(S) * (1 + 1e-9)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_pad_covers_rounding(self, complex_case):
        # in exact rational arithmetic, bound^2 >= sum_ij |e_ij|^2 / (d_i d_j);
        # on the rank-one blocks ||S||_F is ||S||_2 itself
        rng = rng_from_stream(131)
        for t in range(40):
            m = int(rng.integers(2, 9))
            if t % 2:
                v = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_case else 0)
                e22 = np.outer(v, v.conj())
            else:
                e22 = random_hermitian(rng, m, complex_case)
            d = rng.uniform(0.5, 3.0, m)
            bound = rs_solver._weighted_frobenius_upper(e22, d)
            exact = sum(
                abs2(e22[i, j]) / (Fraction(d[i]) * Fraction(d[j]))
                for i in range(m) for j in range(m)
            )
            assert Fraction(bound) ** 2 >= exact

    def test_ladder(self):
        # E22 = 0.5 I on unit gaps: ||S||_F = 1 exceeds the cap and the paper's
        # ||E22 D^{-1}||_2 = 0.5 admits the loop
        s = spectrum(2, 1, 1, 1, 1)
        part = PartitionedPerturbation(0.0, np.full(4, 0.01), 0.5 * np.eye(4))
        _, _, gate = solve_q(part, s)
        assert gate.rung == "paper-norm"
        assert gate.bound == pytest.approx(0.5, rel=1e-9)
        # both rungs above the cap: the smaller bound is reported, with its rung
        part = PartitionedPerturbation(0.0, np.full(4, 0.01), 0.95 * np.eye(4))
        with pytest.raises(ContractionFailureError, match="paper-norm") as err:
            solve_q(part, s)
        assert err.value.rung == "paper-norm"
        assert err.value.certified_norm == pytest.approx(0.95, rel=1e-9)
        # gaps (1, 100) and E22 = [[0, 8], [8, 0]]: ||S||_F = 8 sqrt(2) / 10,
        # ||E22 D^{-1}||_2 = 8
        s = spectrum(101, 100, 1)
        part = PartitionedPerturbation(0.0, np.full(2, 0.01), np.array([[0.0, 8.0], [8.0, 0.0]]))
        with pytest.raises(ContractionFailureError) as err:
            solve_q(part, s)
        assert err.value.rung == "weighted-frobenius"
        assert err.value.certified_norm == pytest.approx(0.8 * math.sqrt(2), rel=1e-9)


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


class TestMatvec:
    @staticmethod
    def _bands(monkeypatch, M, x):
        bands, matmul = [], np.matmul

        def counted(a, b, **kwargs):
            bands.append(a.shape[0])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        try:
            return rs_solver._matvec(M, x), bands
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_bands_match_one_product(self, monkeypatch, extra):
        # a real product over _MATVEC_BAND entries goes to BLAS in bands of a
        # multiple of four rows, the last never a single row
        rng = rng_from_stream(73)
        cols = 257
        step = rs_solver._MATVEC_BAND // cols // 4 * 4
        rows = 2 * step + extra
        M, x = rng.standard_normal((rows, cols)), rng.standard_normal(cols)
        got, bands = self._bands(monkeypatch, M, x)
        assert sum(bands) == rows and len(bands) == (3 if extra > 1 else 2)
        assert all(b % 4 == 0 for b in bands[:-1]) and bands[-1] >= 2
        assert all(b * cols <= rs_solver._MATVEC_BAND + cols for b in bands)
        np.testing.assert_allclose(got, M @ x, rtol=0, atol=1e-12)

    def test_complex_and_small_products_whole(self, monkeypatch):
        rng = rng_from_stream(79)
        n = 1024
        small = rng.standard_normal((64, 64))
        big = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for M in (small, big):
            x = rng.standard_normal(M.shape[1])
            got, bands = self._bands(monkeypatch, M, x)
            assert bands == []
            assert got.tobytes() == (M @ x).tobytes()


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
        q, iterations, gate = solve_q(part, s, certificate_cap=math.inf)
        rep = SolverReport(
            q=q,
            u_tilde=assemble_eigvec(eig, q),
            lambda_tilde=eigenvalue_from_q(s.lambdas[0], part.e11, part.e12, q),
            iterations=iterations,
            contraction_upper=gate.bound,
            contraction_rung=gate.rung,
        )
        verify_solution(A, E, rep, s, eig=eig)
        assert np.allclose(rep.q, 0)
        assert rep.lambda_tilde == pytest.approx(3.0)
        assert not rep.leading_certified

    def test_second_eigenpair_rejected(self):
        # the exact second eigenpair of A~ clears lambda~ > (lambda1 + lambda2)/2
        # and has a zero residual: the proof's upper side fails, the oracle rejects
        s = spectrum(3, 2, 1)
        A = np.diag(s.lambdas)
        E = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.0]])
        w, V = np.linalg.eigh(A + E)
        lam, u = float(w[-2]), V[:, -2] * np.sign(V[0, -2])
        assert lam > 2.5
        rep = SolverReport(
            q=u[1:] / u[0], u_tilde=u, lambda_tilde=lam, iterations=0, contraction_upper=0.0
        )
        verify_solution(A, E, rep, s, eig=diag_eig(s))
        assert rep.residual2 <= 1e-14
        assert not rep.leading_certified

    @pytest.mark.parametrize("cause", ["shift", "cholesky"])
    def test_inconclusive_proof_uses_oracle(self, monkeypatch, cause):
        if cause == "shift":
            # ||A~||_inf ~ 1e6 keeps the lower side under tau ~ 2e-9, while
            # s = 12 u trace(t I - A~) ~ 2.7e-9 reaches tau: Cholesky is never tried
            s = spectrum(1.0, 0.0, -1e6, -1e6 - 1)
            E = 1e-3 * sample_goe(4, 23)

            def cholesky(*args, **kwargs):
                raise AssertionError("Cholesky attempted although s >= tau")
        else:
            s = realize_spectrum(SpectrumSpec("multiscale", 32, {"eps": 1.0}))
            E = sample_goe(32, 23)

            def cholesky(*args, **kwargs):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
        A = np.diag(s.lambdas)
        rep = solve(A, E, eig=diag_eig(s), verify=False)
        assert rep.method == "rs"
        if cause == "shift":
            A_tilde, lam, u = A + E, rep.lambda_tilde, rep.u_tilde
            pad, tau = 12 * np.finfo(float).eps / 2, 1e-9 * (1 + abs(rep.lambda_tilde))
            r = np.linalg.norm(A_tilde @ u - lam * u) + pad * np.abs(A_tilde).sum(axis=1).max()
            assert r <= tau <= pad * np.trace(lam * np.eye(4) - A_tilde)
        oracle = verify_solution(
            A, E, SolverReport(**vars(rep)), s, eig=diag_eig(s), tilde_eig=hermitian_eig(A + E)
        )
        calls, interlacing = [], []

        def counted(M):
            calls.append(1)
            return hermitian_eig(M)

        def inconclusive(*args):
            # the interlacing rung is inconclusive too: only the oracle is left
            interlacing.append(1)
            return math.inf

        monkeypatch.setattr(rs_solver, "hermitian_eig", counted)
        monkeypatch.setattr(rs_solver, "_interlacing_bound", inconclusive)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        verify_solution(A, E, rep, s, eig=diag_eig(s))
        assert len(interlacing) == 1
        assert len(calls) == 1
        assert rep.leading_certified == oracle.leading_certified

    def test_interlacing_rejects_second_eigenpair(self):
        # the second eigenpair of A~ has a residual near zero, but by interlacing
        # lambda_max(A~[1:, 1:]) is at least its eigenvalue: the bound is never below 1
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A_tilde = np.diag(s.lambdas) + sample_goe(n, 41)
        w, V = np.linalg.eigh(A_tilde)
        lam, u = float(w[-2]), V[:, -2]
        residual2 = float(np.linalg.norm(A_tilde @ u - lam * u))
        assert residual2 <= 1e-12 * abs(lam)
        assert rs_solver._interlacing_bound(A_tilde, lam) >= 1.0
        tau = 1e-9 * (1.0 + abs(lam))
        assert not rs_solver._top_eigenvalue_within(A_tilde, lam, residual2, tau, identity=True)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_interlacing_pad_covers_rounding(self, complex_case):
        # in exact rational arithmetic with g_j = t - a_j,
        # bound^2 >= sum_{i != j} |f_ij|^2 / (g_i g_j)
        rng = rng_from_stream(137)
        for trial in range(40):
            m = int(rng.integers(3, 10))
            B = random_hermitian(rng, m, complex_case)
            B[np.diag_indices(m)] -= 4.0 * np.arange(m)
            t = float(B.diagonal().real[1:].max() + rng.uniform(0.5, 3.0))
            bound = rs_solver._interlacing_bound(B, t)
            g = [Fraction(t) - Fraction(a) for a in B.diagonal().real[1:]]
            exact = sum(
                abs2(B[1 + i, 1 + j]) / (g[i] * g[j])
                for i in range(m - 1) for j in range(m - 1) if i != j
            )
            assert Fraction(bound) ** 2 >= exact

    def test_interlacing_uses_padded_residual(self, monkeypatch):
        # u~ = e1 is an exact eigenvector (residual 0), but a_1 = 1 - 4 ulp lies
        # within r = pad ||A~||_inf = 12 u of lam = 1: interlacing cannot
        # separate lambda_2 from lam - r, and the Cholesky proof decides
        calls = []
        cholesky = np.linalg.cholesky

        def counted(M):
            calls.append(1)
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        A_tilde = np.diag([1.0, 1.0 - 4e-16, 0.5, 0.25])
        assert rs_solver._top_eigenvalue_within(A_tilde, 1.0, 0.0, 2e-9, identity=True)
        assert len(calls) == 1

    def test_interlacing_needs_identity_basis(self, monkeypatch):
        # -I is an eigenbasis of diagonal A but not the identity: the interlacing
        # proof is skipped there and the Cholesky proof certifies instead
        interlacing, factorizations = [], []
        bound, cholesky = rs_solver._interlacing_bound, np.linalg.cholesky

        def counted_bound(*args):
            interlacing.append(1)
            return bound(*args)

        def counted_cholesky(M):
            factorizations.append(1)
            return cholesky(M)

        monkeypatch.setattr(rs_solver, "_interlacing_bound", counted_bound)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A, E = np.diag(s.lambdas), sample_goe(n, 43)
        for basis, used in ((np.eye(n), 1), (-np.eye(n), 0)):
            interlacing.clear()
            factorizations.clear()
            rep = solve(A, E, eig=EigDecomposition(s, basis))
            assert rep.method == "rs" and rep.leading_certified
            assert (len(interlacing), len(factorizations)) == (used, 1 - used)

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
            "contraction_upper", "contraction_rung", "residual2", "orth_residual",
            "coord_ratios", "q_norm2", "leading_certified", "method", "fallback_reason",
        ):
            assert key in d
        assert d["fallback_reason"] == ""
        assert d["contraction_rung"] == "weighted-frobenius"

    @pytest.mark.parametrize("E,reason", [
        # E22 D^{-1} has norm 1.1, above the cap
        (1.1 * np.outer([0, 1, 0], [0, 1, 0]), "ContractionFailureError: iteration operator norm bound 1.1"),
        # E11 = -2 closes the shifted gaps 1 and 2
        (np.diag([-2.0, 0.0, 0.0]), "GapCollapseError: shifted gap collapsed"),
    ])
    def test_fallback_reason(self, E, reason):
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), E)
        assert rep.method == "oracle-fallback"
        assert rep.fallback_reason.startswith(reason)
        assert rep.to_dict()["fallback_reason"] == rep.fallback_reason

    @pytest.mark.parametrize("method", ["rs", "oracle-fallback"])
    def test_no_oracle_on_rs_path(self, monkeypatch, method):
        # with eig passed, only the fallback itself runs the dense oracle
        calls = []

        def counted(M):
            calls.append(1)
            return hermitian_eig(M)

        monkeypatch.setattr(rs_solver, "hermitian_eig", counted)
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_goe(n, 31)
        if method == "oracle-fallback":
            E = 40.0 * E
        rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s), verify=True)
        assert rep.method == method
        assert rep.leading_certified
        assert len(calls) == (method == "oracle-fallback")

    def test_no_large_eigensolve_on_rs_path(self, monkeypatch):
        # on the identity basis the gate's weighted-Frobenius rung and the
        # interlacing proof need no eigenproblem and no factorization at all
        calls = []
        for name in ("eigvalsh", "eigh", "cholesky"):
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        n = 256
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        rep = solve(np.diag(s.lambdas), sample_goe(n, 31), eig=diag_eig(s), verify=True)
        assert rep.method == "rs" and rep.leading_certified
        assert rep.contraction_rung == "weighted-frobenius"
        assert calls == []

    @pytest.mark.parametrize("method,scale", [("rs", 1.0), ("oracle-fallback", 40.0)])
    def test_replay_byte_identical(self, method, scale):
        n = 64
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        runs = [solve(np.diag(s.lambdas), scale * sample_goe(n, 33)) for _ in range(2)]
        assert runs[0].method == method
        assert json.dumps(runs[0].to_dict()) == json.dumps(runs[1].to_dict())

    @pytest.mark.parametrize("pass_eig", [False, True])
    def test_overflowing_noise_entry(self, pass_eig):
        # ||S||_F and G = M* M overflow for this finite E; the paper-norm rung's
        # eigensolver failure becomes a NumericFailureError and the oracle answers
        s = Spectrum(2.0 * np.arange(8, 0, -1.0))
        E = np.zeros((8, 8))
        E[2, 5] = E[5, 2] = 1e308
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s) if pass_eig else None)
        except PerturbError:
            return
        assert rep.method == "oracle-fallback"
        assert rep.fallback_reason.startswith("NumericFailureError")
        assert rep.leading_certified
        assert rep.lambda_tilde == 1e308
        # every field is finite, save the bound the failed norm could not give
        assert (rep.contraction_upper, rep.contraction_rung) == (math.inf, "")
        for name, value in vars(rep).items():
            if name != "contraction_upper" and not isinstance(value, str):
                assert np.all(np.isfinite(value)), name

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_noise_residuals_finite(self, scale):
        # residuals near 1e185 would overflow a plain sum of squares, here
        # and in the oracle's reconstruction check
        s = Spectrum(2.0 * np.arange(8, 0, -1.0))
        rep = solve(np.diag(s.lambdas), scale * sample_goe(8, 3), eig=diag_eig(s))
        assert rep.method == "oracle-fallback" and rep.leading_certified
        assert 0.0 < rep.residual2 < math.inf
        assert 0.0 < rep.orth_residual < math.inf

    def test_inconsistent_eigenvalue_falls_back(self, monkeypatch):
        def complex_eigenvalue(*args, **kwargs):
            raise InconsistentEigenvalueError("E12 q has imaginary part 1")

        monkeypatch.setattr(rs_solver, "eigenvalue_from_q", complex_eigenvalue)
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7))
        assert rep.method == "oracle-fallback"
        assert rep.fallback_reason == "InconsistentEigenvalueError: E12 q has imaginary part 1"
        assert rep.leading_certified
        assert 0.0 < rep.contraction_upper <= 0.9  # the gate solve_q passed
        assert rep.contraction_rung == "weighted-frobenius"

    def test_strong_coupling_still_solved(self):
        # ||E21||_2 near the gap: the loop still converges on every draw, and
        # every report is the certified leading pair
        rng = rng_from_stream(47)
        s = Spectrum(np.arange(9, 0, -1.0) * 2.0)
        A = np.diag(s.lambdas)
        for t in range(20):
            E = scaled_noise(s, rng, 0.5)
            rep = solve(A, E, eig=diag_eig(s))
            assert rep.method == "rs"
            assert rep.leading_certified
            oracle = hermitian_eig(A + E)
            assert 1 - abs(np.vdot(rep.u_tilde, oracle.basis[:, 0])) <= 1e-9

    @pytest.mark.parametrize("method", ["rs", "oracle-fallback"])
    def test_certificate_computed_once(self, monkeypatch, method):
        # one gate per solve; its paper-norm rung runs only when the
        # weighted-Frobenius rung exceeds the cap
        gates, papers = [], []

        def counted_gate(*args, **kwargs):
            gates.append(1)
            return contraction_gate(*args, **kwargs)

        def counted_paper(*args, **kwargs):
            papers.append(1)
            return contraction_certificate(*args, **kwargs)

        monkeypatch.setattr(rs_solver, "contraction_gate", counted_gate)
        monkeypatch.setattr(rs_solver, "contraction_certificate", counted_paper)
        s = spectrum(3, 2, 1)
        if method == "rs":
            E = 0.1 * sample_goe(3, 7)
        else:  # E22 D^{-1} has norm 1.1, above the cap
            E = (s.delta + 0.1) * np.outer([0, 1, 0], [0, 1, 0])
        rep = solve(np.diag(s.lambdas), E)
        assert rep.method == method
        assert len(gates) == 1
        assert len(papers) == (method == "oracle-fallback")

    @pytest.mark.parametrize("A,E,message", [
        (np.diag([3.0, 2.0, 1.0]), np.diag([0.0, math.nan, 0.0]), "E has non-finite entries"),
        (np.diag([3.0, 2.0, 1.0]), np.triu(np.ones((3, 3))), "E is not exactly self-adjoint"),
        (np.ones((3, 2)), np.zeros((3, 2)), "A must be a square matrix"),
        (np.diag([3.0, 2.0, 1.0]), np.zeros((2, 2)), "A has shape"),
    ])
    def test_bad_operands_rejected(self, A, E, message):
        with pytest.raises(ValueError, match=message):
            solve(A, E, verify=False)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"tol": -1e-9}, "tol must be finite and positive"),
        ({"tol": math.inf}, "tol must be finite and positive"),
        ({"tol": math.nan}, "tol must be finite and positive"),
        ({"p": math.nan}, "p must be at least 1"),
        ({"p": 0.5}, "p must be at least 1"),
    ])
    def test_bad_parameters_rejected(self, kwargs, message):
        s = spectrum(3, 2, 1)
        with pytest.raises(ValueError, match=message):
            solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7), **kwargs)

    def test_subnormal_tol_reports(self):
        # the step cap grows with log2(1/tol), which stays finite for any positive tol
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7), tol=5e-324)
        assert rep.method in ("rs", "oracle-fallback") and rep.leading_certified

    @pytest.mark.parametrize("basis,checks", [("identity", 2), ("rotated", 3)])
    def test_self_adjointness_checked_once_per_matrix(self, monkeypatch, basis, checks):
        # A at entry, E in partition, and U* E U on a general basis
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A, eig = np.diag(s.lambdas), diag_eig(s)
        if basis == "rotated":
            Q = np.linalg.qr(rng_from_stream(5).standard_normal((n, n)))[0]
            A, eig = force_hermitian((Q * s.lambdas) @ Q.T), EigDecomposition(s, Q)
        calls = []
        monkeypatch.setattr(rs_solver, "is_hermitian", lambda M: calls.append(1) or is_hermitian(M))
        rep = solve(A, sample_goe(n, 19), eig=eig)
        assert rep.method == "rs" and rep.leading_certified
        assert len(calls) == checks

    def test_degenerate_top_eigenvalue_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            solve(np.eye(3), np.zeros((3, 3)))

    def test_degenerate_top_of_perturbed_matrix_rejected(self):
        # the fallback's A + E = diag(3, 3, 1) has no leading eigenvector to report
        with pytest.raises(InvalidSpectrumError):
            solve(np.diag([3.0, 2.0, 1.0]), np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("pass_eig", [False, True])
    @pytest.mark.parametrize("scale", [1e10, 1e100, 1e300])
    @pytest.mark.parametrize("noise", [sample_goe, sample_gue])
    def test_scaled_input_solved_as_at_unit_scale(self, noise, scale, pass_eig):
        # no check may depend on the scale of A + E: not the imaginary part of
        # E12 q, nor a sum of squares that overflows
        n = 64
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = noise(n, 3)
        top = np.linalg.eigvalsh(np.diag(s.lambdas) + E)[-1]
        eig = diag_eig(Spectrum(scale * s.lambdas)) if pass_eig else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(scale * np.diag(s.lambdas), scale * E, eig=eig)
        assert rep.method == "rs" and rep.leading_certified
        assert rep.lambda_tilde == pytest.approx(scale * top, rel=1e-9)

    def test_unit_norm_and_positive_overlap(self):
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A = np.diag(s.lambdas)
        E = sample_goe(n, 89)
        rep = solve(A, E, eig=diag_eig(s))
        assert np.linalg.norm(rep.u_tilde) == pytest.approx(1.0, abs=1e-12)
        assert rep.u_tilde[0].real >= 0  # e1 is the leading eigenvector of diagonal A


class TestSolveContract:
    @given(
        n=st.integers(2, 48),
        scale=st.floats(0.0, 100.0),
        tol=st.sampled_from([1e-6, 1e-9, DEFAULT_TOL]),
        p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        noise=st.sampled_from(["goe", "gue", "arrowhead"]),
        basis=st.sampled_from(["identity", "oracle", "rotated"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_tagged_finite_and_correct(self, n, scale, tol, p, noise, basis, seed):
        # solve returns a finite, method-tagged report or raises a typed error;
        # rs implies a gate bound under the cap, and a certified pair is eigh's
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A, eig = np.diag(s.lambdas), diag_eig(s)
        if basis == "rotated":
            Q = np.linalg.qr(rng_from_stream(seed).standard_normal((n, n)))[0]
            A, eig = force_hermitian((Q * s.lambdas) @ Q.T), EigDecomposition(s, Q)
        elif basis == "oracle":
            eig = None
        if noise == "goe":
            E = sample_goe(n, seed)
        elif noise == "gue":
            E = sample_gue(n, seed)
        else:
            E = sample_arrowhead_noise(n, seed)[1]
        try:
            rep = solve(A, scale * E, p=p, tol=tol, eig=eig)
        except (PerturbError, ValueError):
            return
        assert rep.method in ("rs", "oracle-fallback")
        for name, value in vars(rep).items():
            if name == "contraction_upper" and value == math.inf:
                assert rep.fallback_reason.startswith(("GapCollapseError", "NumericFailureError"))
            elif not isinstance(value, str):
                assert np.all(np.isfinite(value)), name
        if rep.method == "rs":
            assert rep.contraction_upper <= CERTIFICATE_CAP
            assert rep.contraction_rung in ("weighted-frobenius", "paper-norm")
        if rep.leading_certified:
            w, V = np.linalg.eigh(A + scale * E)
            assert abs(rep.lambda_tilde - w[-1]) <= 1e-9 * (1.0 + abs(w[-1]))
            assert 1.0 - abs(np.vdot(rep.u_tilde, V[:, -1])) <= 1e-9


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
