import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturb.bounds import best_p, opnorm_pp_upper, verify_shifted_domination
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
from perturb import bounds, matcore, rs_solver
from perturb.errors import (
    GapCollapseError,
    InconsistentEigenvalueError,
    InvalidSpectrumError,
    NonConvergenceError,
    NumericFailureError,
    PerturbError,
)
from perturb.matcore import (
    EigDecomposition,
    Spectrum,
    force_hermitian,
    hermitian_eig,
    is_hermitian,
    lp_norm,
    top_eigpair,
)
from perturb.rs_solver import (
    PartitionedPerturbation,
    SolverReport,
    assemble_eigvec,
    build_shifted_gaps,
    CERTIFICATE_CAP,
    DEFAULT_TOL,
    coordinate_bounds,
    is_leading,
    solve,
    solve_q,
)


def spectrum(*vals):
    return Spectrum(np.array(vals, dtype=float))


def diag_eig(s: Spectrum) -> EigDecomposition:
    return EigDecomposition(spectrum=s, basis=np.eye(s.n))


# Couples u1 and u2 in the 3 x 3 fallback examples: the top eigenvector of a
# diagonal A + E is a coordinate vector, orthogonal to u1 unless it is u1,
# and then no q expands it.
COUPLING = np.array([[0.0, 0.01, 0.0], [0.01, 0.0, 0.0], [0.0, 0.0, 0.0]])


class TestPartition:
    def test_zero_noise(self):
        eig = hermitian_eig(np.diag([3.0, 2.0, 1.0]))
        part = rs_solver._blocks(eig, np.zeros((3, 3)))
        assert part.e11 == 0.0
        assert np.all(part.e12 == 0) and np.all(part.e22 == 0)

    def test_diagonal_basis_passthrough(self):
        # diagonal A: identity eigenbasis, so the blocks are E's own blocks
        s = spectrum(3, 2, 1)
        E = sample_goe(3, 11)
        part = rs_solver._blocks(diag_eig(s), E)
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
        part = rs_solver._blocks(eig, E)
        tilde = eig.basis.conj().T @ E @ eig.basis
        scale = np.linalg.norm(E, "fro")
        assert abs(part.e11 - tilde[0, 0]) <= 1e-12 * scale
        assert np.linalg.norm(part.e12 - tilde[0, 1:]) <= 1e-12 * scale
        assert np.linalg.norm(part.e22 - tilde[1:, 1:]) <= 1e-12 * scale
        assert np.array_equal(part.e21, part.e12.conj())
        assert is_hermitian(part.e22)

    def test_dimension_mismatch(self):
        # solve proves E of the basis's order at its boundary, before any
        # stage runs, for an identity basis as for any other
        s = spectrum(3, 2, 1)
        rotated = np.linalg.qr(rng_from_stream(3).standard_normal((3, 3)))[0]
        A, E = np.diag([4.0, 3.0, 2.0, 1.0]), 0.1 * sample_goe(4, 7)
        for eig in (diag_eig(s), EigDecomposition(s, rotated)):
            for verify in (False, True):
                with pytest.raises(ValueError, match=r"noise shape \(4, 4\) does not match basis dimension 3"):
                    solve(A, E, eig=eig, verify=verify)

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    @pytest.mark.parametrize("complex_case", [False, True])
    def test_conjugated_noise_hermitian_by_construction(self, n, complex_case):
        # off the identity basis U* E U comes from 3/4 of its second product
        # with its upper triangle mirrored: exactly Hermitian with a real
        # diagonal, U* E U to rounding, and _blocks' blocks are its blocks
        rng = rng_from_stream(37)
        A, E = rng.standard_normal((2, n, n))
        if complex_case:
            A, E = A + 1j * rng.standard_normal((n, n)), E + 1j * rng.standard_normal((n, n))
        A, E = force_hermitian(A), force_hermitian(E)
        eig = hermitian_eig(A)
        U = eig.basis
        tilde = matcore._hermitian_product(U.conj().T, E @ U)
        assert tilde.dtype == np.result_type(U, E)
        assert is_hermitian(tilde) and np.all(tilde.diagonal().imag == 0)
        reference = U.conj().T @ (E @ U)
        eps = np.finfo(np.float64).eps
        assert np.linalg.norm(tilde - reference) <= 8 * n * eps * np.linalg.norm(E)
        part = rs_solver._blocks(eig, E)
        assert part.e11 == tilde[0, 0].real
        assert np.array_equal(part.e12, tilde[0, 1:]) and np.array_equal(part.e22, tilde[1:, 1:])

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
                    solve(np.diag(s.lambdas), E, eig=EigDecomposition(s, basis))
            return
        E = force_hermitian(E)
        expected = force_hermitian(eye.T @ E @ eye)
        for basis in (eye, -eye):
            part = rs_solver._blocks(EigDecomposition(s, basis), E)
            assert part.e11 == expected[0, 0].real
            assert np.array_equal(part.e12, expected[0, 1:])
            assert np.array_equal(part.e22, expected[1:, 1:])
            assert part.e22.dtype == expected.dtype
            assert np.array_equal(part.e21, expected[1:, 0]) and is_hermitian(part.e22)

    def test_self_adjoint_noise_taken_as_is(self):
        # (E + E*)/2 would turn a finite 1e308 pair into inf; a self-adjoint E
        # is split without it
        s = spectrum(8, 6, 4, 2)
        E = np.zeros((4, 4))
        E[1, 3] = E[3, 1] = 1e308
        part = rs_solver._blocks(diag_eig(s), E)
        assert part.e11 == E[0, 0] and np.array_equal(part.e12, E[0, 1:])
        assert np.array_equal(part.e22, E[1:, 1:])

    def test_identity_blocks_are_views(self):
        E = sample_goe(6, 13)
        part = rs_solver._blocks(diag_eig(spectrum(6, 5, 4, 3, 2, 1)), E)
        assert np.shares_memory(part.e12, E) and np.shares_memory(part.e22, E)

    def test_identity_decided_once_per_decomposition(self, monkeypatch):
        eig = diag_eig(spectrum(3, 2, 1))
        seen, is_diagonal = [], matcore._is_diagonal
        monkeypatch.setattr(
            matcore, "_is_diagonal", lambda M: seen.append(M is eig.basis) or is_diagonal(M)
        )
        for _ in range(2):
            solve(np.diag(eig.spectrum.lambdas), 0.1 * sample_goe(3, 7), eig=eig)
        assert seen.count(True) == 1

    def test_unit_diagonal_basis_is_conjugated(self):
        # a unit diagonal alone does not make the identity
        s = spectrum(3, 2, 1)
        basis = np.eye(3) + np.triu(np.ones((3, 3)), 1)
        E = sample_goe(3, 11)
        part = rs_solver._blocks(EigDecomposition(s, basis), E)
        expected = force_hermitian(basis.T @ E @ basis)
        assert part.e11 == expected[0, 0]
        assert np.array_equal(part.e12, expected[0, 1:])
        assert np.array_equal(part.e22, expected[1:, 1:])


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


def spectral_norm(e22: np.ndarray, d: np.ndarray) -> float:
    """||S||_2 for S = D^{-1/2} E22 D^{-1/2}, from eigvalsh of the formed S."""
    return float(np.abs(np.linalg.eigvalsh(e22 / np.sqrt(np.outer(d, d)))).max())


def paper_norm(d: np.ndarray, e22: np.ndarray, p: float) -> float:
    """The paper's ||E22 D^{-1}||_p, certified from above (a record statistic, not the gate)."""
    return opnorm_pp_upper(e22 / d[np.newaxis, :], p)


def scaled_noise(s: Spectrum, rng, scale: float, coupling: float | None = None) -> np.ndarray:
    """Real symmetric noise, E11 = 0, whose E22 block has paper's norm ``scale`` at p = 2.

    With ``coupling`` set, E12 is rescaled so that ||E21||_2 = coupling * d_1.
    """
    E = force_hermitian(rng.standard_normal((s.n, s.n)))
    E[0, 0] = 0.0
    d = build_shifted_gaps(s, 0.0)
    E[1:, 1:] *= scale / paper_norm(d, E[1:, 1:], 2.0)
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
        part = rs_solver._blocks(diag_eig(s), np.diag([0.3, 0.1, -0.2]))
        q, iterations = solve_q(part, s)
        assert np.all(q == 0)
        assert iterations == 1

    def test_matches_dense_solve(self):
        # q is the dense oracle's leading eigenvector scaled to unit head
        rng = rng_from_stream(37)
        s = Spectrum(np.arange(7, 0, -1.0) * 3.0)
        for t in range(10):
            E = scaled_noise(s, rng, 0.4)
            part = rs_solver._blocks(diag_eig(s), E)
            q, _ = solve_q(part, s)
            top = hermitian_eig(np.diag(s.lambdas) + E).basis[:, 0]
            direct = top[1:] / top[0]
            assert np.linalg.norm(q - direct) <= 1e-10 * np.linalg.norm(direct)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_inverse_norm_bound(self, p):
        # L q = rhs = E21 - (E12 q) q with L = D - E22. In y = D^{1/2} q,
        # y = (I - S)^{-1} D^{-1/2} rhs, so ||y||_2 <= 2 ||D^{-1/2} rhs||_2
        # whenever ||S||_2 <= 1/2. In the paper's norm,
        # D q = (I - E22 D^{-1})^{-1} rhs, so ||D q||_p <= 2 ||rhs||_p whenever
        # ||E22 D^{-1}||_p <= 1/2, which the gate no longer reads
        rng = rng_from_stream(43)
        s = Spectrum(np.arange(9, 0, -1.0) * 2.0)
        done = paper_done = 0
        while done < 100:
            E = force_hermitian(rng.standard_normal((9, 9))) * 0.4
            part = rs_solver._blocks(diag_eig(s), E)
            d = build_shifted_gaps(s, part.e11)
            if not spectral_norm(part.e22, d) <= 0.5:
                continue
            q, _ = solve_q(part, s)
            rhs = part.e21 - (part.e12 @ q) * q
            root = np.sqrt(d)
            assert lp_norm(root * q, 2) <= 2.0 * lp_norm(rhs / root, 2) + 1e-9
            done += 1
            if paper_norm(d, part.e22, p) <= 0.5:
                assert lp_norm(d * q, p) <= 2.0 * lp_norm(rhs, p) + 1e-9
                paper_done += 1
        assert paper_done >= 50

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
                        q, _ = solve_q(rs_solver._blocks(diag_eig(s), E), s)
                        top = np.linalg.eigh(np.diag(s.lambdas) + E)[1][:, -1]
                        direct = top[1:] / top[0]
                        assert np.linalg.norm(q - direct) <= 1e-10 * max(1.0, np.linalg.norm(direct))

    def test_closed_shifted_gap_raises(self):
        # the loop runs ungated: E22 = -100 I drives Re(E12 q) to -1.2 on the
        # second step, closing d_1 + Re(E12 q). The gate's bound is
        # ||S||_F = 100 sqrt(1 + 1/4), while the paper's ||E22 D^{-1}||_2 is 100
        s = spectrum(3, 2, 1)
        part = PartitionedPerturbation(0.0, np.array([0.1, 0.1]), -100.0 * np.eye(2))
        with pytest.raises(NonConvergenceError, match="not positive"):
            solve_q(part, s)
        d = build_shifted_gaps(s, part.e11)
        bound = rs_solver._weighted_frobenius_upper(part.e22, d)
        assert 100.0 * math.sqrt(1.25) <= bound
        assert bound == pytest.approx(100.0 * math.sqrt(1.25), rel=1e-12)
        assert paper_norm(d, part.e22, 2.0) == pytest.approx(100.0, rel=1e-9)

    def test_certificate_rejection(self):
        s = spectrum(3, 2, 1)
        E = np.diag([0.0, 2.0, 0.0])  # E22 D^{-1} has norm 2 > cap
        E[0, 1] = E[1, 0] = 0.01  # so the fallback's eigenvector overlaps u1
        part = rs_solver._blocks(diag_eig(s), E)
        bound = rs_solver._weighted_frobenius_upper(part.e22, build_shifted_gaps(s, part.e11))
        assert bound > 0.9
        rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s))
        assert rep.fallback_reason.startswith("ContractionFailureError")
        assert rep.contraction_upper == bound

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
            part = rs_solver._blocks(diag_eig(s), scaled_noise(s, rng, 0.5, coupling=1 / 8))
            d = build_shifted_gaps(s, part.e11)
            assert paper_norm(d, part.e22, 2.0) <= 0.5 + 1e-12
            assert rs_solver._weighted_frobenius_upper(part.e22, d) <= CERTIFICATE_CAP
            _, iterations = solve_q(part, s, tol=1e-12)
            assert iterations <= budget


def abs2(z) -> Fraction:
    """|z|^2 of a float or complex entry, exactly."""
    z = complex(z)
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def exact_weighted_square(M: np.ndarray, d: np.ndarray) -> Fraction:
    """sum_ij |M_ij|^2 / (d_i d_j) in exact arithmetic.

    Integer arithmetic: every real or imaginary part is X 2^low with an
    integer X and one exponent low for all of them, and with d_j = p_j / q_j
    and L = lcm_j p_j, w_j = L / d_j = q_j (L / p_j) is an integer. So the
    sum is (w^T |X|^2 w) 4^low / L^2.
    """
    parts = [np.frexp(x) for x in ((M.real, M.imag) if np.iscomplexobj(M) else (M,))]
    low = min(int(e.min()) for _, e in parts) - 53
    squares = np.zeros(M.shape, dtype=object)
    for f, e in parts:
        X = np.ldexp(f, 53).astype(np.int64).astype(object) << (e - 53 - low).astype(object)
        squares += X * X
    ratios = [float(x).as_integer_ratio() for x in d]
    L = math.lcm(*(p for p, _ in ratios))
    w = np.array([q * (L // p) for p, q in ratios], dtype=object)
    total = w @ (squares @ w)
    return Fraction(total, L * L) * Fraction(4) ** low


class ExactComplex:
    """A complex number with Fraction parts, for exact sums of products of floats."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def lift(x) -> "ExactComplex":
        return x if isinstance(x, ExactComplex) else ExactComplex(x)

    def __add__(self, other):
        other = self.lift(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        other = self.lift(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def exact_entry(z) -> ExactComplex:
    z = complex(z)
    return ExactComplex(z.real, z.imag)


def exact_positive_definite(H: list) -> bool:
    """Whether the Hermitian H, rows of ExactComplex, is positive definite.

    Gaussian elimination on its real embedding [[Re H, -Im H], [Im H, Re H]],
    which is positive definite exactly when H is, meets only positive pivots.
    """
    m = len(H)
    R = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            R[i][j] = R[m + i][m + j] = H[i][j].re
            R[i][m + j], R[m + i][j] = -H[i][j].im, H[i][j].im
    for k in range(2 * m):
        if R[k][k] <= 0:
            return False
        for i in range(k + 1, 2 * m):
            f = R[i][k] / R[k][k]
            if f:
                for j in range(k + 1, 2 * m):
                    R[i][j] -= f * R[k][j]
    return True


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
            part = rs_solver._blocks(EigDecomposition(s, Q), E)
            d = build_shifted_gaps(s, part.e11)
            bound = rs_solver._weighted_frobenius_upper(part.e22, d)
            assert spectral_norm(part.e22, d) <= bound
            assert bound <= np.linalg.norm(part.e22 / np.sqrt(np.outer(d, d))) * (1 + 1e-9)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_pad_covers_rounding(self, complex_case):
        # in exact rational arithmetic, bound^2 >= sum_ij |e_ij|^2 / (d_i d_j),
        # with d spread over 2^-40..2^40; on the rank-one blocks ||S||_F is
        # ||S||_2 itself
        rng = rng_from_stream(131)
        for t in range(40):
            m = int(rng.integers(3, 10))
            if t % 2:
                v = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_case else 0)
                e22 = np.outer(v, v.conj())
            else:
                e22 = random_hermitian(rng, m, complex_case)
            d = np.ldexp(rng.uniform(1.0, 2.0, m), rng.integers(-40, 41, m))
            bound = rs_solver._weighted_frobenius_upper(e22, d)
            exact = exact_weighted_square(e22, d)
            assert exact <= Fraction(bound) ** 2 <= exact * (1 + Fraction(1, 10**12))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_pad_covers_rounding_over_bands(self, complex_case):
        # m = 300 takes three tile rows and columns, the last one partial, so
        # mirrored tiles are doubled; d's 7-bit mantissas keep the exact sum's
        # common denominator small
        rng = rng_from_stream(139)
        m = 300
        assert 2 * matcore._TILE < m < 3 * matcore._TILE
        e22 = random_hermitian(rng, m, complex_case)
        d = np.ldexp(1.0 + rng.integers(0, 64, m) / 64.0, rng.integers(-40, 41, m))
        bound = rs_solver._weighted_frobenius_upper(e22, d)
        exact = exact_weighted_square(e22, d)
        assert exact <= Fraction(bound) ** 2 <= exact * (1 + Fraction(1, 10**12))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_tile_sums_any_matrix(self, monkeypatch, complex_case):
        # a mirror tile that is not the conjugate transpose of its tile is
        # summed on its own, so the bounds are M's for any M; one flipped sign,
        # which keeps |M_ij| = |M_ji|, is enough to clear the mirrored flag.
        # Tiles of 16 put m = 40 over three tile rows, the last one partial
        monkeypatch.setattr(matcore, "_TILE", 16)
        rng = rng_from_stream(167)
        m = 40
        M = random_hermitian(rng, m, complex_case)
        d = np.ldexp(1.0 + rng.integers(0, 64, m) / 64.0, rng.integers(-4, 5, m))
        close = 1 + Fraction(1, 10**12)
        for defect in ("none", "sign", "general"):
            X = M.copy()
            if defect == "sign":
                X[37, 3] = -X[37, 3]
            elif defect == "general":
                X = rng.standard_normal((m, m))
            weighted, plain, mirrored = matcore._certified_frobenius(X, d)
            assert mirrored == (defect == "none")
            exact = exact_weighted_square(X, d)
            assert exact <= Fraction(weighted) ** 2 <= close * exact
            exact = sum((abs2(x) for x in X.ravel()), Fraction(0))
            assert exact <= Fraction(plain) ** 2 <= close * exact

    @pytest.mark.parametrize("complex_case", [False, True])
    @pytest.mark.parametrize("k", [500, 900, 1000, -500, -900, -1000])
    def test_frobenius_bound_scale_free(self, k, complex_case):
        # E22 and d scaled by one power of two give the same bits
        n = 128
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_gue(n, 149) if complex_case else sample_goe(n, 149)
        part = rs_solver._blocks(diag_eig(s), E)
        d = build_shifted_gaps(s, part.e11)
        e22, d_k = np.ldexp(part.e22.real, k), np.ldexp(d, k)
        if complex_case:
            e22 = e22 + 1j * np.ldexp(part.e22.imag, k)
        assert np.array_equal(e22 * 2.0 ** -k, part.e22) and np.array_equal(np.ldexp(d_k, -k), d)
        bound = rs_solver._weighted_frobenius_upper(part.e22, d)
        assert 0.0 < bound < math.inf
        assert rs_solver._weighted_frobenius_upper(e22, d_k) == bound

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_overflow_rescaled(self, complex_case):
        # entries near 2^1017 overflow the first sum of squares, so M is read
        # again over sigma 2^k: the bound still covers the exact norm, itself
        # below 2^1022, within its pad. Entries 2^-600 underflow to zero in
        # that second sum and are covered by its tiny term
        rng = rng_from_stream(173)
        for t in range(20):
            m = int(rng.integers(3, 10))
            e22 = random_hermitian(rng, m, complex_case) * 2.0 ** 1015
            e22[0, 1] = e22[1, 0] = 2.0 ** -600
            d = np.ldexp(rng.uniform(1.0, 2.0, m), rng.integers(0, 9, m))
            sigma = math.ldexp(1.0, math.frexp(d.max())[1] - 1)
            top = max(np.abs(e22.real).max(), np.abs(e22.imag).max())
            assert (Fraction(top) / Fraction(sigma)) ** 2 > Fraction(np.finfo(float).max)
            bound = rs_solver._weighted_frobenius_upper(e22, d)
            exact = exact_weighted_square(e22, d)
            assert exact <= Fraction(bound) ** 2 <= exact * (1 + Fraction(1, 10**12))
        # weights whose products overflow: the norm itself is beyond the range
        d = np.ldexp(1.0, [-1000, 1000])
        assert rs_solver._weighted_frobenius_upper(np.ones((2, 2)), d) == math.inf

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_underflow_rescaled(self, complex_case):
        # E = 1e-160 * GOE/GUE: the squares of E / sigma fall below tiny in
        # the first pass, so the gate's bound and the read's ||E||_F bound
        # come from a pass rescaled to k < 0 or carry the underflow floor;
        # both still cover the exact norms, on the identity basis and on a
        # random one
        n = 64
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = 1e-160 * (sample_gue(n, 179) if complex_case else sample_goe(n, 179))
        rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s))
        d = build_shifted_gaps(s, float(E[0, 0].real))
        exact = exact_weighted_square(E[1:, 1:], d)
        assert exact <= Fraction(rep.contraction_upper) ** 2 <= exact * (1 + Fraction(1, 10**12))
        read = rs_solver._read_noise(E, s.lambdas)[0]
        assert read.beta == rep.contraction_upper
        assert sum((abs2(x) for x in E.ravel()), Fraction(0)) <= Fraction(read.norm) ** 2
        Q = np.linalg.qr(random_hermitian(rng_from_stream(179), n, complex_case))[0]
        A = force_hermitian((Q * s.lambdas) @ Q.conj().T)
        rep = solve(A, E)
        eig = rs_solver._decompose(A)
        part = rs_solver._blocks(eig, E)
        exact = exact_weighted_square(part.e22, build_shifted_gaps(eig.spectrum, part.e11))
        assert exact <= Fraction(rep.contraction_upper) ** 2 <= exact * (1 + Fraction(1, 10**12))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_subnormal_entries_rescaled(self, complex_case):
        # entries down to 2^-1074: the rescaled pass keeps sigma 2^k normal,
        # and a subnormal result is rounded up
        rng = rng_from_stream(181)
        for t in range(10):
            m = int(rng.integers(3, 10))
            e22 = random_hermitian(rng, m, complex_case) * 2.0 ** -530 * 2.0 ** -530
            e22[0, 1] = e22[1, 0] = 2.0 ** -1074
            d = np.ldexp(rng.uniform(1.0, 2.0, m), rng.integers(-4, 9, m))
            bound = rs_solver._weighted_frobenius_upper(e22, d)
            exact = exact_weighted_square(e22, d)
            assert 0.0 < bound and exact <= Fraction(bound) ** 2
        assert rs_solver._weighted_frobenius_upper(np.zeros((3, 3)), np.ones(3)) == 5e-324
        # a square rounded in the subnormal range, weighted by about 2^2000,
        # dominates the sum: only the underflow floor covers its rounding
        x = (1.0 + 2.0 ** -20) * 2.0 ** -530
        e22 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, x], [0.0, x, 0.0]])
        d = np.array([1.5, 2.0 ** -1000, 2.0 ** -1000])
        bound = rs_solver._weighted_frobenius_upper(e22, d)
        assert bound < math.inf and exact_weighted_square(e22, d) <= Fraction(bound) ** 2

    def test_readme_input_falls_back(self):
        # gaps (1, 100) and E22 = [[0, 8], [8, 0]]: ||S||_2 = 0.8 is under the
        # cap, but the gate's ||S||_F = 0.8 sqrt(2) is not, so the loop does
        # not run and the oracle answers, certified, on both bases; the
        # paper's ||E22 D^{-1}||_2 = 8 would have refused it too
        s = spectrum(101, 100, 1)
        A, E = np.diag(s.lambdas), np.zeros((3, 3))
        E[0, 1:] = E[1:, 0] = 0.01
        E[1, 2] = E[2, 1] = 8.0
        d = build_shifted_gaps(s, 0.0)
        assert spectral_norm(E[1:, 1:], d) == pytest.approx(0.8, rel=1e-12)
        assert paper_norm(d, E[1:, 1:], 2.0) == pytest.approx(8.0, rel=1e-9)
        w, V = np.linalg.eigh(A + E)
        for eig in (diag_eig(s), None):
            rep = solve(A, E, eig=eig)
            assert rep.method == "oracle-fallback" and rep.leading_certified
            assert rep.contraction_upper == pytest.approx(0.8 * math.sqrt(2.0), rel=1e-9)
            assert rep.fallback_reason == (
                "ContractionFailureError: iteration operator norm bound 1.131 "
                "(weighted-frobenius) exceeds cap 0.9"
            )
            assert abs(rep.lambda_tilde - w[-1]) <= 1e-9 * abs(w[-1])
            assert 1.0 - abs(np.vdot(rep.u_tilde, V[:, -1])) <= 1e-9


class TestSolveQ:
    def test_zero_noise(self):
        s = spectrum(3, 2, 1)
        part = rs_solver._blocks(diag_eig(s), np.zeros((3, 3)))
        q, _ = solve_q(part, s)
        assert np.all(q == 0)
        u = assemble_eigvec(diag_eig(s), q)
        np.testing.assert_allclose(u, [1.0, 0.0, 0.0])

    def test_scalar_case_closed_form(self):
        # n=2: q solves e12 q^2 + (delta + e11 - e22) q - e21 = 0, smaller root
        s = spectrum(3.0, 1.0)
        rng = rng_from_stream(53)
        for t in range(20):
            E = force_hermitian(rng.standard_normal((2, 2))) * 0.4
            part = rs_solver._blocks(diag_eig(s), E)
            q, _ = solve_q(part, s)
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
            part = rs_solver._blocks(diag_eig(s), E)
            q, _ = solve_q(part, s)
            assert np.linalg.norm(q) <= 0.25

    def test_fixed_point_residual(self):
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        tol = 1e-12
        for t in range(10):
            E = sample_goe(n, derive_stream(61, t))
            part = rs_solver._blocks(diag_eig(s), E)
            q, iterations = solve_q(part, s, tol=tol)
            d = build_shifted_gaps(s, part.e11)
            resid = np.linalg.norm(d * q - part.e22 @ q - (part.e21 - (part.e12 @ q) * q))
            assert resid <= tol * (np.linalg.norm(part.e21) + 1.0)
            assert iterations <= 10 * math.log2(1 / tol)

    def test_complex_noise(self):
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_subgaussian_hermitian(n, EntryDistribution("gaussian"), "complex", 5)
        part = rs_solver._blocks(diag_eig(s), E)
        q, _ = solve_q(part, s)
        lam = rs_solver._eigenvalue_from_q(s, part.e11, part.e12, q)
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

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_identity_basis_matches_product(self, dtype):
        # (1, q) without the product has the bits of e1 + I[:, 1:] q, whose
        # -0.0 entries read +0.0
        rng = rng_from_stream(83)
        n = 600
        q = rng.standard_normal(n - 1).astype(dtype)
        if dtype is complex:
            q += 1j * rng.standard_normal(n - 1)
        q[:3] = [-0.0, 0.0, 1e-300]
        eig = EigDecomposition(Spectrum(np.arange(n, 0, -1.0)), np.eye(n, dtype=dtype))
        assert eig.is_identity
        expected = (eig.leading_vector() + eig.tail_basis() @ q) / math.sqrt(
            1.0 + float(np.vdot(q, q).real)
        )
        got = assemble_eigvec(eig, q)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestMatvec:
    def test_real_products_by_rows(self, monkeypatch):
        # real products never reach np.matmul; each row is one dot product,
        # so the sum order may differ from M @ x within rounding
        rng = rng_from_stream(73)
        E = rng.standard_normal((257, 257))
        basis = np.linalg.qr(rng.standard_normal((300, 300)))[0]

        def refuse(*args, **kwargs):
            raise AssertionError("np.matmul called")

        monkeypatch.setattr(np, "matmul", refuse)  # the @ operator does not look it up
        for M in (E, E[1:, 1:], rng.standard_normal((520, 1025)), basis[:, 1:], E[::2, :]):
            x = rng.standard_normal(M.shape[1])
            got = rs_solver._matvec(M, x)
            assert got.dtype == np.float64 and got.shape == (M.shape[0],)
            assert np.all(np.abs(got - M @ x) <= 1e-12 * (np.abs(M) @ np.abs(x)))

    def test_complex_products_whole(self):
        rng = rng_from_stream(79)
        n = 512
        Mc = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Mr = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        xc = x + 1j * rng.standard_normal(n)
        for M, v in ((Mc, x), (Mc, xc), (Mr, xc), (Mc[1:, 1:], xc[1:])):
            got = rs_solver._matvec(M, v)
            want = M @ v
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestEigenvalueFromQ:
    def test_zero(self):
        assert rs_solver._eigenvalue_from_q(spectrum(3, 2, 1), 0.0, np.zeros(2), np.zeros(2)) == 3.0

    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-12, 1e-50])
    def test_complex_product_rejected_at_every_scale(self, scale):
        # Im(E12 q) = scale next to Re(E12 q) = 1.1 scale is no rounding error,
        # whatever the scale of A + E: the bound scales with A below unit scale
        s = Spectrum(scale * np.array([3.0, 2.0, 1.0]))
        e12 = scale * np.array([1.0 + 1.0j, 0.5])
        with pytest.raises(InconsistentEigenvalueError, match="imaginary part"):
            rs_solver._eigenvalue_from_q(s, 0.0, e12, np.array([1.0, 0.2]))

    def test_2x2_quadratic_formula(self):
        s = spectrum(3.0, 1.0)
        E = force_hermitian(rng_from_stream(71).standard_normal((2, 2))) * 0.3
        part = rs_solver._blocks(diag_eig(s), E)
        q, _ = solve_q(part, s)
        lam = rs_solver._eigenvalue_from_q(s, part.e11, part.e12, q)
        top = hermitian_eig(np.diag(s.lambdas) + E).spectrum.lambdas[0]
        assert lam == pytest.approx(top, abs=1e-11)

    def test_matches_quadratic_form(self):
        n = 8
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_goe(n, 73)
        part = rs_solver._blocks(diag_eig(s), E)
        q, _ = solve_q(part, s)
        lam = rs_solver._eigenvalue_from_q(s, part.e11, part.e12, q)
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
        part = rs_solver._blocks(eig, E)
        q, iterations = solve_q(part, s)
        rep = SolverReport(
            q=q,
            u_tilde=assemble_eigvec(eig, q),
            lambda_tilde=rs_solver._eigenvalue_from_q(s, part.e11, part.e12, q),
            iterations=iterations,
            contraction_upper=rs_solver._read_noise(E, s.lambdas)[0].beta,
        )
        rs_solver._verify(A, E, rep, s, rs_solver._read_noise(E, s.lambdas)[0])
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
        rs_solver._verify(A, E, rep, s, rs_solver._read_noise(E, s.lambdas)[0])
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
            r = np.linalg.norm(A_tilde @ u - lam * u) + pad * (np.linalg.norm(E) + 1e6 + 1)
            assert r <= tau <= pad * np.trace(lam * np.eye(4) - A_tilde)
        oracle = is_leading(s, rep.lambda_tilde, top_eigpair(A + E)[0])
        calls, interlacing = [], []

        def counted(M):
            calls.append(1)
            return top_eigpair(M)

        def inconclusive(*args):
            # the interlacing rung is inconclusive too: only the oracle is left
            interlacing.append(1)
            return math.inf

        monkeypatch.setattr(rs_solver, "top_eigpair", counted)
        monkeypatch.setattr(rs_solver, "_trailing_bound", inconclusive)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        rs_solver._verify(A, E, rep, s, rs_solver._read_noise(E, s.lambdas)[0])
        assert len(interlacing) == 1
        assert len(calls) == 1
        assert rep.leading_certified == oracle

    def test_interlacing_rejects_second_eigenpair(self):
        # the second eigenpair of A~ has a residual near zero, but by interlacing
        # lambda_max(A~[1:, 1:]) is at least its eigenvalue: the O(n) bound is
        # never below 1 there, with the gate's bound or ||S||_2 itself
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = sample_goe(n, 41)
        A_tilde = np.diag(s.lambdas) + E
        w, V = np.linalg.eigh(A_tilde)
        lam, u = float(w[-2]), V[:, -2]
        residual2 = float(np.linalg.norm(A_tilde @ u - lam * u))
        assert residual2 <= 1e-12 * abs(lam)
        read, finite, self_adjoint = rs_solver._read_noise(E, s.lambdas)
        assert finite and self_adjoint
        for beta in (read.beta, spectral_norm(E[1:, 1:], read.d)):
            assert rs_solver._trailing_bound(s.lambdas, E[0, 0], read.d, beta, lam) >= 1.0
        tau = 1e-9 * (1.0 + abs(lam))
        assert not rs_solver._top_eigenvalue_within(E, s.lambdas, lam, residual2, tau, read)

    @pytest.mark.parametrize("noise", [sample_goe, sample_gue])
    def test_second_eigenpair_never_certified(self, noise):
        # at every size and noise scale the exact second eigenpair clears no
        # proof: lambda_2 <= lambda_max(A~[1:, 1:]), so no valid bound on
        # ||S||_2 can put the trailing block below t <= lambda_2
        proved = 0
        for n in (8, 32, 64):
            s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
            A = np.diag(s.lambdas)
            for t in range(4):
                for scale in (0.05, 0.5, 2.0):
                    E = scale * noise(n, derive_stream(157, n, t))
                    w, V = np.linalg.eigh(A + E)
                    lam, u = float(w[-2]), V[:, -2] * (abs(V[0, -2]) / V[0, -2])
                    read = rs_solver._read_noise(E, s.lambdas)[0]
                    below = float(np.nextafter(lam - 1e-12 * (1.0 + abs(lam)), -math.inf))
                    if np.all(read.d > 0):
                        for beta in (read.beta, spectral_norm(E[1:, 1:], read.d)):
                            bound = rs_solver._trailing_bound(s.lambdas, E[0, 0].real, read.d, beta, below)
                            assert bound >= 1.0
                    rep = SolverReport(
                        q=u[1:] / u[0], u_tilde=u, lambda_tilde=lam, iterations=0, contraction_upper=0.0
                    )
                    rs_solver._verify(A, E, rep, s, read)
                    assert not rep.leading_certified
                    proved += rep.residual2 <= 1e-12 * (1.0 + abs(lam))
        assert proved == 36  # every pair has a residual at rounding level

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_interlacing_pad_covers_rounding(self, complex_case):
        # in exact rational arithmetic with h_j = t - a_{j+1}: every h_j > 0
        # and bound >= beta max_j d_j / h_j, and a bound below 1 leaves
        # t I - A~[1:, 1:] positive definite. In odd trials a spans six
        # decades and E11 nearly closes d_1, so the two roundings of d_j, up
        # to 1e-10, are far above the bound's own pad relative to
        # d_j + delta ~ 1: delta must be lowered to cover them
        rng = rng_from_stream(137)
        finite = below_one = 0
        for trial in range(40):
            m = int(rng.integers(3, 10))
            E = 0.1 * random_hermitian(rng, m, complex_case)
            if trial % 2:
                a = np.concatenate(([1e6 + rng.uniform()], np.sort(rng.uniform(-1e6, 9e5, m - 1))[::-1]))
                E[0, 0] = -(a[0] - a[1]) + rng.uniform(0.5, 2.0)
            else:
                a = -4.0 * np.arange(m)
            read, _, _ = rs_solver._read_noise(E, a)
            assert np.all(read.d > 0)
            e11 = float(E[0, 0].real)
            t = float(a[0] + e11 + rng.uniform(-0.4, 0.6))
            bound = rs_solver._trailing_bound(a, e11, read.d, read.beta, t)
            if bound == math.inf:
                continue
            finite += 1
            h = [Fraction(t) - Fraction(x) for x in a[1:]]
            assert min(h) > 0
            assert Fraction(bound) >= Fraction(read.beta) * max(Fraction(x) / y for x, y in zip(read.d, h))
            if bound < 1.0:
                below_one += 1
                T = [[-exact_entry(E[1 + i, 1 + j]) for j in range(m - 1)] for i in range(m - 1)]
                for j in range(m - 1):
                    T[j][j] = T[j][j] + h[j]
                assert exact_positive_definite(T)
        assert finite >= 30 and below_one >= 20

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_frobenius_read_covers_rounding(self, monkeypatch, complex_case):
        # exactly: beta^2 >= sum_ij |E22_ij|^2 / (d_i d_j) and norm >= ||E||_F,
        # with tiles of 16 and m = 40 over three tile rows, so mirrored tiles are
        # doubled; and the radius r with ||E||_F + max |a| in its pad bounds the
        # exact residual of a computed eigenpair, whose own residual2 sits at
        # the rounding floor
        monkeypatch.setattr(matcore, "_TILE", 16)
        rng = rng_from_stream(163)
        for m in (4, 9, 40):
            E = random_hermitian(rng, m, complex_case)
            a = np.concatenate(([2e3], np.sort(rng.uniform(-1e3, 1e3, m - 1))[::-1]))
            read, finite, self_adjoint = rs_solver._read_noise(E, a)
            assert finite and self_adjoint
            exact = exact_weighted_square(E[1:, 1:], read.d)
            assert exact <= Fraction(read.beta) ** 2 <= exact * (1 + Fraction(1, 10**12))
            plain = sum((abs2(x) for x in E.ravel()), Fraction(0))
            assert plain <= Fraction(read.norm) ** 2 <= plain * (1 + Fraction(1, 10**12))
        for trial in range(40):
            m = int(rng.integers(3, 10))
            E = 50.0 * random_hermitian(rng, m, complex_case)
            s = Spectrum(np.concatenate(([1e6], np.sort(rng.uniform(-1e6, 1e6, m - 1))[::-1])))
            w, V = np.linalg.eigh(np.diag(s.lambdas) + E)
            rep = SolverReport(
                q=np.zeros(m - 1), u_tilde=V[:, -1], lambda_tilde=float(w[-1]),
                iterations=0, contraction_upper=0.0,
            )
            read = rs_solver._read_noise(E, s.lambdas)[0]
            rs_solver._verify(np.diag(s.lambdas), E, rep, s, read)
            r = rep.residual2 + matcore._rounding_pad(m) * (read.norm + float(np.abs(s.lambdas).max()))
            u = [exact_entry(x) for x in rep.u_tilde]
            lam = Fraction(rep.lambda_tilde)
            residual = Fraction(0)
            for i in range(m):
                row = (Fraction(s.lambdas[i]) - lam) * u[i] + sum(
                    (exact_entry(E[i, j]) * u[j] for j in range(m)), ExactComplex()
                )
                residual += row.abs2()
            assert residual <= Fraction(r) ** 2 * sum((x.abs2() for x in u), Fraction(0))

    def test_interlacing_uses_padded_residual(self, monkeypatch):
        # u~ = e1 is an exact eigenvector (residual 0), but a_1 = 1 - 4 ulp lies
        # within r = pad ||A~|| = 12 u of lam = 1 (||E||_F + max |a| = 1): the
        # shifted gap d_1 + delta is not positive, interlacing cannot separate
        # lambda_2 from lam - r, and the Cholesky proof decides
        calls = []
        cholesky = np.linalg.cholesky

        def counted(M):
            calls.append(1)
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        a = np.array([1.0, 1.0 - 4e-16, 0.5, 0.25])
        E = np.zeros((4, 4))
        assert rs_solver._top_eigenvalue_within(E, a, 1.0, 0.0, 2e-9, rs_solver._read_noise(E, a)[0])
        assert len(calls) == 1

    def test_interlacing_needs_identity_basis(self, monkeypatch):
        # -I is an eigenbasis of diagonal A but not the identity: the interlacing
        # proof is skipped there and the Cholesky proof certifies instead
        interlacing, factorizations = [], []
        bound, cholesky = rs_solver._trailing_bound, np.linalg.cholesky

        def counted_bound(*args):
            interlacing.append(1)
            return bound(*args)

        def counted_cholesky(M):
            factorizations.append(1)
            return cholesky(M)

        monkeypatch.setattr(rs_solver, "_trailing_bound", counted_bound)
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

    def test_identity_path_matches_dense_path(self):
        # E u~ + a u~ and the banded |E| row sums against the formed A + E
        n = 64
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A = np.diag(s.lambdas)
        for t in range(5):
            E = sample_goe(n, derive_stream(151, t))
            rep = solve(A, E, eig=diag_eig(s), verify=False)
            read = rs_solver._read_noise(E, s.lambdas)[0]
            identity = rs_solver._verify(A, E, SolverReport(**vars(rep)), s, read)
            dense = rs_solver._verify(A, E, SolverReport(**vars(rep)), s, None)
            assert identity.leading_certified and dense.leading_certified
            a_norm = np.abs(np.linalg.eigvalsh(A + E)).max()
            assert abs(identity.residual2 - dense.residual2) <= 1e-14 * a_norm
            assert abs(identity.orth_residual - dense.orth_residual) <= 1e-14 * a_norm

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
        E = (s.delta + 0.1) * np.outer([0, 1, 0], [0, 1, 0]) + COUPLING
        rep = solve(A, E)
        assert rep.method == "oracle-fallback"
        assert rep.leading_certified  # the fallback pair is the true leading pair
        assert rep.lambda_tilde == pytest.approx(np.linalg.eigvalsh(A + E)[-1], rel=1e-12)
        assert rep.lambda_tilde == pytest.approx(3.1, rel=1e-3)

    def test_report_json_fields(self):
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), np.zeros((3, 3)))
        d = rep.to_dict()
        for key in (
            "q", "u_tilde", "lambda_tilde", "iterations",
            "contraction_upper", "residual2", "orth_residual",
            "coord_ratios", "q_norm2", "leading_certified", "method", "fallback_reason",
        ):
            assert key in d
        assert d["fallback_reason"] == "" and d["contraction_upper"] < 1e-300
        assert "contraction_rung" not in d

    @pytest.mark.parametrize("E,reason", [
        # E22 D^{-1} has norm 1.1, above the cap
        (1.1 * np.outer([0, 1, 0], [0, 1, 0]) + COUPLING,
         "ContractionFailureError: iteration operator norm bound 1.1"),
        # E11 = -2 closes the shifted gaps 1 and 2
        (np.diag([-2.0, 0.0, 0.0]) + COUPLING, "GapCollapseError: shifted gap collapsed"),
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
            return top_eigpair(M)

        monkeypatch.setattr(rs_solver, "top_eigpair", counted)
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
        # on the identity basis the gate and the interlacing proof need no
        # eigenproblem and no factorization at all
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
        # the squares in ||S||_F overflow for this finite E, so the gate sums
        # them again rescaled: ||S||_F = sqrt(2) ||S||_2 with
        # ||S||_2 = 1e308 / sqrt(4 * 10) (shifted gaps 4 and 10), far above
        # the cap, and the oracle answers; E13 couples its eigenvector to u1
        s = Spectrum(2.0 * np.arange(8, 0, -1.0))
        E = np.zeros((8, 8))
        E[2, 5] = E[5, 2] = 1e308
        E[0, 2] = E[2, 0] = 1e307
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s) if pass_eig else None)
        assert rep.method == "oracle-fallback"
        assert rep.fallback_reason.startswith("ContractionFailureError")
        rate = spectral_norm(E[1:, 1:], build_shifted_gaps(s, 0.0))
        assert rate == pytest.approx(1e308 / math.sqrt(40.0), rel=1e-12)
        assert rate <= rep.contraction_upper <= math.sqrt(2.0) * rate * (1 + 1e-12)
        assert rep.leading_certified
        assert rep.lambda_tilde == pytest.approx(1e308 * math.sqrt(1.01), rel=1e-12)
        for name, value in vars(rep).items():
            if not isinstance(value, str):
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

    @pytest.mark.parametrize("case,upper,gate,reason", [
        ("gap-collapse", math.inf, "", "GapCollapseError: shifted gap collapsed"),
        ("frobenius", 1.1, "weighted-frobenius",
         "ContractionFailureError: iteration operator norm bound 1.1 (weighted-frobenius)"),
        ("rate-under-cap", 1.0, "weighted-frobenius",
         "ContractionFailureError: iteration operator norm bound 1 (weighted-frobenius)"),
        ("diverging", 100.0 * math.sqrt(1.25), "weighted-frobenius",
         "NonConvergenceError: shifted gap d_j + Re(E12 q)"),
    ])
    def test_gate_fields_on_every_fallback(self, case, upper, gate, reason):
        # the report carries the bound of the gate that ran ("" when the gaps
        # collapsed first) whichever error made solve fall back, and a
        # contraction failure names that gate in its reason
        s, E, cap = spectrum(3, 2, 1), COUPLING.copy(), CERTIFICATE_CAP
        if case == "gap-collapse":
            E[0, 0] = -2.0  # closes the shifted gaps 1 and 2
        elif case == "frobenius":
            E[1, 1] = 1.1  # rank one: ||S||_F = ||S||_2
        elif case == "diverging":
            E[0, 1:] = E[1:, 0] = 0.1  # the loop closes d_1 + Re(E12 q); see TestJacobiInner
            E[1:, 1:] = -100.0 * np.eye(2)
            cap = math.inf
        else:
            # unit gaps and E22 = 0.5 I: the loop's rate ||S||_2 = 0.5 is under
            # the cap, but the gate's ||S||_F = 1 is not
            s, E = spectrum(2, 1, 1, 1, 1), np.zeros((5, 5))
            E[0, 1:] = E[1:, 0] = 0.01
            E[1:, 1:] = 0.5 * np.eye(4)
        rep = solve(np.diag(s.lambdas), E, certificate_cap=cap, eig=diag_eig(s))
        assert rep.method == "oracle-fallback"
        assert rep.contraction_upper == pytest.approx(upper, rel=1e-9)
        assert math.isfinite(rep.contraction_upper) == (gate != "")
        assert rep.fallback_reason.startswith(reason)
        if reason.startswith("ContractionFailureError"):
            assert rep.fallback_reason.endswith(f"({gate}) exceeds cap {cap}")

    def test_fallback_oracle_past_singular_shift(self):
        # A + E = [[0, 5], [5, 6]]: the oracle's first shift meets an exactly zero pivot
        rep = solve(np.diag([6.0, 0.0]), np.array([[-6.0, 5.0], [5.0, 6.0]]))
        assert rep.method == "oracle-fallback" and rep.leading_certified
        assert rep.lambda_tilde == pytest.approx(3.0 + math.sqrt(34.0), rel=1e-14)

    @pytest.mark.parametrize("pass_eig", [False, True])
    def test_overflowing_top_eigenvalue_is_typed(self, pass_eig):
        # every entry of E is 1e308: the gate refuses, and lambda_max(A + E) is
        # beyond the float range, a NumericFailureError from the oracle
        s = spectrum(3, 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailureError, match="overflows"):
                solve(np.diag(s.lambdas), np.full((3, 3), 1e308),
                      eig=diag_eig(s) if pass_eig else None)

    @pytest.mark.parametrize("pass_eig", [False, True])
    def test_overflowing_loop_falls_back(self, pass_eig):
        # E12 = (1e308, 0) and E22 = 0: the gate admits the loop, and Re(E12 q)
        # overflows on its second step
        s = spectrum(3, 2, 1)
        E = np.zeros((3, 3))
        E[0, 1] = E[1, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s) if pass_eig else None)
        assert rep.method == "oracle-fallback" and rep.leading_certified
        assert rep.fallback_reason.startswith("NonConvergenceError: fixed-point iteration overflowed")
        # on the identity basis the read's square of E12 overflows at weight 0,
        # and the gate is summed again over E22 alone
        assert spectral_norm(E[1:, 1:], build_shifted_gaps(s, 0.0)) <= rep.contraction_upper
        for name, value in vars(rep).items():
            if not isinstance(value, str):
                assert np.all(np.isfinite(value)), name

    def test_inconsistent_eigenvalue_falls_back(self, monkeypatch):
        def complex_eigenvalue(*args, **kwargs):
            raise InconsistentEigenvalueError("E12 q has imaginary part 1")

        monkeypatch.setattr(rs_solver, "_eigenvalue_from_q", complex_eigenvalue)
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7))
        assert rep.method == "oracle-fallback"
        assert rep.fallback_reason == "InconsistentEigenvalueError: E12 q has imaginary part 1"
        assert rep.leading_certified
        assert 0.0 < rep.contraction_upper <= 0.9  # the gate that admitted the loop

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
        # one gate per solve, the weighted Frobenius bound, on the rs and
        # the fallback path alike
        gates = []
        weighted_frobenius_upper = rs_solver._weighted_frobenius_upper

        def counted_gate(*args):
            gates.append(1)
            return weighted_frobenius_upper(*args)

        monkeypatch.setattr(rs_solver, "_weighted_frobenius_upper", counted_gate)
        s = spectrum(3, 2, 1)
        if method == "rs":
            E = 0.1 * sample_goe(3, 7)
        else:  # E22 D^{-1} has norm 1.1, above the cap
            E = (s.delta + 0.1) * np.outer([0, 1, 0], [0, 1, 0]) + COUPLING
        rep = solve(np.diag(s.lambdas), E)
        assert rep.method == method
        assert len(gates) == 1

    @pytest.mark.parametrize("A,E,message", [
        (np.diag([3.0, 2.0, 1.0]), np.diag([0.0, math.nan, 0.0]), "E has non-finite entries"),
        (np.diag([3.0, 2.0, 1.0]), np.triu(np.ones((3, 3))), "E is not exactly self-adjoint"),
        (np.ones((3, 2)), np.zeros((3, 2)), "A must be a square matrix"),
        (np.diag([3.0, 2.0, 1.0]), np.zeros((2, 2)), "A has shape"),
        (np.zeros((0, 0)), np.zeros((0, 0)), "A must be a square matrix of order >= 1"),
        (np.eye(2, dtype=object), np.zeros((2, 2)), "A has dtype object"),
        (np.eye(2), np.zeros((2, 2), dtype=object), "E has dtype object"),
    ])
    def test_bad_operands_rejected(self, A, E, message):
        with pytest.raises(ValueError, match=message):
            solve(A, E, verify=False)

    BAD_OPTIONS = [
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"tol": -1e-9}, "tol must be finite and positive"),
        ({"tol": math.inf}, "tol must be finite and positive"),
        ({"tol": math.nan}, "tol must be finite and positive"),
        ({"certificate_cap": math.nan}, "certificate_cap must be positive"),
        ({"certificate_cap": -1.0}, "certificate_cap must be positive"),
        ({"certificate_cap": 0.0}, "certificate_cap must be positive"),
    ]

    @pytest.mark.parametrize("kwargs,message", BAD_OPTIONS)
    def test_bad_parameters_rejected(self, kwargs, message):
        s = spectrum(3, 2, 1)
        with pytest.raises(ValueError, match=message):
            solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7), **kwargs)

    @pytest.mark.parametrize("kwargs,message", BAD_OPTIONS)
    def test_bad_parameters_rejected_before_any_work(self, monkeypatch, kwargs, message):
        # the eigenbasis of A and the blocks of U* E U are most of a dense solve
        def fail(*args):
            raise AssertionError("solve worked on A and E before checking its options")

        monkeypatch.setattr(rs_solver, "_decompose", fail)  # hermitian_eig's core
        monkeypatch.setattr(rs_solver, "_blocks", fail)
        with pytest.raises(ValueError, match=message) as via_solve:
            solve(sample_goe(8, 3), sample_goe(8, 4), **kwargs)
        if "tol" in kwargs:  # solve_q checks tol alone, with solve's message
            part = rs_solver.PartitionedPerturbation(0.0, np.zeros(2), np.zeros((2, 2)))
            with pytest.raises(ValueError) as via_solve_q:
                rs_solver.solve_q(part, spectrum(3, 2, 1), **kwargs)
            assert str(via_solve.value) == str(via_solve_q.value)

    @pytest.mark.parametrize("pass_eig", [False, True])
    def test_non_self_adjoint_noise_rejected_before_eigendecomposition(self, monkeypatch, pass_eig):
        # on a dense basis E's self-adjointness is proved at solve's boundary,
        # so a bad E costs no eigendecomposition of A (and no U* E U)
        def fail(*args):
            raise AssertionError("solve worked on A and E before checking E")

        monkeypatch.setattr(rs_solver, "_decompose", fail)
        monkeypatch.setattr(matcore, "_decompose", fail)
        monkeypatch.setattr(rs_solver, "_blocks", fail)
        n = 8
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        Q = np.linalg.qr(rng_from_stream(5).standard_normal((n, n)))[0]
        A = force_hermitian((Q * s.lambdas) @ Q.T)
        E = sample_goe(n, 7)
        E[6, 1] += 1e-3
        with pytest.raises(ValueError, match="E is not exactly self-adjoint"):
            solve(A, E, eig=EigDecomposition(s, Q) if pass_eig else None)

    @pytest.mark.parametrize("coupling", [1e-100, 1e-30, 1e-16])
    def test_identity_found_for_nondiagonal_A_verified_on_A(self, coupling):
        # eigh returns exactly I for diag(8, ..., 1) with a tiny A[0, 1], but A
        # is not diagonal: verification must take the A + E it was given, not
        # diag(A) + E, so the residual reads the coupling instead of 0
        A = np.diag(np.arange(8.0, 0.0, -1.0))
        A[0, 1] = A[1, 0] = coupling
        assert np.array_equal(hermitian_eig(A).basis, np.eye(8))
        E = np.zeros((8, 8))
        rep = solve(A, E)
        assert rep.method == "rs" and rep.leading_certified
        exact = np.linalg.norm((A + E) @ rep.u_tilde - rep.lambda_tilde * rep.u_tilde)
        assert exact == coupling
        assert rep.residual2 == pytest.approx(exact, rel=1e-15)

    def test_subnormal_tol_reports(self):
        # the step cap grows with log2(1/tol), which stays finite for any positive tol
        s = spectrum(3, 2, 1)
        rep = solve(np.diag(s.lambdas), 0.1 * sample_goe(3, 7), tol=5e-324)
        assert rep.method in ("rs", "oracle-fallback") and rep.leading_certified

    @pytest.mark.parametrize("basis,checks", [("identity", 1), ("rotated", 2), ("none", 2)])
    def test_self_adjointness_checked_once_per_matrix(self, monkeypatch, basis, checks):
        # on the identity basis E in its one read (A is proved diagonal, and its
        # diagonal real); on a general basis A and E at entry, as U* E U is
        # Hermitian by construction; without eig, hermitian_eig's core does
        # not check A again
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A, eig = np.diag(s.lambdas), diag_eig(s)
        if basis != "identity":
            Q = np.linalg.qr(rng_from_stream(5).standard_normal((n, n)))[0]
            A, eig = force_hermitian((Q * s.lambdas) @ Q.T), EigDecomposition(s, Q)
        if basis == "none":
            eig = None
        checks_by, read_noise = [], rs_solver._read_noise
        for module in (rs_solver, matcore):
            monkeypatch.setattr(
                module, "is_hermitian",
                lambda M: checks_by.append("is_hermitian") or is_hermitian(M),
            )
        monkeypatch.setattr(
            rs_solver, "_read_noise", lambda *args: checks_by.append("read") or read_noise(*args)
        )
        rep = solve(A, sample_goe(n, 19), eig=eig)
        assert rep.method == "rs" and rep.leading_certified
        assert len(checks_by) == checks
        assert checks_by.count("read") == (basis == "identity")

    @pytest.mark.parametrize("defect", ["diagonal", "off-diagonal"])
    def test_identity_eig_must_describe_A(self, defect):
        # on the identity basis solve reads only the diagonal of A; an A that is
        # not diag(eig.spectrum.lambdas) would be a different matrix, solved silently
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A, E = np.diag(s.lambdas), sample_goe(n, 19)
        if defect == "diagonal":
            A[0, 0] += 50.0
        else:
            A[2, 7] = A[7, 2] = 1e-300
        for verify in (False, True):
            with pytest.raises(ValueError, match="eig has the identity basis, but A is not diag"):
                solve(A, E, eig=diag_eig(s), verify=verify)
        rep = solve(A, E)  # A's own decomposition
        top = np.linalg.eigvalsh(A + E)[-1]
        assert rep.leading_certified and rep.lambda_tilde == pytest.approx(top, rel=1e-9)

    @pytest.mark.parametrize("i,j,value,message", [
        (2, 7, math.nan, "A has non-finite entries"),
        (3, 3, math.inf, "A has non-finite entries"),
        (3, 3, 2.0 + 1j, "A is not exactly self-adjoint"),
    ])
    def test_identity_basis_operand_messages(self, i, j, value, message):
        # A's checks are O(n) on the identity basis, with the same messages
        s = spectrum(*range(8, 0, -1))
        A = np.diag(s.lambdas).astype(type(value))
        A[i, j] = value
        with pytest.raises(ValueError, match=message):
            solve(A, 0.1 * sample_goe(8, 7), eig=diag_eig(s), verify=False)

    @pytest.mark.parametrize("gaps", ["intact", "collapsed"])
    @pytest.mark.parametrize("defect,message", [
        ("nan-pair", "E has non-finite entries"),
        ("inf-row-0", "E has non-finite entries"),
        ("inf-diagonal", "E has non-finite entries"),
        ("inf-e11", "E has non-finite entries"),
        ("not-self-adjoint", "E is not exactly self-adjoint"),
        ("imaginary-diagonal", "E is not exactly self-adjoint"),
        ("not-self-adjoint-and-nan", "E has non-finite entries"),
        ("nan-and-A-not-diag", "E has non-finite entries"),
        ("not-self-adjoint-and-A-not-diag", "eig has the identity basis, but A is not diag"),
    ])
    def test_identity_read_errors_in_order(self, gaps, defect, message):
        # the one read of E on the identity basis gives the messages, and in the
        # order, that the separate finiteness and self-adjointness checks gave:
        # E's finiteness before A's other checks, its self-adjointness after them
        s = spectrum(*range(8, 0, -1))
        A, E = np.diag(s.lambdas), 0.1 * sample_goe(8, 7)
        if gaps == "collapsed":
            E[0, 0] = -1.5
        if "complex" in defect or defect == "imaginary-diagonal":
            E = E.astype(complex)
        if defect.startswith("nan") or defect.endswith("nan"):
            E[2, 5] = E[5, 2] = math.nan
        if defect == "inf-row-0":
            E[0, 3] = E[3, 0] = math.inf
        if defect == "inf-diagonal":
            E[4, 4] = math.inf
        if defect == "inf-e11":
            E[0, 0] = math.inf
        if defect.startswith("not-self-adjoint"):
            E[6, 1] += 1e-3
        if defect == "imaginary-diagonal":
            E[3, 3] += 0.5j
        if defect.endswith("A-not-diag"):
            A[1, 1] += 0.25
        for verify in (False, True):
            with pytest.raises(ValueError, match=message):
                solve(A, E, eig=diag_eig(s), verify=verify)

    @pytest.mark.parametrize("where", ["pair", "row-0", "diagonal"])
    def test_identity_read_huge_finite_entry(self, where):
        # a finite 1e200 overflows the read's sums of squares, which is no
        # evidence of a non-finite entry: the read checks E itself, proves it
        # finite and self-adjoint, and solve answers as the separate checks let it
        s = spectrum(*range(8, 0, -1))
        E = 0.1 * sample_goe(8, 7)
        i, j = {"pair": (2, 5), "row-0": (0, 5), "diagonal": (3, 3)}[where]
        E[i, j] = E[j, i] = 1e200
        with np.errstate(over="ignore"):
            read, finite, self_adjoint = rs_solver._read_noise(E, s.lambdas)
        assert finite and self_adjoint
        assert read.norm == math.inf
        # a square overflows, in E22 or in row 0 (weight 0), and the gate is
        # summed again over E22 alone, rescaled: finite, and a bound on ||S||_2
        assert spectral_norm(E[1:, 1:], read.d) <= read.beta < math.inf
        try:
            rep = solve(np.diag(s.lambdas), E, eig=diag_eig(s))
        except PerturbError as err:  # the top eigenvector is e3 + e6 or e4, orthogonal to u1
            assert where != "row-0" and "overlap" in str(err)
        else:
            assert where == "row-0" and rep.method == "oracle-fallback" and rep.leading_certified

    def test_fallback_vector_orthogonal_to_u1(self):
        # A + E = diag(1, 2, 1): the oracle's eigenvector is e2, orthogonal to
        # u1 = e1, so no (u1 + U_perp q) / norm equals it (a clamped division
        # reported q = [4.5e15, 0]); solve names the overlap instead
        A = np.diag([3.0, 2.0, 1.0])
        with pytest.raises(PerturbError, match=r"overlap \|<u1, u>\| = 0 with u1") as err:
            solve(A, np.diag([-2.0, 0.0, 0.0]))
        assert "fallback after GapCollapseError" in str(err.value)
        # E12 = 1e-8 tilts it toward u1 by about 1e-8, and a finite q expands it
        E = np.diag([-2.0, 0.0, 0.0])
        E[0, 1] = E[1, 0] = 1e-8
        rep = solve(A, E)
        assert rep.method == "oracle-fallback"
        assert rep.fallback_reason.startswith("GapCollapseError")
        assert np.all(np.isfinite(rep.q)) and abs(rep.q[0]) == pytest.approx(1e8, rel=1e-6)
        u = np.concatenate(([1.0], rep.q)) / math.sqrt(1.0 + float(np.vdot(rep.q, rep.q).real))
        assert np.allclose(u, rep.u_tilde, rtol=0.0, atol=1e-15)
        assert np.all(np.isfinite(rep.coord_ratios)) and rep.q_norm2 == pytest.approx(1e8, rel=1e-6)

    def test_degenerate_top_eigenvalue_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            solve(np.eye(3), np.zeros((3, 3)))

    def test_degenerate_top_of_perturbed_matrix_rejected(self):
        # the fallback's A + E = diag(3, 3, 1) has no leading eigenvector to report
        with pytest.raises(InvalidSpectrumError):
            solve(np.diag([3.0, 2.0, 1.0]), np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("pass_eig", [False, True])
    @pytest.mark.parametrize("scale", [1e10, 1e100, 1e300, 1e-10, 1e-100, 1e-300])
    @pytest.mark.parametrize("noise", [sample_goe, sample_gue])
    def test_scaled_input_solved_as_at_unit_scale(self, noise, scale, pass_eig):
        # no check may depend on the scale of A + E: not the imaginary part of
        # E12 q, nor a sum of squares that overflows, nor an absolute
        # tolerance that a small A + E meets after one step
        n = 64
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        E = noise(n, 3)
        top = np.linalg.eigvalsh(np.diag(s.lambdas) + E)[-1]
        eig = diag_eig(Spectrum(scale * s.lambdas)) if pass_eig else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(scale * np.diag(s.lambdas), scale * E, eig=eig)
        assert rep.method == "rs" and rep.leading_certified
        assert rep.lambda_tilde == pytest.approx(scale * top, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_scaled_input_step_test_reachable(self, seed):
        # the loop's step test is relative to the rounding level of a step,
        # eps ||E21||_2, as well as absolute: above unit scale an absolute
        # 1e-12 is met only by exact stagnation, and the divergence rule then
        # trips on rounding noise (seeds 3 and 10 fell back at 2^20)
        n = 64
        s = realize_spectrum(SpectrumSpec("linear", n, {"scale": 10}))
        E = sample_goe(n, seed)
        steps = []
        for scale in (2.0 ** 20, 2.0 ** 40):
            eig = diag_eig(Spectrum(scale * s.lambdas))
            rep = solve(scale * np.diag(s.lambdas), scale * E, eig=eig)
            assert rep.method == "rs" and rep.leading_certified
            steps.append(rep.iterations)
        assert abs(steps[0] - steps[1]) <= 1

    def test_complex_diagonal_A_on_identity_basis(self):
        # a complex dtype diagonal A with a real diagonal: verification takes
        # the diagonal's real part, with no ComplexWarning from a cast
        s = spectrum(*(30.0 * np.arange(48, 0, -1)))
        A, E = np.diag(s.lambdas).astype(complex), sample_goe(48, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(A, E, eig=diag_eig(s))
        assert rep.method == "rs" and rep.leading_certified

    def test_unit_norm_and_positive_overlap(self):
        n = 16
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A = np.diag(s.lambdas)
        E = sample_goe(n, 89)
        rep = solve(A, E, eig=diag_eig(s))
        assert np.linalg.norm(rep.u_tilde) == pytest.approx(1.0, abs=1e-12)
        assert rep.u_tilde[0].real >= 0  # e1 is the leading eigenvector of diagonal A


def identity_forms(lam, E, **kwargs):
    """solve on the 1-D A = lam, and on diag(lam) with the identity basis passed in."""
    s = Spectrum(lam)
    return solve(lam, E, **kwargs), solve(np.diag(s.lambdas), E, eig=diag_eig(s), **kwargs)


def same_json(one: SolverReport, two: SolverReport) -> bool:
    return json.dumps(one.to_dict()) == json.dumps(two.to_dict())


def dense_case(case: str):
    """(lam, E, certificate_cap) of an identity-path input that reaches a dense matrix.

    "gate" and "gap-collapse" fall back to the oracle; with verify, "cholesky"
    is certified by the Cholesky proof (the gate's ||S||_F = 1.2 leaves
    interlacing inconclusive, while the loop contracts at ||S||_2 = 0.6), and
    "oracle" by the dense oracle (||A~|| ~ 1e8 puts the residual radius
    above tau).
    """
    if case == "gate":
        n = 32
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        return s.lambdas, 40.0 * sample_goe(n, 31), CERTIFICATE_CAP
    if case == "gap-collapse":
        return np.array([3.0, 2.0, 1.0]), np.diag([-2.0, 0.0, 0.0]) + COUPLING, CERTIFICATE_CAP
    if case == "cholesky":
        E = np.zeros((5, 5))
        E[0, 1:] = E[1:, 0] = 0.01
        E[1:, 1:] = 0.6 * np.eye(4)
        return np.array([2.0, 1.0, 1.0, 1.0, 1.0]), E, math.inf
    return np.array([1.0, 0.0, -1e8]), 1e-3 * sample_goe(3, 23), CERTIFICATE_CAP


class TestEigenvalueInput:
    """A 1-D A lists the eigenvalues of diag(A): solve's identity path with no n x n array but E."""

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("noise", ["goe", "gue", "int", "float32"])
    def test_rs_report_equals_identity_form(self, noise, verify):
        n = 64
        lam = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0})).lambdas
        E = {
            "goe": sample_goe(n, 51),
            "gue": sample_gue(n, 51),
            "int": np.rint(3.0 * sample_goe(n, 51)).astype(np.int64),
            "float32": sample_goe(n, 51).astype(np.float32),
        }[noise]
        one, two = identity_forms(lam, E, verify=verify)
        assert one.method == "rs" and one.leading_certified == verify
        assert same_json(one, two)

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("case,reason", [
        ("gate", "ContractionFailureError"), ("gap-collapse", "GapCollapseError"),
    ])
    def test_fallback_report_equals_identity_form(self, case, reason, verify):
        lam, E, cap = dense_case(case)
        one, two = identity_forms(lam, E, certificate_cap=cap, verify=verify)
        assert one.method == "oracle-fallback" and one.fallback_reason.startswith(reason)
        # E11 = -2 moves the top eigenvalue below the midpoint: not certified
        assert one.leading_certified == (verify and case == "gate")
        assert same_json(one, two)

    @pytest.mark.parametrize("case", ["cholesky", "oracle"])
    def test_verification_equals_identity_form(self, monkeypatch, case):
        # interlacing is inconclusive on both inputs; the Cholesky proof or the
        # dense oracle decides, on the 1-D form as on the 2-D one
        calls = []
        for name in ("cholesky_below", "top_eigpair"):
            def counted(*args, _name=name, _real=getattr(rs_solver, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(rs_solver, name, counted)
        lam, E, cap = dense_case(case)
        one, two = identity_forms(lam, E, certificate_cap=cap, verify=True)
        decider = "cholesky_below" if case == "cholesky" else "top_eigpair"
        assert calls == [decider, decider]
        assert one.method == "rs" and one.leading_certified
        assert same_json(one, two)

    @pytest.mark.parametrize("case", ["gate", "gap-collapse", "cholesky", "oracle"])
    def test_dense_matrices_are_diag_plus_E(self, monkeypatch, case):
        # every n x n matrix the 1-D form hands to the oracle or the Cholesky
        # proof is diag(A) + E, never A broadcast along the rows of E
        seen = []
        for name in ("cholesky_below", "top_eigpair"):
            def recorded(M, *args, _real=getattr(rs_solver, name), **kwargs):
                seen.append(M.copy())  # cholesky_below factors M in place
                return _real(M, *args, **kwargs)

            monkeypatch.setattr(rs_solver, name, recorded)
        lam, E, cap = dense_case(case)
        solve(lam, E, certificate_cap=cap, verify=True)
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.diag(lam) + E)

    def test_no_n_by_n_allocation(self):
        # the identity is held as no array, diag(A) is never formed on the rs
        # path: a verified solve at n = 1024 allocates far less than the 8 MiB
        # of one n x n float64 array
        n = 1024
        lam = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0})).lambdas
        E = sample_goe(n, 61)
        solve(lam, E)  # first-call allocations are not the solve's
        tracemalloc.start()
        try:
            rep = solve(lam, E, verify=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.method == "rs" and rep.leading_certified
        assert peak < 2**20

    @pytest.mark.parametrize("verify", [False, True])
    def test_float32_noise_cast_once(self, verify):
        # a float32 E is cast to float64 once, for the read, the blocks and
        # verification alike: the solve's peak holds one n x n float64 copy
        # (2 MiB at n = 512) and little else, not a second one
        n = 512
        lam = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0})).lambdas
        E = sample_goe(n, 61).astype(np.float32)
        solve(lam, E)  # first-call allocations are not the solve's
        tracemalloc.start()
        try:
            rep = solve(lam, E, verify=verify)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.method == "rs" and rep.leading_certified == verify
        copy = n * n * np.dtype(np.float64).itemsize
        assert peak < copy + copy // 4

    def test_caller_array_left_writeable(self):
        lam = np.array([3.0, 2.0, 1.0])
        solve(lam, 0.1 * sample_goe(3, 7))
        assert lam.flags.writeable

    @pytest.mark.parametrize("A,E,error,message", [
        (np.array([3.0, 2.0, 1.0]) + 0j, np.zeros((3, 3)), ValueError, "lists real eigenvalues"),
        (np.array([3.0, math.nan, 1.0]), np.zeros((3, 3)), ValueError, "A has non-finite entries"),
        (np.array([1.0]), np.zeros((1, 1)), InvalidSpectrumError, "at least two"),
        (np.zeros(0), np.zeros((0, 0)), InvalidSpectrumError, "at least two"),
        (np.array([3.0, 1.0, 2.0]), np.zeros((3, 3)), InvalidSpectrumError, "nonincreasing"),
        (np.array([3.0, 3.0, 1.0]), np.zeros((3, 3)), InvalidSpectrumError, "simple"),
        (np.array([3.0, 2.0, 1.0]), np.zeros((2, 2)), ValueError,
         r"A has shape \(3,\) but E has shape \(2, 2\)"),
        (np.array([3.0, 2.0, 1.0]), np.zeros(3), ValueError, "E must be a square matrix"),
        (np.array([3.0, 2.0, 1.0]), np.diag([0.0, math.inf, 0.0]), ValueError,
         "E has non-finite entries"),
        (np.array([3.0, 2.0, 1.0]), np.triu(np.ones((3, 3))), ValueError,
         "E is not exactly self-adjoint"),
        (np.array([3.0, 2.0, 1.0]), np.zeros((3, 3), dtype=object), ValueError,
         "E has dtype object"),
    ])
    def test_bad_operands_rejected(self, A, E, error, message):
        for verify in (False, True):
            with pytest.raises(error, match=message):
                solve(A, E, verify=verify)

    def test_eig_with_eigenvalues_rejected(self):
        s = spectrum(3, 2, 1)
        with pytest.raises(ValueError, match="pass no eig"):
            solve(s.lambdas, 0.1 * sample_goe(3, 7), eig=diag_eig(s))

    @pytest.mark.parametrize("scale,rescaled", [(1.0, False), (1e200, True), (1e-170, True)])
    def test_step_norm_is_lp_norm(self, monkeypatch, scale, rescaled):
        # each step's ||D dq||_2, from one np.vecdot, is within a few ulps of
        # lp_norm's; where its squares overflow or underflow it is lp_norm's
        steps, norms = [], []
        step_norm, lp = rs_solver._root_of_squares, matcore.lp_norm

        def recorded_lp(v, p):
            norms.append(v)
            return lp(v, p)

        def recorded_step(v, square):
            before = len(norms)
            change = step_norm(v, square)
            steps.append((v.copy(), change, len(norms) > before))
            return change

        monkeypatch.setattr(matcore, "lp_norm", recorded_lp)
        monkeypatch.setattr(rs_solver, "_root_of_squares", recorded_step)
        n = 64
        lam = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0})).lambdas
        rep = solve(scale * lam, scale * sample_goe(n, 3), verify=False)
        assert rep.method == "rs" and rep.iterations == len(steps)
        eps = np.finfo(np.float64).eps
        for v, change, fell_back in steps:
            want = lp(v, 2)
            assert fell_back == (rescaled or want == 0.0)
            assert abs(change - want) <= 4 * eps * want


class TestSolveContract:
    @given(
        n=st.integers(2, 48),
        scale=st.floats(0.0, 100.0),
        tol=st.sampled_from([1e-6, 1e-9, DEFAULT_TOL]),
        noise=st.sampled_from(["goe", "gue", "arrowhead"]),
        basis=st.sampled_from(["identity", "eigenvalues", "oracle", "rotated"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_tagged_finite_and_correct(self, n, scale, tol, noise, basis, seed):
        # solve returns a finite, method-tagged report or raises a typed error;
        # rs implies a gate bound under the cap, and a certified pair is eigh's.
        # A 1-D A (its eigenvalues) gets the identity form's report.
        s = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
        A, eig = np.diag(s.lambdas), diag_eig(s)
        if basis == "rotated":
            Q = np.linalg.qr(rng_from_stream(seed).standard_normal((n, n)))[0]
            A, eig = force_hermitian((Q * s.lambdas) @ Q.T), EigDecomposition(s, Q)
        elif basis != "identity":
            eig = None
        operand = s.lambdas if basis == "eigenvalues" else A
        if noise == "goe":
            E = sample_goe(n, seed)
        elif noise == "gue":
            E = sample_gue(n, seed)
        else:
            E = sample_arrowhead_noise(n, seed)[1]
        try:
            rep = solve(operand, scale * E, tol=tol, eig=eig)
        except (PerturbError, ValueError):
            return
        if basis == "eigenvalues":
            assert same_json(rep, solve(A, scale * E, tol=tol, eig=diag_eig(s)))
        assert rep.method in ("rs", "oracle-fallback")
        for name, value in vars(rep).items():
            if name == "contraction_upper" and value == math.inf:
                assert rep.fallback_reason.startswith("GapCollapseError")
            elif not isinstance(value, str):
                assert np.all(np.isfinite(value)), name
        if rep.method == "rs":
            assert rep.contraction_upper <= CERTIFICATE_CAP
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
                part = rs_solver._blocks(diag_eig(s), E)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["X", "mu", "g"])
    def test_non_finite_input_rejected(self, name, bad):
        args = {"X": np.zeros((3, 3)), "mu": np.ones(3), "g": np.ones(3)}
        args[name][1 if name != "X" else (1, 2)] = bad
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            verify_shifted_domination(args["X"], args["mu"], 0.5, args["g"])

    @staticmethod
    def spy(monkeypatch):
        """Record the reports of the solves verify_shifted_domination makes."""
        reports, inner = [], bounds.solve

        def recorded(*args, **kwargs):
            reports.append(inner(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(bounds, "solve", recorded)
        return reports

    @pytest.mark.parametrize("noise", ["goe", "gue", "shuffled"])
    def test_certified_margin_on_criterion_6_draws(self, monkeypatch, noise):
        # every draw takes the rs path, certified: the margin is -lambda~ and
        # lies within tau = 1e-9 (1 + |margin|) of eigvalsh, which cannot flip
        # its sign, so holds is the dense path's
        reports = self.spy(monkeypatch)
        n = 256
        j = np.arange(1, n + 1, dtype=np.float64)
        mu = 10.0 * (n + 1 - j) * math.log(n) ** 3
        if noise == "shuffled":
            mu = rng_from_stream(1006).permutation(mu)
        draws = 200 if noise == "goe" else 20
        for t in range(draws):
            stream = derive_stream(1006, n, t)
            X = sample_gue(n, stream) if noise == "gue" else sample_goe(n, stream)
            holds, margin = verify_shifted_domination(X, mu, tau=0.0)
            rep = reports[-1]
            assert (rep.method, rep.leading_certified) == ("rs", True)
            assert margin == -rep.lambda_tilde
            dense = float(np.linalg.eigvalsh(np.diag(mu) - X)[0])
            assert abs(margin - dense) <= 1e-9 * (1.0 + abs(margin))
            assert abs(margin - dense) <= 1e-12 * mu.max()
            assert holds == (dense >= 0.0)
        assert len(reports) == draws

    def test_certified_margin_solves_on_eigenvalues(self, monkeypatch):
        # the margin's solve takes -mu[P] as a 1-D A: no n x n diag or basis
        calls, inner = [], bounds.solve

        def recorded(A, E, **kwargs):
            calls.append((np.ndim(A), "eig" in kwargs))
            return inner(A, E, **kwargs)

        monkeypatch.setattr(bounds, "solve", recorded)
        verify_shifted_domination(0.1 * sample_goe(8, 1107), 10.0 * np.arange(1.0, 9.0), tau=0.0)
        assert calls == [(1, False)]

    @pytest.mark.parametrize("case", ["tied", "not-hermitian", "n1", "tau", "near-zero", "uncertified"])
    def test_dense_path_kept(self, monkeypatch, case):
        # inputs the certified path does not take, whose margin its
        # tolerance could flip, or whose report is not leading_certified,
        # get today's eigvalsh margin bit for bit
        reports = self.spy(monkeypatch)
        if case == "uncertified":
            recorded = bounds.solve

            def uncertified(*args, **kwargs):  # moved by 1, so a margin taken from it shows
                report = recorded(*args, **kwargs)
                return replace(report, leading_certified=False, lambda_tilde=report.lambda_tilde + 1.0)

            monkeypatch.setattr(bounds, "solve", uncertified)
        n = 1 if case == "n1" else 8
        X = 0.1 * sample_goe(n, 1107)
        mu = 10.0 * np.arange(1.0, n + 1)
        tau = 0.5 if case == "tau" else 0.0
        if case == "tied":
            mu[1] = mu[0]
        elif case == "not-hermitian":
            X[0, 1] += 1e-3
        elif case == "near-zero":
            X = X - float(np.linalg.eigvalsh(X - np.diag(mu))[-1]) * np.eye(n)
        B = np.diag(mu) - X
        want = float(np.linalg.eigvalsh(B if is_hermitian(B) else force_hermitian(B))[0])
        holds, margin = verify_shifted_domination(X, mu, tau=tau)
        assert margin == want and holds == (want >= 0.0)
        if case == "near-zero":
            assert abs(want) <= 1e-12 and len(reports) == 1
            assert reports[0].leading_certified and abs(reports[0].lambda_tilde) <= 1e-9
        elif case == "uncertified":
            assert len(reports) == 1 and reports[0].leading_certified
            assert reports[0].method == "rs" and abs(-reports[0].lambda_tilde - want) <= 1e-9
        else:
            assert reports == []
