import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perturb.ensembles import rng_from_stream
from perturb.errors import InvalidSpectrumError, NumericFailureError, UnsupportedExponentError
from perturb.matcore import (
    Spectrum,
    dual_exponent,
    force_hermitian,
    hermitian_eig,
    is_hermitian,
    lp_norm,
    matrix_from_json,
    matrix_to_json,
    operator_norm_exact,
    vector_from_json,
    vector_to_json,
)


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm([3.0, 4.0], 2) == pytest.approx(5.0, abs=1e-15)

    def test_inf(self):
        assert lp_norm([1.0, -1.0, 1.0, -1.0], math.inf) == 1.0

    def test_one(self):
        assert lp_norm([1.0, 2.0, 2.0], 1) == 5.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lp_norm([1.0], 0.5)
        with pytest.raises(ValueError):
            lp_norm([], 2)

    def test_complex(self):
        assert lp_norm([3 + 4j], 2) == pytest.approx(5.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0, math.inf]),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0, math.inf]))
    @settings(max_examples=200, deadline=None)
    @example([3.63e-257], 3.0, 2.0)  # squares underflow: the 2-norm must rescale
    @example([1.66e-180], 3.0, 2.0)
    def test_monotone_in_exponent(self, vals, r, s):
        # ||v||_r <= ||v||_s whenever s <= r
        if s > r:
            r, s = s, r
        v = np.array(vals)
        assert lp_norm(v, r) <= lp_norm(v, s) * (1 + 1e-12) + 1e-300


class TestDualExponent:
    @pytest.mark.parametrize("p,expected", [(2.0, 2.0), (math.inf, 1.0), (1.0, math.inf), (4.0, 4.0 / 3.0)])
    def test_values(self, p, expected):
        assert dual_exponent(p) == pytest.approx(expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            dual_exponent(0.9)


class TestOperatorNormExact:
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_identity(self, p):
        assert operator_norm_exact(np.eye(3), p) == pytest.approx(1.0)

    def test_single_entry(self):
        M = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert operator_norm_exact(M, 1) == 2.0
        assert operator_norm_exact(M, math.inf) == 2.0

    def test_p2_matches_eig_oracle(self):
        rng = rng_from_stream(5)
        M = force_hermitian(rng.standard_normal((6, 6)))
        eig = hermitian_eig(M)
        assert operator_norm_exact(M, 2) == pytest.approx(
            np.abs(eig.spectrum.lambdas).max(), abs=1e-12
        )

    def test_unsupported(self):
        with pytest.raises(UnsupportedExponentError):
            operator_norm_exact(np.eye(2), 3)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_bounds_matvec(self, p):
        rng = rng_from_stream(17)
        for _ in range(25):
            M = rng.standard_normal((5, 5))
            v = rng.standard_normal(5)
            assert lp_norm(M @ v, p) <= operator_norm_exact(M, p) * lp_norm(v, p) * (1 + 1e-12)


class TestHermitianEig:
    def test_diagonal(self):
        eig = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.spectrum.lambdas, [3.0, 1.0])
        np.testing.assert_allclose(eig.basis, np.eye(2))

    def test_2x2_closed_form(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.spectrum.lambdas, [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(eig.basis[:, 0], np.ones(2) / math.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_reconstruction_16(self, complex_case):
        rng = rng_from_stream(11)
        M = rng.standard_normal((16, 16))
        if complex_case:
            M = M + 1j * rng.standard_normal((16, 16))
        M = force_hermitian(M)
        eig = hermitian_eig(M)
        U, lam = eig.basis, eig.spectrum.lambdas
        assert np.linalg.norm((U * lam) @ U.conj().T - M, "fro") <= 1e-11 * np.linalg.norm(M, "fro")
        assert np.linalg.norm(U.conj().T @ U - np.eye(16), "fro") <= 1e-12 * 16

    def test_deterministic(self):
        rng = rng_from_stream(23)
        M = force_hermitian(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        a = hermitian_eig(M)
        b = hermitian_eig(M)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.spectrum.lambdas, b.spectrum.lambdas)

    def test_phase_convention(self):
        rng = rng_from_stream(29)
        M = force_hermitian(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        eig = hermitian_eig(M)
        for j in range(8):
            col = eig.basis[:, j]
            anchor = col[np.abs(col).argmax()]
            assert anchor.real > 0
            assert abs(anchor.imag) <= 1e-14 * abs(anchor)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_degenerate_top(self):
        # the leading eigenvector of diag(2, 2, 1) is not defined
        with pytest.raises(InvalidSpectrumError):
            hermitian_eig(np.diag([2.0, 2.0, 1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e300])
    def test_rejects_mispaired_factorization(self, monkeypatch, scale):
        # eigh's vectors with the first two swapped: finite, but M != U diag(w) U*;
        # past ~1e154 a plain sum of squares overflows and would pass it
        eigh = np.linalg.eigh

        def mispaired(M):
            w, v = eigh(M)
            return w, v[:, [1, 0, *range(2, v.shape[1])]]

        monkeypatch.setattr(np.linalg, "eigh", mispaired)
        M = scale * force_hermitian(rng_from_stream(31).standard_normal((6, 6)))
        with pytest.raises(NumericFailureError):
            hermitian_eig(M)


class TestSpectrum:
    def test_rejects_degenerate_top(self):
        with pytest.raises(InvalidSpectrumError):
            Spectrum(np.array([5.0, 5.0, 1.0]))

    def test_rejects_increase(self):
        with pytest.raises(InvalidSpectrumError):
            Spectrum(np.array([3.0, 1.0, 2.0]))

    def test_gaps_and_delta(self):
        s = Spectrum(np.array([3.0, 2.0, 1.0]))
        assert s.delta == 1.0
        np.testing.assert_allclose(s.gaps(), [1.0, 2.0])


class TestNormLemmas:
    def test_l2_vs_conjugate_norm(self):
        # ||x||_2 <= N^(1/p) ||x||_{p/(p-2)} on 1000 random vectors
        rng = rng_from_stream(41)
        checks = 0
        for _ in range(1000):
            N = int(rng.choice([4, 64, 256]))
            p = float(rng.choice([2.0, 3.0, 4.0, 8.0]))
            x = rng.standard_normal(N)
            rhs_exp = math.inf if p == 2 else p / (p - 2.0)
            assert lp_norm(x, 2) <= N ** (1.0 / p) * lp_norm(x, rhs_exp)
            checks += 1
        assert checks == 1000


class TestHermitianHelpers:
    def test_force_hermitian_exact(self):
        rng = rng_from_stream(3)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H = force_hermitian(M)
        assert is_hermitian(H)
        assert np.all(H.diagonal().imag == 0.0)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_force_hermitian_tiles_match_formula(self, complex_case):
        # the tiled path (n > 128, last tile partial) gives the bytes of (M + M*)/2,
        # signed zeros included
        rng = rng_from_stream(4)
        M = rng.standard_normal((300, 300))
        if complex_case:
            M = M + 1j * rng.standard_normal((300, 300))
        M[3, 290] = M[290, 3] = -0.0
        H = force_hermitian(M)
        expected = (M + M.conj().T) / 2.0
        assert H.dtype == expected.dtype
        assert H.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [200, 300])
    def test_is_hermitian_last_partial_tile(self, n):
        # n is not a multiple of the 128-wide tiles; one entry in the last,
        # partial tile breaks symmetry by one ulp
        H = force_hermitian(rng_from_stream(5).standard_normal((n, n)))
        assert is_hermitian(H)
        H[n - 1, n - 3] = np.nextafter(H[n - 1, n - 3], np.inf)
        assert not is_hermitian(H)
        assert not is_hermitian(H.T)

    def test_is_hermitian_imaginary_diagonal(self):
        rng = rng_from_stream(6)
        M = rng.standard_normal((150, 150)) + 1j * rng.standard_normal((150, 150))
        H = force_hermitian(M)
        assert is_hermitian(H)
        H[140, 140] += 1e-300j  # a diagonal entry equals itself, not its conjugate
        assert not is_hermitian(H)

    @pytest.mark.parametrize("shape", [(3, 4), (130, 129), (4,), (2, 2, 2)])
    def test_is_hermitian_not_square(self, shape):
        assert not is_hermitian(np.zeros(shape))


class TestJsonRoundTrip:
    def test_real_matrix(self):
        rng = rng_from_stream(7)
        M = rng.standard_normal((4, 4))
        back = matrix_from_json(matrix_to_json(M))
        assert np.array_equal(M, back)

    def test_complex_matrix(self):
        rng = rng_from_stream(9)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = matrix_from_json(matrix_to_json(M))
        assert np.array_equal(M, back)

    def test_vector(self):
        v = np.array([1.5, -2.25, 1e-300])
        assert np.array_equal(vector_from_json(vector_to_json(v)), v)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"n": 2, "scalar": "real", "entries": [1, 2, 3]}')
