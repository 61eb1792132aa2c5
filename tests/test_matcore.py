import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perturb.ensembles import (
    SpectrumSpec,
    realize_spectrum,
    rng_from_stream,
    sample_goe,
    sample_gue,
)
from perturb import matcore
from perturb.errors import InvalidSpectrumError, NumericFailureError, UnsupportedExponentError
from perturb.matcore import (
    EigDecomposition,
    Spectrum,
    dual_exponent,
    force_hermitian,
    hermitian_eig,
    is_hermitian,
    lp_norm,
    matrix_from_json,
    matrix_to_json,
    operator_norm_exact,
    top_eigpair,
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

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_infinite_entry(self, p):
        assert lp_norm([math.inf, 1.0], p) == math.inf

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


class TestFrobenius:
    @pytest.mark.parametrize("case", ["real", "complex", "overflowing", "underflowing"])
    def test_matches_lp_norm(self, monkeypatch, case):
        # one np.vecdot per row, never one np.vdot of the whole matrix: within
        # gamma_{3n} of the max-rescaled lp_norm(M, 2), and lp_norm's own
        # value when the sum of squares overflows or underflows
        def refuse(*args, **kwargs):
            raise AssertionError("np.vdot called")

        monkeypatch.setattr(np, "vdot", refuse)
        rng = rng_from_stream(211)
        n = 300
        M = rng.standard_normal((n, n))
        if case != "real":
            M = M + 1j * rng.standard_normal((n, n))
        M = M * {"overflowing": 1e200, "underflowing": 1e-170}.get(case, 1.0)
        got, want = matcore._frobenius(M), lp_norm(M, 2)
        if case in ("overflowing", "underflowing"):
            assert got == want
        else:
            assert abs(got - want) <= 3 * n * np.finfo(float).eps * want


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


def _ordered_phased(v: np.ndarray) -> np.ndarray:
    """Columns of v, already ordered, each scaled so its largest-magnitude entry is real positive."""
    lead = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    scale = np.where(np.abs(lead) == 0, 1.0, np.abs(lead) / np.where(lead == 0, 1.0, lead))
    return v * scale


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

    def test_tied_eigenvalues_keep_lapack_order(self):
        # a lowrank spectrum's repeated zeros are exact ties on a diagonal M:
        # the stable sort keeps eigh's order among them, which a plain column
        # reversal (the order when no two eigenvalues tie) would turn round
        s = realize_spectrum(SpectrumSpec("lowrank", 9, {"r": 3, "lambda1": 5.0, "delta": 1.0}))
        M = np.diag(s.lambdas[[3, 0, 4, 1, 5, 6, 2, 7, 8]])
        w, v = np.linalg.eigh(M)
        assert np.count_nonzero(w == 0.0) == 6
        eig = hermitian_eig(M)
        order = np.argsort(-w, kind="stable")
        assert np.array_equal(eig.spectrum.lambdas, w[order])
        assert np.array_equal(eig.basis, _ordered_phased(v[:, order]))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_reversal_matches_sorted_order(self, complex_case):
        # without ties the one-pass reversal and phase give the bits of a
        # stable sort followed by a separate phase pass
        rng = rng_from_stream(43)
        M = rng.standard_normal((40, 40))
        if complex_case:
            M = M + 1j * rng.standard_normal((40, 40))
        M = force_hermitian(M)
        w, v = np.linalg.eigh(M)
        order = np.argsort(-w, kind="stable")
        eig = hermitian_eig(M)
        assert np.array_equal(eig.spectrum.lambdas, w[order])
        assert np.array_equal(eig.basis, _ordered_phased(v[:, order]))

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e300, 1e-20, 1e-300])
    def test_rejects_mispaired_factorization(self, monkeypatch, scale):
        # eigh's vectors with the first two swapped: finite, but M != U diag(w) U*;
        # past ~1e154 a plain sum of squares overflows and would pass it, and
        # below unit scale an absolute floor on the residual would
        eigh = np.linalg.eigh

        def mispaired(M):
            w, v = eigh(M)
            return w, v[:, [1, 0, *range(2, v.shape[1])]]

        monkeypatch.setattr(np.linalg, "eigh", mispaired)
        M = scale * force_hermitian(rng_from_stream(31).standard_normal((6, 6)))
        with pytest.raises(NumericFailureError):
            hermitian_eig(M)


def _oracle_input(kind: str, n: int) -> np.ndarray:
    if kind == "goe":
        return sample_goe(n, 41)
    if kind == "gue":
        return sample_gue(n, 43)
    spectrum = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0}))
    return np.diag(spectrum.lambdas) + sample_goe(n, 47)


def _assert_top_pair_is_eighs(M):
    """top_eigpair(M) agrees with eigh's top pair, phased by the same rule."""
    lam, u = top_eigpair(M)
    w, V = np.linalg.eigh(M)
    v = V[:, -1]
    anchor = v[np.abs(v).argmax()]
    v = v * (abs(anchor) / anchor)
    assert abs(lam - w[-1]) <= 1e-14 * np.abs(w).max()
    assert np.linalg.norm(u - v) <= 1e-12


class TestTopEigpair:
    @pytest.mark.parametrize("n", [2, 3, 64, 256])
    @pytest.mark.parametrize("kind", ["goe", "gue", "diag_noise"])
    def test_agrees_with_hermitian_eig(self, kind, n):
        M = _oracle_input(kind, n)
        lam, u = top_eigpair(M)
        eig = hermitian_eig(M)
        top = float(eig.spectrum.lambdas[0])
        assert abs(lam - top) <= 1e-13 * abs(top)
        assert np.linalg.norm(u - eig.basis[:, 0]) <= 1e-12
        # iteration ran to the rounding level of M u, not just under the 1e-12 above
        Mu = M @ u
        rounding = math.sqrt(n) * np.finfo(float).eps * np.abs(eig.spectrum.lambdas).max()
        assert np.linalg.norm(Mu - np.vdot(u, Mu).real * u) <= 2.0 * rounding
        assert np.iscomplexobj(u) == (kind == "gue")
        anchor = u[np.abs(u).argmax()]
        assert anchor.real > 0 and abs(anchor.imag) <= 1e-14 * abs(anchor)

    @pytest.mark.parametrize("kind", ["goe", "gue"])
    def test_no_level1_blas_over_the_matrix(self, monkeypatch, kind):
        # ||M||_F comes from one np.vecdot per row (_frobenius), never from
        # one threaded BLAS call over all n^2 entries; vectors are fine
        def refuse(name, fn):
            def checked(x, *args, **kwargs):
                assert np.ndim(x) < 2, f"{name} over a matrix"
                return fn(x, *args, **kwargs)
            return checked

        M = _oracle_input(kind, 64)
        want = top_eigpair(M)
        monkeypatch.setattr(np, "vdot", refuse("np.vdot", np.vdot))
        monkeypatch.setattr(np.linalg, "norm", refuse("np.linalg.norm", np.linalg.norm))
        lam, u = top_eigpair(M)
        assert lam == want[0] and np.array_equal(u, want[1])

    @pytest.mark.parametrize("n", [2, 3, 64, 256])
    def test_diagonal_gives_unit_vector_exactly(self, n):
        # the zero ensemble's A + E: no singular LU, and e_k exactly
        lam = realize_spectrum(SpectrumSpec("multiscale", n, {"eps": 1.0})).lambdas
        order = rng_from_stream(53).permutation(n)
        top, u = top_eigpair(np.diag(lam[order]))
        k = int(np.argmax(lam[order]))
        assert top == lam[0]
        assert np.array_equal(u, np.eye(n)[k])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("kind", ["goe", "gue"])
    def test_extreme_scale_as_unit_scale(self, kind, scale):
        M = _oracle_input(kind, 64)
        lam, u = top_eigpair(M)
        lam_s, u_s = top_eigpair(scale * M)
        assert abs(lam_s / scale - lam) <= 1e-13 * abs(lam)
        assert np.linalg.norm(u_s - u) <= 1e-12

    @pytest.mark.parametrize("exponent", [-996, 996])
    def test_power_of_two_scale_is_exact(self, exponent):
        M = _oracle_input("gue", 64)
        lam, u = top_eigpair(M)
        lam_s, u_s = top_eigpair(M * 2.0**exponent)
        assert lam_s == math.ldexp(lam, exponent)
        assert np.array_equal(u_s, u)

    def test_deterministic(self):
        M = _oracle_input("gue", 64)
        (a, u), (b, v) = top_eigpair(M), top_eigpair(M)
        assert a == b and np.array_equal(u, v)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            top_eigpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("M", [np.diag([2.0, 2.0, 1.0]), np.array([[1.0]])])
    def test_rejects_tied_top(self, M):
        with pytest.raises(InvalidSpectrumError):
            top_eigpair(M)

    def test_eigvalsh_failure_is_numeric_failure(self, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericFailureError):
            top_eigpair(_oracle_input("goe", 8))

    def test_solve_failure_is_numeric_failure(self, monkeypatch):
        def fail(M, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", fail)
        with pytest.raises(NumericFailureError):
            top_eigpair(_oracle_input("goe", 8))

    def test_non_finite_is_numeric_failure(self):
        with pytest.raises(NumericFailureError):
            top_eigpair(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_overflowing_eigenvalue_is_numeric_failure(self):
        # lambda_max = 3e308 is beyond the float range, though every entry is finite
        with pytest.raises(NumericFailureError, match="overflows"):
            top_eigpair(np.full((3, 3), 1e308))

    def test_subnormal_largest_entry(self):
        # 2^1074 would overflow: a subnormal M is scaled by 2^1022 only
        lam, u = top_eigpair(np.diag([5e-324, 0.0]))
        assert lam == 5e-324 and np.array_equal(u, [1.0, 0.0])

    @pytest.mark.parametrize("M", [
        [[0.0, 5.0], [5.0, 6.0]],
        [[0.0, -6.0], [-6.0, 2.0]],
        np.ones((3, 3)),
        np.diag([3.0, 2.0, 1.0]) + 1.0,
    ])
    def test_exactly_singular_first_shift(self, M):
        # the LU of M - (lambda + eps ||M||_2) I meets an exactly zero pivot
        _assert_top_pair_is_eighs(np.array(M))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_symmetric_gaussian_sweep(self, n):
        # about 2 % of these at n = 3 meet a zero pivot at the first shift
        rng = rng_from_stream(1)
        for _ in range(2000):
            M = rng.standard_normal((n, n))
            _assert_top_pair_is_eighs(M + M.T)


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

    def test_copies_caller_array(self):
        # the spectrum keeps a read-only copy: the caller's array stays
        # writable, and writing to it does not reach the spectrum
        lam = np.array([3.0, 2.0, 1.0])
        s = Spectrum(lam)
        assert lam.flags.writeable and not s.lambdas.flags.writeable
        lam[0] = 0.0
        assert s.lambdas[0] == 3.0


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


class TestEigDecomposition:
    def spectrum(self, n):
        return Spectrum(np.arange(n, 0, -1.0))

    @pytest.mark.parametrize("value,identity", [
        (math.nan, False), (-0.0, True), (5e-324, False), (-5e-324, False), (1.0, False),
    ])
    def test_is_identity_reads_every_off_diagonal_entry(self, value, identity):
        # NaN is not zero, -0.0 is, and a subnormal is not; the first and last
        # off-diagonal entries of each row and column are read
        n = 5
        for i, j in [(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (n - 2, n - 1), (n - 1, n - 2), (2, 3)]:
            basis = np.eye(n)
            basis[i, j] = value
            assert EigDecomposition(self.spectrum(n), basis).is_identity == identity

    @pytest.mark.parametrize("value", [np.nextafter(1.0, 2.0), -1.0, 0.0, math.nan, 1.0 + 1e-300j])
    def test_is_identity_needs_unit_diagonal(self, value):
        n = 4
        for k in (0, n - 1):
            basis = np.eye(n, dtype=np.result_type(value, np.float64))
            basis[k, k] = value
            assert not EigDecomposition(self.spectrum(n), basis).is_identity

    def test_complex_identity(self):
        assert EigDecomposition(self.spectrum(3), np.eye(3, dtype=complex)).is_identity

    def test_none_basis_is_the_identity(self):
        eig = EigDecomposition(self.spectrum(4), None)
        assert eig.is_identity
        assert np.array_equal(eig.leading_vector(), np.eye(4)[:, 0])
        assert np.array_equal(eig.tail_basis(), np.eye(4)[:, 1:])


class TestHermitianHelpers:
    def test_force_hermitian_exact(self):
        rng = rng_from_stream(3)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H = force_hermitian(M)
        assert is_hermitian(H)
        assert np.all(H.diagonal().imag == 0.0)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_force_hermitian_tiles_match_formula(self, complex_case):
        # a matrix wider than the 128-wide tiles, last tile partial, gets the
        # bytes of (M + M*)/2, signed zeros included
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
        obj = json.loads(vector_to_json(v))
        assert (obj["len"], obj["scalar"]) == (3, "real")
        assert np.array_equal(np.array(obj["entries"]), v)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"n": 2, "scalar": "real", "entries": [1, 2, 3]}')

    @pytest.mark.parametrize("scalar", ["bogus", "Real", ""])
    def test_unknown_scalar_rejected(self, scalar):
        text = json.dumps({"n": 1, "scalar": scalar, "entries": [1.0]})
        with pytest.raises(ValueError, match="scalar must be 'real' or 'complex'"):
            matrix_from_json(text)
