import math

import numpy as np
import pytest

from perturb.bounds import conjugate_gap_norm, gap_vector
from perturb.ensembles import (
    EntryDistribution,
    SpectrumSpec,
    derive_stream,
    realize_spectrum,
    rng_from_stream,
    sample_arrowhead_noise,
    sample_arrowhead_vector,
    sample_goe,
    sample_gue,
    sample_inconsistency_instance,
    sample_subgaussian_hermitian,
)
from perturb.errors import InvalidSpectrumError
from perturb.matcore import hermitian_eig, is_hermitian, operator_norm_exact


def _unit_bound(tag, trunc):
    """Almost-sure bound of |x| for EntryDistribution(tag, trunc); nan if unbounded."""
    if tag == "rademacher":
        return 1.0
    if tag == "uniform_pm1":
        return math.sqrt(3.0)
    if tag == "truncated_gaussian":
        # N(0,1) conditioned on |x| <= c has variance 1 - 2c phi(c) / (2 Phi(c) - 1)
        phi = math.exp(-0.5 * trunc * trunc) / math.sqrt(2.0 * math.pi)
        return trunc / math.sqrt(1.0 - 2.0 * trunc * phi / math.erf(trunc / math.sqrt(2.0)))
    return math.nan


class TestEntryDistribution:
    @pytest.mark.parametrize("tag", ["gaussian", "rademacher", "uniform_pm1", "truncated_gaussian"])
    def test_unit_moments(self, tag):
        dist = EntryDistribution(tag)
        x = dist.sample(rng_from_stream(100), 200_000)
        assert abs(x.mean()) < 0.02
        assert x.var() == pytest.approx(1.0, abs=0.02)

    def test_bounded_tags_record_bound(self):
        # each bounded law's almost-sure bound is its sup |x|: 50 000 samples
        # come within 2 % of it, and gaussian samples pass every such bound
        for tag, trunc in [("rademacher", 3.0), ("uniform_pm1", 3.0), ("truncated_gaussian", 2.5)]:
            bound = _unit_bound(tag, trunc)
            x = EntryDistribution(tag, trunc).sample(rng_from_stream(11), 50_000)
            assert 0.98 * bound <= np.abs(x).max() <= bound * (1 + 1e-12)
        assert math.isnan(_unit_bound("gaussian", 3.0))
        x = EntryDistribution("gaussian").sample(rng_from_stream(11), 50_000)
        bounded = ("rademacher", "uniform_pm1", "truncated_gaussian")
        assert np.abs(x).max() > max(_unit_bound(t, 3.0) for t in bounded)

    def test_bounds_hold(self):
        for tag in ("rademacher", "uniform_pm1", "truncated_gaussian"):
            x = EntryDistribution(tag).sample(rng_from_stream(7), 50_000)
            assert np.abs(x).max() <= _unit_bound(tag, 3.0) * (1 + 1e-12)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            EntryDistribution("cauchy")

    @pytest.mark.parametrize("trunc", [0.0999, 1e-9, math.inf])
    def test_truncation_floor(self, trunc):
        # at c = 1e-9 rejection sampling would take ~1.25e9 draws per entry
        with pytest.raises(ValueError, match="finite and at least 0.1"):
            EntryDistribution("truncated_gaussian", trunc)
        x = EntryDistribution("truncated_gaussian", 0.1).sample(rng_from_stream(3), 1000)
        assert np.abs(x).max() <= _unit_bound("truncated_gaussian", 0.1) * (1 + 1e-12)


class TestSubgaussianSampler:
    def test_rademacher_support_and_symmetry(self):
        dist = EntryDistribution("rademacher")
        M = sample_subgaussian_hermitian(2, dist, "real", 3)
        assert set(np.unique(M)) <= {-1.0, 1.0}
        assert is_hermitian(M)

    def test_replay_determinism(self):
        dist = EntryDistribution("gaussian")
        a = sample_subgaussian_hermitian(10, dist, "complex", 42)
        b = sample_subgaussian_hermitian(10, dist, "complex", 42)
        assert np.array_equal(a, b)

    def test_offdiag_variance(self):
        # empirical off-diagonal variance over 100 draws within 1 +- 0.1
        dist = EntryDistribution("gaussian")
        pool = []
        for t in range(100):
            M = sample_subgaussian_hermitian(64, dist, "real", derive_stream(8, t))
            pool.append(M[np.triu_indices(64, k=1)])
        assert np.concatenate(pool).var() == pytest.approx(1.0, abs=0.1)

    def test_complex_diagonal_real(self):
        M = sample_subgaussian_hermitian(6, EntryDistribution("gaussian"), "complex", 1)
        assert np.all(M.diagonal().imag == 0.0)


class TestGOE:
    def test_diag_variance(self):
        # diagonal variance over 200 draws of n=200 within 2 +- 0.3
        diags = [np.diagonal(sample_goe(200, derive_stream(21, t))) for t in range(200)]
        assert np.concatenate(diags).var() == pytest.approx(2.0, abs=0.3)

    def test_semicircle_edge(self):
        # lambda_max / sqrt(n) near 2 over 20 draws at n=500
        vals = []
        for t in range(20):
            eig = hermitian_eig(sample_goe(500, derive_stream(33, t)))
            vals.append(eig.spectrum.lambdas[0] / math.sqrt(500))
        assert all(1.8 <= v <= 2.2 for v in vals)

    def test_replay(self):
        assert np.array_equal(sample_goe(16, 9), sample_goe(16, 9))


class TestGUE:
    def test_hermitian_complex(self):
        M = sample_gue(12, 4)
        assert is_hermitian(M)
        assert np.iscomplexobj(M)
        assert np.all(M.diagonal().imag == 0.0)

    def test_unitary_invariance_smoke(self):
        # eigenvalue histogram of U* X U over fresh draws matches that of X
        rng = rng_from_stream(123)
        Z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        Q, R = np.linalg.qr(Z)
        Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
        plain, conj = [], []
        for t in range(50):
            plain.append(np.linalg.eigvalsh(sample_gue(64, derive_stream(60, t))))
            Y = sample_gue(64, derive_stream(61, t))
            conj.append(np.linalg.eigvalsh(Q.conj().T @ Y @ Q))
        a = np.sort(np.concatenate(plain))
        b = np.sort(np.concatenate(conj))
        grid = np.union1d(a, b)
        Fa = np.searchsorted(a, grid, side="right") / a.size
        Fb = np.searchsorted(b, grid, side="right") / b.size
        assert np.abs(Fa - Fb).max() < 0.1


class TestArrowheadNoise:
    def test_structure_n2(self):
        g, E = sample_arrowhead_noise(2, 5)
        np.testing.assert_array_equal(E, [[0.0, g[0]], [g[0], 0.0]])

    def test_rank_two(self):
        g, E = sample_arrowhead_noise(8, 6)
        assert is_hermitian(E)
        assert np.linalg.matrix_rank(E) <= 2

    def test_norm_equals_g_norm(self):
        g, E = sample_arrowhead_noise(16, 7)
        assert operator_norm_exact(E, 2) == pytest.approx(np.linalg.norm(g), rel=1e-12)

    @pytest.mark.parametrize("seed", [9, 23])
    def test_vector_alone_same_draw(self, seed):
        # the lower-bound experiment needs only g; it must be the same draw
        g = sample_arrowhead_vector(12, seed)
        assert g.tobytes() == sample_arrowhead_noise(12, seed)[0].tobytes()

    def test_vector_needs_n2(self):
        with pytest.raises(ValueError):
            sample_arrowhead_vector(1, 0)


class TestInconsistencyInstance:
    def test_anchor_and_zero_row(self):
        A, E = sample_inconsistency_instance(50, 2.0, 3)
        assert A[-1, -1] == pytest.approx(3.0 * math.sqrt(50), abs=1e-12)
        assert np.all(E[0, :] == 0.0) and np.all(E[:, 0] == 0.0)
        assert is_hermitian(E)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_gap_functional_matches_display(self, n, p):
        # n^(1/p) ||d||_{p/(p-2)} equals log^2 n * H_{n-1}^{(p-2)/p}, which is
        # Theta(log^{3-2/p} n): ratio stays in [0.5, 2].
        spectrum = realize_spectrum(SpectrumSpec("inconsistency", n, {"p": p}))
        d = gap_vector(spectrum)
        value = n ** (1.0 / p) * conjugate_gap_norm(d, p)
        harmonic = np.sum(1.0 / np.arange(1, n))
        closed = math.log(n) ** 2 * harmonic ** ((p - 2.0) / p)
        assert value == pytest.approx(closed, rel=1e-10)
        ratio = value / math.log(n) ** (3.0 - 2.0 / p)
        assert 0.5 <= ratio <= 2.0


class TestSpectrumSpecFromDict:
    def test_n_fills_a_spec_without_one(self):
        spec = SpectrumSpec.from_dict({"family": "linear", "params": {"scale": 1}}, n=10)
        assert spec.n == 10

    def test_matching_n_accepted(self):
        spec = SpectrumSpec.from_dict({"family": "linear", "n": 3, "params": {"scale": 1}}, n=3)
        assert spec.n == 3

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError, match="n = 3.*n = 10"):
            SpectrumSpec.from_dict({"family": "linear", "n": 3, "params": {"scale": 1}}, n=10)

    def test_unread_key_rejected(self):
        with pytest.raises(ValueError, match="does not read 'size'"):
            SpectrumSpec.from_dict({"family": "linear", "size": 3, "params": {"scale": 1}})

    @pytest.mark.parametrize("family, param", [
        ("explicit", "lambda"),
        ("linear", "eps"),
        ("multiscale", "epsilon"),
        ("lowrank", "rank"),
        ("inconsistency", "eps"),
    ])
    def test_param_the_family_does_not_read_rejected(self, family, param):
        with pytest.raises(ValueError, match=f"'{family}' does not read '{param}'"):
            SpectrumSpec.from_dict({"family": family, "n": 4, "params": {param: 1.0}})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown spectrum family 'geometric'"):
            SpectrumSpec("geometric", 4)


class TestRealizeSpectrum:
    def test_linear(self):
        s = realize_spectrum(SpectrumSpec("linear", 3, {"scale": 1.0}))
        np.testing.assert_allclose(s.lambdas, [3.0, 2.0, 1.0])

    def test_multiscale_formula(self):
        s = realize_spectrum(SpectrumSpec("multiscale", 8, {"eps": 1.0}))
        expected = (9 - np.arange(1, 9)) * math.log(8) ** 3
        np.testing.assert_allclose(s.lambdas, expected, rtol=1e-15)

    def test_explicit_degenerate_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            realize_spectrum(SpectrumSpec("explicit", 3, {"lambdas": [5.0, 5.0, 1.0]}))

    def test_lowrank_pattern(self):
        s = realize_spectrum(SpectrumSpec("lowrank", 6, {"r": 2, "lambda1": 10.0, "delta": 3.0}))
        np.testing.assert_allclose(s.lambdas, [10.0, 7.0, 0, 0, 0, 0])

    def test_inconsistency_p2_tail_flat(self):
        s = realize_spectrum(SpectrumSpec("inconsistency", 20, {"p": 2.0}))
        # at p=2 all gaps are equal, so the tail is flat at 3 sqrt(n)
        np.testing.assert_allclose(s.lambdas[1:], 3.0 * math.sqrt(20), rtol=1e-14)


class TestReplay:
    def test_every_sampler_replays(self):
        dist = EntryDistribution("truncated_gaussian", 2.0)
        assert np.array_equal(
            sample_subgaussian_hermitian(9, dist, "real", 14),
            sample_subgaussian_hermitian(9, dist, "real", 14),
        )
        assert np.array_equal(sample_gue(9, 14), sample_gue(9, 14))
        g1, E1 = sample_arrowhead_noise(9, 14)
        g2, E2 = sample_arrowhead_noise(9, 14)
        assert np.array_equal(g1, g2) and np.array_equal(E1, E2)
        A1, F1 = sample_inconsistency_instance(9, 3.0, 14)
        A2, F2 = sample_inconsistency_instance(9, 3.0, 14)
        assert np.array_equal(A1, A2) and np.array_equal(F1, F2)


class TestStreams:
    def test_derive_stream_stable(self):
        assert derive_stream(7, 64, 3) == derive_stream(7, 64, 3)
        assert derive_stream(7, 64, 3) != derive_stream(7, 64, 4)

    def test_order_independence(self):
        # drawing trial 5 does not depend on whether trial 4 was drawn
        a = sample_goe(6, derive_stream(1, 6, 5))
        sample_goe(6, derive_stream(1, 6, 4))
        b = sample_goe(6, derive_stream(1, 6, 5))
        assert np.array_equal(a, b)
