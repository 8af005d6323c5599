"""Property tests: batched noise sampling matches the per-sample path.

The vectorised fast paths (``obfuscate_batch``,
``posterior_weights_array``, ``select_index_batch``) must be statistically
indistinguishable from the original one-sample-at-a-time code they
replaced — same noise law, same posterior weights, same selection
distribution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import (
    PosteriorSelector,
    posterior_weights,
    posterior_weights_array,
)
from repro.core.sampling import sample_gaussian_noise
from repro.geo.point import Point

seeds = st.integers(min_value=0, max_value=2**31 - 1)

N_SAMPLES = 4_000


def _budget(n: int = 1) -> GeoIndBudget:
    return GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=n)


class TestGaussianBatchDistribution:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_batch_moments_match_per_sample(self, seed):
        """Batched draws and per-sample draws estimate the same law."""
        origin = np.zeros((N_SAMPLES, 2))
        batch_mech = GaussianMechanism(_budget(), rng=default_rng(seed))
        loop_mech = GaussianMechanism(_budget(), rng=default_rng(seed + 1))

        batched = batch_mech.obfuscate_batch(origin)
        looped = np.array(
            [
                [p.x, p.y]
                for _ in range(N_SAMPLES)
                for p in loop_mech.obfuscate(Point(0.0, 0.0))
            ]
        )
        sigma = batch_mech.sigma
        # Standard error of the mean is sigma/sqrt(N); allow 5 SEs.
        tol = 5 * sigma / np.sqrt(N_SAMPLES)
        assert np.allclose(batched.mean(axis=0), looped.mean(axis=0), atol=2 * tol)
        assert np.allclose(
            batched.std(axis=0), looped.std(axis=0), rtol=0.15
        )
        assert np.allclose(batched.std(axis=0), sigma, rtol=0.1)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_obfuscate_batch_matches_obfuscate(self, seed):
        """n-fold batched candidate sets follow the per-call noise law."""
        n_fold = 4
        many_mech = NFoldGaussianMechanism(_budget(n_fold), rng=default_rng(seed))
        loop_mech = NFoldGaussianMechanism(
            _budget(n_fold), rng=default_rng(seed + 1)
        )

        locations = np.zeros((N_SAMPLES // n_fold, 2))
        many = many_mech.obfuscate_batch(locations)
        assert many.shape == (len(locations), n_fold, 2)
        flat = many.reshape(-1, 2)
        looped = np.array(
            [
                [p.x, p.y]
                for _ in range(len(locations))
                for p in loop_mech.obfuscate(Point(0.0, 0.0))
            ]
        )
        assert looped.shape == flat.shape
        assert np.allclose(flat.std(axis=0), looped.std(axis=0), rtol=0.2)
        assert np.allclose(flat.std(axis=0), many_mech.sigma, rtol=0.15)


class TestLaplaceBatchDistribution:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_batch_radius_matches_per_sample(self, seed):
        """Batched planar-Laplace noise has the same radial law."""
        mech_a = PlanarLaplaceMechanism.from_level(
            np.log(2), 200.0, rng=default_rng(seed)
        )
        mech_b = PlanarLaplaceMechanism.from_level(
            np.log(2), 200.0, rng=default_rng(seed + 1)
        )
        batched = mech_a.obfuscate_batch(np.zeros((N_SAMPLES, 2)))
        looped = np.array(
            [
                [p.x, p.y]
                for _ in range(N_SAMPLES)
                for p in mech_b.obfuscate(Point(0.0, 0.0))
            ]
        )
        r_batch = np.hypot(batched[:, 0], batched[:, 1])
        r_loop = np.hypot(looped[:, 0], looped[:, 1])
        # Planar Laplace radius ~ Gamma(2, 1/eps): mean 2/eps.
        expected = 2.0 / mech_a.epsilon
        assert np.isclose(r_batch.mean(), expected, rtol=0.1)
        assert np.isclose(r_batch.mean(), r_loop.mean(), rtol=0.15)
        assert np.isclose(r_batch.std(), r_loop.std(), rtol=0.25)


class TestPosteriorBatchEquivalence:
    @given(seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_weights_array_matches_per_set(self, seed, n_candidates):
        """The (m, n) weight matrix equals row-wise per-set weights exactly."""
        rng = np.random.default_rng(seed)
        sets = rng.normal(scale=300.0, size=(6, n_candidates, 2))
        matrix = posterior_weights_array(sets, sigma=150.0)
        for i in range(sets.shape[0]):
            candidates = [Point(x, y) for x, y in sets[i]]
            row = posterior_weights(candidates, sigma=150.0)
            assert np.allclose(matrix[i], row, atol=1e-12)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_select_index_batch_follows_weights(self, seed):
        """Batch selection frequencies converge to the posterior weights."""
        rng = np.random.default_rng(seed)
        one_set = rng.normal(scale=300.0, size=(1, 3, 2))
        sets = np.repeat(one_set, N_SAMPLES, axis=0)
        selector = PosteriorSelector(150.0, rng=default_rng(seed))
        picks = selector.select_index_batch(sets)
        expected = posterior_weights_array(one_set, sigma=150.0)[0]
        freqs = np.bincount(picks, minlength=3) / N_SAMPLES
        assert np.allclose(freqs, expected, atol=0.05)

    def test_select_index_batch_degenerate_rows(self):
        """A candidate at the set mean with far-away rivals dominates."""
        sets = np.array([[[0.0, 0.0], [1e5, 0.0], [-1e5, 0.0]]] * 50)
        selector = PosteriorSelector(100.0, rng=default_rng(3))
        picks = selector.select_index_batch(sets)
        assert (picks == 0).all()


coords = st.floats(
    min_value=-1e7, max_value=1e7, allow_nan=False, allow_infinity=False
)


class TestNFoldCandidatesExact:
    @given(seeds, coords, coords, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_candidates_equal_per_row_formula(self, seed, x, y, n):
        """``obfuscate`` is bit-identical to adding each noise row in Python."""
        budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=n)
        mech = NFoldGaussianMechanism(budget, rng=default_rng(seed))
        noise = sample_gaussian_noise(mech.sigma, n, default_rng(seed))
        expected = [Point(x + float(dx), y + float(dy)) for dx, dy in noise]
        got = mech.obfuscate(Point(x, y))
        assert [(p.x, p.y) for p in got] == [(p.x, p.y) for p in expected]
        assert all(type(p.x) is float and type(p.y) is float for p in got)
