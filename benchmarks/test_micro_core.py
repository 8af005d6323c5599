"""Micro-benchmarks of the hot code paths.

Not tied to a paper table; these track the throughput of the primitives
the system-level numbers are built from (obfuscation, clustering,
selection, matching), so regressions are attributable.
"""

import numpy as np
import pytest

from repro.ads.campaign import Advertiser, Campaign
from repro.ads.matching import CampaignIndex
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget, OneTimeBudget
from repro.core.posterior import PosteriorSelector
from repro.geo.index import _grid_labels, component_labels, connected_components
from repro.geo.point import Point


def test_nfold_obfuscate(benchmark):
    mech = NFoldGaussianMechanism(
        GeoIndBudget(500.0, 1.0, 0.01, 10), rng=default_rng(0)
    )
    benchmark(mech.obfuscate, Point(0.0, 0.0))


def test_laplace_batch_obfuscate_10k(benchmark):
    mech = PlanarLaplaceMechanism(OneTimeBudget(0.005), rng=default_rng(0))
    coords = np.zeros((10_000, 2))
    benchmark(mech.obfuscate_batch, coords)


def test_connectivity_clustering_5k_points(benchmark):
    rng = default_rng(1)
    blob = rng.normal(0, 50, (4_000, 2))
    scatter = rng.uniform(-20_000, 20_000, (1_000, 2))
    pts = np.vstack([blob, scatter])
    benchmark(connected_components, pts, 100.0)


def _clustering_input(n):
    """A profile window (n <= 12, 50 m) or an attack candidate set (theta)."""
    rng = default_rng(n)
    if n <= 12:
        tops = rng.uniform(-5_000, 5_000, (3, 2))
        pts = tops[rng.choice(3, n, p=[0.6, 0.3, 0.1])] + rng.normal(0, 15, (n, 2))
        return pts, 50.0
    centres = rng.uniform(-3_000, 3_000, (4, 2))
    return centres[rng.choice(4, n)] + rng.normal(0, 400, (n, 2)), 484.0


@pytest.mark.parametrize("n", [3, 12, 150])
@pytest.mark.parametrize(
    "labels", [component_labels, _grid_labels], ids=["selected", "grid"]
)
def test_component_labels(benchmark, labels, n):
    """Serve windows (3, 12) sit below the all-pairs crossover, attacks (150) above."""
    pts, radius = _clustering_input(n)
    benchmark(labels, pts, radius)


def test_posterior_selection(benchmark):
    mech = NFoldGaussianMechanism(
        GeoIndBudget(500.0, 1.0, 0.01, 10), rng=default_rng(2)
    )
    selector = PosteriorSelector(mech.posterior_sigma, rng=default_rng(3))
    candidates = mech.obfuscate(Point(0.0, 0.0))
    benchmark(selector.select, candidates)


def test_campaign_matching_1k_campaigns(benchmark):
    rng = default_rng(4)
    campaigns = [
        Campaign(
            campaign_id=f"c{i}",
            advertiser=Advertiser(f"a{i}"),
            business_location=Point(float(x), float(y)),
            radius_m=5_000.0,
        )
        for i, (x, y) in enumerate(rng.uniform(-40_000, 40_000, (1_000, 2)))
    ]
    index = CampaignIndex(campaigns)
    benchmark(index.match, Point(0.0, 0.0))
