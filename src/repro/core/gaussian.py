"""The 1-fold and n-fold Gaussian geo-IND mechanisms (the paper's LPPM).

The n-fold Gaussian mechanism (Definition 7) releases ``n`` obfuscated
locations simultaneously for one true location, each the true location plus
independent isotropic Gaussian noise with scale calibrated by Theorem 2:

    sigma = (sqrt(n) * r / eps) * sqrt(ln(1 / delta^2) + eps)

The key insight is that the sample mean of the ``n`` outputs is a
sufficient statistic for the true location and is distributed
``N(p, sigma^2 / n)``, so the whole release is as private as a single
Gaussian output at scale ``sigma / sqrt(n)`` — a sqrt(n) saving over plain
composition.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.calibration import gaussian_sigma_nfold, gaussian_sigma_single
from repro.core.mechanism import LPPM
from repro.core.params import GeoIndBudget
from repro.core.sampling import rayleigh_quantile, sample_gaussian_noise
from repro.geo.point import Point

__all__ = ["GaussianMechanism", "NFoldGaussianMechanism"]


class GaussianMechanism(LPPM):
    """The 1-fold Gaussian mechanism satisfying (r, eps, delta, 1)-geo-IND."""

    name = "gaussian-1fold"

    def __init__(self, budget: GeoIndBudget, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(rng)
        if budget.n != 1:
            raise ValueError(
                f"GaussianMechanism is single-output; budget has n={budget.n} "
                "(use NFoldGaussianMechanism)"
            )
        self.budget = budget
        self.sigma = gaussian_sigma_single(budget.r, budget.epsilon, budget.delta)

    @property
    def n_outputs(self) -> int:
        """Outputs per obfuscate() call (always one)."""
        return 1

    def obfuscate(self, location: Point) -> List[Point]:
        """One Gaussian-perturbed copy of the location."""
        noise = sample_gaussian_noise(self.sigma, 1, self.rng)[0]
        return [Point(location.x + float(noise[0]), location.y + float(noise[1]))]

    def obfuscate_batch(self, locations: np.ndarray) -> np.ndarray:
        """Vectorised independent obfuscation of an ``(m, 2)`` array.

        One noise draw for the whole batch instead of one per location —
        the fast path the trace-obfuscation helpers use for nomadic
        check-in streams.
        """
        locations = np.asarray(locations, dtype=float)
        noise = sample_gaussian_noise(self.sigma, len(locations), self.rng)
        return locations + noise

    def noise_tail_radius(self, alpha: float) -> float:
        """Rayleigh tail quantile of the noise radius."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        return rayleigh_quantile(1.0 - alpha, self.sigma)


class NFoldGaussianMechanism(LPPM):
    """The paper's n-fold Gaussian mechanism (Definition 7 + Theorem 2).

    One call to :meth:`obfuscate` draws ``n`` i.i.d. Gaussian-perturbed
    copies of the true location, all under a single (r, eps, delta, n)
    budget.  The outputs are intended to be generated *once* per top
    location and pinned in the obfuscation table for permanent reuse —
    that permanence is what defeats the longitudinal attacker.
    """

    name = "gaussian-nfold"

    def __init__(self, budget: GeoIndBudget, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(rng)
        self.budget = budget
        self.sigma = gaussian_sigma_nfold(
            budget.r, budget.epsilon, budget.delta, budget.n
        )

    @property
    def n_outputs(self) -> int:
        """Outputs per obfuscate() call (the budget's n)."""
        return self.budget.n

    @property
    def posterior_sigma(self) -> float:
        """Scale of the true location's posterior given the n candidates.

        The sample mean of the candidates is the sufficient statistic and
        is distributed N(p, sigma^2/n), so the posterior of the true
        location given the released set has scale ``sigma / sqrt(n)`` —
        this is the sigma the output-selection density (Eq. 17) must use.
        """
        import math

        return self.sigma / math.sqrt(self.budget.n)

    def obfuscate(self, location: Point) -> List[Point]:
        """The n i.i.d. Gaussian-perturbed candidates (Definition 7)."""
        noise = sample_gaussian_noise(self.sigma, self.budget.n, self.rng)
        # One vectorised add: the same IEEE sums as ``location.x + dx``.
        return [Point(x, y) for x, y in (noise + (location.x, location.y)).tolist()]

    def obfuscate_batch(self, locations: np.ndarray) -> np.ndarray:
        """Candidate sets for ``m`` locations as one ``(m, n, 2)`` array.

        Draws all ``m * n`` noise offsets in a single batched call — the
        fast path for pinning every top location of a population at once
        (Table II's workload at full scale).
        """
        locations = np.asarray(locations, dtype=float)
        m = len(locations)
        n = self.budget.n
        noise = sample_gaussian_noise(self.sigma, m * n, self.rng)
        return locations[:, None, :] + noise.reshape(m, n, 2)

    def noise_tail_radius(self, alpha: float) -> float:
        """Tail radius of a *single* output's noise (Rayleigh(sigma))."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        return rayleigh_quantile(1.0 - alpha, self.sigma)

    def mean_tail_radius(self, alpha: float) -> float:
        """Tail radius of the output *mean* — the sufficient statistic.

        The mean is N(p, sigma^2/n), so its radius is
        Rayleigh(sigma / sqrt(n)); this is the quantity the privacy proof
        (and the optimal informed attacker) actually sees.
        """
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        import math

        return rayleigh_quantile(1.0 - alpha, self.sigma / math.sqrt(self.budget.n))
