"""Numerical verification of the (r, eps, delta, n)-geo-IND guarantee.

The paper's proof route (Theorems 1-2) reduces the privacy of the n-fold
Gaussian release to the privacy of the output *mean*, which is an
isotropic planar Gaussian at scale ``sigma / sqrt(n)``.  For a pair of
true locations at distance ``d``, the privacy loss of an isotropic
Gaussian is one-dimensional along the line joining them, and the tight
trade-off has the classical closed form (Balle & Wang 2018):

    delta(eps) = Phi(d/(2s) - eps*s/d) - e^eps * Phi(-d/(2s) - eps*s/d)

with ``s`` the Gaussian scale.  This module evaluates that expression so
tests can check, for every calibrated mechanism, that the worst-case pair
(``d = r``) indeed satisfies the claimed (eps, delta) bound — and an
empirical histogram-based verifier double-checks the bound on actual
samples, catching calibration or sampler bugs the analytic check would
miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.sampling import sample_gaussian_noise

__all__ = [
    "gaussian_delta",
    "verify_gaussian_geo_ind",
    "EmpiricalPrivacyReport",
    "empirical_privacy_check",
]


def gaussian_delta(distance: float, scale: float, epsilon: float) -> float:
    """Tight delta(eps) for distinguishing two Gaussians ``distance`` apart.

    Both hypotheses are isotropic planar Gaussians with the given scale;
    the privacy loss is Gaussian along the separating direction, yielding
    the one-dimensional expression above.  Returns 0 for coincident
    centres.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if distance == 0:
        return 0.0
    from scipy.stats import norm  # lazy: scipy.stats costs ~1 s at import

    a = distance / (2.0 * scale)
    b = epsilon * scale / distance
    value = norm.cdf(a - b) - math.exp(epsilon) * norm.cdf(-a - b)
    return max(0.0, float(value))


def verify_gaussian_geo_ind(
    r: float, epsilon: float, delta: float, n: int, sigma: float
) -> bool:
    """Analytic check: does an n-fold Gaussian at ``sigma`` meet the budget?

    By sufficiency, only the output mean (scale ``sigma/sqrt(n)``) matters,
    and the worst-case neighbouring pair is at the full radius ``d = r``.
    """
    mean_scale = sigma / math.sqrt(n)
    return gaussian_delta(r, mean_scale, epsilon) <= delta


@dataclass(frozen=True)
class EmpiricalPrivacyReport:
    """Result of a sampled likelihood-ratio privacy check."""

    epsilon: float
    delta_bound: float
    estimated_delta: float
    samples: int

    @property
    def satisfied(self) -> bool:
        """Whether the empirical estimate meets the delta bound."""
        return self.estimated_delta <= self.delta_bound

    def __str__(self) -> str:  # pragma: no cover - formatting only
        status = "OK" if self.satisfied else "VIOLATED"
        return (
            f"empirical geo-IND check [{status}]: "
            f"estimated delta {self.estimated_delta:.2e} vs bound "
            f"{self.delta_bound:.2e} at eps={self.epsilon} ({self.samples} samples)"
        )


def empirical_privacy_check(
    r: float,
    epsilon: float,
    delta: float,
    n: int,
    sigma: float,
    samples: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> EmpiricalPrivacyReport:
    """Monte-Carlo estimate of delta for the n-fold release's sufficient statistic.

    Draws output means under the worst-case pair of r-neighbouring true
    locations and estimates ``E[max(0, 1 - e^eps / L)]`` where ``L`` is the
    likelihood ratio — the standard sampled form of the hockey-stick
    divergence.  This exercises the actual sampler (Algorithm 3 polar
    draws), not just the formula.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if samples < 1:
        raise ValueError("samples must be positive")
    mean_scale = sigma / math.sqrt(n)
    # Worst case: p0 at origin, p1 at (r, 0).  Simulate the mean directly by
    # averaging n Algorithm-3 noise draws.
    noise = sample_gaussian_noise(sigma, samples * n, rng).reshape(samples, n, 2)
    means = noise.mean(axis=1)  # distributed N(0, sigma^2/n)
    # Log likelihood ratio log f0(x)/f1(x) for isotropic Gaussians.
    d0 = (means ** 2).sum(axis=1)
    d1 = ((means[:, 0] - r) ** 2) + (means[:, 1] ** 2)
    log_ratio = (d1 - d0) / (2.0 * mean_scale ** 2)
    # Hockey-stick: E_{x~f0}[ (1 - e^eps / ratio)_+ ] = E[(1 - e^(eps - log_ratio))_+]
    contrib = 1.0 - np.exp(np.minimum(epsilon - log_ratio, 0.0))
    estimated = float(np.maximum(contrib, 0.0).mean())
    return EmpiricalPrivacyReport(
        epsilon=epsilon,
        delta_bound=delta,
        estimated_delta=estimated,
        samples=samples,
    )
