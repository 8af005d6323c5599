"""Privacy and utility figures shared by the serve and batch workloads.

* the longitudinal attack's top-1 error on a defended reporting stream;
* the attack's top-1 recall within 200 m under one-time planar Laplace,
  which guards the attacker's fidelity: a faster but weaker attack
  cannot pass as better privacy;
* ads delivered inside the user's area of interest per reported event.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.ads.delivery import filter_ads_to_aoi
from repro.ads.network import AdNetwork
from repro.datagen.shanghai import shanghai_planar_bbox
from repro.edge.device import EdgeConfig
from repro.edge.system import seed_campaigns
from repro.geo.point import Point
from repro.kernels import one_time_laplace_population
from repro.serve import ServeWorkloadConfig

from edgebench.batch import attack_top1, build_mechanisms

RECALL_RADIUS_M = 200.0


def top1_errors(top1: List[Optional[tuple]], true_top1: np.ndarray) -> np.ndarray:
    """Per-user distance from the inferred to the true top-1 (inf if none)."""
    return np.array([
        math.hypot(t[0] - true_top1[u, 0], t[1] - true_top1[u, 1]) if t else math.inf
        for u, t in enumerate(top1)
    ])


def onetime_recall(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    true_top1: np.ndarray,
    seed: int,
) -> float:
    """Share of users whose top-1 the attack recovers within 200 m."""
    mech = build_mechanisms()
    reported = one_time_laplace_population(
        xs, ys, offsets, mech.laplace.epsilon, seed + 1
    )
    top1 = attack_top1(mech.onetime_attack, reported, offsets)
    return float(np.mean(top1_errors(top1, true_top1) <= RECALL_RADIUS_M))


def by_user(user_index: np.ndarray, *columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Regroup event-ordered columns into per-user CSR order.

    Returns ``(offsets, *columns)`` with each user's rows contiguous and
    in event order.
    """
    order = np.argsort(user_index, kind="stable")
    counts = np.bincount(user_index, minlength=int(user_index.max()) + 1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return (offsets, *(col[order] for col in columns))


def ads_per_event(reported: np.ndarray, true_xy: np.ndarray, seed: int) -> float:
    """Mean ads delivered inside the AoI when ``reported`` is sent out.

    Uses the serve shard's campaign inventory (same seed, count and
    radius) and the edge's targeting radius.
    """
    workload = ServeWorkloadConfig()
    network = AdNetwork()
    network.register_campaigns(
        seed_campaigns(
            shanghai_planar_bbox(),
            workload.n_campaigns,
            workload.campaign_radius_m,
            np.random.default_rng(seed),
            deterministic_ids=True,
        )
    )
    radius = EdgeConfig().targeting_radius
    delivered = 0
    for (rx, ry), (tx, ty) in zip(reported, true_xy):
        response = network.handle(network.new_request("batch", Point(rx, ry), 0.0))
        kept, _ = filter_ads_to_aoi(response.ads, Point(tx, ty), radius)
        delivered += len(kept)
    return delivered / len(reported)
