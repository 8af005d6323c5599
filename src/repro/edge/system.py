"""End-to-end orchestration of the Edge-PrivLocAd system.

Wires clients, edge devices, and the honest-but-curious provider together
and replays synthetic user traces through the full pipeline in global
chronological order.  The resulting object exposes both sides of the
story: serving statistics (fill rate, relevance, path mix) for the utility
view, and the provider's bidding log for the attack view.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ads.campaign import Advertiser, Campaign
from repro.ads.network import AdNetwork
from repro.datagen.population import SyntheticUser
from repro.edge.client import MobileClient
from repro.edge.clock import SimulationClock
from repro.edge.device import EdgeConfig, EdgeDevice
from repro.edge.provider import HonestButCuriousProvider
from repro.edge.routing import route_user
from repro.geo.bbox import BoundingBox
from repro.obs.trace import enabled as _obs_enabled
from repro.obs.trace import get_registry as _obs_registry
from repro.obs.trace import span as _obs_span
from repro.profiles.checkin import CheckIn

__all__ = ["SystemConfig", "SystemReport", "EdgePrivLocAdSystem", "seed_campaigns"]


@dataclass(frozen=True)
class SystemConfig:
    """Top-level simulation knobs."""

    edge: EdgeConfig = EdgeConfig()
    n_edge_devices: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_edge_devices < 1:
            raise ValueError("need at least one edge device")


@dataclass
class SystemReport:
    """Aggregate outcome of a trace replay."""

    requests: int = 0
    ads_delivered: int = 0
    ads_received: int = 0
    top_path_requests: int = 0
    nomadic_path_requests: int = 0

    @property
    def relevance_ratio(self) -> float:
        """Share of network-returned ads that survived the AOI filter."""
        return self.ads_delivered / self.ads_received if self.ads_received else 1.0

    @property
    def top_path_share(self) -> float:
        """Share of requests served from the pinned top-location path."""
        return self.top_path_requests / self.requests if self.requests else 0.0


def seed_campaigns(
    region: BoundingBox,
    count: int,
    radius_m: float,
    rng: np.random.Generator,
    platform: Optional[str] = None,
    deterministic_ids: bool = False,
) -> List[Campaign]:
    """Scatter radius-targeting campaigns uniformly over the region.

    With ``deterministic_ids`` the campaign ids are a pure function of
    the index (``campaign-<i>``) instead of the process-global counter —
    required when several processes must build the *same* inventory
    (every serve shard replicates the campaign set, and response digests
    compare campaign ids across shard layouts).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    from repro.geo.point import Point

    campaigns = []
    locs = region.sample_uniform(count, rng)
    for i, (x, y) in enumerate(locs):
        advertiser = Advertiser(advertiser_id=f"adv-{i:05d}", name=f"Business {i}")
        campaigns.append(
            Campaign.create(
                advertiser=advertiser,
                business_location=Point(float(x), float(y)),
                radius_m=radius_m,
                bid_price=float(rng.uniform(0.5, 5.0)),
                platform=platform,
                campaign_id=f"campaign-{i:06d}" if deterministic_ids else None,
            )
        )
    return campaigns


class EdgePrivLocAdSystem:
    """The full simulated deployment."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()
        self.provider = HonestButCuriousProvider(AdNetwork())
        self.clock = SimulationClock()
        base = self.config.edge
        self.edges = [
            EdgeDevice(
                device_id=f"edge-{i:03d}",
                network=self.provider.network,
                config=EdgeConfig(
                    budget=base.budget,
                    eta=base.eta,
                    window_days=base.window_days,
                    connect_radius=base.connect_radius,
                    match_radius=base.match_radius,
                    targeting_radius=base.targeting_radius,
                    adaptive=base.adaptive,
                    seed=self.config.seed + i,
                ),
            )
            for i in range(self.config.n_edge_devices)
        ]
        self._clients: Dict[str, MobileClient] = {}

    @property
    def network(self) -> AdNetwork:
        """The ad network shared by every edge device."""
        return self.provider.network

    def register_campaigns(self, campaigns: Sequence[Campaign]) -> None:
        """Register advertiser campaigns with the untrusted network."""
        self.network.register_campaigns(campaigns)

    def client_for(self, user_id: str) -> MobileClient:
        """The user's client, bound to an edge by stable assignment.

        Users attach to the edge device nearest them in a real deployment;
        the simulation assigns by :func:`~repro.edge.routing.route_user`
        (the service's shard rule), which preserves the property that
        matters — one user's state lives on one edge — and, unlike
        builtin ``hash``, does not vary with ``PYTHONHASHSEED``.
        """
        client = self._clients.get(user_id)
        if client is None:
            edge = self.edges[route_user(user_id, len(self.edges))]
            client = MobileClient(user_id, edge)
            self._clients[user_id] = client
        return client

    def run(self, users: Iterable[SyntheticUser]) -> SystemReport:
        """Replay all users' traces in global chronological order."""
        report = SystemReport()

        # Merge the per-user (already sorted) traces on timestamp.  The
        # helper pins each user into its own closure; a bare generator
        # expression in the comprehension would share one loop variable.
        def stream(user: SyntheticUser) -> Iterator[Tuple[float, str, CheckIn]]:
            for c in sorted(user.trace):
                yield (c.timestamp, user.user_id, c)

        with _obs_span("edge.run", devices=len(self.edges)):
            streams = [stream(u) for u in users]
            for timestamp, user_id, checkin in heapq.merge(*streams):
                self.clock.advance_to(timestamp)
                client = self.client_for(user_id)
                result = client.request_ad(checkin)
                report.requests += 1
                report.ads_delivered += len(result.delivered_ads)
                report.ads_received += result.delivery.received
                if result.path == "top":
                    report.top_path_requests += 1
                else:
                    report.nomadic_path_requests += 1
            for user_id, client in self._clients.items():
                client.edge.finalize_user(user_id)
        if _obs_enabled():
            # One end-of-run rollup (not per-request increments) keeps the
            # replay loop free of metering overhead.
            registry = _obs_registry()
            registry.counter("edge.requests").inc(report.requests)
            registry.counter("edge.ads_delivered").inc(report.ads_delivered)
            registry.counter("edge.ads_received").inc(report.ads_received)
            registry.counter("edge.top_path_requests").inc(report.top_path_requests)
            registry.counter("edge.nomadic_path_requests").inc(
                report.nomadic_path_requests
            )
        return report
