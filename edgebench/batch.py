"""The batch workload: Fig. 6's pipeline over a CSR population.

No serve layer runs here.  One pass is
``population_profiles`` → ``population_eta_tops`` →
``permanent_obfuscate_population`` → the longitudinal attack per user on
the defended stream, then ``one_time_laplace_population`` → the attack
per user on the one-time stream.  Kernels are called through the
``repro.kernels`` module and attacks through their objects, so a
:class:`~edgebench.tracing.Tracer` can time each call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import repro.kernels as kernels
from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.posterior import PosteriorSelector
from repro.data.columns import PopulationColumns
from repro.datagen.obfuscate import (
    one_time_obfuscate_xy,
    permanent_obfuscate_batched_xy,
)
from repro.edge.device import EdgeConfig
from repro.edge.location_management import DEFAULT_ETA
from repro.profiles.frequent import eta_frequent_xy
from repro.profiles.profile import LocationProfile

#: Inferred top locations per user, as in Fig. 6.
TOPS_INFERRED = 2

#: Fig. 6's loosest one-time level: ln 2 over 200 m.
ONETIME_LEVEL = math.log(2)
ONETIME_RADIUS_M = 200.0


@dataclass
class Mechanisms:
    """The defended and one-time deployments and the attack on each."""

    nfold: NFoldGaussianMechanism
    nomadic_sigma: float
    laplace: PlanarLaplaceMechanism
    defended_attack: DeobfuscationAttack
    onetime_attack: DeobfuscationAttack


def build_mechanisms() -> Mechanisms:
    """Edge-PrivLocAd's paper budget and Fig. 6's ln 2 one-time level."""
    budget = EdgeConfig().budget
    nfold = NFoldGaussianMechanism(budget)
    laplace = PlanarLaplaceMechanism.from_level(ONETIME_LEVEL, ONETIME_RADIUS_M)
    return Mechanisms(
        nfold=nfold,
        nomadic_sigma=GaussianMechanism(budget.with_n(1)).sigma,
        laplace=laplace,
        defended_attack=DeobfuscationAttack.against(nfold),
        onetime_attack=DeobfuscationAttack.against(laplace),
    )


@dataclass
class Pass:
    """One pipeline pass: stage times and outputs.

    ``kernel_s`` holds the four kernel calls' times in pipeline order and
    ``attack_s`` each user's defended then one-time attack time.
    """

    wall_s: float
    kernel_s: np.ndarray
    attack_s: np.ndarray
    defended_reported: np.ndarray
    onetime_reported: np.ndarray
    tops: tuple
    defended_top1: List[Optional[tuple]]
    onetime_top1: List[Optional[tuple]]


def attack_top1(
    attack: DeobfuscationAttack,
    reported: np.ndarray,
    offsets: np.ndarray,
    times: Optional[np.ndarray] = None,
) -> List[Optional[tuple]]:
    """Each user's inferred top-1 ``(x, y)``, or ``None`` without one.

    ``times`` (if given) receives each user's attack time.
    """
    top1: List[Optional[tuple]] = []
    for u in range(len(offsets) - 1):
        t0 = time.perf_counter()
        inferred = attack.estimate_xy(reported[offsets[u]:offsets[u + 1]], TOPS_INFERRED)
        if times is not None:
            times[u] = time.perf_counter() - t0
        top1.append((inferred[0].x, inferred[0].y) if inferred else None)
    return top1


def run_pass(pop: PopulationColumns, mech: Mechanisms, seed: int) -> Pass:
    """Run the whole pipeline once over ``pop``."""
    ck = pop.checkins
    n_users = ck.n_users
    times = np.empty(2 * n_users)
    marks = [time.perf_counter()]
    profiles = kernels.population_profiles(ck.xs, ck.ys, ck.offsets)
    marks.append(time.perf_counter())
    tops = kernels.population_eta_tops(profiles, DEFAULT_ETA)
    marks.append(time.perf_counter())
    defended = kernels.permanent_obfuscate_population(
        ck.xs, ck.ys, ck.offsets, *tops,
        sigma=mech.nfold.sigma,
        n=mech.nfold.budget.n,
        posterior_sigma=mech.nfold.posterior_sigma,
        nomadic_sigma=mech.nomadic_sigma,
        seed=seed,
    )
    marks.append(time.perf_counter())
    defended_top1 = attack_top1(
        mech.defended_attack, defended, ck.offsets, times[:n_users]
    )
    t0 = time.perf_counter()
    onetime = kernels.one_time_laplace_population(
        ck.xs, ck.ys, ck.offsets, mech.laplace.epsilon, seed + 1
    )
    t1 = time.perf_counter()
    onetime_top1 = attack_top1(
        mech.onetime_attack, onetime, ck.offsets, times[n_users:]
    )
    return Pass(
        wall_s=time.perf_counter() - marks[0],
        kernel_s=np.append(np.diff(marks), t1 - t0),
        attack_s=times,
        defended_reported=defended,
        onetime_reported=onetime,
        tops=tops,
        defended_top1=defended_top1,
        onetime_top1=onetime_top1,
    )


def undisturbed_wall(kernel_s: List[np.ndarray], attack_s: List[np.ndarray]) -> float:
    """The pass wall with the host's interference taken out.

    Each kernel call's fastest repetition plus each user's fastest
    attack (``Pass.kernel_s`` and ``Pass.attack_s`` of every pass), summed: a slow spell of the host lengthens some repetitions
    of a step but rarely all of them, so the sum is steady where a
    whole pass's wall is not.
    """
    return float(np.min(kernel_s, axis=0).sum() + np.min(attack_s, axis=0).sum())


def reference_mismatches(
    pop: PopulationColumns, mech: Mechanisms, seed: int, result: Pass, users: List[int]
) -> List[str]:
    """Compare the kernels with the per-user reference path for ``users``."""
    ck = pop.checkins
    top_xs, top_ys, top_offsets = result.tops
    budget = mech.nfold.budget
    failures = []
    for i in users:
        rows = slice(int(ck.offsets[i]), int(ck.offsets[i + 1]))
        ref_xs, ref_ys = eta_frequent_xy(
            LocationProfile.from_xy(ck.xs[rows], ck.ys[rows]), DEFAULT_ETA
        )
        top_rows = slice(int(top_offsets[i]), int(top_offsets[i + 1]))
        if not (
            np.array_equal(top_xs[top_rows], ref_xs)
            and np.array_equal(top_ys[top_rows], ref_ys)
        ):
            failures.append(f"user {i}: eta tops differ from the reference")
        rng = kernels.user_rng(seed, i)
        nfold = NFoldGaussianMechanism(budget, rng=rng)
        ref = permanent_obfuscate_batched_xy(
            ck.user_coords(i),
            np.column_stack((ref_xs, ref_ys)),
            nfold,
            PosteriorSelector(nfold.posterior_sigma, rng=rng),
            nomadic_mechanism=GaussianMechanism(budget.with_n(1), rng=rng),
        )
        if not np.array_equal(result.defended_reported[rows], ref):
            failures.append(f"user {i}: permanent stream differs from the reference")
        laplace = PlanarLaplaceMechanism.from_level(
            ONETIME_LEVEL, ONETIME_RADIUS_M, rng=kernels.user_rng(seed + 1, i)
        )
        ref = one_time_obfuscate_xy(ck.user_coords(i), laplace)
        if not np.array_equal(result.onetime_reported[rows], ref):
            failures.append(f"user {i}: one-time stream differs from the reference")
    return failures
