"""Seeded workload inputs, built from the calibrated population model.

Every input is a pure function of ``(workload, seed)``: users come from
:func:`repro.datagen.population.iter_population_spawned` (one spawned RNG
stream per user), so the same seed always yields the same schedule or
CSR columns.  The serve workloads span the paper's two-year study window
so each user's 90-day profile window closes about eight times; the shape
knob is only the per-user check-in count.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.data.columns import PopulationColumns
from repro.datagen.population import PopulationConfig, iter_population_spawned
from repro.serve import EventSchedule


@dataclass(frozen=True)
class Shape:
    """Population size and the log-normal per-user check-in count."""

    n_users: int
    mean_checkins: float
    sigma: float


#: ``serve-dense``: few heavy users, so the pinned (read) path dominates.
#: ``serve-sparse``: many users at the paper's 20-check-in floor, so
#: window closes, first pins and actor creation dominate.
#: ``batch-attack``: the Fig. 6 population in CSR columns.
#: Serve populations are given for ``SHAPE_SECONDS`` of ``--seconds`` and
#: scale with it (:func:`sized`), so the open loop's window, which offers
#: the part of the schedule after the warm-up, lasts about a third of
#: ``--seconds`` at the workload's offered rate.
SHAPES: Dict[str, Shape] = {
    "serve-dense": Shape(n_users=200, mean_checkins=100.0, sigma=0.25),
    "serve-sparse": Shape(n_users=720, mean_checkins=20.0, sigma=0.1),
    "batch-attack": Shape(n_users=500, mean_checkins=150.0, sigma=0.25),
}

#: The ``--seconds`` that :data:`SHAPES` are given for.
SHAPE_SECONDS = 30.0

#: Tiny shapes for the benchmark's own smoke tests.
TINY_SHAPES: Dict[str, Shape] = {
    "serve-dense": Shape(n_users=6, mean_checkins=40.0, sigma=0.25),
    "serve-sparse": Shape(n_users=20, mean_checkins=20.0, sigma=0.1),
    "batch-attack": Shape(n_users=12, mean_checkins=60.0, sigma=0.25),
}


def sized(shape: Shape, seconds: float) -> Shape:
    """``shape`` with its population scaled from ``SHAPE_SECONDS`` to ``seconds``."""
    return dataclasses.replace(
        shape, n_users=max(1, round(shape.n_users * seconds / SHAPE_SECONDS))
    )


@dataclass
class ServeInput:
    """A serve workload: the event schedule plus each user's true top-1."""

    schedule: EventSchedule
    true_top1: np.ndarray  # (n_users, 2)


def _population(shape: Shape, seed: int) -> PopulationConfig:
    return PopulationConfig(
        n_users=shape.n_users,
        seed=seed,
        count_log_mean=math.log(shape.mean_checkins),
        count_log_sigma=shape.sigma,
    )


def build_serve_input(shape: Shape, seed: int) -> ServeInput:
    """The timestamp-merged schedule of every user's two-year trace."""
    user_ids: List[str] = []
    parts: List[Tuple[np.ndarray, ...]] = []
    tops = np.empty((shape.n_users, 2))
    for index, user in enumerate(iter_population_spawned(_population(shape, seed))):
        user_ids.append(user.user_id)
        top = user.true_tops[0]
        tops[index] = (top.x, top.y)
        parts.append(
            (
                np.full(len(user.trace), index, dtype=np.int64),
                np.array([c.timestamp for c in user.trace]),
                np.array([c.point.x for c in user.trace]),
                np.array([c.point.y for c in user.trace]),
            )
        )
    user_index, ts, xs, ys = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(ts, kind="stable")
    schedule = EventSchedule(
        user_ids, user_index[order], ts[order], xs[order], ys[order]
    )
    return ServeInput(schedule=schedule, true_top1=tops)


def build_batch_input(shape: Shape, seed: int) -> PopulationColumns:
    """The batch population as CSR check-in columns plus true top sets."""
    return PopulationColumns.from_users(
        iter_population_spawned(_population(shape, seed))
    )
