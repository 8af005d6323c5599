"""Population-level connectivity clustering over CSR check-in shards.

:func:`repro.geo.index.component_labels` clusters ONE user's check-ins:
up to ``ALL_PAIRS_MAX_POINTS`` points through an all-pairs adjacency,
larger inputs through a cell-level union-find whose python loop runs
once per adjacent cell pair.  Either way it pays tens of numpy calls per
user.  At population scale (a 100k-user shard holds millions of
check-ins) that per-user work dominates the profiling stage, so this
kernel clusters **every user of a shard in one array pass**:

* cells are keyed exactly like the per-user index (side
  ``radius / sqrt(2)``, ``floor`` bucketing) but under a composite
  ``user * stride + kx * width + ky`` code, so one sorted code array
  holds every user's grid and users can never alias each other's cells;
* candidate cell pairs come from the same 12 half-plane neighbour
  offsets, located with one ``searchsorted`` per offset over all users
  at once;
* pairs are resolved with per-cell bounding boxes first — box distances
  are monotone bounds of the exact pair predicate, so "surely
  connected" / "surely disconnected" decisions agree with the
  point-level test in exact float arithmetic; the ambiguous remainder
  goes through staged capped witness probes (dropping pairs whose cells
  a provisional component pass already connects), and only the tiny
  leftover pays the full batched cross-pair distance test;
* cell connectivity goes through
  :func:`scipy.sparse.csgraph.connected_components` (C speed) instead
  of a python union-find.

The resulting per-user labels are **bit-identical** to running
``component_labels(user_coords, radius)`` user by user: the edge set is
decided by the same predicate ``dx*dx + dy*dy <= r2`` over the same
cell adjacencies, and label ranks follow the same (size desc, first
member asc) contract.  The property suite pins this equivalence.

The converse holds for one user: on a serve profile window of a few
points this kernel's fixed cost is several times the per-user path's,
so the serve layer's window close stays on
:func:`~repro.geo.index.component_labels`.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _graph_components

__all__ = ["population_component_labels", "PAIR_TEST_BATCH", "PROBE_CAPS"]

#: Upper bound on cross-pair elements tested per vectorised batch; keeps
#: the ambiguous-pair resolution memory-bounded on dense shards.
PAIR_TEST_BATCH = 2_000_000

#: Point caps of the staged connectivity probes.  Each stage tests the
#: first ``cap`` points of each side of every still-ambiguous cell pair;
#: any hit is a real edge, and pairs whose cells land in one component
#: are dropped before the next (larger) stage.  Only the tiny remainder
#: pays the full cross-pair test.
PROBE_CAPS = (2, 8)


def _composite_cell_codes(
    xs: np.ndarray, ys: np.ndarray, user_of_point: np.ndarray, cell: float
) -> Tuple[np.ndarray, int]:
    """Collision-free int64 codes ``user * stride + kx * width + ky``.

    ``width``/``stride`` leave >= 2 cells of slack beyond the global key
    ranges, so the +-2 neighbour offsets below can neither alias a cell
    in an adjacent grid row nor reach into another user's code block —
    neighbour lookups stay strictly per-user.
    """
    kx = np.floor(xs / cell).astype(np.int64)
    ky = np.floor(ys / cell).astype(np.int64)
    kx -= kx.min()
    ky -= ky.min()
    width = int(ky.max()) + 5
    stride = (int(kx.max()) + 5) * width
    return user_of_point * stride + kx * width + ky, width


def _neighbor_offsets(cell: float, radius: float) -> list:
    """The half-plane cell offsets whose minimum gap can be <= radius.

    Identical construction to the per-user grid index: Chebyshev
    distance <= 2, each unordered pair once, corner-gap filtered.
    """
    return [
        (ox, oy)
        for ox in range(-2, 3)
        for oy in range(-2, 3)
        if (ox, oy) > (0, 0)
        and math.hypot(max(0, abs(ox) - 1), max(0, abs(oy) - 1)) * cell <= radius
    ]


def _resolve_ambiguous_pairs(
    xs: np.ndarray,
    ys: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    r2: float,
) -> np.ndarray:
    """Exact cross-pair connectivity for cell pairs the boxes left open.

    For each candidate pair ``(pa[i], pb[i])`` of cell indices, tests
    whether ANY cross point pair satisfies ``dx*dx + dy*dy <= r2`` — the
    exact predicate of the per-user path.  Work is chunked so no batch
    materialises more than :data:`PAIR_TEST_BATCH` point pairs.
    """
    n_pairs = len(pa)
    connected = np.zeros(n_pairs, dtype=bool)
    if n_pairs == 0:
        return connected
    cost = sizes[pa] * sizes[pb]
    bounds = np.concatenate([[0], np.cumsum(cost)])
    batch_start = 0
    while batch_start < n_pairs:
        batch_end = batch_start
        base = bounds[batch_start]
        while (
            batch_end < n_pairs
            and (bounds[batch_end + 1] - base <= PAIR_TEST_BATCH or batch_end == batch_start)
        ):
            batch_end += 1
        sel = slice(batch_start, batch_end)
        a, b = pa[sel], pb[sel]
        na, nb = sizes[a], sizes[b]
        pair_cost = na * nb
        total = int(pair_cost.sum())
        pair_id = np.repeat(np.arange(batch_end - batch_start), pair_cost)
        t = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(pair_cost)])[:-1], pair_cost
        )
        nb_rep = np.repeat(nb, pair_cost)
        ai = t // nb_rep
        bi = t - ai * nb_rep
        pts_a = order[np.repeat(starts[a], pair_cost) + ai]
        pts_b = order[np.repeat(starts[b], pair_cost) + bi]
        dx = xs[pts_b] - xs[pts_a]
        dy = ys[pts_b] - ys[pts_a]
        hit = dx * dx + dy * dy <= r2
        if hit.any():
            local = np.zeros(batch_end - batch_start, dtype=bool)
            local[pair_id[hit]] = True
            connected[sel] = local
        batch_start = batch_end
    return connected


def _probe_pairs(
    xs: np.ndarray,
    ys: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    r2: float,
    cap: int,
) -> np.ndarray:
    """Capped any-hit witness test over the first ``cap`` points per side.

    A dense rectangular probe: cells smaller than ``cap`` repeat their
    last sampled point, which only duplicates individual pair tests and
    therefore cannot change an any-hit outcome.  A ``True`` is always a
    real edge (the exact predicate fired on a real cross pair); a
    ``False`` only means the pair stays ambiguous.
    """
    n_pairs = len(pa)
    hit = np.zeros(n_pairs, dtype=bool)
    take = np.arange(cap, dtype=np.int64)
    per_batch = max(1, PAIR_TEST_BATCH // (cap * cap))
    for lo in range(0, n_pairs, per_batch):
        a = pa[lo:lo + per_batch]
        b = pb[lo:lo + per_batch]
        ia = starts[a][:, None] + np.minimum(take, sizes[a][:, None] - 1)
        ib = starts[b][:, None] + np.minimum(take, sizes[b][:, None] - 1)
        ax, ay = xs[order[ia]], ys[order[ia]]
        bx, by = xs[order[ib]], ys[order[ib]]
        dx = ax[:, :, None] - bx[:, None, :]
        dy = ay[:, :, None] - by[:, None, :]
        hit[lo:lo + per_batch] = (dx * dx + dy * dy <= r2).any(axis=(1, 2))
    return hit


def population_component_labels(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray, radius: float
) -> np.ndarray:
    """Per-user component labels for every check-in of a CSR shard.

    ``labels[offsets[i]:offsets[i+1]]`` equals
    ``component_labels(column_stack((xs, ys))[slice], radius)`` for each
    user ``i``, bit for bit: within each user, label ``k`` selects that
    user's ``k``-th largest component (ties by smallest member index).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    xs = np.ascontiguousarray(xs, dtype=float)
    ys = np.ascontiguousarray(ys, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(xs)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    user_of_point = np.repeat(
        np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
    )

    # Same cell side as the per-user grid: same-cell points are within
    # radius by construction.
    cell = radius / math.sqrt(2.0)
    code, width = _composite_cell_codes(xs, ys, user_of_point, cell)

    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = sorted_code[1:] != sorted_code[:-1]
    starts = np.flatnonzero(is_start)
    unique_codes = sorted_code[starts]
    n_cells = len(unique_codes)
    sizes = np.diff(np.append(starts, n))
    cell_of_point = np.empty(n, dtype=np.int64)
    cell_of_point[order] = np.repeat(np.arange(n_cells, dtype=np.int64), sizes)

    # Per-cell point bounding boxes (segments are non-empty by
    # construction, so reduceat is well defined).
    sx, sy = xs[order], ys[order]
    box_min_x = np.minimum.reduceat(sx, starts)
    box_max_x = np.maximum.reduceat(sx, starts)
    box_min_y = np.minimum.reduceat(sy, starts)
    box_max_y = np.maximum.reduceat(sy, starts)

    # Candidate neighbour pairs: one searchsorted per offset, all users
    # at once (composite codes guarantee matches stay within one user).
    pair_a_parts, pair_b_parts = [], []
    for ox, oy in _neighbor_offsets(cell, radius):
        target = unique_codes + (ox * width + oy)
        pos = np.searchsorted(unique_codes, target)
        pos = np.minimum(pos, n_cells - 1)
        hits = np.flatnonzero(unique_codes[pos] == target)
        pair_a_parts.append(hits)
        pair_b_parts.append(pos[hits])
    if pair_a_parts:
        pa = np.concatenate(pair_a_parts)
        pb = np.concatenate(pair_b_parts)
    else:  # pragma: no cover - offsets list is never empty
        pa = pb = np.empty(0, dtype=np.int64)

    # Box pruning.  Both bounds are monotone under float rounding, so
    # they are exact-conservative with respect to the pair predicate:
    # gap^2 > r2 proves every cross pair fails it, span^2 <= r2 proves
    # every cross pair satisfies it.
    r2 = radius * radius
    gap_x = np.maximum(
        0.0, np.maximum(box_min_x[pb] - box_max_x[pa], box_min_x[pa] - box_max_x[pb])
    )
    gap_y = np.maximum(
        0.0, np.maximum(box_min_y[pb] - box_max_y[pa], box_min_y[pa] - box_max_y[pb])
    )
    surely_apart = gap_x * gap_x + gap_y * gap_y > r2
    span_x = np.maximum(box_max_x[pb] - box_min_x[pa], box_max_x[pa] - box_min_x[pb])
    span_y = np.maximum(box_max_y[pb] - box_min_y[pa], box_max_y[pa] - box_min_y[pb])
    surely_joined = span_x * span_x + span_y * span_y <= r2

    # Staged resolution.  Only the final component PARTITION must match
    # the per-user path — edges already implied by it may be skipped — so
    # each stage unions what it has proven, drops ambiguous pairs whose
    # cells now share a component, and hands the shrunken remainder to
    # the next (more expensive) stage.  On routine-driven populations the
    # capped probes leave the exact cross-pair test almost nothing.
    ambiguous = ~(surely_apart | surely_joined)
    edge_a, edge_b = pa[surely_joined], pb[surely_joined]
    cell_comp = _cell_components(edge_a, edge_b, n_cells)
    rem_a, rem_b = pa[ambiguous], pb[ambiguous]
    rem_a, rem_b = _drop_connected(rem_a, rem_b, cell_comp)
    for cap in PROBE_CAPS:
        if not len(rem_a):
            break
        hit = _probe_pairs(xs, ys, order, starts, sizes, rem_a, rem_b, r2, cap)
        edge_a = np.concatenate([edge_a, rem_a[hit]])
        edge_b = np.concatenate([edge_b, rem_b[hit]])
        cell_comp = _cell_components(edge_a, edge_b, n_cells)
        rem_a, rem_b = _drop_connected(rem_a[~hit], rem_b[~hit], cell_comp)
    if len(rem_a):
        full = _resolve_ambiguous_pairs(
            xs, ys, order, starts, sizes, rem_a, rem_b, r2
        )
        edge_a = np.concatenate([edge_a, rem_a[full]])
        edge_b = np.concatenate([edge_b, rem_b[full]])
        cell_comp = _cell_components(edge_a, edge_b, n_cells)
    point_comp = cell_comp[cell_of_point].astype(np.int64)

    return _rank_components_per_user(point_comp, user_of_point)


def _cell_components(
    edge_a: np.ndarray, edge_b: np.ndarray, n_cells: int
) -> np.ndarray:
    """Connected-component label per cell under the given edge set."""
    graph = coo_matrix(
        (np.ones(len(edge_a), dtype=np.int8), (edge_a, edge_b)),
        shape=(n_cells, n_cells),
    )
    return _graph_components(graph, directed=False)[1]


def _drop_connected(
    pa: np.ndarray, pb: np.ndarray, cell_comp: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep only pairs whose cells are still in different components."""
    keep = cell_comp[pa] != cell_comp[pb]
    return pa[keep], pb[keep]


def _rank_components_per_user(
    point_comp: np.ndarray, user_of_point: np.ndarray
) -> np.ndarray:
    """Per-user (size desc, first member asc) ranks for global components.

    Components never span users (the composite codes keep users apart),
    so ranking within ``user_of_point`` groups reproduces the per-user
    ``component_labels`` ordering contract exactly.
    """
    n = len(point_comp)
    _, inverse, counts = np.unique(point_comp, return_inverse=True, return_counts=True)
    n_comps = len(counts)
    first = np.full(n_comps, n, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(n, dtype=np.int64))
    comp_user = user_of_point[first]
    order = np.lexsort((first, -counts, comp_user))
    rank = np.empty(n_comps, dtype=np.int64)
    rank[order] = np.arange(n_comps, dtype=np.int64)
    # Rebase ranks to zero within each user block.
    comps_per_user = np.bincount(comp_user, minlength=int(user_of_point.max()) + 1)
    user_base = np.concatenate([[0], np.cumsum(comps_per_user)])[:-1]
    return rank[inverse] - user_base[user_of_point]
