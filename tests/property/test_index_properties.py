"""Property-based tests for the spatial index and clustering invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geo.index import (
    ALL_PAIRS_MAX_POINTS,
    GridIndex,
    _all_pairs_labels,
    _grid_labels,
    component_labels,
    connected_components,
)

point_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(min_value=1, max_value=60), st.just(2)),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=64),
)
radii = st.floats(min_value=0.5, max_value=5e3, allow_nan=False)


class TestClusteringInvariants:
    @given(point_arrays, radii)
    @settings(max_examples=60, deadline=None)
    def test_partition(self, pts, radius):
        """Components partition the index set exactly."""
        comps = connected_components(pts, radius)
        flat = sorted(i for c in comps for i in c)
        assert flat == list(range(len(pts)))

    @given(point_arrays, radii)
    @settings(max_examples=60, deadline=None)
    def test_no_cross_component_closeness(self, pts, radius):
        """No two points in different components may be within the radius."""
        comps = connected_components(pts, radius)
        label = np.empty(len(pts), dtype=int)
        for k, comp in enumerate(comps):
            label[comp] = k
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        close = d2 <= radius * radius
        same = label[:, None] == label[None, :]
        assert (close <= same).all()  # close implies same component

    @given(point_arrays, radii)
    @settings(max_examples=40, deadline=None)
    def test_sizes_sorted_descending(self, pts, radius):
        comps = connected_components(pts, radius)
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)

    @given(point_arrays, radii)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_radius(self, pts, radius):
        """A larger radius can only merge components, never split them."""
        fine = connected_components(pts, radius)
        coarse = connected_components(pts, radius * 2)
        label = np.empty(len(pts), dtype=int)
        for k, comp in enumerate(coarse):
            label[comp] = k
        for comp in fine:
            assert len({label[i] for i in comp}) == 1


class TestQueryInvariants:
    @given(point_arrays, radii, st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=-1e4, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_query_matches_brute_force(self, pts, radius, qx, qy):
        idx = GridIndex(pts, cell_size=max(radius, 1.0))
        got = sorted(idx.query(qx, qy, radius))
        d2 = (pts[:, 0] - qx) ** 2 + (pts[:, 1] - qy) ** 2
        expected = sorted(np.flatnonzero(d2 <= radius * radius).tolist())
        assert got == expected


CROSSOVER_SIZES = st.sampled_from(
    [ALL_PAIRS_MAX_POINTS - 1, ALL_PAIRS_MAX_POINTS, ALL_PAIRS_MAX_POINTS + 1]
)


@st.composite
def clustering_inputs(draw, sizes=st.integers(min_value=1, max_value=40)):
    """``(points, radius)`` laid out where the two paths could disagree.

    * ``snapped``: exact multiples of the grid's cell side ``radius/sqrt(2)``,
      some nudged one ulp either way, so points sit on cell borders and
      same-cell pairs can exceed the radius by rounding;
    * ``duplicates``: few distinct points, each repeated;
    * ``box``: arbitrary floats within a few radii, so most pairs are
      candidates and components chain;
    * ``ties``: a lattice of step ``radius / 5`` with ``radius`` five times
      a power of two, so 3-4-5 and 5-0 pairs lie exactly at the radius.
    """
    layout = draw(st.sampled_from(["snapped", "duplicates", "box", "ties"]))
    if layout == "ties":
        radius = 5.0 * 2.0 ** draw(st.integers(-3, 9))
    else:
        radius = draw(radii)
    n = draw(sizes)
    if layout == "ties":
        steps = draw(arrays(np.int64, (n, 2), elements=st.integers(-8, 8)))
        pts = steps * (radius / 5.0)
    elif layout == "snapped":
        steps = draw(arrays(np.int64, (n, 2), elements=st.integers(-6, 6)))
        nudge = draw(arrays(np.int64, (n, 2), elements=st.integers(-1, 1)))
        pts = steps * (radius / math.sqrt(2.0))
        pts = np.where(
            nudge == 0, pts, np.nextafter(pts, np.copysign(np.inf, nudge))
        )
    elif layout == "duplicates":
        distinct = draw(st.integers(min_value=1, max_value=min(n, 5)))
        base = draw(
            arrays(np.float64, (distinct, 2), elements=st.floats(-2.0, 2.0))
        ) * radius
        picks = draw(
            arrays(np.int64, n, elements=st.integers(0, distinct - 1))
        )
        pts = base[picks]
    else:
        pts = draw(
            arrays(np.float64, (n, 2), elements=st.floats(-3.0, 3.0))
        ) * radius
    return pts, radius


def groups_of(labels):
    """``connected_components``-style lists from component labels."""
    return [np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1)]


def assert_matches_grid(pts, radius):
    reference = _grid_labels(pts, radius)
    small = _all_pairs_labels(pts, radius)
    assert small.dtype == reference.dtype == np.int64
    assert small.tobytes() == reference.tobytes()
    assert component_labels(pts, radius).tobytes() == reference.tobytes()
    assert connected_components(pts, radius) == groups_of(reference)


class TestSizeSelectedClustering:
    """The all-pairs path decides exactly the grid path's edge set."""

    @given(clustering_inputs())
    @settings(max_examples=150, deadline=None)
    def test_small_path_equals_grid(self, case):
        assert_matches_grid(*case)

    @given(clustering_inputs(sizes=CROSSOVER_SIZES))
    @settings(max_examples=60, deadline=None)
    def test_equal_either_side_of_crossover(self, case):
        assert_matches_grid(*case)

    @given(point_arrays, radii)
    @settings(max_examples=60, deadline=None)
    def test_scattered_points_equal_grid(self, pts, radius):
        assert_matches_grid(pts, radius)

    def test_offset_rule_not_distance_decides_far_corner(self):
        """A pair within the radius at a cell offset the grid never tests.

        At this radius ``hypot(1, 1) * cell > radius`` drops the (2, 2)
        offsets from the grid's neighbour list, yet the pair below is
        within the radius by ``dx*dx + dy*dy <= r2``: the grid keeps the
        two points apart, and so must the all-pairs path.
        """
        radius = 0.9801547796984041
        cell = radius / math.sqrt(2.0)
        pts = np.array([[-5e-324, -5e-324], [cell, cell]])
        dx, dy = pts[1] - pts[0]
        assert dx * dx + dy * dy <= radius * radius
        assert math.hypot(1, 1) * cell > radius
        assert _grid_labels(pts, radius).tolist() == [0, 1]
        assert_matches_grid(pts, radius)
