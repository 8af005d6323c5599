"""Property: folding drained per-event deltas equals merging snapshots.

A shard batch runs in one registry and drains it after every event; the
service folds the deltas (and each event's ledger charges) in global
``seq`` order through a reorder buffer.  The reference is the scheme it
replaced: one fresh registry per event, snapshotted, and the snapshots
merged in ``seq`` order.  The two must agree bit for bit — the same float
additions in the same association, the same int/float type per value,
and the same set of metric names.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.serve.service import _FleetFold
from repro.serve.shard import BatchResult

CUSTOM_BOUNDS = (0.1, 1.0, 10.0)
EPSILON_GAUGE = "privacy.epsilon_spent"
DELTA_GAUGE = "privacy.delta_spent"

names = st.sampled_from(["a", "b", "c"])
# Non-dyadic values (0.1, 0.3, ...) make float association visible.
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 1e-9, 7.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
non_negative = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.sampled_from([0.0, 0.1, 0.7, 2.5]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
ops = st.one_of(
    st.tuples(st.just("counter"), names, non_negative),
    st.tuples(st.just("counter_int"), names, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("gauge_add"), names, floats),
    st.tuples(st.just("gauge_set"), names, floats),
    st.tuples(st.just("max"), names, floats),
    st.tuples(st.just("hist"), names, floats),
    st.tuples(st.just("hist_custom"), names, floats),
)
charges = st.lists(
    st.tuples(
        st.sampled_from([0.1, 0.2, 1.0 / 3.0, 0.5]),
        st.sampled_from([0.01, 0.02, 0.03, 1e-5]),
    ),
    max_size=3,
)
events = st.lists(
    st.tuples(st.lists(ops, max_size=6), charges), min_size=1, max_size=30
)


def apply_event(registry, event_ops, event_charges):
    """Run one event's metric writes (and its charges' gauge adds)."""
    for kind, name, value in event_ops:
        if kind == "counter":
            registry.counter(name).inc(value)
        elif kind == "counter_int":  # stays int unless a fold floats it
            registry.counter("int." + name).inc(value)
        elif kind == "gauge_add":
            registry.gauge(name).add(value)
        elif kind == "gauge_set":
            registry.gauge(name).set(value)
        elif kind == "max":
            registry.max_gauge(name).observe(value)
        elif kind == "hist":
            registry.histogram(name).observe(value)
        else:
            registry.histogram("custom." + name, CUSTOM_BOUNDS).observe(value)
    for eps, delta in event_charges:
        registry.gauge(EPSILON_GAUGE).add(eps)
        registry.gauge(DELTA_GAUGE).add(delta)


def reference_fold(evts):
    """The per-event-snapshot merge the drained fold must reproduce."""
    snapshots = []
    for event_ops, event_charges in evts:
        registry = MetricsRegistry()
        apply_event(registry, event_ops, event_charges)
        snapshots.append(registry.snapshot())
    return merge_snapshots(snapshots)


def bits(value):
    """``value`` with every float replaced by its type and exact bits."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


@st.composite
def sharded(draw):
    """Events, their shard and batch split, and a batch arrival order."""
    evts = draw(events)
    n_shards = draw(st.integers(min_value=1, max_value=4))
    owner = [draw(st.integers(min_value=0, max_value=n_shards - 1)) for _ in evts]
    batches = []  # per shard: list of seq lists, in shard order
    for shard in range(n_shards):
        seqs = [seq for seq, s in enumerate(owner) if s == shard]
        split = []
        while seqs:
            size = draw(st.integers(min_value=1, max_value=5))
            split.append(seqs[:size])
            seqs = seqs[size:]
        batches.append(split)
    # Interleave shards arbitrarily, keeping each shard's batch order.
    cursors = [0] * n_shards
    arrival = []
    while any(cursors[s] < len(batches[s]) for s in range(n_shards)):
        ready = [s for s in range(n_shards) if cursors[s] < len(batches[s])]
        shard = draw(st.sampled_from(ready))
        arrival.append((shard, batches[shard][cursors[shard]]))
        cursors[shard] += 1
    return evts, arrival


@given(sharded())
@settings(max_examples=200, deadline=None)
def test_drained_fold_is_bit_identical_to_snapshot_merge(case):
    evts, arrival = case
    fleet = _FleetFold(replay=True, n_shards=4)
    for shard, seqs in arrival:
        registry = MetricsRegistry()  # one registry per shard batch
        result = BatchResult(shard_id=shard)
        for seq in seqs:
            event_ops, event_charges = evts[seq]
            apply_event(registry, event_ops, event_charges)
            result.charges.append((seq, list(event_charges)))
            result.observations.append((seq, registry.drain()))
        # The process backend pickles every batch on its way back.
        fleet.add(pickle.loads(pickle.dumps(result)))
    fleet.check_drained()
    expected = reference_fold(evts)
    got = fleet.registry.snapshot()
    assert bits(got) == bits(expected)
    gauges = got["gauges"]
    if EPSILON_GAUGE in gauges:
        assert bits(gauges[EPSILON_GAUGE]) == bits(fleet.audit_epsilon)
        assert bits(gauges[DELTA_GAUGE]) == bits(fleet.audit_delta)
