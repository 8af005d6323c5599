"""Property: one scenario hash pins one result, whatever the topology.

The fleet contract is that a scenario — identified by its content hash —
fully determines the replay-mode run: the response digest and the
metrics digest are bit-identical across ``--shards 1/2/4`` and across
the inline and process backends, and the fleet audit holds under any
generated fault program.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import run_fleet
from repro.fleet.scenario import (
    DeviceCrash,
    DeviceRestart,
    NetworkHeal,
    NetworkPartition,
    Scenario,
    SlowShard,
    UserHandoff,
)
from repro.serve.events import workload_user_ids

N_USERS = 5
N_EVENTS = 60
N_DEVICES = 4
USERS = workload_user_ids(N_USERS)

WORKLOAD = dict(
    n_users=N_USERS, n_events=N_EVENTS, n_campaigns=20, seed=3, use_processes=False
)

ats = st.integers(min_value=0, max_value=N_EVENTS + 5)
devices = st.integers(min_value=0, max_value=N_DEVICES - 1)

crashes = st.builds(DeviceCrash, at=ats, device=devices, persist_tables=st.booleans())
restarts = st.builds(DeviceRestart, at=ats, device=devices)
handoffs = st.builds(
    UserHandoff, at=ats, user=st.sampled_from(USERS), to_device=devices
)
slow = st.builds(
    SlowShard, at=ats, device=devices, latency_s=st.just(0.002)
)
partitions = st.builds(NetworkPartition, at=ats, shard=devices)
heals = st.builds(NetworkHeal, at=ats, shard=devices)

scenarios = st.builds(
    lambda events: Scenario(name="prop", n_devices=N_DEVICES, events=tuple(events)),
    st.lists(
        st.one_of(crashes, restarts, handoffs, slow, partitions, heals),
        min_size=1,
        max_size=6,
    ),
)


def _run(scenario, n_shards):
    return run_fleet(scenario, n_shards=n_shards, **WORKLOAD)


class TestShardInvariance:
    @given(scenario=scenarios)
    @settings(max_examples=10, deadline=None)
    def test_digests_invariant_across_shard_counts(self, scenario):
        reports = [_run(scenario, shards) for shards in (1, 2, 4)]
        digests = {r.digest for r in reports}
        metrics = {r.metrics_digest() for r in reports}
        assert len(digests) == 1, f"response digest varies with shards: {digests}"
        assert len(metrics) == 1, f"metrics digest varies with shards: {metrics}"
        for report in reports:
            assert report.audit.ok, report.audit

    @given(scenario=scenarios)
    @settings(max_examples=5, deadline=None)
    def test_same_hash_same_result_after_round_trip(self, scenario):
        clone = Scenario.from_json(scenario.to_json())
        assert clone.content_hash() == scenario.content_hash()
        a = _run(scenario, 2)
        b = _run(clone, 2)
        assert a.digest == b.digest
        assert a.metrics_digest() == b.metrics_digest()


class TestChurn10Golden:
    """``repro fleet run churn10`` digests, recorded before the per-event
    fold became a drained delta (CPython 3.11, numpy 2.4): they pin the
    fold's float association, which shard-count invariance alone cannot.
    """

    RESPONSE = "81fa22536608bd4d0e734e1b58c0f937b060c166e0874b126ee895cff90fb690"
    METRICS = "50289e5e2facb1afee1e59cce1967f8bdd1c0e97ff72012dddc54087d7cb652b"

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_churn10_digests_equal_the_recorded_ones(self, n_shards):
        report = run_fleet("churn10", n_shards=n_shards, use_processes=False)
        assert report.digest == self.RESPONSE
        assert report.metrics_digest() == self.METRICS
        assert report.audit.ok, report.audit


class TestBackendInvariance:
    def test_process_backend_matches_inline(self):
        scenario = Scenario(
            name="xbackend",
            n_devices=N_DEVICES,
            events=(
                DeviceCrash(at=15, device=0, persist_tables=True),
                DeviceRestart(at=25, device=0),
                UserHandoff(at=30, user=USERS[1], to_device=3),
                NetworkPartition(at=20, shard=1),
                NetworkHeal(at=40, shard=1),
            ),
        )
        inline = _run(scenario, 2)
        process = run_fleet(
            scenario,
            n_users=N_USERS,
            n_events=N_EVENTS,
            n_campaigns=20,
            seed=3,
            n_shards=2,
            use_processes=True,
        )
        assert process.digest == inline.digest
        assert process.metrics_digest() == inline.metrics_digest()
        assert process.audit.ok and inline.audit.ok
