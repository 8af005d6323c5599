"""The replay-mode contract: bit-identical results at any shard count.

These are the service's headline invariants (see docs/serving.md):

* the sha256 response digest is identical for ``--shards 1/2/4``;
* the merged fleet metrics snapshot is bit-identical — including the
  float-valued gauges and histogram sums — at any shard count;
* the epsilon/delta budget gauges equal the ledger-entry audit exactly.
"""

import gc
import weakref

import pytest

from repro.obs import metrics as metrics_module
from repro.serve.events import ServeWorkloadConfig, build_schedule
from repro.serve.harness import run_service
from repro.serve.service import ServeConfig, ServeResult, ServeService, _FleetFold

WORKLOAD = dict(n_users=6, n_events=150, n_campaigns=40, seed=11)


def replay(n_shards, use_processes=False, **overrides):
    kwargs = dict(WORKLOAD)
    kwargs.update(overrides)
    return run_service(
        replay=True, n_shards=n_shards, use_processes=use_processes, **kwargs
    )


@pytest.fixture(scope="module")
def baseline():
    return replay(1)


class TestReplayDeterminism:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_digest_and_metrics_identical_across_shards(self, baseline, n_shards):
        result = replay(n_shards)
        assert result.digest == baseline.digest
        assert result.metrics == baseline.metrics
        assert result.metrics_digest() == baseline.metrics_digest()

    def test_rerun_is_bit_identical(self, baseline):
        assert replay(1).digest == baseline.digest

    def test_seed_changes_digest(self, baseline):
        assert replay(1, seed=12).digest != baseline.digest

    def test_all_events_processed_none_dropped(self, baseline):
        assert baseline.processed == WORKLOAD["n_events"]
        assert baseline.dropped == 0
        counters = baseline.metrics["counters"]
        assert counters["serve.events"] == WORKLOAD["n_events"]
        assert counters["serve.ingress.enqueued"] == WORKLOAD["n_events"]
        assert counters["serve.ingress.dropped"] == 0

    def test_responses_cover_schedule_in_seq_order(self, baseline):
        assert [r.seq for r in baseline.responses] == list(
            range(WORKLOAD["n_events"])
        )


class TestGoldenDigests:
    """Digests recorded before the per-event fold became a drained delta.

    Shard-count invariance alone would still hold if the fold's float
    association changed the same way at every shard count; these pin the
    association itself.  Recorded with CPython 3.11 and numpy 2.4.
    """

    RESPONSE = "ffeac426ad158ad5b156a92173e7d096b5e613d4e71da85ff68ef6b048873c01"
    METRICS = "95b5f8ff79b52b5091e0ad4dcac83847e83e40767d9a39c1436f5474a873fefc"

    def test_digests_equal_the_recorded_ones(self, baseline):
        assert baseline.digest == self.RESPONSE
        assert baseline.metrics_digest() == self.METRICS
        assert baseline.metrics["gauges"]["privacy.delta_spent"] == 0.18000000000000002


class TestFoldOnArrival:
    def test_no_batch_outlives_its_fold(self, monkeypatch):
        """By assembly time every batch (deltas, charges) has been dropped."""
        refs = []
        add, assemble = _FleetFold.add, ServeService._assemble
        alive_at_assembly = []

        def spy_add(self, result):
            refs.append(weakref.ref(result))
            add(self, result)

        def spy_assemble(self, *args, **kwargs):
            gc.collect()
            alive_at_assembly.append(sum(ref() is not None for ref in refs))
            return assemble(self, *args, **kwargs)

        monkeypatch.setattr(_FleetFold, "add", spy_add)
        monkeypatch.setattr(ServeService, "_assemble", spy_assemble)
        result = replay(2)
        assert result.processed == WORKLOAD["n_events"]
        assert len(refs) >= 2
        assert alive_at_assembly == [0]

    def test_one_registry_per_batch_not_per_event(self, monkeypatch):
        built = []
        init = metrics_module.MetricsRegistry.__init__

        def counting_init(self):
            built.append(1)
            init(self)

        monkeypatch.setattr(metrics_module.MetricsRegistry, "__init__", counting_init)
        result = replay(2)
        batches = sum(stats["batches"] for stats in result.shard_stats)
        assert batches < WORKLOAD["n_events"] // 4
        # One per batch, one per shard's finalize, and the parent's few.
        assert len(built) <= batches + 2 + 4


class TestLedgerExactness:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_epsilon_gauge_equals_ledger_audit_exactly(self, n_shards):
        result = replay(n_shards)
        gauges = result.metrics["gauges"]
        assert result.ledger_spends > 0  # the workload actually pins
        assert gauges["privacy.epsilon_spent"] == result.audit_epsilon
        assert gauges["privacy.delta_spent"] == result.audit_delta
        assert gauges["privacy.epsilon_spent"] == pytest.approx(
            result.ledger_epsilon
        )
        assert result.metrics["counters"]["privacy.ledger_spends"] == (
            result.ledger_spends
        )


class TestProcessBackend:
    def test_process_backend_matches_inline(self, baseline):
        result = replay(2, use_processes=True)
        if result.backend != "process":
            pytest.skip("worker processes unavailable in this sandbox")
        assert result.digest == baseline.digest
        assert result.metrics == baseline.metrics


class TestVirtualLatency:
    def test_pin_histogram_is_deterministic(self, baseline):
        pin = baseline.metrics["histograms"]["edge.obfuscation.pin_seconds"]
        assert pin["count"] == baseline.ledger_spends
        again = replay(4)
        assert again.metrics["histograms"]["edge.obfuscation.pin_seconds"] == pin


class TestScheduleInjection:
    def test_prebuilt_schedule_round_trips(self):
        workload = ServeWorkloadConfig(**WORKLOAD)
        schedule = build_schedule(workload)
        config = ServeConfig(
            workload=workload, n_shards=2, replay=True, use_processes=False
        )
        a = ServeService(config, schedule=schedule).run()
        b = ServeService(config).run()
        assert a.digest == b.digest


class TestRunCost:
    def test_run_never_reprs_its_result(self, monkeypatch):
        """``run()`` must not pay to repr a result holding every response.

        ``asyncio.run`` restores the SIGINT handler on exit, and Python
        3.11 reprs the replaced handler, a partial holding the main task
        and with it the task's return value.
        """
        calls = []

        def spy(self):
            calls.append(self.processed)
            return "ServeResult(...)"

        monkeypatch.setattr(ServeResult, "__repr__", spy)
        config = ServeConfig(
            workload=ServeWorkloadConfig(**WORKLOAD),
            n_shards=1,
            replay=True,
            use_processes=False,
        )
        result = ServeService(config).run()
        assert result.processed == WORKLOAD["n_events"]
        assert calls == []
