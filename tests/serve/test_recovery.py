"""Recovery: a timed-out shard worker is rebuilt inline from its history.

A dispatch that times out discards the worker and replays the shard's
batch history against a fresh inline state (:meth:`rebuild_inline`),
then retries the batch there.  The replayed history was already folded
when it first arrived, so the recovered run must give the same response
and metrics digests as a clean one.
"""

import asyncio

import pytest

from repro.serve import service as service_module
from repro.serve.harness import run_service

WORKLOAD = dict(n_users=6, n_events=150, n_campaigns=40, seed=11)


@pytest.fixture(scope="module")
def clean():
    return run_service(replay=True, n_shards=2, use_processes=False, **WORKLOAD)


def _spy_rebuilds(monkeypatch):
    """Record the history length at every inline rebuild."""
    rebuilds = []
    rebuild = service_module._ShardBackend.rebuild_inline

    def spy(self):
        rebuilds.append(len(self.history))
        rebuild(self)

    monkeypatch.setattr(service_module._ShardBackend, "rebuild_inline", spy)
    return rebuilds


def _process_run(**overrides):
    result = run_service(replay=True, n_shards=2, use_processes=True, **WORKLOAD, **overrides)
    if result.backend != "process":
        pytest.skip("worker processes unavailable in this sandbox")
    return result


def test_slow_worker_timeout_rebuilds_inline_bit_identically(clean, monkeypatch):
    """Every worker batch sleeps past the timeout, so each shard fails over."""
    rebuilds = _spy_rebuilds(monkeypatch)
    result = _process_run(work_sleep_s=0.005, dispatch_timeout_s=0.05)
    assert rebuilds, "no dispatch timed out"
    assert result.digest == clean.digest
    assert result.metrics_digest() == clean.metrics_digest()
    assert result.metrics["gauges"]["privacy.epsilon_spent"] == result.audit_epsilon


def test_rebuild_replays_folded_history_without_refolding(clean, monkeypatch):
    """A worker wedged on its third batch: two batches of history replay."""
    rebuilds = _spy_rebuilds(monkeypatch)
    process_once = service_module._ShardBackend.process_once
    calls = {}

    async def wedge_third(self, batch):
        if self.executor is not None:
            calls[id(self)] = calls.get(id(self), 0) + 1
            if calls[id(self)] == 3:
                await asyncio.sleep(2.0)
        return await process_once(self, batch)

    monkeypatch.setattr(service_module._ShardBackend, "process_once", wedge_third)
    result = _process_run(dispatch_timeout_s=1.0, batch_max=8)
    assert 2 in rebuilds
    assert result.digest == clean.digest
    assert result.metrics_digest() == clean.metrics_digest()
    assert result.metrics["gauges"]["privacy.epsilon_spent"] == result.audit_epsilon
