"""The benchmark's own tests.

Run from the checkout root with ``python3 -m pytest edgebench/tests``.
The smoke runs use ``--tiny`` inputs, so the whole file takes about a
minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import repro.kernels  # noqa: E402
import repro.serve.shard  # noqa: E402
from edgebench import run as bench  # noqa: E402
from edgebench.tracing import Tracer  # noqa: E402
from repro.ads.network import AdNetwork  # noqa: E402
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism  # noqa: E402
from repro.edge.location_management import LocationManagementModule  # noqa: E402
from repro.edge.obfuscation import ObfuscationModule  # noqa: E402
from repro.edge.output_selection import OutputSelectionModule  # noqa: E402
from repro.serve import ShardState, UserActor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

#: Every namespace a traced run wraps attributes of.
WRAPPED_OWNERS = [
    ShardState,
    UserActor,
    LocationManagementModule,
    ObfuscationModule,
    NFoldGaussianMechanism,
    OutputSelectionModule,
    GaussianMechanism,
    AdNetwork,
    repro.serve.shard,
    repro.kernels,
]


def _tiny_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = _tiny_run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_dropped_response_fails_the_serve_run(monkeypatch, capsys) -> None:
    original = ShardState.process

    def drop_last(self, batch):
        result = original(self, batch)
        del result.responses[-1:]
        return result

    monkeypatch.setattr(ShardState, "process", drop_last)
    code = bench.main(
        ["--workload", "serve-dense", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--tiny"]
    )
    out = capsys.readouterr().out
    assert code != 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in out


def test_perturbed_kernel_fails_the_batch_run(monkeypatch, capsys) -> None:
    original = repro.kernels.one_time_laplace_population
    monkeypatch.setattr(
        repro.kernels,
        "one_time_laplace_population",
        lambda *args, **kwargs: original(*args, **kwargs) + 1e-6,
    )
    code = bench.main(
        ["--workload", "batch-attack", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--tiny"]
    )
    out = capsys.readouterr().out
    assert code != 0
    assert "one-time stream differs from the reference" in out


@pytest.mark.parametrize("workload", ["serve-sparse", "batch-attack"])
def test_traced_run_leaves_the_program_unpatched(workload: str, capsys) -> None:
    before = [dict(vars(owner)) for owner in WRAPPED_OWNERS]
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "1", "--tiny"]
    )
    capsys.readouterr()
    assert code == 0
    after = [dict(vars(owner)) for owner in WRAPPED_OWNERS]
    for owner, old, new in zip(WRAPPED_OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        for key, value in old.items():
            assert new[key] is value, (owner, key)


def test_wrappers_are_installed_while_tracing() -> None:
    process = vars(ShardState)["process"]
    with Tracer() as tracer:
        bench.serve_tracer(tracer)
        assert vars(ShardState)["process"] is not process
    assert vars(ShardState)["process"] is process


class _Toy:
    def outer(self) -> None:
        time.sleep(0.02)
        self.inner()

    def inner(self) -> None:
        time.sleep(0.01)

    def fail(self) -> None:
        raise ValueError("boom")


def test_self_time_is_span_minus_nested_spans() -> None:
    toy = _Toy()
    with Tracer() as tracer:
        tracer.wrap(_Toy, "outer", "outer")
        tracer.wrap(_Toy, "inner", "inner")
        tracer.wrap(toy, "fail", "fail")
        toy.outer()
        with pytest.raises(ValueError):
            toy.fail()
    stats = tracer.stats()
    outer, inner = stats["outer"], stats["inner"]
    assert outer.count == 1 and inner.count == 1
    assert inner.self_s == inner.total_s >= 0.01
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s, abs=1e-9)
    assert outer.self_s >= 0.02
    assert stats["fail"].count == 1
    assert "fail" not in vars(toy)
    assert vars(_Toy)["outer"].__name__ == "outer"
