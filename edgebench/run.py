"""End-to-end benchmark of the edge ad service and the Fig. 6 pipeline.

Usage, from the root of a checkout (``BENCHMARK.json`` lists the
workloads, metrics, units and bounds)::

    python3 edgebench/run.py --workload serve-dense --seed 1 --seconds 30 --trace 0

The seed builds the input (:mod:`edgebench.inputs`); the program only
ever sees the generated schedule or columns.  With ``--trace 0`` the last
stdout line is one JSON object with every end-to-end metric; with
``--trace 1`` a separate traced run reports the per-layer metrics
instead, with the measured tracing overhead.  Every run checks the
program's outputs, prints ``CHECK FAILED`` lines and exits non-zero when
one fails.  The lines before the result state the input's size, its
pinned-path share and the latency sample count.

A serve workload's input scales with ``--seconds``
(:func:`edgebench.inputs.sized`).  The run replays the whole schedule
twice through the one-shard process service (closed loop), then a live
inline shard serves the first quarter of the schedule untimed and is
offered the rest as one open-loop window of about a third of
``--seconds``.  The batch workload repeats whole pipeline passes for
``--seconds``.  Set-up probes sit between the phases or passes.

Latency percentiles (open loop, due to response; per-user attack calls
for the batch workload) are per-layer figures of the traced run, not
end-to-end ones: on a shared two-core host whose speed swings by a third
between runs, the serve workloads' p50 and p99 spread over ten seeds by
0.3 to 0.7 of their median, wider than any bound an end-to-end metric
may have.  The end-to-end latency figure is ``deadline_frac``, the share
of offered events answered within the 100 ms bidding deadline.

Steadiness controls.  The host's speed drifts by a third over tens of
seconds, but within any few seconds some stretch runs at full speed, so
the timed figures take the fastest of several repetitions spread over
the run rather than a mean or median:

* one fresh interpreter per run, and per set-up probe, each with the
  same fixed string-hash seed;
* no more busy processes than the two cores: the service's parent plus
  one shard worker, or one process for the batch pipeline;
* ``setup_s`` is the fastest of five probes, each timed from spawn to
  serving state ready, so it absorbs the swing of the import;
* serve throughput is over the faster of two closed loops; batch
  throughput over :func:`edgebench.batch.undisturbed_wall`, each
  kernel's and each user's attack's fastest repetition;
* nothing collects before the open-loop window and the window is long
  enough to hold full collections (one or two at ``--seconds 30``); the
  notes count them and list the pauses over 50 ms.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence, Tuple

#: Every run hashes strings with one fixed seed.  With per-process
#: randomized hashing, dict layouts change from run to run and moved the
#: open loop's median latency by a third between runs of the same input.
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, "PYTHONHASHSEED": HASH_SEED},
    )

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

import numpy as np  # noqa: E402
import repro  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
    sys.exit(f"benchmark needs the program under {SRC}, found {repro.__file__}")

from edgebench import batch, inputs, quality, serve_phases  # noqa: E402
from edgebench.probe import encode_schedule  # noqa: E402
from edgebench.tracing import GCMonitor, Tracer  # noqa: E402

#: Open-loop offered rate per serve workload, events/s, fixed so it is
#: the same on every commit: about 40 % of the workload's inline live
#: throughput.  Measured on a 2-core host, one event per ``process()``
#: call, inputs of ``--seconds 30`` at seeds 501-502: dense 4.3k-4.7k/s
#: (1,500/s is 32-35 % of it), sparse 2.6k-3.0k/s (1,100/s is 37-42 %).
OPEN_LOOP_RATE = {"serve-dense": 1500.0, "serve-sparse": 1100.0}

#: The open loop warms its shard on the first 1/WARM_DIVISOR of the
#: schedule and offers the rest.
WARM_DIVISOR = 4

#: Closed loops per serve run, and the fewest passes per batch run.
ROUNDS = 2

#: Set-up probes per batch run; a serve run makes one after each closed
#: loop, one on each side of its open loop and one at the end (five).
PROBES = 5

#: Batch users whose kernel outputs are compared with the per-user path.
REFERENCE_USERS = 8

#: Reported check-ins sent through the ad network for batch utility.
ADS_SAMPLE = 2_000

#: Metric names and units, as the benchmark declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


class Run:
    """Metrics and failed checks gathered while one run proceeds."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.failures: List[str] = []
        self.attempted = 0
        #: Operations that got no answer (unanswered events).
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _percentile_ms(seconds: np.ndarray, q: float) -> float:
    return float(np.percentile(seconds, q) * 1e3)


def probe_setup(workload: str, blob: bytes) -> Tuple[float, float, float]:
    """One fresh interpreter: ``(setup_s, import_s, state_s)``."""
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([ROOT, SRC]), PYTHONHASHSEED=HASH_SEED
    )
    script = os.path.join(ROOT, "edgebench", "probe.py")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, script, workload],
        input=blob,
        capture_output=True,
        env=env,
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    reading = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return reading["ready"] - spawned, reading["import_s"], reading["state_s"]


# -- serve -----------------------------------------------------------------


def serve_tracer(tracer: Tracer) -> None:
    """Wrap the public calls of every serve layer the shard drives."""
    import repro.serve.shard as shard_module
    from repro.ads.network import AdNetwork
    from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
    from repro.edge.location_management import LocationManagementModule
    from repro.edge.obfuscation import ObfuscationModule
    from repro.edge.output_selection import OutputSelectionModule
    from repro.serve import ShardState, UserActor

    tracer.wrap(ShardState, "process", "shard.process")
    tracer.wrap(UserActor, "__init__", "actor.create")
    tracer.wrap(
        LocationManagementModule,
        "record",
        "management.record",
        rename=lambda tops: None if tops is None else "management.window_close",
    )
    tracer.wrap(ObfuscationModule, "ensure_obfuscated", "obfuscation.ensure")
    tracer.wrap(NFoldGaussianMechanism, "obfuscate", "obfuscation.pin")
    tracer.wrap(ObfuscationModule, "candidates_for", "obfuscation.lookup")
    tracer.wrap(OutputSelectionModule, "select", "selection.select")
    tracer.wrap(GaussianMechanism, "obfuscate", "nomadic.obfuscate")
    tracer.wrap(AdNetwork, "handle", "ads.handle")
    tracer.wrap(shard_module, "filter_ads_to_aoi", "ads.aoi_filter")
    tracer.wrap(shard_module, "build_response", "egress.build")


def _serve_layers(tracer: Tracer, events: int) -> Dict[str, float]:
    s = tracer.stats()
    record, close = s["management.record"], s["management.window_close"]
    pins = s["obfuscation.pin"].count
    return {
        "shard.self_us_per_event": s["shard.process"].self_s / events * 1e6,
        "actor.created": s["actor.create"].count,
        "actor.create_us": s["actor.create"].mean_us,
        "management.record_us": (record.total_s + close.total_s)
        / max(1, record.count + close.count)
        * 1e6,
        "management.window_close_us": close.mean_us,
        "management.window_closes": close.count,
        "obfuscation.pins": pins,
        "obfuscation.pin_us": s["obfuscation.ensure"].total_s / pins * 1e6 if pins else 0.0,
        "obfuscation.lookup_us": s["obfuscation.lookup"].mean_us,
        "selection.calls": s["selection.select"].count,
        "selection.select_us": s["selection.select"].mean_us,
        "nomadic.calls": s["nomadic.obfuscate"].count,
        "nomadic.obfuscate_us": s["nomadic.obfuscate"].mean_us,
        "ads.handle_us": s["ads.handle"].mean_us,
        "ads.aoi_filter_us": s["ads.aoi_filter"].mean_us,
        "egress.build_us": s["egress.build"].mean_us,
    }


def run_serve(workload: str, shape: inputs.Shape, seed: int, trace: bool,
              rounds: int) -> Run:
    """A closed loop, the open-loop window, the other closed loops.

    Set-up probes sit between the phases.  The input is already sized
    from ``--seconds``; the open loop offers every event after the
    warm-up in one uninterrupted window.
    """
    run = Run()
    inp = inputs.build_serve_input(shape, seed)
    schedule = inp.schedule
    n = len(schedule)
    config = serve_phases.serve_config(schedule, seed)
    blob = encode_schedule(schedule, seed)

    walls: List[float] = []

    def replay() -> serve_phases.ClosedLoop:
        result = serve_phases.closed_loop(schedule, config)
        run.failures.extend(result.failures)
        run.attempted += n
        run.failed += n - result.processed
        walls.append(result.wall_s)
        return result

    closed = replay()
    # The shard worker is the only child reaped so far; set-up probes,
    # which are children too, come later.  Its RSS counts the parent's
    # pages from the fork, which the parent's own peak already holds.
    worker_mb = serve_phases.peak_rss_mb(children=True) - closed.fork_rss_mb
    samples = [probe_setup(workload, blob)]

    # The live shard serves every event of the schedule inline; checking
    # each response against the process backend's also stands for an
    # inline replay of the whole schedule.
    rate = OPEN_LOOP_RATE[workload]
    warm = n // WARM_DIVISOR
    window = n - warm
    if trace:
        tracemalloc.start()
    live = serve_phases.LiveShard(schedule, config, closed.encoded)
    live.warm(warm)
    if trace:
        heap_per_actor_kb = (
            tracemalloc.get_traced_memory()[0] / 1024 / max(1, len(live.state.actors))
        )
        tracemalloc.stop()
    samples.append(probe_setup(workload, blob))
    gcm = GCMonitor()
    due = serve_phases.arrivals(window, rate, seed)
    latency = live.offer(due, gcm)
    samples.append(probe_setup(workload, blob))
    peak_mb = serve_phases.peak_rss_mb() + worker_mb
    # Further closed loops, and the traced run's inline replays, come
    # after the open loop: the throughput samples lie far apart in the
    # run, and the open loop meets the same heap with tracing on or off.
    for _ in range(0 if trace else rounds - 1):
        run.check(replay().digest == closed.digest,
                  "closed-loop digests differ between rounds")
        samples.append(probe_setup(workload, blob))
    if trace:
        untraced = [serve_phases.inline_replay(schedule, config)]
        tracer = Tracer()
        serve_tracer(tracer)
        with tracer:
            traced_wall, traced_digest = serve_phases.inline_replay(schedule, config)
        untraced.append(serve_phases.inline_replay(schedule, config))
        for _, digest in untraced:
            run.check(digest == closed.digest,
                      "process-backend replay digest differs from the inline replay")
        run.check(traced_digest == closed.digest, "traced replay digest differs")
        # The faster untraced replay, one on each side of the traced one,
        # is the baseline: the first replay's warm-up is not tracing cost.
        inline_wall = min(wall for wall, _ in untraced)
    run.attempted += n
    run.failed += n - live.answered
    run.check(live.mismatched == 0,
              f"{live.mismatched} inline responses differ from the process replay")
    run.check(live.answered == n, f"live shard answered {live.answered} of {n} events")
    top_frac = closed.top_events / n
    run.notes.append(
        f"{workload}: {schedule.n_users} users, {n} events, top path {top_frac:.3f}; "
        f"open loop {window} latency samples over {due[-1]:.1f} s at {rate:.0f}/s, "
        f"{live.batches} batches, {gcm.gen2} full collections, pauses over 50 ms: "
        f"{[round(p * 1e3) for p in gcm.pauses if p > 0.05]}; "
        f"closed-loop walls s: {', '.join(f'{w:.2f}' for w in walls)}"
    )
    run.values.update({
        "latency.p50_ms": _percentile_ms(latency, 50),
        "latency.p99_ms": _percentile_ms(latency, 99),
    })
    if trace:
        _, import_s, state_s = min(samples)
        run.values.update(_serve_layers(tracer, n))
        run.values.update({
            "setup.import_s": import_s,
            "setup.state_s": state_s,
            "service.parent_cpu_us_per_event": closed.parent_cpu_s / n * 1e6,
            "service.overhead_us_per_event": (closed.wall_s - inline_wall) / n * 1e6,
            "shard.batch_events": window / live.batches,
            "actor.heap_kb": heap_per_actor_kb,
            "ads.received_per_event": closed.ads_received / n,
            "gc.gen2_collections": gcm.gen2,
            "gc.pause_max_ms": max(gcm.pauses, default=0.0) * 1e3,
            "gc.pause_total_ms": sum(gcm.pauses) * 1e3,
            "loadgen.late_p99_ms": _percentile_ms(np.array(live.late or [0.0]), 99),
            "path.top_frac": top_frac,
            "input.users": schedule.n_users,
            "input.events": n,
            "trace.overhead_frac": traced_wall / inline_wall - 1.0,
        })
        return run

    mech = batch.build_mechanisms()
    offsets, reported_xy = quality.by_user(closed.reported_user, closed.reported_xy)
    errors = quality.top1_errors(
        batch.attack_top1(mech.defended_attack, reported_xy, offsets), inp.true_top1
    )
    raw_offsets, raw_x, raw_y = quality.by_user(schedule.user_index, schedule.xs, schedule.ys)
    recall = quality.onetime_recall(raw_x, raw_y, raw_offsets, inp.true_top1, seed)
    samples.append(probe_setup(workload, blob))
    run.values.update({
        "setup_s": min(samples)[0],
        "events_per_s": n / min(walls),
        "deadline_frac": float(np.mean(latency <= serve_phases.DEADLINE_S)),
        "answered_frac": closed.processed / n,
        "peak_rss_mb": peak_mb,
        "attack_err_m": float(np.median(errors)),
        "attacker_recall_200m": recall,
        "ads_per_event": closed.ads_delivered / n,
        "epsilon_per_user": closed.epsilon_spent / schedule.n_users,
    })
    return run


# -- batch -----------------------------------------------------------------


def batch_tracer(tracer: Tracer, mech: batch.Mechanisms) -> None:
    """Wrap the population kernels and the two attacks."""
    import repro.kernels as kernels

    tracer.wrap(kernels, "population_profiles", "kernels.profiles")
    tracer.wrap(kernels, "population_eta_tops", "kernels.eta")
    tracer.wrap(kernels, "permanent_obfuscate_population", "kernels.permanent_obfuscate")
    tracer.wrap(kernels, "one_time_laplace_population", "kernels.one_time_laplace")
    tracer.wrap(mech.defended_attack, "estimate_xy", "attack.defended")
    tracer.wrap(mech.onetime_attack, "estimate_xy", "attack.onetime")


def run_batch(shape: inputs.Shape, seed: int, seconds: float, trace: bool,
              rounds: int, probes: int) -> Run:
    """Pipeline passes for ``seconds``, with set-up probes in between.

    A traced run makes one warm pass and one untraced pass to set the
    traced pass against.
    """
    run = Run()
    pop = inputs.build_batch_input(shape, seed)
    ck = pop.checkins
    n_users = ck.n_users
    mech = batch.build_mechanisms()

    # Only the first pass keeps its outputs; later passes are checked
    # against it and keep their timings, so the run's peak RSS does not
    # grow with the number of passes the host's speed allows.
    first: Optional[batch.Pass] = None
    kernel_s: List[np.ndarray] = []
    attack_s: List[np.ndarray] = []
    walls: List[float] = []
    samples = []
    started = time.perf_counter()
    while len(walls) < (2 if trace else rounds) or (
        not trace and time.perf_counter() - started < seconds
    ):
        done = batch.run_pass(pop, mech, seed)
        if first is None:
            first = done
        else:
            run.check(
                np.array_equal(done.defended_reported, first.defended_reported)
                and done.onetime_top1 == first.onetime_top1,
                "batch pass outputs differ between repetitions",
            )
        kernel_s.append(done.kernel_s)
        attack_s.append(done.attack_s)
        walls.append(done.wall_s)
        run.attempted += n_users
        if len(samples) < probes:
            samples.append(probe_setup("batch-attack", b""))
    while len(samples) < probes:
        samples.append(probe_setup("batch-attack", b""))
    assert first is not None
    sample = np.linspace(0, n_users - 1, min(REFERENCE_USERS, n_users)).astype(int)
    run.failures.extend(
        batch.reference_mismatches(pop, mech, seed, first, sorted(set(sample.tolist())))
    )
    peak_mb = serve_phases.peak_rss_mb()
    setup_s, import_s, state_s = min(samples)
    run.notes.append(
        f"batch-attack: {n_users} users, {len(ck.xs)} check-ins, {len(walls)} passes, "
        f"{2 * n_users * len(walls)} attack latency samples; pass walls s: "
        + ", ".join(f"{w:.2f}" for w in walls)
    )

    latencies = np.concatenate(attack_s)
    run.values.update({
        "latency.p50_ms": _percentile_ms(latencies, 50),
        "latency.p99_ms": _percentile_ms(latencies, 99),
    })
    if trace:
        tracer = Tracer()
        batch_tracer(tracer, mech)
        with tracer:
            traced = batch.run_pass(pop, mech, seed)
        run.check(np.array_equal(traced.defended_reported, first.defended_reported),
                  "traced batch pass differs")
        s = tracer.stats()
        run.values.update({
            "setup.import_s": import_s,
            "setup.state_s": state_s,
            "kernels.profiles_s": s["kernels.profiles"].total_s,
            "kernels.eta_s": s["kernels.eta"].total_s,
            "kernels.permanent_obfuscate_s": s["kernels.permanent_obfuscate"].total_s,
            "kernels.one_time_laplace_s": s["kernels.one_time_laplace"].total_s,
            "attack.defended_us_per_user": s["attack.defended"].total_s / n_users * 1e6,
            "attack.onetime_us_per_user": s["attack.onetime"].total_s / n_users * 1e6,
            "input.users": n_users,
            "input.events": len(ck.xs),
            "trace.overhead_frac": traced.wall_s / walls[-1] - 1.0,
        })
        return run

    truth = np.column_stack(
        [pop.top_xs[pop.top_offsets[:-1]], pop.top_ys[pop.top_offsets[:-1]]]
    )
    answered = sum(t is not None for t in first.defended_top1 + first.onetime_top1)
    picks = np.linspace(0, len(ck.xs) - 1, min(ADS_SAMPLE, len(ck.xs))).astype(int)
    run.values.update({
        "setup_s": setup_s,
        "events_per_s": len(ck.xs) / batch.undisturbed_wall(kernel_s, attack_s),
        "deadline_frac": float(np.mean(latencies <= serve_phases.DEADLINE_S)),
        "answered_frac": answered / (2 * n_users),
        "peak_rss_mb": peak_mb,
        "attack_err_m": float(np.median(quality.top1_errors(first.defended_top1, truth))),
        "attacker_recall_200m": float(np.mean(
            quality.top1_errors(first.onetime_top1, truth) <= quality.RECALL_RADIUS_M
        )),
        "ads_per_event": quality.ads_per_event(
            first.defended_reported[picks],
            np.column_stack([ck.xs[picks], ck.ys[picks]]),
            seed,
        ),
        "epsilon_per_user": mech.nfold.budget.epsilon * len(first.tops[0]) / n_users,
    })
    return run


# -- entry point -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs and two rounds (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        shape, rounds, probes = inputs.TINY_SHAPES[args.workload], 2, 2
    else:
        shape, rounds, probes = inputs.SHAPES[args.workload], ROUNDS, PROBES
    if args.workload == "batch-attack":
        run = run_batch(shape, args.seed, args.seconds, bool(args.trace), rounds, probes)
    else:
        if not args.tiny:
            shape = inputs.sized(shape, args.seconds)
        run = run_serve(args.workload, shape, args.seed, bool(args.trace), rounds)

    # Every workload measures every end-to-end metric; a layer that the
    # workload does not run (the serve layers in batch-attack and the
    # reverse) reports 0.
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {
        m["name"]: {
            "value": float(
                run.values.get(m["name"], 0.0) if args.trace else run.values[m["name"]]
            ),
            "unit": m["unit"],
        }
        for m in declared
    }
    for note in run.notes:
        print(note)
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
