"""Set-up probe: one fresh interpreter, from start to serving state ready.

``run.py`` starts this script once per set-up sample, as
``python3 edgebench/probe.py <workload>`` with the checkout root and its
``src`` on ``PYTHONPATH``.  A serve workload's schedule arrives on stdin
(see :func:`encode_schedule`) and is read before anything is imported, so
the import is timed on its own.  The probe prints one JSON line: the
``time.monotonic()`` reading when the state was ready (the caller
subtracts its own reading at spawn), the import time and the state build
time.
"""

from __future__ import annotations

import json
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.serve import EventSchedule


def encode_schedule(schedule: "EventSchedule", seed: int) -> bytes:
    """A serve schedule as one JSON header line plus its raw columns."""
    header = {"seed": seed, "n": len(schedule), "user_ids": schedule.user_ids}
    return b"".join(
        [
            json.dumps(header).encode() + b"\n",
            schedule.user_index.tobytes(),
            schedule.timestamps.tobytes(),
            schedule.xs.tobytes(),
            schedule.ys.tobytes(),
        ]
    )


def main() -> None:
    workload = sys.argv[1]
    blob = sys.stdin.buffer.read()
    t0 = time.monotonic()
    if workload == "batch-attack":
        from edgebench.batch import build_mechanisms

        t1 = time.monotonic()
        build_mechanisms()
    else:
        import numpy as np

        from edgebench.serve_phases import serve_config
        from repro.serve import EventSchedule, ShardState

        t1 = time.monotonic()
        line, _, raw = blob.partition(b"\n")
        header = json.loads(line)
        n = header["n"]
        cols = np.frombuffer(raw, dtype=np.float64).reshape(4, n)
        schedule = EventSchedule(
            header["user_ids"], cols[0].view(np.int64), cols[1], cols[2], cols[3]
        )
        config = serve_config(schedule, header["seed"])
        ShardState(config.shard_spec(0), schedule)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": t1 - t0, "state_s": ready - t1}))


if __name__ == "__main__":
    main()
