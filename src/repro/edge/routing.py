"""Stable user routing, shared by the edge simulation and the service.

One rule places a user on one of ``n`` seats (edge devices in
:class:`~repro.edge.system.EdgePrivLocAdSystem`, shards in
:mod:`repro.serve`): ``crc32(user_id) % n``.  CRC32 rather than builtin
``hash`` because Python salts ``str`` hashing per interpreter
(``PYTHONHASHSEED``), which would make a seeded run's user placement, and
with it every per-edge result, differ from process to process.
"""

from __future__ import annotations

import zlib

__all__ = ["route_user"]


def route_user(user_id: str, n_seats: int) -> int:
    """The seat in ``range(n_seats)`` that owns ``user_id``."""
    if n_seats < 1:
        raise ValueError(f"n_seats must be >= 1, got {n_seats}")
    return zlib.crc32(user_id.encode("utf-8")) % n_seats
