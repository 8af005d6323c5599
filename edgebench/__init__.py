"""End-to-end and per-layer benchmark of the edge ad service (``run.py``)."""
