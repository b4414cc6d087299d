"""``repro.serve`` — snapshot serving at user scale.

An asyncio HTTP + WebSocket layer (stdlib only) over the streaming
monitor: one single-writer monitor thread polls a pipeline, fleet or
sharded fleet; each poll is serialized exactly once and fanned out by
reference to every subscriber; a sqlite store keeps the bytes of every
poll for time-travel queries.  See docs/streaming.md ("Serving
snapshots") and the ``repro serve`` CLI.
"""

from .app import ENDPOINTS, ServeApp, serve_until
from .broadcast import MonitorRunner, SnapshotHub, SnapshotPayload
from .history import HistoryStore, Retention
from .wire import (SnapshotEnvelope, WireError, dump_document,
                   encode_frame, read_frame, read_request)

__all__ = [
    "ENDPOINTS",
    "HistoryStore",
    "MonitorRunner",
    "Retention",
    "ServeApp",
    "SnapshotEnvelope",
    "SnapshotHub",
    "SnapshotPayload",
    "WireError",
    "dump_document",
    "encode_frame",
    "read_frame",
    "read_request",
    "serve_until",
]
