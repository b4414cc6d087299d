"""Snapshot fan-out: one serialization per poll, one encode per change.

The scaling contract of ``repro serve`` is that subscriber count must
not multiply serialization work: a poll costs exactly one document
serialization + WebSocket frame encode, however many clients are
connected.  :class:`SnapshotHub` enforces that shape — :meth:`publish`
builds one immutable :class:`SnapshotPayload` (the typed snapshot
ref, its serialized document, each link's document bytes, and the
pre-encoded unmasked broadcast frame) and every subscriber shares
those same objects by reference.  ``tests/serve/test_broadcast.py``
pins the one-serialization invariant for 10 000 subscribers.

The link count must not multiply encoding work either: the hub keeps
each link's canonical JSON in a :class:`~repro.serve.wire.
LinkDocuments` cache, which encodes a link again only when its
snapshot is a new object.  The served document splices those bytes
into the envelope with :func:`~repro.serve.wire.splice_document`, and
must equal ``dump_document(envelope.to_json())`` byte for byte.

Slow consumers conflate rather than queue: a subscriber that missed
polls is handed the *latest* payload and the count of polls it
skipped.  Snapshots are state, not events — the newest one supersedes
the missed ones, and the history store serves anyone who needs the
full sequence.

The hub is the bridge between the two concurrency worlds of the
server: the single-writer monitor thread (:class:`MonitorRunner`)
publishes, asyncio connection handlers subscribe.  All waiter state
mutates on the event loop thread (via ``call_soon_threadsafe``);
``publish`` itself only builds the payload and stores the reference.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import AsyncIterator, Callable, Mapping, Optional, Union

from ..simnet.clock import Ticks
from ..stream.monitor import MonitorTarget, Snapshot, run_monitor
from ..stream.snapshots import FleetSnapshot, LinkSnapshot
from .wire import (OP_TEXT, EncodedLink, LinkDocuments,
                   SnapshotEnvelope, encode_frame, fleet_members,
                   member_prefix, splice_document)


@dataclass(frozen=True, slots=True)
class SnapshotPayload:
    """One poll's broadcast material, immutable and shared.

    ``document`` is the serialized :class:`~repro.serve.wire.
    SnapshotEnvelope` (UTF-8 JSON bytes) and ``ws_frame`` the same
    document wrapped in one unmasked TEXT frame — both encoded once
    at publish time and reused verbatim by every HTTP response and
    WebSocket send.  ``links`` maps each link name to the canonical
    JSON of that link's document, the very bytes spliced into
    ``document``, so ``GET /links/<name>`` never answers from a
    fragment newer than ``GET /fleet``.
    """

    seq: int
    time_us: Ticks
    snapshot: Union[FleetSnapshot, LinkSnapshot]
    document: bytes
    ws_frame: bytes
    links: Mapping[str, bytes]


class SnapshotHub:
    """Latest-value broadcast channel for monitor snapshots."""

    def __init__(self) -> None:
        self._latest: Optional[SnapshotPayload] = None
        self._seq = 0
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._turn: Optional[asyncio.Future[Optional[
            SnapshotPayload]]] = None
        self._closed = False
        #: How many times a snapshot was serialized — the fan-out
        #: invariant is that this equals the number of polls, never
        #: the number of subscribers.
        self.serializations = 0
        #: Each link of the latest poll, encoded once per change.
        self._links = LinkDocuments()

    # -- loop binding (called from the asyncio side) ------------------

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the hub to the serving event loop."""
        self._loop = loop
        if self._turn is None:
            self._turn = loop.create_future()

    # -- publishing (called from the monitor thread) ------------------

    def publish(self, snapshot: Union[FleetSnapshot, LinkSnapshot]
                ) -> SnapshotPayload:
        """Serialize ``snapshot`` once and wake every subscriber."""
        with self._lock:
            self._seq += 1
            envelope = SnapshotEnvelope(seq=self._seq,
                                        time_us=snapshot.time_us,
                                        snapshot=snapshot)
            encoded = self._links.encode(
                snapshot.links if isinstance(snapshot, FleetSnapshot)
                else (snapshot,))
            document = _envelope_document(envelope, encoded)
            self.serializations += 1
            payload = SnapshotPayload(
                seq=envelope.seq, time_us=envelope.time_us,
                snapshot=snapshot, document=document,
                ws_frame=encode_frame(document, opcode=OP_TEXT),
                links=MappingProxyType(
                    {name: entry.document
                     for name, entry in encoded.items()}))
            self._latest = payload
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._wake, payload)
        return payload

    def close(self) -> None:
        """End every subscription (idempotent, thread-safe)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._wake, None)

    def _wake(self, payload: Optional[SnapshotPayload]) -> None:
        assert self._loop is not None
        turn, self._turn = self._turn, self._loop.create_future()
        if turn is not None and not turn.done():
            turn.set_result(payload)

    # -- subscribing (asyncio side) -----------------------------------

    @property
    def latest(self) -> Optional[SnapshotPayload]:
        return self._latest

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def closed(self) -> bool:
        return self._closed

    async def next_payload(self, after_seq: int
                           ) -> Optional[SnapshotPayload]:
        """The next payload newer than ``after_seq`` (conflating), or
        ``None`` once the hub closes with nothing newer to hand out."""
        while True:
            latest = self._latest
            if latest is not None and latest.seq > after_seq:
                return latest
            if self._closed:
                return None
            assert self._turn is not None, "hub is not bound to a loop"
            payload = await asyncio.shield(self._turn)
            if payload is None:
                return None

    async def subscribe(self, *, start_with_latest: bool = True
                        ) -> AsyncIterator[tuple[SnapshotPayload,
                                                 int]]:
        """Yield ``(payload, skipped)`` pairs until the hub closes.

        ``skipped`` counts the polls conflated away since the
        previous yield (0 for a consumer that keeps up).
        """
        last = 0 if start_with_latest else self._seq
        while True:
            payload = await self.next_payload(last)
            if payload is None:
                return
            skipped = max(0, payload.seq - last - 1) if last else 0
            last = payload.seq
            yield payload, skipped


def _envelope_document(envelope: SnapshotEnvelope,
                       encoded: Mapping[str, EncodedLink]) -> bytes:
    """``dump_document(envelope.to_json())``, link bytes spliced in.

    ``encoded`` holds every member link's hub cache entry.  A fleet's
    document is its :func:`~repro.serve.wire.fleet_members` with the
    link members spliced back in.
    """
    snapshot = envelope.snapshot
    if isinstance(snapshot, LinkSnapshot):
        body = encoded[snapshot.link].document
    else:
        links = splice_document({}, {name: entry.member
                                     for name, entry in encoded.items()})
        body = splice_document(fleet_members(snapshot),
                               {"links": member_prefix("links") + links})
    return splice_document(
        {"seq": envelope.seq, "time_us": envelope.time_us},
        {"snapshot": member_prefix("snapshot") + body})


class MonitorRunner(threading.Thread):
    """The single writer: drives a monitor target in a thread.

    Exactly one thread steps the pipeline/fleet (the same invariant
    ``run_monitor`` has at the terminal); every poll is delivered to
    ``on_snapshot`` — the serve stack passes a hook that records to
    the history store and publishes to the hub.  :meth:`stop` asks
    the loop to wind down; it emits one final flushed snapshot before
    the thread exits.
    """

    def __init__(self, target: MonitorTarget,
                 on_snapshot: Callable[[Snapshot], None],
                 interval_s: float = 2.0,
                 follow: bool = False,
                 max_polls: Optional[int] = None,
                 poll_sleep_s: float = 0.05):
        super().__init__(name="repro-serve-monitor", daemon=True)
        self._target = target
        self._on_snapshot = on_snapshot
        self._interval_s = interval_s
        self._follow = follow
        self._max_polls = max_polls
        self._poll_sleep_s = poll_sleep_s
        # NB: not ``self._stop`` — threading.Thread owns that name
        # internally (is_alive() calls it after the thread exits).
        self._stop_requested = threading.Event()
        self.polls = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.polls = run_monitor(
                self._target, out=None,
                follow=self._follow,
                interval_s=self._interval_s,
                max_snapshots=self._max_polls,
                poll_sleep_s=self._poll_sleep_s,
                on_snapshot=self._on_snapshot,
                should_stop=self._stop_requested.is_set)
        except BaseException as exc:  # surfaced via .error / raise_if_failed
            self.error = exc

    def stop(self) -> None:
        self._stop_requested.set()

    def raise_if_failed(self) -> None:
        if self.error is not None:
            raise RuntimeError(
                "serve monitor thread failed") from self.error
