"""Packet sources for the streaming pipeline.

Batch analysis consumes a finished capture; the streaming engine pulls
from a :class:`Source` — an object that yields whatever has arrived
*so far* and says whether more may ever come. Three adapters cover the
workloads named in the roadmap:

* :class:`PcapTailSource` / :class:`PcapngTailSource` — incremental
  capture readers that tolerate a file still being written (``tail
  -f`` for captures); :func:`open_capture` picks one by file magic;
* :class:`CaptureSource` — follows the packet list of a live
  :class:`~repro.simnet.scenario.SyntheticCapture` tap (or any object
  with a ``.packets`` list) as the simulator appends to it;
* :class:`ByteChunk` + :class:`TransportTap` — the socket_transport
  live path, where there is no L2-L4 framing: reliable APDU byte
  chunks enter the pipeline directly at the decode stage.

Sources are pull-based: the pipeline calls :meth:`Source.poll` with a
batch bound, which is what keeps ingest memory bounded no matter how
fast the producer writes.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Protocol, Sequence, runtime_checkable

from ..netstack.addresses import IPv4Address
from ..netstack.packet import CapturedPacket
from ..netstack.pcap import (CaptureReader, PcapError, PcapRecord,
                             PcapScanner)
from ..netstack.pcapng import PcapngError, PcapngScanner, sniff_format

#: Item types a source may yield (the pipeline routes on type).
SourceItem = object

#: Marks a :class:`ListSource` whose iterable has run out.
_END = object()


@runtime_checkable
class Source(Protocol):
    """What the pipeline pulls from.

    ``poll`` returns at most ``max_items`` newly available items
    (possibly none); ``exhausted`` is True once no further item can
    ever arrive. A tail-mode source is never exhausted.
    """

    def poll(self, max_items: int) -> Sequence[SourceItem]:
        ...  # pragma: no cover - protocol

    @property
    def exhausted(self) -> bool:
        ...  # pragma: no cover - protocol


class ListSource:
    """Source over a finite item iterable (tests, replays, the batch
    drain of :func:`~repro.analysis.apdu_stream.extract_apdus`).

    Items are taken from the iterable as they are polled, so a reader
    or generator stays streamed. One item is read ahead, which keeps
    ``exhausted`` exact.
    """

    def __init__(self, items: Iterable[SourceItem]):
        self._items = iter(items)
        self._head = next(self._items, _END)

    def poll(self, max_items: int) -> list[SourceItem]:
        if self._head is _END or max_items <= 0:
            return []
        batch = [self._head]
        batch.extend(islice(self._items, max_items - 1))
        self._head = next(self._items, _END)
        return batch

    @property
    def exhausted(self) -> bool:
        return self._head is _END


class CaptureSource:
    """Follow the (possibly still-growing) packet list of a capture tap.

    Works for a finished :class:`SyntheticCapture` and for a live one
    whose simulator is still appending: each ``poll`` picks up where
    the previous one stopped. ``finished`` marks the producer done so
    the pipeline can drain and stop.
    """

    def __init__(self, capture, finished: bool = True):
        self._capture = capture
        self._cursor = 0
        self.finished = finished

    @property
    def _packets(self) -> list[CapturedPacket]:
        return self._capture.packets

    def host_names(self) -> dict[IPv4Address, str]:
        names = getattr(self._capture, "host_names", None)
        return dict(names()) if callable(names) else {}

    def poll(self, max_items: int) -> list[SourceItem]:
        packets = self._packets
        batch = packets[self._cursor:self._cursor + max_items]
        self._cursor += len(batch)
        return list(batch)

    @property
    def exhausted(self) -> bool:
        return self.finished and self._cursor >= len(self._packets)


class _TailSource(CaptureReader):
    """A capture reader over a file that may still grow.

    A partial header, record or block at the tail stays buffered until
    the writer appends the rest; with ``follow=True`` that wait never
    ends (the monitor decides when to stop). The header is parsed at
    the first poll, not on construction, since a followed file may
    still be empty, and a format error names the file.
    """

    def __init__(self, path, follow: bool = False):
        super().__init__(open(path, "rb"), follow)
        self._path = path

    def close(self) -> None:
        self._stream.close()

    def poll(self, max_items: int) -> list[PcapRecord]:
        try:
            return super().poll(max_items)
        except (PcapError, PcapngError) as exc:
            raise type(exc)(f"{self._path}: {exc}") from None


class PcapTailSource(_TailSource):
    """Incrementally read a classic pcap file that may still grow."""

    _scanner_type = PcapScanner


class PcapngTailSource(_TailSource):
    """Incrementally read a pcapng file that may still grow.

    EPB and SPB blocks become records; SHB resets the section
    (endianness and interface list); unknown block types are counted
    in ``blocks_skipped``.
    """

    _scanner: PcapngScanner
    _scanner_type = PcapngScanner

    @property
    def blocks_skipped(self) -> int:
        return self._scanner.blocks_skipped


def open_capture(path, follow: bool = False
                 ) -> PcapTailSource | PcapngTailSource:
    """A tail source for the capture at ``path``: pcapng or classic
    pcap by its leading magic."""
    with open(path, "rb") as stream:
        fmt = sniff_format(stream)
    if fmt == "pcapng":
        return PcapngTailSource(path, follow=follow)
    return PcapTailSource(path, follow=follow)


class ByteChunk:
    """Reliable APDU bytes from the live socket path.

    There is no packet capture between two real endpoints — the kernel
    already reassembled TCP — so the chunk enters the pipeline at the
    decode stage. ``time_us`` is a caller-supplied monotone tick (the
    tap keeps its own deterministic counter by default).
    """

    __slots__ = ("time_us", "src", "dst", "data")

    def __init__(self, time_us: int, src: str, dst: str, data: bytes):
        self.time_us = time_us
        self.src = src
        self.dst = dst
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ByteChunk(time_us={self.time_us}, src={self.src!r}, "
                f"dst={self.dst!r}, {len(self.data)} bytes)")


class TransportTap:
    """Buffer + Source for live endpoint byte streams.

    :meth:`tap` wraps a :class:`~repro.iec104.socket_transport.
    SocketTransport`'s receiver callback so every chunk the endpoint
    consumes is also queued here, labelled with a (src, dst) direction.
    Chunks are stamped with a deterministic monotone microsecond
    counter unless the caller supplies real ticks via :meth:`push`.
    """

    def __init__(self, tick_step_us: int = 1000):
        self._queue: list[ByteChunk] = []
        self._now_us = 0
        self._tick_step_us = tick_step_us
        self.finished = False

    def push(self, src: str, dst: str, data: bytes,
             time_us: int | None = None) -> None:
        if time_us is None:
            self._now_us += self._tick_step_us
            time_us = self._now_us
        else:
            self._now_us = max(self._now_us, time_us)
        self._queue.append(ByteChunk(time_us=time_us, src=src,
                                     dst=dst, data=data))

    def tap(self, transport, src: str, dst: str) -> None:
        """Interpose on ``transport.receiver`` (keeps the original)."""
        original = transport.receiver

        def receive(data: bytes) -> None:
            self.push(src, dst, data)
            if original is not None:
                original(data)

        transport.receiver = receive

    def poll(self, max_items: int) -> list[SourceItem]:
        batch = self._queue[:max_items]
        del self._queue[:len(batch)]
        return batch

    @property
    def exhausted(self) -> bool:
        return self.finished and not self._queue
