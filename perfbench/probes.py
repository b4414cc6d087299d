"""Trace hooks: time each layer from outside, through public names.

Only the traced run installs these; the untraced runs use the stock
objects. Every hook goes through a public function or attribute:

* analyzers are replaced in ``pipeline.analyzers`` by delegating
  :class:`TimedAnalyzer` instances;
* ``pipeline.parser`` is replaced by a :class:`TimedParser` proxy;
* ``CapturedPacket.decode`` and the ``internet_checksum`` names bound
  in ``repro.netstack.ip``/``repro.netstack.tcp`` are wrapped by
  :func:`netstack_probes` for the duration of a ``with`` block;
* every other layer is timed at its boundary by replacing a bound
  method on the instance (:func:`wrap_method`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from harness import Tracer
from repro.netstack import ip, tcp
from repro.netstack.packet import CapturedPacket
from repro.stream import StreamAnalyzer, StreamPipeline

#: Analyzer name -> span name (the analyzers the monitor factory adds).
ANALYZER_SPANS = {
    "flows": "stream.analyzers.flows",
    "chains": "stream.analyzers.chains",
    "sessions": "stream.analyzers.sessions",
    "detector": "stream.detector.detector",
}

#: Count of ``internet_checksum`` calls in :attr:`Tracer.counts`.
CHECKSUM_CALLS = "netstack.checksum.calls"


def wrap_method(tracer: Tracer, obj: Any, method: str,
                name: str) -> None:
    """Time every call of ``obj.method`` as span ``name``."""
    setattr(obj, method, tracer.wrap(name, getattr(obj, method)))


class TimedAnalyzer(StreamAnalyzer):
    """Delegates to ``inner``, timing each hook ``inner`` overrides."""

    def __init__(self, inner: StreamAnalyzer, tracer: Tracer, span: str):
        self.inner = inner
        self.name = inner.name
        for hook in ("on_packet", "on_event", "evict"):
            if getattr(type(inner), hook) is not getattr(StreamAnalyzer,
                                                         hook):
                setattr(self, hook,
                        tracer.wrap(span, getattr(inner, hook)))

    def snapshot(self) -> dict:
        return self.inner.snapshot()


class TimedParser:
    """Proxy that times ``parse_stream`` and forwards everything else."""

    def __init__(self, inner: Any, tracer: Tracer):
        self._inner = inner
        self.parse_stream = tracer.wrap("iec104.parse", inner.parse_stream)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def instrument_pipeline(tracer: Tracer, pipeline: StreamPipeline,
                        counts: dict[str, float]) -> StreamPipeline:
    """Install the per-link hooks on one freshly built pipeline.

    ``counts["reorder_max"]`` tracks the deepest reorder buffer any
    step leaves behind.
    """
    pipeline.analyzers = [
        TimedAnalyzer(analyzer, tracer, ANALYZER_SPANS[analyzer.name])
        for analyzer in pipeline.analyzers]
    pipeline.parser = TimedParser(pipeline.parser, tracer)
    step = tracer.wrap("stream.pipeline.step", pipeline.step)

    def step_and_measure(max_items: int | None = None) -> int:
        moved = step(max_items)
        depth = pipeline.reorder_pending
        if depth > counts.get("reorder_max", 0):
            counts["reorder_max"] = depth
        return moved

    pipeline.step = step_and_measure  # type: ignore[method-assign]
    wrap_method(tracer, pipeline, "flush", "stream.pipeline.step")
    return pipeline


class TracedFactory:
    """A pipeline factory whose pipelines carry the trace hooks."""

    def __init__(self, inner: Any, tracer: Tracer,
                 counts: dict[str, float]):
        self.inner = inner
        self.tracer = tracer
        self.counts = counts

    def __call__(self, link: str, source: Any) -> StreamPipeline:
        return instrument_pipeline(self.tracer, self.inner(link, source),
                                   self.counts)


@contextmanager
def netstack_probes(tracer: Tracer) -> Iterator[None]:
    """Time ``CapturedPacket.decode`` and count checksum calls.

    Both are process-wide names, so the hooks are removed on exit; a
    forked worker started inside the block would inherit them, which
    is why the sharded replays run after it.
    """
    decode = CapturedPacket.__dict__["decode"]
    checksums = {module: module.internet_checksum for module in (ip, tcp)}
    counts = tracer.counts

    def counted(original):
        def internet_checksum(data):
            counts[CHECKSUM_CALLS] = counts.get(CHECKSUM_CALLS, 0) + 1
            return original(data)
        return internet_checksum

    CapturedPacket.decode = staticmethod(  # type: ignore[method-assign]
        tracer.wrap("netstack.packet.decode", CapturedPacket.decode))
    for module, original in checksums.items():
        module.internet_checksum = counted(original)
    try:
        yield
    finally:
        CapturedPacket.decode = decode  # type: ignore[method-assign]
        for module, original in checksums.items():
            module.internet_checksum = original
