"""Measurement primitives of the capture -> monitor -> serve benchmark.

Nothing here knows about a workload:

* :func:`percentile` reports a nearest-rank percentile only when the
  sample supports it (at least :data:`MIN_BEYOND` samples beyond it);
* :class:`LapTimer` splits a replay's wall time into laps and scales
  each lap to a reference host speed, measured by
  :func:`reference_loop` at both ends of the lap;
* :class:`Tracer` records spans (name, start, end, parent) in memory
  until the run ends; :func:`self_times` turns them into each span's
  self time, its duration minus the part of its interval that its
  child spans cover;
* :func:`reset_peak_rss`, :func:`peak_rss_kb` and
  :func:`children_cpu_s` read the resource usage of this process and
  its reaped workers.
"""

from __future__ import annotations

import math
import resource
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

#: Samples a percentile needs beyond it before it may be reported.
MIN_BEYOND = 10

#: Name of the span that wraps one whole replay in a traced run.
REPLAY = "replay"

#: Iterations of :func:`reference_loop`.
REFERENCE_LOOPS = 20_000
#: Seconds :func:`reference_loop` is taken to last on the reference
#: host (about its fast-mode time on a 2.1 GHz Xeon vCPU): a scaled
#: time reads as if the whole lap had run at that speed.
REFERENCE_S = 0.002


# -- percentiles -------------------------------------------------------

def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile (exact math)."""
    return max(1, math.ceil(Fraction(str(q)) * count / 100))


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return count - _rank(count, q) if count else 0


def min_samples(q: float) -> int:
    """The smallest sample count that supports the ``q``-th percentile."""
    count = 1
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it: a p99 needs at least 1000 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples leave {beyond}")
    return sorted(values)[_rank(len(values), q) - 1]


# -- host speed --------------------------------------------------------

def reference_loop(clock: Callable[[], float] = time.perf_counter
                   ) -> float:
    """Seconds one fixed pure-Python dict loop takes right now."""
    start = clock()
    table: dict[int, int] = {}
    for index in range(REFERENCE_LOOPS):
        table[index & 255] = table.get(index & 255, 0) + index
    return clock() - start


class LapTimer:
    """Wall time of one replay, split into laps, and the same time
    scaled to the reference host speed.

    A shared host can run the same code up to twice as fast from one
    second to the next, so a replay's wall time mostly measures the
    host. :meth:`mark` ends the current lap and then runs the
    reference loop, so every lap is bracketed by two reference
    timings; its scaled time is its wall time times
    :data:`REFERENCE_S` over the mean of the two. The reference loops
    fall in no lap. With ``scaled=False`` (the traced run, whose spans
    must cover the replay) a mark only splits the wall time.
    """

    def __init__(self, scaled: bool = True,
                 clock: Callable[[], float] = time.perf_counter,
                 reference: Callable[[], float] = reference_loop):
        self.clock = clock
        self.reference = reference if scaled else None
        #: ``(wall_s, scaled_s)`` of every finished lap.
        self.laps: list[tuple[float, float]] = []
        self._start: float | None = None
        self._before = REFERENCE_S

    def mark(self) -> bool:
        """End the current lap (if one is open) and start the next.

        Returns False, so it can serve as ``run_monitor``'s
        ``should_stop`` hook, which is called before every round.
        """
        end = self.clock()
        speed = REFERENCE_S if self.reference is None else self.reference()
        if self._start is not None:
            wall = end - self._start
            self.laps.append(
                (wall, wall * 2 * REFERENCE_S / (self._before + speed)))
        self._before = speed
        self._start = self.clock()
        return False

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _scaled in self.laps)

    @property
    def scaled_s(self) -> float:
        return sum(scaled for _wall, scaled in self.laps)


# -- spans ---------------------------------------------------------------

class Span:
    """One timed call: ``start``/``end`` in ns, ``parent`` index or -1."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: int, end: int, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


class Tracer:
    """In-memory span recorder for one thread of control.

    The innermost open span is the parent of the next one, so the
    tracer must only wrap calls made from the benchmark's own thread
    (an awaited span on an event loop is fine as long as no other
    task makes a traced call while it is open).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span ``name``."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the body of a ``with`` block as a span ``name``."""
        span = Span(name, 0, 0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def calls(self, name: str) -> int:
        """How many spans named ``name`` were recorded."""
        return sum(1 for span in self.spans if span.name == name)


def covered_ns(start: int, end: int,
               intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's self time in ns, index-aligned with ``spans``."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [span.end - span.start
            - covered_ns(span.start, span.end, children.get(index, ()))
            for index, span in enumerate(spans)]


def self_seconds_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0) + own
    return {name: ns / 1e9 for name, ns in totals.items()}


def coverage(spans: Sequence[Span], root: str = REPLAY) -> float:
    """Share of the ``root`` spans' wall time that layer spans cover.

    A root's self time is time no layer span accounts for (the
    benchmark's own loop, or a layer nobody wrapped), so the layers
    sum to end to end when this is close to 1.
    """
    wall = unattributed = 0
    for span, own in zip(spans, self_times(spans)):
        if span.name == root:
            wall += span.end - span.start
            unattributed += own
    return 1.0 - unattributed / wall if wall else 0.0


# -- resources -------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` (Linux
    4.0 and later), so :func:`peak_rss_kb` then covers only what ran
    after the reset.
    """
    with open("/proc/self/clear_refs", "w") as stream:
        stream.write("5")


def peak_rss_kb(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of process ``pid``, in KiB."""
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def children_cpu_s() -> float:
    """User + system CPU seconds of every reaped child process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
