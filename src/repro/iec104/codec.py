"""Strict and tolerant IEC 104 stream parsers.

This module is the reproduction of the paper's main tooling contribution
(Section 6.1): a parser that, unlike Wireshark or the stock SCAPY
module, can decode IEC 104 frames that carry legacy IEC 101 field widths
(1-octet COT, 2-octet IOA).

:class:`TolerantParser` tries a set of candidate link profiles, scores
the decoded candidates for physical plausibility, and caches the winning
profile per link — so a link that once decoded as "legacy 1-octet COT"
keeps that interpretation, as a real RTU configuration would.

:class:`StrictParser` is the standard-compliant baseline: the same parser
with the IEC 104 field widths as its only candidate, so it reports
everything else as malformed (reproducing the "100% invalid packets"
Wireshark behaviour for outstations O37/O53/O58/O28).

:class:`StreamDecoder` is the one incremental decoder: it drives any
parser that owns its framing, these two or the Modbus/TCP parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .apci import APDU, IFrame, decode_apdu, scan_apci
from .constants import START_BYTE, Cause
from .errors import IEC104Error
from .information_elements import (NormalizedValue, ScaledValue, ShortFloat)
from .profiles import (CANDIDATE_PROFILES, STANDARD_PROFILE, LinkProfile)

#: Single-byte form of the APCI start byte, for ``bytes.find``.
_START = bytes((START_BYTE,))

#: Parse-memo capacity. The memo covers APCI-only frames (6 octets:
#: S-format acks and U-format keep-alives), which are the only frames
#: that repeat byte-for-byte in SCADA traffic — I-frames carry an
#: incrementing send sequence number, so two identical I-frames
#: essentially never occur and memoizing them would be pure overhead.
#: Results are immutable (frozen dataclasses all the way down), so
#: sharing one result across repeats is safe. The cache is dropped
#: wholesale when full: eviction bookkeeping would cost more than the
#: occasional re-parse burst it saves.
_MEMO_LIMIT = 8192

#: Total octet count of an APCI-only (S/U-format) frame.
_APCI_ONLY_LENGTH = 6


def _stored(error: IEC104Error) -> IEC104Error:
    """``error`` with no call stack, fit to be kept in a result.

    A caught exception's traceback keeps the frames it passed through
    alive, and through ``f_back`` every caller up the stack, in
    reference cycles. No parse error chains another (every one is
    raised outside an ``except`` block), so clearing its own traceback
    leaves nothing behind; the type and message are unchanged.
    """
    error.__traceback__ = None
    return error


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Outcome of parsing one APDU frame from a byte stream."""

    raw: bytes
    apdu: APDU | None = None
    profile: LinkProfile | None = None
    error: IEC104Error | None = None

    @property
    def ok(self) -> bool:
        return self.apdu is not None

    @property
    def compliant(self) -> bool:
        """True when the frame decoded under the standard profile."""
        # Identity check first: parsers pass the module-level profile
        # singletons, so the dataclass field comparison rarely runs.
        profile = self.profile
        return self.apdu is not None and (profile is STANDARD_PROFILE
                                          or profile == STANDARD_PROFILE)


def _plausibility(frame: IFrame) -> float:
    """Score how physically plausible a decoded I-frame looks.

    The paper identified wrong-profile decodes by two symptoms: invalid
    IOA addresses and "completely random" measurement values. This score
    penalizes exactly those symptoms so the tolerant parser can pick the
    profile under which the data looks like real telemetry.
    """
    score = 0.0
    asdu = frame.asdu
    common_causes = (Cause.PERIODIC, Cause.SPONTANEOUS, Cause.BACKGROUND,
                     Cause.ACTIVATION, Cause.ACTIVATION_CON,
                     Cause.ACTIVATION_TERMINATION, Cause.REQUEST,
                     Cause.INTERROGATED_BY_STATION, Cause.INITIALIZED)
    if asdu.cause in common_causes:
        score += 2.0
    # Originator addresses are almost always 0 and common addresses
    # small; wrong-width decodes shift other fields into them.
    if asdu.originator == 0:
        score += 0.5
    if 0 < asdu.common_address <= 4096:
        score += 0.5
    for obj in asdu.objects:
        # Practical IOA ranges: real RTU points sit well below 2^17.
        if 0 < obj.address < (1 << 17):
            score += 1.0
        element = obj.element
        value = getattr(element, "value", None)
        if isinstance(element, (ShortFloat, NormalizedValue)):
            if value is not None and math.isfinite(value):
                score += 1.0
                # Grid telemetry magnitudes: Hz (~50-60), kV (~0-500),
                # MW (~0-2000). Astronomic magnitudes mean misparse.
                if abs(value) < 1e7:
                    score += 1.0
        elif isinstance(element, ScaledValue):
            score += 1.0
    return score / max(1, len(asdu.objects))


@dataclass
class ParserStats:
    """Per-parser counters used by the compliance analysis (§6.1)."""

    frames: int = 0
    valid: int = 0
    malformed: int = 0
    non_compliant: int = 0
    errors_by_type: dict[str, int] = field(default_factory=dict)

    def record(self, result: ParseResult) -> None:
        self.frames += 1
        if result.apdu is not None:
            self.valid += 1
            if not result.compliant:
                self.non_compliant += 1
        else:
            self.malformed += 1
            name = type(result.error).__name__
            self.errors_by_type[name] = self.errors_by_type.get(name, 0) + 1

    @property
    def malformed_fraction(self) -> float:
        return self.malformed / self.frames if self.frames else 0.0


class TolerantParser:
    """Profile-inferring parser (the paper's contribution).

    ``link_key`` identifies one directional link (e.g. the TCP 4-tuple
    or an outstation name); the profile inferred from the first
    successfully decoded I-frame on a link is cached and reused.
    """

    #: The framing: APCI spans up to a partial frame or a non-0x68
    #: octet (see :func:`~repro.iec104.apci.scan_apci`).
    scan = staticmethod(scan_apci)

    @staticmethod
    def resync(buf: bytes, stop: int) -> int:
        """After lost framing: the next 0x68 at or after ``stop``,
        else ``len(buf)``."""
        found = buf.find(_START, stop)
        return len(buf) if found == -1 else found

    def __init__(self,
                 candidates: tuple[LinkProfile, ...] = CANDIDATE_PROFILES):
        if not candidates:
            raise ValueError("need at least one candidate profile")
        self._candidates = candidates
        self._link_profiles: dict[object, LinkProfile] = {}
        self.stats = ParserStats()
        #: Memo for APCI-only (S/U) frames, keyed on (raw frame,
        #: cached link profile): the outcome of :meth:`parse_frame` —
        #: including the inference fallback — is a pure function of
        #: those two inputs, so repeats replay only the per-call side
        #: effects (stats, profile learning).
        self._memo: dict[tuple[bytes, LinkProfile | None],
                         ParseResult] = {}

    @property
    def link_profiles(self) -> dict[object, LinkProfile]:
        """Read-only view of the profiles inferred so far."""
        return dict(self._link_profiles)

    def profile_for(self, link_key: object) -> LinkProfile | None:
        return self._link_profiles.get(link_key)

    def parse_frame(self, raw: bytes, link_key: object = None) -> ParseResult:
        """Parse one complete APDU frame, inferring the profile if needed.

        S- and U-format frames are profile-independent; only I-format
        frames trigger profile inference.
        """
        known = self._link_profiles.get(link_key)
        if len(raw) == _APCI_ONLY_LENGTH:
            # S/U keep-alives are the frames that actually repeat
            # byte-for-byte — memoize those, and only those.
            memo = self._memo
            key = (raw, known)
            result = memo.get(key)
            if result is None:
                result = self._parse_raw(raw, known)
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                memo[key] = result
        else:
            result = self._parse_raw(raw, known)
        # Replay the profile-learning side effect on cache hits: an
        # accepted I-frame pins its profile on the link (a no-op when
        # the cached profile already matched).
        if result.apdu is not None and type(result.apdu) is IFrame:
            self._link_profiles[link_key] = result.profile
        self.stats.record(result)
        return result

    def _parse_raw(self, raw: bytes,
                   known: LinkProfile | None) -> ParseResult:
        if known is None:
            return self._parse_uncached(raw)
        # Pinned-profile fast path: once a link has a profile, the
        # overwhelmingly common outcome is that it keeps decoding
        # under it.
        try:
            apdu, _ = decode_apdu(raw, profile=known)
            return ParseResult(raw=raw, apdu=apdu, profile=known)
        except IEC104Error as exc:
            failed = ParseResult(raw=raw, error=_stored(exc))
        return self._parse_uncached(raw, failed, known)

    def _parse_uncached(self, raw: bytes,
                        failed: ParseResult | None = None,
                        known: LinkProfile | None = None) -> ParseResult:
        """The memo-miss path: infer the profile from the candidates.

        Callers come here with no profile for the link, or after the
        link's profile ``known`` failed on ``raw`` with ``failed`` (a
        link may legitimately change after an RTU replacement).
        Decoding is deterministic, so that failure stands in for the
        known profile at its place in candidate order."""
        best: ParseResult | None = None
        best_score = -1.0
        last_error: ParseResult | None = None
        for profile in self._candidates:
            result = (failed if profile is known and failed is not None
                      else self._try_profile(raw, profile))
            if not result.ok:
                if last_error is None:
                    last_error = result
                continue
            if not isinstance(result.apdu, IFrame):
                # Format is profile-independent; accept immediately.
                return result
            score = _plausibility(result.apdu)
            # Prefer earlier (more standard) profiles on ties.
            if score > best_score:
                best, best_score = result, score

        if best is not None:
            return best
        return last_error or ParseResult(
            raw=raw, error=IEC104Error("no candidate profile decoded frame"))

    def parse_stream(self, payload: bytes,
                     link_key: object = None) -> list[ParseResult]:
        """Parse every complete frame found in ``payload``."""
        buf = payload if isinstance(payload, bytes) else bytes(payload)
        spans, stop, desync = scan_apci(buf)
        parse = self.parse_frame
        results = [parse(buf[start:start + total], link_key)
                   for start, total in spans]
        if desync is not None:
            result = ParseResult(
                raw=buf[stop:],
                error=IEC104Error(f"stream desynchronized: {desync}"))
            self.stats.record(result)
            results.append(result)
        return results

    @staticmethod
    def _try_profile(raw: bytes, profile: LinkProfile) -> ParseResult:
        try:
            apdu, _ = decode_apdu(raw, profile=profile)
            return ParseResult(raw=raw, apdu=apdu, profile=profile)
        except IEC104Error as exc:
            return ParseResult(raw=raw, error=_stored(exc))


class StrictParser(TolerantParser):
    """Standard-compliant parser (the Wireshark-like baseline): the
    tolerant parser with the standard profile as its only candidate."""

    def __init__(self) -> None:
        super().__init__((STANDARD_PROFILE,))


class StreamDecoder:
    """Incremental decoder for one direction of one TCP connection.

    Buffers partial frames across TCP segment boundaries and hands
    each complete frame, with ``link_key``, to ``parser.parse_frame``.
    The parser owns the framing: ``parser.scan`` splits the buffer and
    ``parser.resync`` skips lost framing, whose octets count in
    ``desync_bytes``. The default parser is a :class:`TolerantParser`;
    a Modbus/TCP stream is ``StreamDecoder(ModbusParser(), link_key)``.
    """

    def __init__(self, parser: Any = None, link_key: object = None):
        self.parser = parser if parser is not None else TolerantParser()
        self.link_key = link_key
        self._buffer = b""
        self.desync_bytes = 0

    def feed(self, segment: bytes) -> list[Any]:
        """Add a TCP segment's payload; return newly completed frames."""
        if not isinstance(segment, bytes):
            segment = bytes(segment)
        # Most feeds find an empty carry-over buffer, so the scan runs
        # directly over the caller's segment with no concatenation copy.
        buf = self._buffer + segment if self._buffer else segment
        parser = self.parser
        parse = parser.parse_frame
        link_key = self.link_key
        results: list[Any] = []
        append = results.append
        offset = 0
        while True:
            spans, stop, desync = parser.scan(buf, offset)
            for start, total in spans:
                append(parse(buf[start:start + total], link_key))
            if desync is None:
                break
            # Lost framing: skip to where a frame can start and rescan;
            # more frames may follow the garbage.
            offset = parser.resync(buf, stop)
            self.desync_bytes += offset - stop
        self._buffer = buf[stop:]
        return results

    @property
    def pending(self) -> int:
        """Number of buffered octets awaiting frame completion."""
        return len(self._buffer)
