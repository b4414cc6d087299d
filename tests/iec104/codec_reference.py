"""The scalar APDU splitter: the oracle for ``scan_apci``.

It walks the 0x68 start byte and length octet one frame at a time and
slices each frame out, sharing no code with the span scan in
:mod:`repro.iec104.apci`, so agreement between the two is evidence
rather than tautology.
"""

from __future__ import annotations

from repro.iec104.constants import START_BYTE


def split_frames(payload: bytes | memoryview) -> tuple[list[bytes], bytes]:
    """Split a reassembled TCP byte stream into raw APDU frames.

    Returns ``(frames, remainder)`` where ``remainder`` is a trailing
    partial frame (to be prepended to the next segment) — or garbage when
    it does not start with 0x68, which callers surface as a framing
    problem.
    """
    buf = payload if isinstance(payload, bytes) else bytes(payload)
    frames: list[bytes] = []
    offset = 0
    size = len(buf)
    while offset + 2 <= size:
        if buf[offset] != START_BYTE:
            break
        total = 2 + buf[offset + 1]
        if offset + total > size:
            break
        frames.append(buf[offset:offset + total])
        offset += total
    return frames, buf[offset:]
