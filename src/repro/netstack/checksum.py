"""RFC 1071 Internet checksum (used by IPv4 headers and TCP)."""

from __future__ import annotations


def internet_checksum(data: bytes | memoryview) -> int:
    """Compute the 16-bit one's-complement checksum of ``data``.

    Odd-length input is zero-padded on the right, per RFC 1071.
    """
    raw = bytes(data)
    if len(raw) % 2:
        raw += b"\x00"
    total = 0
    for index in range(0, len(raw), 2):
        total += (raw[index] << 8) | raw[index + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def verify_checksum(data: bytes | memoryview) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return internet_checksum(data) == 0
