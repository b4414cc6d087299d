"""The RFC 1071 word loop: the oracle for ``internet_checksum``.

It sums the input one 16-bit word at a time and folds the carries
back in, as RFC 1071 states the algorithm, sharing no arithmetic with
:mod:`repro.netstack.checksum`, so agreement between the two is
evidence rather than tautology.
"""

from __future__ import annotations


def internet_checksum(data: bytes | bytearray | memoryview) -> int:
    """The 16-bit one's-complement checksum of ``data``, odd-length
    input zero-padded on the right."""
    raw = bytes(data)
    if len(raw) % 2:
        raw += b"\x00"
    total = 0
    for index in range(0, len(raw), 2):
        total += (raw[index] << 8) | raw[index + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
