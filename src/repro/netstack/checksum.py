"""RFC 1071 Internet checksum (used by IPv4 headers and TCP).

The one's-complement sum is computed arithmetically rather than word
by word. 2**16 is congruent to 1 modulo 0xFFFF, so the input read as
one big-endian integer ``N`` is congruent to the sum of its 16-bit
words. Folding the end-around carry keeps that residue and maps a
non-zero sum into 1..0xFFFF and zero to zero, so the folded sum is
``(N - 1) % 0xFFFF + 1`` when ``N`` is non-zero and 0 otherwise.
Zero-padding an odd-length input on the right is ``N << 8``.
"""

from __future__ import annotations


def internet_checksum(data: bytes | bytearray | memoryview) -> int:
    """Compute the 16-bit one's-complement checksum of ``data``.

    Odd-length input is zero-padded on the right, per RFC 1071.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    # The complement of the folded sum (see the module docstring).
    return 0xFFFE - (total - 1) % 0xFFFF if total else 0xFFFF


def verify_checksum(data: bytes | bytearray | memoryview) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return internet_checksum(data) == 0
