"""MAC and IPv4 address value types.

Small, hashable wrappers over the on-wire integer forms. We implement
these (rather than pulling in :mod:`ipaddress`) because the packet
codecs need exact 4/6-octet round-trips and nothing else.

The frame decoders take their addresses from :func:`shared_mac` and
:func:`shared_ipv4`, which hand out one object per value: a capture
names a few dozen hosts in thousands of packets, and a frozen value
cannot tell a shared object from its own. The constructors, ``parse``
and ``from_bytes`` validate and build a new object every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import hexdigits

from ..slots import slot_setters

#: What :meth:`MacAddress.parse` reads an octet from (``int(part, 16)``
#: alone also takes ``0x``, signs, ``_``, spaces and non-ASCII digits).
_HEX_DIGITS = frozenset(hexdigits)


@dataclass(frozen=True, order=True, slots=True)
class MacAddress:
    """48-bit Ethernet hardware address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError("MAC address must fit in 48 bits")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Six octets of one or two ASCII hex digits, ``:``-separated."""
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"invalid MAC address {text!r}")
        value = 0
        for part in parts:
            if not (0 < len(part) <= 2 and set(part) <= _HEX_DIGITS):
                raise ValueError(f"invalid MAC address {text!r}")
            value = (value << 8) | int(part, 16)
        return cls(value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacAddress":
        if len(raw) != 6:
            raise ValueError("MAC address requires exactly 6 octets")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        return ":".join(f"{octet:02x}" for octet in self.to_bytes())


@dataclass(frozen=True, order=True, slots=True)
class IPv4Address:
    """32-bit IPv4 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 32):
            raise ValueError("IPv4 address must fit in 32 bits")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise ValueError(f"invalid IPv4 address {text!r}")
            octet = int(part)
            if octet > 255 or (len(part) > 1 and part[0] == "0"):
                raise ValueError(f"invalid IPv4 address {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IPv4Address":
        if len(raw) != 4:
            raise ValueError("IPv4 address requires exactly 4 octets")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __str__(self) -> str:
        return ".".join(str(octet) for octet in self.to_bytes())


#: Entries each shared-address table keeps before it is dropped
#: wholesale, as the IEC 104 parser's memo is: a full table holds
#: under 0.5 MB (the dict's 148 KB plus a 40-byte address and a
#: 28-32-byte int per entry), and a capture with more distinct
#: addresses than this re-shares them from the next decode on. The
#: paper's network has 62 control-plane hosts.
_SHARED_LIMIT = 4096

# Each table decides only *which* of several equal frozen objects a
# decoded packet holds, never a value any output reads, so a shard
# worker's own table cannot make its output diverge, and a race
# between threads can only lose sharing.
_MACS: dict[int, MacAddress]
_MACS = {}  # staticcheck: ignore[shard-safety] -- shares equal values
_IPV4S: dict[int, IPv4Address]
_IPV4S = {}  # staticcheck: ignore[shard-safety] -- shares equal values


def shared_mac(value: int) -> MacAddress:
    """The shared :class:`MacAddress` of ``value``, which the caller
    has checked fits in 48 bits."""
    address = _MACS.get(value)
    if address is None:
        address = _new(MacAddress)
        _set_mac(address, value)
        if len(_MACS) >= _SHARED_LIMIT:
            _MACS.clear()
        _MACS[value] = address
    return address


def shared_ipv4(value: int) -> IPv4Address:
    """The shared :class:`IPv4Address` of ``value``, which the caller
    has checked fits in 32 bits."""
    address = _IPV4S.get(value)
    if address is None:
        address = _new(IPv4Address)
        _set_ipv4(address, value)
        if len(_IPV4S) >= _SHARED_LIMIT:
            _IPV4S.clear()
        _IPV4S[value] = address
    return address


_new = object.__new__
(_set_mac,) = slot_setters(MacAddress)
(_set_ipv4,) = slot_setters(IPv4Address)


def mac(text: str) -> MacAddress:
    """Shorthand parser: ``mac("02:00:00:00:00:01")``."""
    return MacAddress.parse(text)


def ipv4(text: str) -> IPv4Address:
    """Shorthand parser: ``ipv4("10.0.0.1")``."""
    return IPv4Address.parse(text)
