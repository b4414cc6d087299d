"""MAC and IPv4 address value types.

Small, hashable wrappers over the on-wire integer forms. We implement
these (rather than pulling in :mod:`ipaddress`) because the packet
codecs need exact 4/6-octet round-trips and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class MacAddress:
    """48-bit Ethernet hardware address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError("MAC address must fit in 48 bits")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"invalid MAC address {text!r}")
        try:
            octets = [int(part, 16) for part in parts]
        except ValueError:
            raise ValueError(f"invalid MAC address {text!r}") from None
        if any(not 0 <= octet <= 255 for octet in octets):
            raise ValueError(f"invalid MAC address {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
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
            if not part.isdigit():
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


def mac(text: str) -> MacAddress:
    """Shorthand parser: ``mac("02:00:00:00:00:01")``."""
    return MacAddress.parse(text)


def ipv4(text: str) -> IPv4Address:
    """Shorthand parser: ``ipv4("10.0.0.1")``."""
    return IPv4Address.parse(text)
