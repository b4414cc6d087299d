"""IEC 104 compliance analysis (paper Section 6.1, Fig. 7).

Runs the standard-compliant baseline parser and the tolerant parser
side by side over a capture, reports which outstations a Wireshark-like
tool would flag as 100% malformed, and explains *why* by naming the
legacy field widths the tolerant parser inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..iec104.codec import StrictParser, TolerantParser
from ..iec104.profiles import STANDARD_PROFILE, LinkProfile
from ..netstack.packet import CapturedPacket
from .apdu_stream import is_iec104
from .sources import PacketSource, resolve_source


@dataclass
class HostCompliance:
    """Per-sending-host compliance verdict."""

    host: str
    frames: int = 0
    strict_malformed: int = 0
    tolerant_decoded: int = 0
    inferred_profile: LinkProfile | None = None

    @property
    def strict_malformed_fraction(self) -> float:
        return self.strict_malformed / self.frames if self.frames else 0.0

    @property
    def is_compliant(self) -> bool:
        return (self.inferred_profile is None
                or self.inferred_profile.is_standard)

    @property
    def explanation(self) -> str:
        if self.is_compliant or self.inferred_profile is None:
            return "IEC 104 compliant"
        return self.inferred_profile.describe()


@dataclass
class ComplianceReport:
    """Section 6.1 over one capture."""

    hosts: dict[str, HostCompliance] = field(default_factory=dict)

    def non_compliant_hosts(self) -> list[HostCompliance]:
        """Hosts a standard parser flags on (nearly) every I-frame."""
        return sorted(
            (host for host in self.hosts.values()
             if not host.is_compliant),
            key=lambda host: host.host)

    def fully_malformed_hosts(self, threshold: float = 0.999
                              ) -> list[str]:
        """The paper's "100% invalid packets" host list."""
        return [host.host for host in self.hosts.values()
                if host.frames > 0
                and host.strict_malformed_fraction >= threshold
                and host.strict_malformed > 0]


def analyze_compliance(source: PacketSource) -> ComplianceReport:
    """Compare strict vs tolerant parsing per sending host.

    Capture-first: pass the capture object itself (or a pcap reader /
    packet iterable). Only I-format frames discriminate between
    profiles, so hosts that send only S/U frames (pure backups) are
    counted but never flagged.
    """
    packets, names = resolve_source(source)
    report = ComplianceReport()
    strict = StrictParser()
    tolerant = TolerantParser()
    for packet in packets:
        if not is_iec104(packet) or not packet.payload:
            continue
        src = names.get(packet.ip.src,
                        f"{packet.ip.src}:{packet.tcp.src_port}")
        host = report.hosts.get(src)
        if host is None:
            host = HostCompliance(host=src)
            report.hosts[src] = host
        for result in strict.parse_stream(packet.payload):
            # Count only I-format frames: S/U APDUs are 4-octet control
            # frames identical under every profile.
            if len(result.raw) > 6:
                host.frames += 1
                if not result.ok:
                    host.strict_malformed += 1
        for result in tolerant.parse_stream(packet.payload, link_key=src):
            if len(result.raw) > 6 and result.ok:
                host.tolerant_decoded += 1
    for src, host in report.hosts.items():
        host.inferred_profile = tolerant.profile_for(src)
    return report


@dataclass(frozen=True)
class FieldDiff:
    """Fig. 7: how a legacy frame's fields differ from the standard."""

    field_name: str
    standard_octets: int
    observed_octets: int

    def __str__(self) -> str:
        return (f"{self.field_name}: {self.observed_octets} octet(s) "
                f"observed vs {self.standard_octets} in IEC 104")


def field_diffs(profile: LinkProfile) -> list[FieldDiff]:
    """Enumerate the Fig. 7-style deviations of a legacy profile."""
    diffs: list[FieldDiff] = []
    if profile.cot_length != STANDARD_PROFILE.cot_length:
        diffs.append(FieldDiff("Cause of Transmission",
                               STANDARD_PROFILE.cot_length,
                               profile.cot_length))
    if profile.ioa_length != STANDARD_PROFILE.ioa_length:
        diffs.append(FieldDiff("Information Object Address",
                               STANDARD_PROFILE.ioa_length,
                               profile.ioa_length))
    if (profile.common_address_length
            != STANDARD_PROFILE.common_address_length):
        diffs.append(FieldDiff("Common Address",
                               STANDARD_PROFILE.common_address_length,
                               profile.common_address_length))
    return diffs
