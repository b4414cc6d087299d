"""Shared execution harness for attack scenarios.

Every scenario runs the same deterministic skeleton: one seeded
:class:`~repro.simnet.clock.Simulator`, one
:class:`~repro.simnet.capture.CaptureTap`, benign IEC-104 links that
produce the clean LEARN-phase traffic, then scheduled attack actions
after the labeled onset.  The harness owns the phase timeline::

    start ──(learn_s)──► detect_after ──(attack_delay_s)──► onset
                                                  │
                                         labeled intervals
                                                  ▼
                                    attack end ──(tail)──► run end

``detect_after_us`` lands *between* the clean traffic and the attack
onset with ``attack_delay_s`` of margin, so a detector that learns
only the events before the boundary never trains on malicious
packets.

All durations scale by the run's ``scale`` (the quick bench mode is
0.5); fixed protocol timers (t1/t2/t3) deliberately do not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..analysis.labels import LabeledInterval
from ..iec104.constants import ProtocolTimers
from ..netstack.addresses import IPv4Address, MacAddress
from ..simnet.behaviors import OutstationBehavior
from ..simnet.capture import CaptureTap
from ..simnet.clock import Simulator, Ticks, seconds_to_ticks
from ..simnet.tcpsim import SimHost
from .registry import ScenarioSpec
from .sidecar import GroundTruth, dump_truth, truth_path

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..simnet.modbus import ModbusLink

#: Capture time before the first link starts.
START_US: Ticks = 1_000_000

#: Benign tail after the last labeled interval (scaled) — shows the
#: detector staying quiet once the attack stops.
TAIL_S = 20.0

_SERVER_IP_BASE = 0x0A00000A      # 10.0.0.10+ : control centers
_OUTSTATION_IP_BASE = 0x0A010001  # 10.1.0.1+  : outstations
_ATTACKER_IP = 0xC0A80A0A         # 192.168.10.10 (simnet.attacker)


@dataclass
class ScenarioRun:
    """A finished scenario: capture, host names and ground truth."""

    spec: ScenarioSpec
    scale: float
    tap: CaptureTap
    names: dict[IPv4Address, str]
    truth: GroundTruth

    @property
    def packets(self):
        return self.tap.packets

    def to_pcap(self, stream) -> int:
        return self.tap.to_pcap(stream)

    def to_pcapng(self, stream) -> int:
        return self.tap.to_pcapng(stream)

    def write(self, pcap_path: Path) -> tuple[Path, Path, Path]:
        """Write capture + ``.names.json`` + ``.truth.json``.

        The capture format follows the path suffix (``.pcapng`` /
        ``.ntar`` → pcapng, everything else classic pcap), matching
        ``repro generate``.  Returns the three written paths.
        """
        import json
        with open(pcap_path, "wb") as stream:
            if pcap_path.suffix in (".pcapng", ".ntar"):
                self.to_pcapng(stream)
            else:
                self.to_pcap(stream)
        names_path = pcap_path.with_suffix(".names.json")
        names_path.write_text(json.dumps(
            {str(address): name
             for address, name in self.names.items()},
            indent=2, sort_keys=True))
        sidecar = truth_path(pcap_path)
        sidecar.write_text(dump_truth(self.truth))
        return pcap_path, names_path, sidecar


class ScenarioHarness:
    """Deterministic simulator + phase timeline for one scenario."""

    def __init__(self, spec: ScenarioSpec, scale: float = 1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.spec = spec
        self.scale = scale
        self.sim = Simulator()
        self.tap = CaptureTap()
        #: The scenario's only randomness source (determinism rule:
        #: identical seeds must reproduce byte-identical captures).
        self.rng = random.Random(spec.seed)
        self.timers = ProtocolTimers()
        self.names: dict[IPv4Address, str] = {}
        self._hosts: dict[str, SimHost] = {}
        self._server_count = 0
        self._outstation_count = 0
        self.start_us: Ticks = START_US
        self.detect_after_us: Ticks = \
            self.start_us + self.scaled(spec.learn_s)
        self.onset_us: Ticks = \
            self.detect_after_us + self.scaled(spec.attack_delay_s)
        self.attack_end_us: Ticks = \
            self.onset_us + self.scaled(spec.attack_s)

    def scaled(self, seconds: float) -> Ticks:
        """Scaled duration in ticks (phase lengths, not cadences)."""
        return seconds_to_ticks(seconds * self.scale)

    # -- hosts --------------------------------------------------------

    def _add_host(self, name: str, ip: int, mac: int) -> SimHost:
        if name in self._hosts:
            raise ValueError(f"host {name!r} already exists")
        host = SimHost(name=name, ip=IPv4Address(ip),
                       mac=MacAddress(mac))
        self._hosts[name] = host
        self.names[host.ip] = name
        return host

    def add_server(self, name: str) -> SimHost:
        index = self._server_count
        self._server_count += 1
        return self._add_host(name, _SERVER_IP_BASE + index,
                              0x02C000000000 + index)

    def add_outstation(self, name: str) -> SimHost:
        index = self._outstation_count
        self._outstation_count += 1
        return self._add_host(name, _OUTSTATION_IP_BASE + index,
                              0x02A000000000 + index)

    def add_attacker(self, name: str = "ATTACKER") -> SimHost:
        return self._add_host(name, _ATTACKER_IP, 0x02DEADBEEF00)

    # -- links --------------------------------------------------------

    def make_link(self, server: str, behavior: OutstationBehavior):
        """IEC-104 link from a registered host to ``behavior``.

        The outstation host is created on first use; the server (or
        attacker) host must have been added explicitly.
        """
        from ..simnet.agents import IEC104Link
        if server not in self._hosts:
            raise KeyError(f"unknown server host {server!r} — call "
                           "add_server()/add_attacker() first")
        if behavior.name not in self._hosts:
            self.add_outstation(behavior.name)
        link = IEC104Link(
            sim=self.sim, tap=self.tap, rng=self.rng,
            server_host=self._hosts[server],
            outstation_host=self._hosts[behavior.name],
            behavior=behavior, server_name=server,
            timers=self.timers)
        link.run_until(None)
        return link

    def make_modbus_link(self, master: str, outstation: str,
                         registers) -> "ModbusLink":
        """Modbus/TCP link from a registered host to ``outstation``.

        ``registers`` maps holding-register address to a source
        callable (seconds → value).  Host conventions mirror
        :meth:`make_link`: the outstation host is created on first
        use; the master (or attacker) must exist already.
        """
        from ..simnet.modbus import ModbusLink
        if master not in self._hosts:
            raise KeyError(f"unknown master host {master!r} — call "
                           "add_server()/add_attacker() first")
        if outstation not in self._hosts:
            self.add_outstation(outstation)
        link = ModbusLink(
            sim=self.sim, tap=self.tap, rng=self.rng,
            master_host=self._hosts[master],
            outstation_host=self._hosts[outstation],
            master_name=master, outstation_name=outstation,
            registers=registers)
        link.run_until(None)
        return link

    # -- scheduling ---------------------------------------------------

    def at(self, when_us: Ticks, action: Callable[[], None]) -> None:
        """Schedule ``action`` — mid-run link calls must go through
        the event queue so the tap stays (nearly) time-ordered."""
        self.sim.schedule(when_us, action)

    def attack_interval(self, label: str,
                        start_us: Ticks | None = None,
                        end_us: Ticks | None = None) -> LabeledInterval:
        return LabeledInterval(
            start_us=self.onset_us if start_us is None else start_us,
            end_us=self.attack_end_us if end_us is None else end_us,
            label=label)

    # -- completion ---------------------------------------------------

    def finish(self, attacker_endpoints: Sequence[str],
               affected_ioas: Iterable[int],
               intervals: Sequence[LabeledInterval],
               protocol: str = "iec104") -> ScenarioRun:
        """Run the simulation out and assemble the ground truth.

        ``protocol`` names the :class:`~repro.protocols.base.
        ProtocolSpec` the scenario's links speak; the scorer binds
        its replay pipeline to it (see ``GroundTruth.protocol``).
        """
        spans = tuple(intervals)
        end_us = max([self.attack_end_us]
                     + [span.end_us for span in spans]) \
            + self.scaled(TAIL_S)
        self.sim.run_until(end_us)
        truth = GroundTruth(
            scenario=self.spec.name, family=self.spec.family,
            seed=self.spec.seed, scale=self.scale,
            detect_after_us=self.detect_after_us,
            attacker_endpoints=tuple(attacker_endpoints),
            affected_ioas=tuple(sorted(set(affected_ioas))),
            intervals=spans, protocol=protocol)
        return ScenarioRun(spec=self.spec, scale=self.scale,
                           tap=self.tap, names=dict(self.names),
                           truth=truth)
