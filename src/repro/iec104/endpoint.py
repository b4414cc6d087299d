"""High-level IEC 104 endpoints: a controlling master and an outstation.

These classes turn the frame/state-machine layers into a usable
protocol implementation (comparable to lib60870's CS104 master/slave):

* :class:`OutstationEndpoint` holds a point database, answers general
  interrogations, confirms commands, and reports point updates
  spontaneously once data transfer is started;
* :class:`MasterEndpoint` starts data transfer, interrogates, issues
  set-point commands, acknowledges I-frames per the w window / T2
  timer, and surfaces received measurements to a callback.

Endpoints are sans-io: they communicate through a :class:`Transport`
(bytes in, bytes out) and take explicit timestamps, so they run equally
well over an in-memory pipe (tests, simulation) or a real socket pump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .apci import APDU, IFrame, SFrame, UFrame
from .asdu import ASDU, InformationObject
from .codec import StreamDecoder, TolerantParser
from .constants import (DEFAULT_K, DEFAULT_W, Cause, ProtocolTimers,
                        TypeID, UFunction)
from .errors import IEC104Error, StateError
from .information_elements import (CounterInterrogationCommand,
                                   IntegratedTotals,
                                   InterrogationCommand, codec_for)
from .profiles import STANDARD_PROFILE, LinkProfile
from .state_machine import ActionKind, ConnectionMachine, TransferState


class Transport:
    """Byte-pipe interface endpoints speak through."""

    def send(self, data: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PipeTransport(Transport):
    """In-memory transport; delivery happens on :meth:`pump`.

    Create a connected pair with :meth:`pair`. Outgoing bytes queue up
    until the owner pumps them into the peer — this keeps delivery
    order deterministic and lets tests interleave time with traffic.
    """

    def __init__(self) -> None:
        self.peer: "PipeTransport | None" = None
        self.receiver: Callable[[bytes], None] | None = None
        self._outbox: list[bytes] = []
        self.closed = False

    @classmethod
    def pair(cls) -> tuple["PipeTransport", "PipeTransport"]:
        a, b = cls(), cls()
        a.peer, b.peer = b, a
        return a, b

    def send(self, data: bytes) -> None:
        if self.closed:
            raise IEC104Error("transport closed")
        self._outbox.append(data)

    def pump(self) -> int:
        """Deliver queued bytes to the peer; return segment count."""
        delivered = 0
        while self._outbox:
            segment = self._outbox.pop(0)
            if self.peer is not None and self.peer.receiver is not None:
                self.peer.receiver(segment)
            delivered += 1
        return delivered

    def close(self) -> None:
        self.closed = True


@dataclass
class EndpointStats:
    sent_i: int = 0
    sent_s: int = 0
    sent_u: int = 0
    received_i: int = 0
    received_s: int = 0
    received_u: int = 0


class _EndpointBase:
    """Shared plumbing: framing, machine wiring, timers."""

    def __init__(self, transport: Transport, is_controlling: bool,
                 profile: LinkProfile = STANDARD_PROFILE,
                 timers: ProtocolTimers | None = None,
                 k: int = DEFAULT_K, w: int = DEFAULT_W):
        self.transport = transport
        self.profile = profile
        self.machine = ConnectionMachine(
            is_controlling=is_controlling,
            timers=timers or ProtocolTimers(), k=k, w=w)
        self._decoder = StreamDecoder(parser=TolerantParser())
        if hasattr(transport, "receiver"):
            transport.receiver = self._on_bytes
        self.now = 0.0
        self.stats = EndpointStats()
        self.machine.connection_opened(self.now)
        self.closed = False
        #: Called when the T1 timer demands the connection be dropped.
        self.on_close_request: Callable[[], None] | None = None
        #: Called when STARTDT completes (data transfer is running).
        self.on_transfer_started: Callable[[], None] | None = None

    # -- byte I/O -----------------------------------------------------------

    def _on_bytes(self, data: bytes) -> None:
        for result in self._decoder.feed(data):
            if not result.ok:
                raise result.error
            self._receive(result.apdu)

    def _send(self, frame: APDU) -> None:
        if self.closed:
            raise IEC104Error("endpoint closed")
        self.transport.send(frame.encode(self.profile))
        self.machine.on_send(frame, self.now)
        if isinstance(frame, IFrame):
            self.stats.sent_i += 1
        elif isinstance(frame, SFrame):
            self.stats.sent_s += 1
        else:
            self.stats.sent_u += 1

    def _receive(self, frame: APDU) -> None:
        actions = self.machine.on_receive(frame, self.now)
        if isinstance(frame, IFrame):
            self.stats.received_i += 1
            self._handle_asdu(frame.asdu)
        elif isinstance(frame, SFrame):
            self.stats.received_s += 1
        else:
            self.stats.received_u += 1
            if frame.function is UFunction.STARTDT_CON \
                    and self.on_transfer_started is not None:
                self.on_transfer_started()
        self._run_actions(actions)

    def _run_actions(self, actions) -> None:
        for action in actions:
            if action.kind is ActionKind.SEND_S_ACK:
                self._send(SFrame(recv_seq=action.recv_seq))
            elif action.kind is ActionKind.SEND_STARTDT_CON:
                self._send(UFrame(UFunction.STARTDT_CON))
                self._transfer_started()
            elif action.kind is ActionKind.SEND_STOPDT_CON:
                self._send(UFrame(UFunction.STOPDT_CON))
            elif action.kind is ActionKind.SEND_TESTFR_CON:
                self._send(UFrame(UFunction.TESTFR_CON))
            elif action.kind is ActionKind.SEND_TESTFR_ACT:
                self._send(UFrame(UFunction.TESTFR_ACT))
            elif action.kind is ActionKind.CLOSE_CONNECTION:
                self.closed = True
                if self.on_close_request is not None:
                    self.on_close_request()

    # -- time ----------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance the endpoint's clock and run due timers."""
        if now < self.now:
            raise ValueError("time cannot move backwards")
        self.now = now
        self._run_actions(self.machine.poll(now))

    # -- hooks ----------------------------------------------------------------

    def _handle_asdu(self, asdu: ASDU) -> None:
        raise NotImplementedError

    def _transfer_started(self) -> None:
        """Called on the controlled side when STARTDT completes."""

    @property
    def started(self) -> bool:
        return self.machine.state is TransferState.STARTED


class OutstationEndpoint(_EndpointBase):
    """An RTU: point database + interrogation + spontaneous reports."""

    def __init__(self, transport: Transport, common_address: int = 1,
                 profile: LinkProfile = STANDARD_PROFILE,
                 timers: ProtocolTimers | None = None,
                 on_command: Callable[[ASDU], None] | None = None,
                 require_select: bool = False):
        super().__init__(transport, is_controlling=False,
                         profile=profile, timers=timers)
        self.common_address = common_address
        self.on_command = on_command
        #: Enforce select-before-operate on SCO/DCO/RCO commands: an
        #: execute without a preceding select on the same IOA is
        #: negatively confirmed. Direct-operate RTUs leave this off.
        self.require_select = require_select
        #: IOAs currently selected (armed) for execution.
        self._selected: set[int] = set()
        #: Point database: ioa -> (typeID, element).
        self._points: dict[int, tuple[TypeID, object]] = {}

    # -- database -------------------------------------------------------------

    def define_point(self, ioa: int, type_id: TypeID, element) -> None:
        """Register (or overwrite) a point without reporting it."""
        codec = codec_for(type_id)
        if not isinstance(element, codec.element_type):
            raise TypeError(
                f"typeID {type_id.name} requires "
                f"{codec.element_type.__name__}")
        self._points[ioa] = (type_id, element)

    def update_point(self, ioa: int, element,
                     cause: Cause = Cause.SPONTANEOUS) -> bool:
        """Update a point; report it if data transfer is running.

        Returns True when a report was transmitted."""
        if ioa not in self._points:
            raise KeyError(f"point {ioa} is not defined")
        type_id, _ = self._points[ioa]
        self._points[ioa] = (type_id, element)
        if not (self.started and self.machine.can_send_i):
            return False
        asdu = ASDU(type_id=type_id, cause=cause,
                    common_address=self.common_address,
                    objects=(InformationObject(ioa, element),))
        self._send(self.machine.next_i_frame(asdu))
        return True

    @property
    def point_count(self) -> int:
        return len(self._points)

    # -- protocol -------------------------------------------------------------

    _SBO_TYPES = (TypeID.C_SC_NA_1, TypeID.C_DC_NA_1, TypeID.C_RC_NA_1,
                  TypeID.C_SC_TA_1, TypeID.C_DC_TA_1, TypeID.C_RC_TA_1)

    def _handle_asdu(self, asdu: ASDU) -> None:
        if asdu.type_id is TypeID.C_IC_NA_1 \
                and asdu.cause is Cause.ACTIVATION:
            self._answer_interrogation(asdu)
            return
        if asdu.type_id is TypeID.C_CI_NA_1 \
                and asdu.cause is Cause.ACTIVATION:
            self._answer_counter_interrogation(asdu)
            return
        if asdu.is_command and asdu.cause is Cause.ACTIVATION:
            if not self._command_permitted(asdu):
                negative = ASDU(type_id=asdu.type_id,
                                cause=Cause.ACTIVATION_CON,
                                common_address=asdu.common_address,
                                negative=True, objects=asdu.objects)
                self._send(self.machine.next_i_frame(negative))
                return
            # Mirror an activation confirmation, then notify.
            con = ASDU(type_id=asdu.type_id, cause=Cause.ACTIVATION_CON,
                       common_address=asdu.common_address,
                       objects=asdu.objects)
            self._send(self.machine.next_i_frame(con))
            if self.on_command is not None:
                self.on_command(asdu)

    def _command_permitted(self, asdu: ASDU) -> bool:
        """Select-before-operate bookkeeping for switching commands."""
        if asdu.type_id not in self._SBO_TYPES:
            return True
        obj = asdu.objects[0]
        is_select = bool(getattr(obj.element, "select", False))
        if is_select:
            self._selected.add(obj.address)
            return True
        if not self.require_select:
            return True
        if obj.address in self._selected:
            self._selected.discard(obj.address)  # one-shot arming
            return True
        return False

    def _answer_counter_interrogation(self, request: ASDU) -> None:
        """Report every integrated-totals point (C_CI_NA_1 / I101)."""
        con = ASDU(type_id=TypeID.C_CI_NA_1, cause=Cause.ACTIVATION_CON,
                   common_address=self.common_address,
                   objects=request.objects)
        self._send(self.machine.next_i_frame(con))
        counters = [(ioa, element) for ioa, (type_id, element)
                    in sorted(self._points.items())
                    if isinstance(element, IntegratedTotals)]
        for start in range(0, len(counters), 8):
            chunk = counters[start:start + 8]
            asdu = ASDU(
                type_id=TypeID.M_IT_NA_1,
                cause=Cause.COUNTER_INTERROGATION_GENERAL,
                common_address=self.common_address,
                objects=tuple(InformationObject(ioa, element)
                              for ioa, element in chunk))
            self._send(self.machine.next_i_frame(asdu))
        term = ASDU(type_id=TypeID.C_CI_NA_1,
                    cause=Cause.ACTIVATION_TERMINATION,
                    common_address=self.common_address,
                    objects=request.objects)
        self._send(self.machine.next_i_frame(term))

    def _answer_interrogation(self, request: ASDU) -> None:
        con = ASDU(type_id=TypeID.C_IC_NA_1, cause=Cause.ACTIVATION_CON,
                   common_address=self.common_address,
                   objects=request.objects)
        self._send(self.machine.next_i_frame(con))
        by_type: dict[TypeID, list[tuple[int, object]]] = {}
        for ioa, (type_id, element) in sorted(self._points.items()):
            by_type.setdefault(type_id, []).append((ioa, element))
        for type_id, entries in sorted(by_type.items()):
            for start in range(0, len(entries), 8):
                chunk = entries[start:start + 8]
                asdu = ASDU(type_id=type_id,
                            cause=Cause.INTERROGATED_BY_STATION,
                            common_address=self.common_address,
                            objects=tuple(InformationObject(ioa, element)
                                          for ioa, element in chunk))
                self._send(self.machine.next_i_frame(asdu))
        term = ASDU(type_id=TypeID.C_IC_NA_1,
                    cause=Cause.ACTIVATION_TERMINATION,
                    common_address=self.common_address,
                    objects=request.objects)
        self._send(self.machine.next_i_frame(term))


@dataclass
class ReceivedMeasurement:
    """One information object delivered to the master."""

    time: float
    common_address: int
    type_id: TypeID
    cause: Cause
    ioa: int
    element: object


class MasterEndpoint(_EndpointBase):
    """A controlling station (SCADA front-end)."""

    def __init__(self, transport: Transport,
                 profile: LinkProfile = STANDARD_PROFILE,
                 timers: ProtocolTimers | None = None,
                 on_measurement: Callable[[ReceivedMeasurement],
                                          None] | None = None):
        super().__init__(transport, is_controlling=True,
                         profile=profile, timers=timers)
        self.on_measurement = on_measurement
        self.measurements: list[ReceivedMeasurement] = []
        #: Causes seen for interrogation commands (act-con, act-term).
        self.interrogation_progress: list[Cause] = []
        #: Causes seen for counter interrogations.
        self.counter_progress: list[Cause] = []
        #: Commands the outstation negatively confirmed.
        self.rejected_commands: list[ASDU] = []

    def start_data_transfer(self) -> None:
        self._send(self.machine.start_transfer())

    def stop_data_transfer(self) -> None:
        self._send(self.machine.stop_transfer())

    def send_test_frame(self) -> None:
        self._send(UFrame(UFunction.TESTFR_ACT))

    def interrogate(self, common_address: int = 1,
                    qoi: int = 20) -> None:
        if not self.started:
            raise StateError("cannot interrogate before STARTDT")
        asdu = ASDU(type_id=TypeID.C_IC_NA_1, cause=Cause.ACTIVATION,
                    common_address=common_address,
                    objects=(InformationObject(
                        0, InterrogationCommand(qoi=qoi)),))
        self._send(self.machine.next_i_frame(asdu))

    def send_command(self, type_id: TypeID, ioa: int, element,
                     common_address: int = 1) -> None:
        """Issue any control-direction command (e.g. an I50 set point)."""
        if not self.started:
            raise StateError("cannot command before STARTDT")
        asdu = ASDU(type_id=type_id, cause=Cause.ACTIVATION,
                    common_address=common_address,
                    objects=(InformationObject(ioa, element),))
        self._send(self.machine.next_i_frame(asdu))

    def counter_interrogate(self, common_address: int = 1) -> None:
        """Request every integrated-totals counter (C_CI_NA_1)."""
        if not self.started:
            raise StateError("cannot interrogate before STARTDT")
        asdu = ASDU(type_id=TypeID.C_CI_NA_1, cause=Cause.ACTIVATION,
                    common_address=common_address,
                    objects=(InformationObject(
                        0, CounterInterrogationCommand()),))
        self._send(self.machine.next_i_frame(asdu))

    def _handle_asdu(self, asdu: ASDU) -> None:
        if asdu.type_id is TypeID.C_IC_NA_1:
            self.interrogation_progress.append(asdu.cause)
            return
        if asdu.type_id is TypeID.C_CI_NA_1:
            self.counter_progress.append(asdu.cause)
            return
        if asdu.is_command:
            if asdu.negative:
                self.rejected_commands.append(asdu)
            return  # activation confirmations of our own commands
        for obj in asdu.objects:
            measurement = ReceivedMeasurement(
                time=self.now, common_address=asdu.common_address,
                type_id=asdu.type_id, cause=asdu.cause,
                ioa=obj.address, element=obj.element)
            self.measurements.append(measurement)
            if self.on_measurement is not None:
                self.on_measurement(measurement)


def connect_pair(master_profile: LinkProfile = STANDARD_PROFILE,
                 outstation_profile: LinkProfile | None = None,
                 timers: ProtocolTimers | None = None,
                 common_address: int = 1
                 ) -> tuple[MasterEndpoint, OutstationEndpoint,
                            Callable[[], int]]:
    """Wire a master and an outstation over an in-memory pipe.

    Returns ``(master, outstation, pump)`` where ``pump()`` delivers
    all in-flight bytes in both directions until quiescent. The two
    endpoints may use *different* link profiles — exactly the §6.1
    situation, with the master's tolerant parser absorbing the
    mismatch.
    """
    a, b = PipeTransport.pair()
    master = MasterEndpoint(a, timers=timers, profile=master_profile)
    outstation = OutstationEndpoint(
        b, common_address=common_address, timers=timers,
        profile=(outstation_profile if outstation_profile is not None
                 else master_profile))

    def pump() -> int:
        total = 0
        while True:
            moved = a.pump() + b.pump()
            if not moved:
                return total
            total += moved

    return master, outstation, pump
