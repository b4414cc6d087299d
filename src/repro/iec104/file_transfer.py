"""IEC 104 file transfer (typeIDs 120-127).

Implements the standard's file-transfer choreography on top of the
endpoint layer — the mechanism real RTUs use to ship disturbance
records and event logs to the control center:

    master: F_SC_NA_1 (call directory)        ->
    rtu:    F_DR_TA_1 (directory entries)     <-
    master: F_SC_NA_1 (select file)           ->
    rtu:    F_FR_NA_1 (file ready)            <-
    master: F_SC_NA_1 (call file)             ->
    rtu:    F_SR_NA_1 (section ready)         <-
    master: F_SC_NA_1 (call section)          ->
    rtu:    F_SG_NA_1 * n (segments)          <-
    rtu:    F_LS_NA_1 (last segment, checksum)<-
    master: F_AF_NA_1 (ack section/file)      ->

The paper's Table 5 lists these typeIDs (never observed in its
captures — file transfer is rare, operator-initiated traffic), and the
codec layer already round-trips them; this module adds the service
logic so the endpoints form a complete implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .asdu import ASDU, InformationObject
from .constants import Cause, TypeID
from .endpoint import MasterEndpoint, OutstationEndpoint
from .errors import IEC104Error
from .information_elements import (AckFile, CallFile, Directory,
                                   FileReady, LastSection, SectionReady,
                                   Segment)
from .time_tag import CP56Time2a

#: Maximum payload octets per F_SG segment (fits the 253-octet APDU).
SEGMENT_SIZE = 200

#: SCQ values for F_SC_NA_1 (select-and-call qualifier).
SCQ_SELECT_FILE = 1
SCQ_CALL_FILE = 2
SCQ_CALL_SECTION = 6
#: Call directory uses the reserved file name 0 with SCQ select.
DIRECTORY_IOA = 0


def file_checksum(data: bytes) -> int:
    """Modulo-256 sum, the CHS of F_LS_NA_1."""
    return sum(data) & 0xFF


@dataclass(frozen=True)
class StoredFile:
    """One file held by an outstation (e.g. a disturbance record)."""

    name: int            # NOF, 16-bit file identifier
    data: bytes
    created: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 < self.name <= 0xFFFF:
            raise ValueError("file name must be a 16-bit id > 0")


class FileServer:
    """Attach file service behaviour to an :class:`OutstationEndpoint`.

    Files live at a dedicated IOA; the standard transfers one section
    per file here (ample for disturbance records of a few kB)."""

    def __init__(self, outstation: OutstationEndpoint,
                 files_ioa: int = 1):
        self.outstation = outstation
        self.files_ioa = files_ioa
        self._files: dict[int, StoredFile] = {}
        previous = outstation.on_command
        outstation.on_command = self._dispatch(previous)

    def add_file(self, stored: StoredFile) -> None:
        self._files[stored.name] = stored

    def remove_file(self, name: int) -> None:
        del self._files[name]

    @property
    def file_count(self) -> int:
        return len(self._files)

    # -- protocol ----------------------------------------------------------

    def _send(self, type_id: TypeID, element, cause: Cause,
              ioa: int | None = None, negative: bool = False) -> None:
        asdu = ASDU(type_id=type_id, cause=cause, negative=negative,
                    common_address=self.outstation.common_address,
                    objects=(InformationObject(
                        self.files_ioa if ioa is None else ioa,
                        element),))
        self.outstation._send(
            self.outstation.machine.next_i_frame(asdu))

    def _dispatch(self, previous):
        def handle(asdu: ASDU) -> None:
            if asdu.type_id is TypeID.F_SC_NA_1:
                self._handle_call(asdu)
            elif asdu.type_id is TypeID.F_AF_NA_1:
                pass  # ack of a completed transfer; nothing to do
            elif previous is not None:
                previous(asdu)
        return handle

    def _handle_call(self, asdu: ASDU) -> None:
        request: CallFile = asdu.objects[0].element
        if request.file_name == DIRECTORY_IOA:
            self._send_directory()
            return
        stored = self._files.get(request.file_name)
        if stored is None:
            self._send(TypeID.F_SC_NA_1,
                       CallFile(file_name=request.file_name,
                                qualifier=request.qualifier),
                       cause=Cause.UNKNOWN_IOA, negative=True)
            return
        if request.qualifier == SCQ_SELECT_FILE:
            self._send(TypeID.F_FR_NA_1,
                       FileReady(file_name=stored.name,
                                 file_length=len(stored.data)),
                       cause=Cause.FILE_TRANSFER)
        elif request.qualifier == SCQ_CALL_FILE:
            self._send(TypeID.F_SR_NA_1,
                       SectionReady(file_name=stored.name, section=1,
                                    section_length=len(stored.data)),
                       cause=Cause.FILE_TRANSFER)
        elif request.qualifier == SCQ_CALL_SECTION:
            self._send_section(stored)

    def _send_directory(self) -> None:
        for stored in sorted(self._files.values(),
                             key=lambda f: f.name):
            self._send(TypeID.F_DR_TA_1,
                       Directory(file_name=stored.name,
                                 file_length=len(stored.data),
                                 time=stored.created),
                       cause=Cause.FILE_TRANSFER)

    def _send_section(self, stored: StoredFile) -> None:
        for offset in range(0, len(stored.data), SEGMENT_SIZE):
            chunk = stored.data[offset:offset + SEGMENT_SIZE]
            self._send(TypeID.F_SG_NA_1,
                       Segment(file_name=stored.name, section=1,
                               data=chunk),
                       cause=Cause.FILE_TRANSFER)
        self._send(TypeID.F_LS_NA_1,
                   LastSection(file_name=stored.name, section=1,
                               qualifier=1,
                               checksum=file_checksum(stored.data)),
                   cause=Cause.FILE_TRANSFER)


class TransferState(enum.Enum):
    IDLE = "idle"
    AWAITING_READY = "awaiting file ready"
    AWAITING_SECTION = "awaiting section ready"
    RECEIVING = "receiving segments"
    COMPLETE = "complete"
    FAILED = "failed"


@dataclass
class ReceivedFile:
    name: int
    data: bytes
    checksum_ok: bool


class FileClient:
    """Attach file retrieval to a :class:`MasterEndpoint`."""

    def __init__(self, master: MasterEndpoint, files_ioa: int = 1,
                 common_address: int = 1):
        self.master = master
        self.files_ioa = files_ioa
        self.common_address = common_address
        self.state = TransferState.IDLE
        self.directory: list[Directory] = []
        self.received: list[ReceivedFile] = []
        self._buffer = bytearray()
        self._current: int | None = None
        previous = master._handle_asdu
        master._handle_asdu = self._wrap(previous)

    def _wrap(self, previous):
        def handle(asdu: ASDU) -> None:
            if asdu.type_id is TypeID.F_DR_TA_1:
                self.directory.append(asdu.objects[0].element)
            elif asdu.type_id is TypeID.F_FR_NA_1:
                self._on_file_ready(asdu.objects[0].element)
            elif asdu.type_id is TypeID.F_SR_NA_1:
                self._on_section_ready(asdu.objects[0].element)
            elif asdu.type_id is TypeID.F_SG_NA_1:
                self._buffer.extend(asdu.objects[0].element.data)
            elif asdu.type_id is TypeID.F_LS_NA_1:
                self._on_last_section(asdu.objects[0].element)
            elif asdu.type_id is TypeID.F_SC_NA_1 and asdu.negative:
                self.state = TransferState.FAILED
            else:
                previous(asdu)
        return handle

    # -- requests ------------------------------------------------------------

    def _call(self, file_name: int, qualifier: int) -> None:
        if not self.master.started:
            raise IEC104Error("data transfer not started")
        self.master.send_command(
            TypeID.F_SC_NA_1, self.files_ioa,
            CallFile(file_name=file_name, qualifier=qualifier),
            common_address=self.common_address)

    def request_directory(self) -> None:
        self.directory = []
        self._call(DIRECTORY_IOA, SCQ_SELECT_FILE)

    def request_file(self, file_name: int) -> None:
        if self.state not in (TransferState.IDLE, TransferState.COMPLETE,
                              TransferState.FAILED):
            raise IEC104Error(f"transfer already running: {self.state}")
        self._current = file_name
        self._buffer = bytearray()
        self.state = TransferState.AWAITING_READY
        self._call(file_name, SCQ_SELECT_FILE)

    # -- responses ------------------------------------------------------------

    def _on_file_ready(self, ready: FileReady) -> None:
        if ready.file_name != self._current:
            return
        self.state = TransferState.AWAITING_SECTION
        self._call(ready.file_name, SCQ_CALL_FILE)

    def _on_section_ready(self, ready: SectionReady) -> None:
        if ready.file_name != self._current:
            return
        self.state = TransferState.RECEIVING
        self._call(ready.file_name, SCQ_CALL_SECTION)

    def _on_last_section(self, last: LastSection) -> None:
        if last.file_name != self._current:
            return
        data = bytes(self._buffer)
        ok = file_checksum(data) == last.checksum
        self.received.append(ReceivedFile(name=last.file_name,
                                          data=data, checksum_ok=ok))
        self.state = (TransferState.COMPLETE if ok
                      else TransferState.FAILED)
        self.master.send_command(
            TypeID.F_AF_NA_1, self.files_ioa,
            AckFile(file_name=last.file_name, section=1,
                    qualifier=1 if ok else 4),
            common_address=self.common_address)
