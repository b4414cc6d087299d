"""IEC 60870-5-104 protocol implementation.

Public API:

* Constants and catalogs: :class:`TypeID`, :class:`Cause`,
  :class:`UFunction`, :data:`TYPE_ID_DESCRIPTIONS`,
  :data:`OBSERVED_TYPE_IDS`, :class:`ProtocolTimers`.
* Frames: :class:`IFrame`, :class:`SFrame`, :class:`UFrame`
  (decode with :func:`repro.iec104.apci.decode_apdu`).
* ASDUs: :class:`ASDU`, :class:`InformationObject`, the information
  element classes, :class:`CP56Time2a`.
* Parsers: :class:`StrictParser` (standard-compliant baseline),
  :class:`TolerantParser` (the paper's profile-inferring parser),
  :class:`StreamDecoder`, :class:`LinkProfile`.
* Connection logic: :class:`ConnectionMachine`.
"""

from .apci import (APDU, SEQ_MODULO, STARTDT_ACT, STARTDT_CON, STOPDT_ACT,
                   STOPDT_CON, TESTFR_ACT, TESTFR_CON, IFrame, SFrame,
                   UFrame)
from .asdu import ASDU, InformationObject, measurement
from .codec import (ParseResult, ParserStats, StreamDecoder, StrictParser,
                    TolerantParser)
from .endpoint import (EndpointStats, MasterEndpoint,
                       OutstationEndpoint, PipeTransport,
                       ReceivedMeasurement, Transport, connect_pair)
from .gateway import GatewayMode, GatewayStats, Iec101To104Gateway
from .iec101 import (ACK_CHAR, AckFrame, Ft12Frame, IEC101_PROFILE,
                     LinkControl, LinkFunction, SerialLine, decode_frame,
                     encode_ack, encode_fixed, encode_variable)
from .redundancy import (FailoverEvent, LinkRole, RedundancyGroup)
from .socket_transport import (SocketTransport, connect_master,
                               serve_outstation, socketpair_endpoints)
from .constants import (DEFAULT_K, DEFAULT_W, IEC104_PORT,
                        OBSERVED_TYPE_IDS, TYPE_ID_DESCRIPTIONS,
                        APDUFormat, Cause, ProtocolTimers, TypeID, UFunction)
from .errors import (ControlFieldError, FramingError, IEC104Error,
                     InvalidIOAError, MalformedASDUError, SequenceError,
                     StateError, TruncatedError, UnknownTypeIDError)
from .information_elements import (GOOD, Bitstring32, Bitstring32Command,
                                   ClockSyncCommand,
                                   CounterInterrogationCommand, DoubleCommand,
                                   DoublePoint, EndOfInitialization,
                                   InformationElement, IntegratedTotals,
                                   InterrogationCommand,
                                   NormalizedValue, Quality, RegulatingStep,
                                   ScaledValue, SetpointFloat,
                                   SetpointNormalized, SetpointScaled,
                                   ShortFloat, SingleCommand, SinglePoint,
                                   StepPosition)
from .profiles import (CANDIDATE_PROFILES, FULL_IEC101_PROFILE,
                       LEGACY_COT_PROFILE, LEGACY_IOA_PROFILE,
                       STANDARD_PROFILE, LinkProfile)
from .state_machine import (Action, ActionKind, ConnectionMachine,
                            TransferState, seq_distance)
from .time_tag import CP16Time2a, CP56Time2a

__all__ = [
    "APDU", "ASDU", "Action", "ActionKind", "APDUFormat",
    "Bitstring32", "Bitstring32Command", "CANDIDATE_PROFILES",
    "CP16Time2a", "CP56Time2a", "Cause", "ClockSyncCommand",
    "ConnectionMachine", "ControlFieldError",
    "CounterInterrogationCommand", "DEFAULT_K", "DEFAULT_W",
    "DoubleCommand", "DoublePoint", "EndOfInitialization",
    "ACK_CHAR", "AckFrame", "EndpointStats", "FULL_IEC101_PROFILE",
    "FailoverEvent", "FramingError", "Ft12Frame", "GatewayMode",
    "GatewayStats", "IEC101_PROFILE", "Iec101To104Gateway",
    "LinkControl", "LinkFunction", "LinkRole", "SerialLine",
    "decode_frame", "encode_ack", "encode_fixed", "encode_variable",
    "MasterEndpoint", "RedundancyGroup", "SocketTransport",
    "connect_master", "serve_outstation", "socketpair_endpoints",
    "OutstationEndpoint", "PipeTransport", "ReceivedMeasurement",
    "Transport", "connect_pair",
    "GOOD", "IEC104Error", "IEC104_PORT", "IFrame", "InformationElement",
    "InformationObject",
    "IntegratedTotals", "InterrogationCommand", "InvalidIOAError",
    "LEGACY_COT_PROFILE", "LEGACY_IOA_PROFILE", "LinkProfile",
    "MalformedASDUError", "NormalizedValue", "OBSERVED_TYPE_IDS",
    "ParseResult", "ParserStats", "ProtocolTimers", "Quality",
    "RegulatingStep", "SEQ_MODULO", "SFrame", "STANDARD_PROFILE",
    "STARTDT_ACT", "STARTDT_CON", "STOPDT_ACT", "STOPDT_CON",
    "ScaledValue", "SequenceError", "SetpointFloat", "SetpointNormalized",
    "SetpointScaled", "ShortFloat", "SingleCommand", "SinglePoint",
    "StateError", "StepPosition", "StreamDecoder", "StrictParser",
    "TESTFR_ACT", "TESTFR_CON", "TYPE_ID_DESCRIPTIONS", "TolerantParser",
    "TransferState", "TruncatedError", "TypeID", "UFrame", "UFunction",
    "UnknownTypeIDError", "measurement", "seq_distance",
]
