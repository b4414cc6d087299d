"""repro.protocols — protocol specs for heterogeneous fleets.

The registry behind the stream engine's protocol abstraction: each
supported wire protocol is one frozen
:class:`~repro.protocols.base.ProtocolSpec` (name, default ports,
parser class, token alphabet, display hints), looked up by name
through :func:`~repro.protocols.base.get_protocol`. Each parser owns
its framing, so one :class:`~repro.iec104.codec.StreamDecoder`
buffers, splits and resyncs every protocol's byte stream.

Importing this package registers the built-in specs:
``iec104`` (the existing stack, adapted unchanged) and ``modbus``
(Modbus/TCP end-to-end — MBAP framing, function-code PDU codec).
"""

from .base import (ProtocolSpec, all_protocols, detect_protocol,
                   get_protocol, register_protocol, registered_names)
from .iec104 import IEC104_SPEC
from .modbus import (MODBUS_PORT, ModbusAdu, ModbusError,
                     ModbusParseResult, ModbusParser, MODBUS_SPEC,
                     scan_mbap)

__all__ = [
    "IEC104_SPEC", "MODBUS_PORT", "MODBUS_SPEC", "ModbusAdu",
    "ModbusError", "ModbusParseResult", "ModbusParser",
    "ProtocolSpec", "all_protocols", "detect_protocol",
    "get_protocol", "register_protocol", "registered_names",
    "scan_mbap",
]
