"""IEC 60870-5-104 as a :class:`~repro.protocols.base.ProtocolSpec`.

This is a pure adapter: the existing stack — the paper's tolerant
profile-inferring parser, which owns the APCI framing the one
:class:`~repro.iec104.codec.StreamDecoder` drives, and the port-2404
filter — is re-exposed behind the protocol interface unchanged.  The
spec's token alphabet is the paper's Table 4 grammar (``S``,
``U1..U32``, ``I<typeID>``) that every analyzer already consumes.
"""

from __future__ import annotations

from ..iec104.codec import TolerantParser
from ..iec104.constants import IEC104_PORT
from .base import ProtocolSpec, register_protocol

#: The IEC 104 spec (adapts the existing stack unchanged).
IEC104_SPEC = register_protocol(ProtocolSpec(
    name="iec104",
    title="IEC 60870-5-104",
    ports=(IEC104_PORT,),
    tokens=("I<typeID>", "S", "U1..U32"),
    _parser_factory=TolerantParser,
))
