"""The protocol registry: lookup, detection, spec invariants."""

from __future__ import annotations

import json

import pytest

from repro.iec104.apci import SFrame
from repro.iec104.codec import StreamDecoder, TolerantParser
from repro.iec104.constants import IEC104_PORT
from repro.protocols import (IEC104_SPEC, MODBUS_PORT, MODBUS_SPEC,
                             ProtocolSpec, all_protocols,
                             detect_protocol, get_protocol,
                             register_protocol, registered_names)
from repro.protocols.modbus import ModbusAdu, ModbusParser


class TestRegistry:
    def test_builtin_specs_are_registered(self):
        assert registered_names() == ("iec104", "modbus")
        assert get_protocol("iec104") is IEC104_SPEC
        assert get_protocol("modbus") is MODBUS_SPEC

    def test_all_protocols_sorted_by_name(self):
        specs = all_protocols()
        assert [spec.name for spec in specs] \
            == sorted(spec.name for spec in specs)

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ValueError) as excinfo:
            get_protocol("dnp3")
        message = str(excinfo.value)
        assert "unknown protocol 'dnp3'" in message
        assert "iec104" in message and "modbus" in message

    def test_identical_reregistration_is_idempotent(self):
        assert register_protocol(MODBUS_SPEC) is MODBUS_SPEC
        assert registered_names() == ("iec104", "modbus")

    def test_conflicting_registration_is_an_error(self):
        conflicting = ProtocolSpec(
            name="modbus", title="not the same", ports=(503,),
            tokens=(), _parser_factory=ModbusParser)
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(conflicting)
        # The registry is untouched by the failed attempt.
        assert get_protocol("modbus") is MODBUS_SPEC


class TestDetection:
    def test_ports_map_to_their_specs(self):
        assert detect_protocol(49152, IEC104_PORT) is IEC104_SPEC
        assert detect_protocol(49152, MODBUS_PORT) is MODBUS_SPEC

    def test_detection_is_direction_agnostic(self):
        assert detect_protocol(MODBUS_PORT, 49152) is MODBUS_SPEC
        assert detect_protocol(IEC104_PORT, 49152) is IEC104_SPEC

    def test_unclaimed_ports_detect_nothing(self):
        assert detect_protocol(49152, 49153) is None

    def test_matches(self):
        assert MODBUS_SPEC.matches(1000, MODBUS_PORT)
        assert MODBUS_SPEC.matches(MODBUS_PORT, 1000)
        assert not MODBUS_SPEC.matches(1000, IEC104_PORT)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="needs a name"):
            ProtocolSpec(name="", title="x", ports=(1,), tokens=(),
                         _parser_factory=ModbusParser)
        with pytest.raises(ValueError, match="at least one port"):
            ProtocolSpec(name="x", title="x", ports=(), tokens=(),
                         _parser_factory=ModbusParser)

    def test_to_json_is_pure_metadata(self):
        for spec in all_protocols():
            document = spec.to_json()
            assert set(document) == {"name", "title", "ports",
                                     "tokens"}
            # Must be JSON-serializable as-is: no callables leak.
            assert json.loads(json.dumps(document)) == document

    def test_factories_build_the_protocol_stacks(self):
        iec_parser = IEC104_SPEC.new_parser()
        assert isinstance(iec_parser, TolerantParser)
        modbus_parser = MODBUS_SPEC.new_parser()
        assert isinstance(modbus_parser, ModbusParser)
        # Each parser owns its framing, which the one decoder follows.
        for parser, frame in (
                (iec_parser, SFrame(recv_seq=1).encode()),
                (modbus_parser, ModbusAdu(transaction=1, unit=1,
                                          function=3,
                                          data=b"\x00\x01").encode())):
            results = StreamDecoder(parser, "L").feed(frame + frame)
            assert [result.raw for result in results] == [frame, frame]
            assert all(result.ok for result in results)

    def test_parsers_are_fresh_per_call(self):
        assert IEC104_SPEC.new_parser() is not IEC104_SPEC.new_parser()
