"""MAC/IPv4 address value type tests."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.netstack.addresses import IPv4Address, MacAddress, ipv4, mac

MAC_TEXT = re.compile("[0-9A-Fa-f]{1,2}(:[0-9A-Fa-f]{1,2}){5}")
OCTET_TEXT = st.from_regex("[0-9A-Fa-f]{1,2}", fullmatch=True)
#: Octet spellings ``int(part, 16)`` reads but a MAC address does not
#: allow, and a few it does not read either.
NOT_OCTET_TEXT = st.one_of(
    st.sampled_from(["0x2", " 2", "2 ", "2\n", "+2", "-0", "0_2",
                     "\u0662", "\uff10", "002", ""]),
    st.text(max_size=3))


class TestMacAddress:
    def test_parse_format_roundtrip(self):
        address = mac("02:00:ab:CD:00:01")
        assert str(address) == "02:00:ab:cd:00:01"

    def test_bytes_roundtrip(self):
        address = MacAddress(0x0200AB00CD01)
        assert MacAddress.from_bytes(address.to_bytes()) == address

    @pytest.mark.parametrize("bad", ["", "02:00:00:00:00",
                                     "02:00:00:00:00:00:00",
                                     "gg:00:00:00:00:00",
                                     "0x2:00:00:00:00:01",
                                     " 2:00:00:00:00:01",
                                     "+2:0:0:0:0:1", "0_2:0:0:0:0:1",
                                     "\u0662:0:0:0:0:1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            MacAddress.parse(bad)

    @given(st.one_of(
        st.from_regex(MAC_TEXT, fullmatch=True),
        st.lists(st.one_of(OCTET_TEXT, NOT_OCTET_TEXT),
                 min_size=5, max_size=7).map(":".join),
        st.text(max_size=20)))
    def test_parse_accepts_exactly_hex_octets(self, text):
        """``parse`` takes exactly six ``:``-separated octets of one or
        two ASCII hex digits, and reads their value."""
        if MAC_TEXT.fullmatch(text) is None:
            with pytest.raises(ValueError):
                MacAddress.parse(text)
            return
        value = 0
        for part in text.split(":"):
            value = value * 256 + int(part, 16)
        assert MacAddress.parse(text) == MacAddress(value)

    def test_range(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)
        with pytest.raises(ValueError):
            MacAddress(-1)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_roundtrip_property(self, value):
        address = MacAddress(value)
        assert MacAddress.parse(str(address)) == address


class TestIPv4Address:
    def test_parse_format_roundtrip(self):
        address = ipv4("10.1.0.42")
        assert str(address) == "10.1.0.42"
        assert address.value == (10 << 24) | (1 << 16) | 42

    def test_bytes_roundtrip(self):
        address = IPv4Address(0x0A0B0C0D)
        assert IPv4Address.from_bytes(address.to_bytes()) == address

    @pytest.mark.parametrize("bad", ["", "10.0.0", "10.0.0.0.1",
                                     "256.0.0.1", "10.0.0.01", "a.b.c.d"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            IPv4Address.parse(bad)

    def test_ordering(self):
        assert ipv4("10.0.0.1") < ipv4("10.0.0.2") < ipv4("10.1.0.0")

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        address = IPv4Address(value)
        assert IPv4Address.parse(str(address)) == address

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            IPv4Address.from_bytes(b"\x01\x02\x03")
