"""Capture tap, windows, behaviour validation, network map tests."""

import pytest

from repro.iec104.constants import TypeID
from repro.netstack.addresses import IPv4Address, MacAddress
from repro.netstack.packet import CapturedPacket
from repro.netstack.tcp import SYN, TCPSegment
from repro.simnet.behaviors import (OutstationBehavior, OutstationType,
                                    PointConfig, RejectMode)
from repro.simnet.capture import CaptureTap, CaptureWindow
from repro.simnet.topology import NetworkMap


def packet(time_us):
    segment = TCPSegment(src_port=1000, dst_port=2404, seq=0, flags=SYN)
    return CapturedPacket.build(time_us, MacAddress(1), MacAddress(2),
                                IPv4Address(1), IPv4Address(2), segment)


class TestCaptureWindow:
    def test_contains(self):
        window = CaptureWindow(start_us=10_000_000, end_us=20_000_000)
        assert window.contains(10_000_000)
        assert window.contains(19_999_999)
        assert not window.contains(20_000_000)
        assert not window.contains(9_999_999)

    def test_duration(self):
        window = CaptureWindow(start_us=1_000_000, end_us=4_000_000)
        assert window.duration_us == 3_000_000
        assert window.duration == 3.0

    def test_from_seconds(self):
        window = CaptureWindow.from_seconds(10.0, 20.0, label="Y1")
        assert window.start_us == 10_000_000
        assert window.end_us == 20_000_000
        assert window.start == 10.0 and window.end == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CaptureWindow(start_us=5_000_000, end_us=5_000_000)
        with pytest.raises(TypeError):
            CaptureWindow(start_us=5.0, end_us=6.0)


class TestCaptureTap:
    def test_no_windows_records_everything(self):
        tap = CaptureTap()
        tap.observe(packet(1_000_000))
        tap.observe(packet(10**12))
        assert len(tap.packets) == 2

    def test_windows_filter(self):
        tap = CaptureTap(windows=(
            CaptureWindow(10_000_000, 20_000_000),
            CaptureWindow(30_000_000, 40_000_000)))
        for t in (5, 15, 25, 35, 45):
            tap.observe(packet(t * 1_000_000))
        assert [p.time_us for p in tap.packets] \
            == [15_000_000, 35_000_000]
        assert tap.dropped == 3

    def test_window_packets(self):
        first = CaptureWindow(10_000_000, 20_000_000)
        tap = CaptureTap(windows=(first,
                                  CaptureWindow(30_000_000, 40_000_000)))
        tap.observe(packet(15_000_000))
        tap.observe(packet(35_000_000))
        assert len(tap.window_packets(first)) == 1

    def test_total_duration(self):
        tap = CaptureTap(windows=(CaptureWindow(0, 5_000_000),
                                  CaptureWindow(10_000_000, 12_000_000)))
        assert tap.total_duration == 7.0

    def test_pcap_export(self, tmp_path):
        import io
        from repro.netstack.pcap import PcapReader
        tap = CaptureTap()
        tap.observe(packet(3_000_000))
        buffer = io.BytesIO()
        assert tap.to_pcap(buffer) == 1
        buffer.seek(0)
        assert len(list(PcapReader(buffer))) == 1


class TestBehaviors:
    def make_point(self, ioa=1):
        return PointConfig(ioa=ioa, type_id=TypeID.M_ME_NC_1, symbol="P")

    def test_duplicate_ioa_rejected(self):
        with pytest.raises(ValueError):
            OutstationBehavior(name="O1", substation="S1",
                               outstation_type=OutstationType.IDEAL,
                               points=[self.make_point(1),
                                       self.make_point(1)])

    def test_reject_type_requires_mode(self):
        with pytest.raises(ValueError):
            OutstationBehavior(
                name="O1", substation="S1",
                outstation_type=OutstationType.BACKUP_REJECTS)

    def test_sends_i_frames(self):
        primary = OutstationBehavior(
            name="O1", substation="S1",
            outstation_type=OutstationType.IDEAL,
            points=[self.make_point()])
        backup = OutstationBehavior(
            name="O2", substation="S1",
            outstation_type=OutstationType.BACKUP_U_ONLY)
        assert primary.sends_i_frames
        assert not backup.sends_i_frames

    def test_point_validation(self):
        with pytest.raises(ValueError):
            PointConfig(ioa=0, type_id=TypeID.M_ME_NC_1, symbol="P")
        with pytest.raises(ValueError):
            PointConfig(ioa=1, type_id=TypeID.M_ME_NC_1, symbol="P",
                        period=0.0)

    def test_ioa_count(self):
        behavior = OutstationBehavior(
            name="O1", substation="S1",
            outstation_type=OutstationType.IDEAL,
            points=[self.make_point(i) for i in range(1, 6)])
        assert behavior.ioa_count == 5


class TestNetworkMap:
    def test_unique_addresses(self):
        network = NetworkMap()
        hosts = [network.add_server(f"C{i}") for i in range(1, 5)]
        hosts += [network.add_outstation(f"O{i}") for i in range(1, 30)]
        ips = {host.ip for host in hosts}
        macs = {host.mac for host in hosts}
        assert len(ips) == len(hosts)
        assert len(macs) == len(hosts)

    def test_duplicate_name_rejected(self):
        network = NetworkMap()
        network.add_server("C1")
        with pytest.raises(ValueError):
            network.add_server("C1")

    def test_reverse_lookup(self):
        network = NetworkMap()
        host = network.add_outstation("O7")
        assert network.name_of(host.ip) == "O7"
        assert network.name_of(IPv4Address(0xDEADBEEF)) is None

    def test_address_book(self):
        network = NetworkMap()
        network.add_server("C1")
        network.add_outstation("O1")
        book = network.address_book()
        assert set(book.values()) == {"C1", "O1"}
