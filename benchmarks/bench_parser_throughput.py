"""Microbenchmarks: parser and pipeline throughput.

Library-release numbers: how fast the strict parser, the tolerant
parser (with its candidate-profile fallback) and the end-to-end packet
pipeline chew through traffic.
"""

from _common import record, run_once

from repro.analysis import extract_apdus, render_table
from repro.iec104 import (IFrame, ShortFloat, StrictParser,
                          TolerantParser, TypeID, measurement)
from repro.iec104.profiles import LEGACY_COT_PROFILE


def _frames(profile=None, count=2000):
    frames = []
    for index in range(count):
        asdu = measurement(TypeID.M_ME_NC_1, 2001 + index % 20,
                           ShortFloat(value=50.0 + index % 10))
        frame = IFrame(asdu=asdu, send_seq=index % (1 << 15))
        frames.append(frame.encode(profile) if profile
                      else frame.encode())
    return frames


def test_strict_parser_throughput(benchmark):
    frames = _frames()

    def parse():
        parser = StrictParser()
        for frame in frames:
            parser.parse_frame(frame)
        return parser.stats.valid

    valid = benchmark(parse)
    assert valid == len(frames)


def test_tolerant_parser_throughput_standard(benchmark):
    frames = _frames()

    def parse():
        parser = TolerantParser()
        for frame in frames:
            parser.parse_frame(frame, link_key="x")
        return parser.stats.valid

    assert benchmark(parse) == len(frames)


def test_tolerant_parser_throughput_legacy(benchmark):
    """Legacy links pay one inference, then ride the cached profile."""
    frames = _frames(profile=LEGACY_COT_PROFILE)

    def parse():
        parser = TolerantParser()
        for frame in frames:
            parser.parse_frame(frame, link_key="O53")
        return parser.stats.valid

    assert benchmark(parse) == len(frames)


def test_pipeline_throughput(benchmark, y1_capture):
    """Packets -> APDU events, the full analysis front-end."""
    from repro.analysis import PacketCapture
    subset = PacketCapture(packets=y1_capture.packets[:20000],
                           names=y1_capture.host_names())

    def extract():
        return len(extract_apdus(subset).events)

    events = run_once(benchmark, extract)
    record("parser_throughput",
           render_table(["Quantity", "Value"],
                        [("packets fed", len(subset.packets)),
                         ("APDU events extracted", events)],
                        title="Microbenchmark — pipeline front-end "
                              "(see pytest-benchmark table for rates)"))
    assert events > 0
