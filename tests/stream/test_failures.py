"""Parse failures go to the analyzers; nothing keeps their stacks.

A running pipeline keeps no failure record: it counts every failed
frame and hands it to each analyzer's ``on_failure``, at decode time
and in arrival order. The batch drain's collector keeps them all. A
stored parse error carries no traceback, so neither a kept failure
nor profile inference (which tries candidate profiles and drops the
ones that fail) leaves frames behind in reference cycles.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.analysis import PacketCapture, extract_apdus
from repro.datasets import CaptureConfig, generate_capture
from repro.protocols import get_protocol
from repro.scenarios import all_scenarios, build_scenario
from repro.stream import (FleetSupervisor, LinkDemux, ListSource,
                          MonitorPipelineFactory, StreamAnalyzer,
                          StreamPipeline)

from ..analysis import kernel_reference as reference
from ..protocols.modbus_capture import hostile_capture


class FailureRecorder(StreamAnalyzer):
    name = "failures"

    def __init__(self):
        self.failures = []

    def on_failure(self, time_us, src, dst, result):
        self.failures.append((time_us, src, dst, result))


def flipped(packets, every: int = 7):
    """``packets`` with the length octet of every ``every``-th payload
    flipped (the TCP headers still decode)."""
    result = []
    for index, packet in enumerate(packets):
        if packet.payload and index % every == 0:
            payload = bytearray(packet.payload)
            payload[1 % len(payload)] ^= 0x04
            packet = replace(packet, tcp=replace(
                packet.tcp, payload=bytes(payload)))
        result.append(packet)
    return result


def fields(failures):
    return [(time_us, src, dst, result.raw, type(result.error),
             str(result.error))
            for time_us, src, dst, result in failures]


class TestOnFailure:
    def test_every_failure_reaches_the_analyzers_in_arrival_order(
            self, y1_capture):
        packets = flipped(y1_capture.packets)
        names = y1_capture.host_names()
        recorder = FailureRecorder()
        # The default reorder window: failures skip the reorder
        # buffer, so they arrive in decode order whatever the window.
        pipeline = StreamPipeline(ListSource(packets), names=names,
                                  analyzers=[recorder])
        pipeline.run_until_exhausted()
        looped = reference.extract_apdus(
            PacketCapture(packets=packets, names=names))
        assert looped.failures
        assert fields(recorder.failures) == fields(looped.failures)
        assert (pipeline.failure_count
                == pipeline.counters["decode"].errors
                == len(looped.failures))
        assert pipeline.link_snapshot().failures == len(looped.failures)
        assert not hasattr(pipeline, "failures")


SCENARIOS = [registered.spec.name for registered in all_scenarios()]

#: The captures with frames that fail to parse.
DAMAGED = ("flipped", "hostile-modbus")


@pytest.fixture(scope="module")
def captures(y2_capture):
    """Each capture the collector is checked on, with its protocol."""
    clean = generate_capture(1, CaptureConfig(time_scale=0.01))
    result = {
        "clean": (clean, "iec104"),
        "flipped": (PacketCapture(packets=flipped(clean.packets),
                                  names=clean.host_names()), "iec104"),
        "y2": (y2_capture, "iec104"),
        "hostile-modbus": (hostile_capture(0x80), "modbus")}
    for name in SCENARIOS:
        run = build_scenario(name, 0.25)
        result[name] = (PacketCapture(packets=list(run.packets),
                                      names=run.names),
                        run.truth.protocol)
    return result


@pytest.mark.parametrize("name", ["clean", "flipped", "y2",
                                  "hostile-modbus", *SCENARIOS])
def test_no_cyclic_garbage(captures, name):
    """Extraction and a demuxed fleet leave nothing for the cyclic
    collector. Every result stays alive until the count: a demux and
    its link sources reference each other, and freeing that cycle is
    not a leak."""
    capture, protocol = captures[name]
    names = capture.host_names()
    gc.collect()
    gc.disable()
    try:
        extraction = extract_apdus(capture,
                                   protocol=get_protocol(protocol))
        fleet = FleetSupervisor(
            demux=LinkDemux(ListSource(capture.packets), names=names),
            pipeline_factory=MonitorPipelineFactory(names=names,
                                                    protocol=protocol))
        fleet.run_until_exhausted()
        snapshot = fleet.snapshot()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert extraction.events and snapshot.links
    assert snapshot.failures == len(extraction.failures)
    assert bool(extraction.failures) == (name in DAMAGED)
    assert garbage == 0
