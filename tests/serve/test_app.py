"""The serve application: routing, sockets, lifecycle.

Two layers: ``ServeApp.respond`` is pure (request in, bytes out), so
most routing is pinned synchronously against a hand-fed hub; the
end-to-end class then runs the full ``serve_until`` stack — monitor
thread, hub, history store, asyncio server on a real ephemeral port —
and speaks actual HTTP and WebSocket to it.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.pcap import PcapRecord
from repro.serve import (ENDPOINTS, HistoryStore, ServeApp,
                         SnapshotHub, serve_until)
from repro.serve.wire import (OP_CLOSE, OP_PING, OP_PONG, OP_TEXT,
                              TEST_MASK_KEY, HttpRequest,
                              client_handshake, close_frame,
                              encode_frame, read_frame,
                              websocket_accept)
from repro.stream import (FleetSnapshot, LinkSnapshot, ListSource,
                          OnlineChains, StageCounters, StreamPipeline)


#: A query parameter's value: any string, often an integer's.
QUERY = st.one_of(st.text(), st.integers().map(str))


def get(path: str, query: dict | None = None,
        method: str = "GET") -> HttpRequest:
    return HttpRequest(method=method, target=path, path=path,
                       query=query or {}, headers={})


def parse(response: bytes) -> tuple[int, dict]:
    head, _sep, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body) if body else {}


def link_snapshot(link: str, time_us: int = 1_000_000,
                  packets: int = 3) -> LinkSnapshot:
    return LinkSnapshot(
        link=link, time_us=time_us, packets=packets, events=packets,
        failures=0, late_items=0, order_violations=0,
        reorder_pending=0, reassemblers=0,
        stages={"ingest": StageCounters(received=packets,
                                        emitted=packets)})


def fleet_snapshot(time_us: int = 2_000_000) -> FleetSnapshot:
    links = (link_snapshot("C1-O12", time_us),
             link_snapshot("C2-O3", time_us - 1_000))
    return FleetSnapshot.from_links(
        links, now_us=time_us,
        health={"C1-O12": "live", "C2-O3": "live"}, unrouted=1)


@pytest.fixture()
def served() -> tuple[ServeApp, SnapshotHub, HistoryStore]:
    hub = SnapshotHub()
    history = HistoryStore()
    app = ServeApp(hub, history=history)
    return app, hub, history


class TestRouting:
    def test_index_lists_every_endpoint(self, served):
        app, _hub, _history = served
        status, document = parse(app.respond(get("/")))
        assert status == 200
        assert document["endpoints"] == list(ENDPOINTS)

    def test_non_get_is_405(self, served):
        app, _hub, _history = served
        status, document = parse(app.respond(get("/fleet",
                                                 method="POST")))
        assert status == 405
        assert "POST" in document["error"]

    def test_unknown_route_is_404(self, served):
        app, _hub, _history = served
        status, _document = parse(app.respond(get("/nope")))
        assert status == 404

    def test_fleet_before_first_poll_is_503(self, served):
        app, _hub, _history = served
        status, document = parse(app.respond(get("/fleet")))
        assert status == 503
        assert "no snapshot" in document["error"]

    def test_fleet_serves_the_shared_bytes(self, served):
        app, hub, _history = served
        hub.publish(fleet_snapshot())
        responses = [app.respond(get("/fleet")) for _ in range(50)]
        # 50 requests, still exactly one serialization.
        assert hub.serializations == 1
        status, document = parse(responses[0])
        assert status == 200
        assert document["seq"] == 1
        assert document["snapshot"]["kind"] == "fleet"
        assert document["snapshot"]["schema"] == 2
        assert all(response == responses[0]
                   for response in responses)

    def test_links_union_of_live_and_history(self, served):
        app, hub, history = served
        history.record(fleet_snapshot())  # C1-O12, C2-O3 recorded
        hub.publish(link_snapshot("C9-O9", 3_000_000))  # live only
        status, document = parse(app.respond(get("/links")))
        assert status == 200
        assert document["links"] == ["C1-O12", "C2-O3", "C9-O9"]

    def test_link_latest_and_unknown(self, served):
        app, hub, _history = served
        hub.publish(fleet_snapshot())
        status, document = parse(
            app.respond(get("/links/C1-O12")))
        assert status == 200
        assert document == link_snapshot("C1-O12",
                                         2_000_000).to_json()
        status, _document = parse(app.respond(get("/links/ghost")))
        assert status == 404

    def test_link_history_endpoint(self, served):
        app, _hub, history = served
        for poll in range(3):
            history.record(fleet_snapshot(2_000_000
                                          + poll * 1_000_000))
        status, document = parse(app.respond(
            get("/links/C1-O12/history",
                {"since_us": "3000000", "limit": "1"})))
        assert status == 200
        assert document["link"] == "C1-O12"
        assert document["count"] == 1
        assert document["polls"][0]["poll_seq"] == 3
        assert document["polls"][0]["schema"] == 2

    def test_history_bad_query_is_400(self, served):
        app, _hub, _history = served
        status, document = parse(app.respond(
            get("/links/C1-O12/history", {"since_us": "yesterday"})))
        assert status == 400
        assert "since_us" in document["error"]

    @pytest.mark.parametrize("path, name", [
        ("/fleet/at", "time_us"),
        ("/links/C1-O12/history", "since_us"),
        ("/links/C1-O12/history", "until_us"),
        ("/links/C1-O12/history", "limit")])
    @pytest.mark.parametrize("value", [
        "99999999999999999999", "-99999999999999999999",
        str(1 << 63)])
    def test_out_of_range_integer_is_400(self, served, path, name,
                                         value):
        """Past sqlite's signed 64-bit INTEGER: a 400, not an
        ``OverflowError`` that drops the connection unanswered."""
        app, _hub, history = served
        history.record(fleet_snapshot())
        status, document = parse(app.respond(get(path, {name: value})))
        assert status == 400
        assert name in document["error"]

    def test_int64_bounds_are_accepted(self, served):
        app, _hub, history = served
        history.record(fleet_snapshot())
        for value in (str((1 << 63) - 1), str(-(1 << 63))):
            status, _document = parse(app.respond(
                get("/links/C1-O12/history", {"until_us": value})))
            assert status == 200

    def test_negative_limit_is_400(self, served):
        """sqlite reads ``LIMIT -1`` as no limit at all."""
        app, _hub, history = served
        for poll in range(3):
            history.record(fleet_snapshot(2_000_000
                                          + poll * 1_000_000))
        status, document = parse(app.respond(
            get("/links/C1-O12/history", {"limit": "-1"})))
        assert status == 400
        assert "limit" in document["error"]
        status, document = parse(app.respond(
            get("/links/C1-O12/history", {"limit": "0"})))
        assert status == 200
        assert document["count"] == 0

    @settings(max_examples=200, deadline=None)
    @given(time_us=QUERY, since_us=QUERY, until_us=QUERY, limit=QUERY)
    def test_any_query_string_is_answered(self, time_us, since_us,
                                          until_us, limit):
        """Whatever the query integers, ``respond`` answers."""
        history = HistoryStore()
        history.record(fleet_snapshot())
        app = ServeApp(SnapshotHub(), history=history)
        responses = [
            app.respond(get("/fleet/at", {"time_us": time_us})),
            app.respond(get("/links/C1-O12/history", {
                "since_us": since_us, "until_us": until_us,
                "limit": limit}))]
        for response in responses:
            assert parse(response)[0] in (200, 400, 404)
        history.close()

    def test_history_unknown_link_is_404(self, served):
        app, _hub, history = served
        history.record(fleet_snapshot())
        status, _document = parse(app.respond(
            get("/links/ghost/history")))
        assert status == 404

    def test_fleet_at_time_travel(self, served):
        app, _hub, history = served
        history.record(fleet_snapshot(2_000_000))
        history.record(fleet_snapshot(9_000_000))
        status, document = parse(app.respond(
            get("/fleet/at", {"time_us": "5000000"})))
        assert status == 200
        assert document["poll_seq"] == 1
        assert document["time_us"] == 2_000_000
        status, _document = parse(app.respond(
            get("/fleet/at", {"time_us": "1"})))
        assert status == 404
        status, document = parse(app.respond(get("/fleet/at")))
        assert status == 400
        assert "required" in document["error"]

    def test_history_endpoints_404_without_store(self):
        app = ServeApp(SnapshotHub())
        status, document = parse(app.respond(
            get("/fleet/at", {"time_us": "1"})))
        assert status == 404
        assert "--history" in document["error"]
        status, document = parse(app.respond(
            get("/links/C1-O12/history")))
        assert status == 404
        assert "--history" in document["error"]

    def test_healthz_counters(self, served):
        app, hub, history = served
        hub.publish(fleet_snapshot())
        history.record(fleet_snapshot())
        status, document = parse(app.respond(get("/healthz")))
        assert status == 200
        assert document["status"] == "serving"
        assert document["polls"] == 1
        assert document["history_polls"] == 1
        assert document["ws_accepted"] == 0
        # No runner wired in this shape: no liveness keys.
        assert "monitor_alive" not in document


class TestEndToEnd:
    """The whole stack on a real socket, driven by asyncio clients."""

    def _target(self, y1_capture) -> StreamPipeline:
        records = [PcapRecord(time_us=packet.time_us,
                              data=packet.encode())
                   for packet in y1_capture.packets]
        return StreamPipeline(ListSource(records),
                              names=y1_capture.host_names(),
                              analyzers=[OnlineChains()], link="y1")

    async def _http_get(self, port: int, target: str) -> bytes:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port)
        writer.write((f"GET {target} HTTP/1.1\r\n"
                      f"Host: 127.0.0.1:{port}\r\n\r\n"
                      ).encode("latin-1"))
        await writer.drain()
        response = await reader.read()
        writer.close()
        await writer.wait_closed()
        return response

    async def _stack(self, y1_capture):
        stop = asyncio.Event()
        listening = asyncio.Event()
        bound: dict = {}

        def on_listening(host: str, port: int) -> None:
            bound["port"] = port
            listening.set()

        history = HistoryStore()
        server = asyncio.ensure_future(serve_until(
            self._target(y1_capture), stop, port=0,
            history=history, interval_s=0.01, poll_sleep_s=0.001,
            on_listening=on_listening))
        await asyncio.wait_for(listening.wait(), timeout=30)
        port = bound["port"]

        async def fleet_ready() -> dict:
            for _attempt in range(1000):
                status, document = parse(
                    await self._http_get(port, "/fleet"))
                if status == 200:
                    return document
                await asyncio.sleep(0.01)
            raise TimeoutError("no snapshot within the deadline")

        results: dict = {"port": port}
        try:
            results["envelope"] = await fleet_ready()
            results["healthz"] = parse(
                await self._http_get(port, "/healthz"))
            results["links"] = parse(
                await self._http_get(port, "/links"))
            name = results["links"][1]["links"][0]
            results["history"] = parse(await self._http_get(
                port, f"/links/{name}/history"))
            results["missing"] = parse(
                await self._http_get(port, "/nope"))
            results["ws"] = await self._websocket_exchange(port)
        finally:
            stop.set()
            results["polls"] = await asyncio.wait_for(server,
                                                     timeout=60)
            history.close()
        return results

    async def _websocket_exchange(self, port: int) -> dict:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port)
        key = "c2VydmUtdGVzdC1rZXk="
        writer.write(client_handshake("127.0.0.1", port, key=key))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"101 Switching Protocols" in head
        accept = websocket_accept(key).encode("latin-1")
        assert b"Sec-WebSocket-Accept: " + accept in head
        opcode, payload = await asyncio.wait_for(read_frame(reader),
                                                 timeout=30)
        assert opcode == OP_TEXT
        envelope = json.loads(payload.decode("utf-8"))
        # Liveness: a masked ping comes back as a pong.
        writer.write(encode_frame(b"hb", opcode=OP_PING,
                                  mask_key=TEST_MASK_KEY))
        await writer.drain()
        while True:
            opcode, payload = await asyncio.wait_for(
                read_frame(reader), timeout=30)
            if opcode == OP_PONG:
                assert payload == b"hb"
                break
            assert opcode == OP_TEXT  # later polls may interleave
        writer.write(close_frame(mask_key=TEST_MASK_KEY))
        await writer.drain()
        while True:
            frame = await asyncio.wait_for(read_frame(reader),
                                           timeout=30)
            if frame is None or frame[0] == OP_CLOSE:
                break
        writer.close()
        await writer.wait_closed()
        return envelope

    def test_full_stack_over_real_sockets(self, y1_capture):
        results = asyncio.run(self._stack(y1_capture))

        envelope = results["envelope"]
        assert envelope["snapshot"]["schema"] == 2
        assert envelope["snapshot"]["packets"] > 0

        status, health = results["healthz"]
        assert status == 200
        assert health["status"] == "serving"
        assert health["polls"] >= 1
        assert health["monitor_failed"] is False

        status, links = results["links"]
        assert status == 200
        assert links["links"]  # discovered from the live snapshot

        status, history = results["history"]
        assert status == 200
        assert history["count"] >= 1
        assert history["polls"][0]["schema"] == 2

        status, _body = results["missing"]
        assert status == 404

        ws_envelope = results["ws"]
        assert ws_envelope["snapshot"]["schema"] == 2
        assert ws_envelope["seq"] >= 1

        assert results["polls"] >= 1

    def test_ws_without_upgrade_is_426(self, y1_capture):
        async def main():
            stop = asyncio.Event()
            listening = asyncio.Event()
            bound: dict = {}

            def on_listening(host: str, port: int) -> None:
                bound["port"] = port
                listening.set()

            server = asyncio.ensure_future(serve_until(
                self._target(y1_capture), stop, port=0,
                interval_s=0.01, poll_sleep_s=0.001,
                on_listening=on_listening))
            await asyncio.wait_for(listening.wait(), timeout=30)
            try:
                response = await self._http_get(bound["port"], "/ws")
            finally:
                stop.set()
                await asyncio.wait_for(server, timeout=60)
            return response

        status, document = parse(asyncio.run(main()))
        assert status == 426
        assert "upgrade" in document["error"].lower()
