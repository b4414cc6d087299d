"""The ``repro serve`` application: routes, sockets, lifecycle.

One asyncio server speaks both protocols on one port:

===============================  ====================================
``GET /``                        endpoint index
``GET /healthz``                 liveness + poll counters
``GET /fleet``                   latest snapshot envelope (shared
                                 serialized bytes — no per-request
                                 serialization)
``GET /fleet/at?time_us=T``      time travel: the fleet document
                                 served at T, from the history store
``GET /links``                   link names (live ∪ recorded)
``GET /links/<name>``            latest snapshot of one link (the
                                 same bytes ``/fleet`` carries)
``GET /links/<name>/history``    per-link poll history
                                 (``since_us``/``until_us``/``limit``)
``GET /ws``                      WebSocket upgrade: one snapshot
                                 envelope frame per poll, conflated
                                 for slow consumers
===============================  ====================================

The concurrency contract: exactly one monitor thread
(:class:`~repro.serve.broadcast.MonitorRunner`) steps the pipeline
and publishes; the asyncio side only reads — shared payload bytes
from the hub, lock-guarded queries from the history store.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Mapping, Optional

from ..stream.monitor import MonitorTarget, Snapshot
from .broadcast import MonitorRunner, SnapshotHub
from .history import HistoryStore
from .wire import (OP_CLOSE, OP_PING, OP_PONG, HttpRequest, WireError,
                   close_frame, dump_document, encode_frame,
                   error_response, handshake_response, http_response,
                   json_response, read_frame, read_request)

#: The index document served at ``/`` (and the docs' source of truth).
ENDPOINTS = (
    "/", "/healthz", "/fleet", "/fleet/at?time_us=T", "/links",
    "/links/<name>", "/links/<name>/history?since_us=S&until_us=U"
    "&limit=N", "/ws")


#: The range of a sqlite INTEGER, which every query integer is bound
#: to.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _int_query(request: HttpRequest, name: str,
               minimum: int = _INT64_MIN) -> Optional[int]:
    raw = request.query.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
        if minimum <= value <= _INT64_MAX:
            return value
    except ValueError:
        pass
    raise WireError(f"query parameter {name!r} must be an integer "
                    f"in [{minimum}, {_INT64_MAX}], got {raw!r}")


class ServeApp:
    """Routes requests against a hub + optional history store."""

    def __init__(self, hub: SnapshotHub,
                 history: Optional[HistoryStore] = None,
                 runner: Optional[MonitorRunner] = None):
        self.hub = hub
        self.history = history
        self.runner = runner
        #: Total WebSocket connections ever accepted (for /healthz).
        self.ws_accepted = 0

    # -- connection entry point ---------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One client connection: a single HTTP exchange or a WS."""
        try:
            try:
                request = await read_request(reader)
            except WireError as exc:
                writer.write(error_response(400, str(exc)))
                await writer.drain()
                return
            if request is None:
                return
            if request.path == "/ws":
                await self._websocket(request, reader, writer)
                return
            writer.write(self.respond(request))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- HTTP ---------------------------------------------------------

    def respond(self, request: HttpRequest) -> bytes:
        """The full response bytes for one HTTP request (pure)."""
        if request.method != "GET":
            return error_response(
                405, f"method {request.method} not allowed")
        try:
            return self._route(request)
        except WireError as exc:
            return error_response(400, str(exc))

    def _route(self, request: HttpRequest) -> bytes:
        path = request.path
        if path == "/":
            return json_response(200, {
                "service": "repro serve",
                "endpoints": list(ENDPOINTS)})
        if path == "/healthz":
            return json_response(200, self._health_document())
        if path == "/fleet":
            latest = self.hub.latest
            if latest is None:
                return error_response(503, "no snapshot yet")
            # The shared bytes: serialized once at publish time.
            return http_response(200, latest.document)
        if path == "/fleet/at":
            return self._fleet_at(request)
        if path == "/links":
            return json_response(200, {"links": self._link_names()})
        if path.startswith("/links/"):
            rest = path[len("/links/"):]
            name, _slash, tail = rest.partition("/")
            if not tail and name:
                return self._link_latest(name)
            if tail == "history" and name:
                return self._link_history(name, request)
        return error_response(404, f"no route for {path}")

    def _health_document(self) -> Mapping[str, Any]:
        document: dict[str, Any] = {
            "status": "serving",
            "polls": self.hub.seq,
            "ws_accepted": self.ws_accepted,
            "history_polls": (self.history.poll_count()
                              if self.history is not None else 0),
        }
        if self.runner is not None:
            document["monitor_alive"] = self.runner.is_alive()
            document["monitor_failed"] = self.runner.error is not None
        return document

    def _latest_links(self) -> Mapping[str, bytes]:
        """Link name -> document bytes of the latest poll."""
        payload = self.hub.latest
        return payload.links if payload is not None else {}

    def _link_names(self) -> list[str]:
        names = set(self._latest_links())
        if self.history is not None:
            names.update(self.history.link_names())
        return sorted(names)

    def _link_latest(self, name: str) -> bytes:
        document = self._latest_links().get(name)
        if document is None:
            return error_response(404, f"no link named {name!r}")
        # The bytes ``/fleet`` carries for this link, encoded once.
        return http_response(200, document)

    def _link_history(self, name: str,
                      request: HttpRequest) -> bytes:
        if self.history is None:
            return error_response(
                404, "history disabled (serve with --history)")
        since_us = _int_query(request, "since_us")
        if since_us is None:
            since_us = 0
        until_us = _int_query(request, "until_us")
        limit = _int_query(request, "limit", minimum=0)
        polls = self.history.link_history(
            name, since_us=since_us, until_us=until_us, limit=limit)
        if not polls and name not in self._link_names():
            return error_response(404, f"no link named {name!r}")
        return json_response(200, {
            "link": name, "count": len(polls), "polls": polls})

    def _fleet_at(self, request: HttpRequest) -> bytes:
        if self.history is None:
            return error_response(
                404, "history disabled (serve with --history)")
        time_us = _int_query(request, "time_us")
        if time_us is None:
            return error_response(
                400, "query parameter 'time_us' is required")
        body = self.history.fleet_at(time_us)
        if body is None:
            return error_response(
                404, f"no poll at or before time_us={time_us}")
        # The bytes served at record time, spliced from stored rows.
        return http_response(200, body)

    # -- WebSocket ----------------------------------------------------

    async def _websocket(self, request: HttpRequest,
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        if not request.wants_websocket:
            writer.write(error_response(
                426, "GET /ws requires a websocket upgrade"))
            await writer.drain()
            return
        writer.write(handshake_response(request))
        await writer.drain()
        self.ws_accepted += 1
        sender = asyncio.ensure_future(self._ws_stream(writer))
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                opcode, payload = frame
                if opcode == OP_CLOSE:
                    writer.write(close_frame())
                    await writer.drain()
                    break
                if opcode == OP_PING:
                    writer.write(encode_frame(payload,
                                              opcode=OP_PONG))
                    await writer.drain()
        except (WireError, ConnectionError):
            pass  # half-closed or garbled client; just drop it
        finally:
            sender.cancel()
            try:
                await sender
            except (asyncio.CancelledError, ConnectionError):
                pass

    async def _ws_stream(self,
                         writer: asyncio.StreamWriter) -> None:
        """Push the shared broadcast frame for every (kept) poll."""
        async for payload, skipped in self.hub.subscribe():
            if skipped:
                # Per-client, so it cannot ride the shared frame —
                # but it only costs anything when a client lags.
                writer.write(encode_frame(dump_document(
                    {"skipped": skipped})))
            writer.write(payload.ws_frame)
            await writer.drain()
        writer.write(close_frame())
        await writer.drain()


async def serve_until(target: MonitorTarget,
                      stop: asyncio.Event,
                      *,
                      host: str = "127.0.0.1",
                      port: int = 0,
                      history: Optional[HistoryStore] = None,
                      follow: bool = False,
                      interval_s: float = 2.0,
                      max_polls: Optional[int] = None,
                      poll_sleep_s: float = 0.05,
                      on_listening: Optional[Callable[[str, int],
                                                      None]] = None
                      ) -> int:
    """Run the full serving stack until ``stop`` is set.

    Wires the single-writer monitor thread to a hub (+ optional
    history store), serves HTTP/WS on ``host:port`` (port 0 picks a
    free one — ``on_listening(host, port)`` reports the bound
    address), then tears everything down in reverse order.  Returns
    the number of polls the monitor delivered.  A monitor that
    fails stops the server too, and its error is raised (see
    :meth:`MonitorRunner.raise_if_failed`); one that finishes
    cleanly keeps its last snapshot served until ``stop``.
    """
    loop = asyncio.get_running_loop()
    hub = SnapshotHub()
    hub.bind(loop)

    def on_snapshot(snapshot: Snapshot) -> None:
        if history is not None:
            history.record(snapshot)
        hub.publish(snapshot)

    runner = MonitorRunner(target, on_snapshot, follow=follow,
                           interval_s=interval_s,
                           max_polls=max_polls,
                           poll_sleep_s=poll_sleep_s)
    app = ServeApp(hub, history=history, runner=runner)
    server = await asyncio.start_server(app.handle_connection,
                                        host=host, port=port)
    bound = server.sockets[0].getsockname()
    if on_listening is not None:
        on_listening(bound[0], bound[1])
    runner.start()
    joined = loop.run_in_executor(None, runner.join)

    def on_monitor_exit(_joined: asyncio.Future[None]) -> None:
        if runner.error is not None:
            stop.set()

    joined.add_done_callback(on_monitor_exit)
    try:
        await stop.wait()
    finally:
        runner.stop()
        await joined
        hub.close()
        server.close()
        await server.wait_closed()
    runner.raise_if_failed()
    return runner.polls
