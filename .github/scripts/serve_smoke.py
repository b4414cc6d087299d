"""CI smoke: one ``repro serve`` process, one WS client, one poller.

Starts the server on an ephemeral port against a pre-generated
capture, waits for the first poll over plain HTTP, reads one pushed
snapshot envelope over WebSocket, asserts a non-empty history query,
then shuts the server down with SIGINT and requires a clean exit
within the timeout.  Every JSON body read must be canonical — equal
to ``dump_document`` of its own parse — so a served document spliced
from cached fragments with a misordered key or a stray separator
fails here, not only in the tests.

Usage: python .github/scripts/serve_smoke.py <capture.pcap>
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys

from repro.serve.wire import (TEST_MASK_KEY, client_handshake,
                              close_frame, dump_document, read_frame)

SHUTDOWN_TIMEOUT_S = 30


def start_server(capture: str) -> tuple[subprocess.Popen, str, int]:
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", capture,
         "--demux", "--port", "0", "--interval", "0.2",
         "--history", "/tmp/serve-smoke-fleet.db"],
        stdout=subprocess.PIPE, text=True)
    assert process.stdout is not None
    line = process.stdout.readline()
    match = re.search(r"http://([0-9.]+):([0-9]+)", line)
    assert match, f"no listening line, got {line!r}"
    return process, match.group(1), int(match.group(2))


async def http_get(host: str, port: int,
                   path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write((f"GET {path} HTTP/1.1\r\n"
                  f"Host: {host}:{port}\r\n\r\n").encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _sep, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def canonical(what: str, body: bytes) -> dict:
    """Parse one served JSON body, requiring its canonical form."""
    document = json.loads(body)
    assert dump_document(document) == body, \
        f"{what}: served bytes are not canonical: {body[:200]!r}"
    return document


async def drive(host: str, port: int) -> None:
    # The HTTP poller: /fleet turns 200 once the first poll lands.
    status, body = 0, b""
    for _attempt in range(300):
        status, body = await http_get(host, port, "/fleet")
        if status == 200:
            break
        await asyncio.sleep(0.1)
    assert status == 200, f"/fleet never turned 200 (last {status})"
    envelope = canonical("/fleet", body)
    snapshot = envelope["snapshot"]
    assert snapshot["schema"] == 2, snapshot
    assert snapshot["packets"] > 0, snapshot

    # The WebSocket client: one pushed envelope frame.
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(client_handshake(host, port))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert b" 101 " in head.split(b"\r\n", 1)[0], head
    frame = await asyncio.wait_for(read_frame(reader), timeout=30)
    assert frame is not None
    pushed = canonical("pushed frame", frame[1])
    assert pushed["snapshot"]["schema"] == 2, pushed
    assert pushed["seq"] >= 1, pushed
    writer.write(close_frame(mask_key=TEST_MASK_KEY))
    await writer.drain()
    writer.close()
    await writer.wait_closed()

    # A non-empty history window for a served link.
    status, body = await http_get(host, port, "/links")
    links = canonical("/links", body)["links"]
    assert links, "no links discovered"
    status, body = await http_get(host, port, f"/links/{links[0]}")
    assert status == 200, (status, body)
    assert canonical(f"/links/{links[0]}", body)["link"] == links[0]
    status, body = await http_get(host, port,
                                  f"/links/{links[0]}/history")
    assert status == 200, (status, body)
    history = canonical(f"/links/{links[0]}/history", body)
    assert history["count"] >= 1, history

    # The time-travel rebuild at the served snapshot's own clock.
    status, body = await http_get(
        host, port, f"/fleet/at?time_us={snapshot['time_us']}")
    assert status == 200, (status, body)
    rebuilt = canonical("/fleet/at", body)
    assert rebuilt["time_us"] == snapshot["time_us"], rebuilt["time_us"]
    print(f"serve smoke ok: {snapshot['packets']} packets, "
          f"{len(links)} links, {history['count']} history poll(s)")


def main() -> int:
    process, host, port = start_server(sys.argv[1])
    try:
        asyncio.run(drive(host, port))
    finally:
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=SHUTDOWN_TIMEOUT_S)
    assert code == 0, f"server exited with {code}"
    assert process.stdout is not None
    tail = process.stdout.read()
    assert "served" in tail, f"no shutdown summary, got {tail!r}"
    print(f"clean shutdown: {tail.strip()!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
