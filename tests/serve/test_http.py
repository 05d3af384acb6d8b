"""The HTTP adapter over a real loopback socket."""

import asyncio
import http.client
import json

import pytest

from repro.core import Rect, SWSTConfig
from repro.serve import ServeOptions
from repro.serve.main import serve


def make_config(**overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10,
                  space=Rect(0, 0, 99, 99), page_size=512, n_shards=2)
    params.update(overrides)
    return SWSTConfig(**params)


def serve_and_drive(options, client_fn):
    """Run the server, call ``client_fn(port)`` in a thread, shut down.

    Returns ``(client_result, final_stats)``.
    """
    out = {}

    async def main():
        shutdown = asyncio.Event()

        async def ready(server, app):
            out["client"] = await asyncio.to_thread(client_fn,
                                                    server.port)
            shutdown.set()

        return await serve(options, ready=ready, shutdown=shutdown,
                           echo=lambda line: None)

    stats = asyncio.run(main())
    return out["client"], stats


class Client:
    """A minimal keep-alive HTTP client over one connection."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)

    def request(self, method, path, obj=None, headers=None):
        body = None if obj is None else json.dumps(obj).encode()
        self.conn.request(method, path, body=body,
                          headers=headers or {})
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, dict(response.getheaders())

    def get(self, path, **headers):
        return self.request("GET", path, headers=headers)

    def post(self, path, obj, **headers):
        return self.request("POST", path, obj, headers=headers)

    def close(self):
        self.conn.close()


def options(tmp_path, **overrides):
    params = dict(index=str(tmp_path / "serve.d"),
                  config=make_config(), create=True,
                  executor="serial", capacity=16, max_batch=16)
    params.update(overrides)
    return ServeOptions(**params)


def test_end_to_end_over_a_socket(tmp_path):
    def client(port):
        c = Client(port)
        try:
            exchanges = [
                c.get("/healthz"),
                c.post("/report", {"oid": 1, "x": 10, "y": 20, "t": 0}),
                c.post("/extend",
                       {"reports": [[2, 5, 5, 0], [3, 30, 30, 1]]}),
                c.get("/query?area=0,0,99,99&t_lo=0&t_hi=1"),
                c.post("/count", {"area": [0, 0, 99, 99],
                                  "t_lo": 0, "t_hi": 1}),
                c.post("/knn", {"x": 10, "y": 20, "k": 1,
                                "t_lo": 0, "t_hi": 1}),
                c.post("/slide", {"now": 5}),
                c.post("/close", {"oid": 1, "t": 6}),
                c.post("/save", {}),
                c.get("/stats"),
            ]
            return exchanges
        finally:
            c.close()

    exchanges, stats = serve_and_drive(options(tmp_path), client)
    statuses = [status for status, _, _ in exchanges]
    assert statuses == [200] * len(statuses)
    query_payload = exchanges[3][1]
    assert {e[0] for e in query_payload["entries"]} == {1, 2, 3}
    assert exchanges[4][1]["count"] == 3
    assert [e[0] for e in exchanges[5][1]["entries"]] == [1]
    stats_payload = exchanges[9][1]
    assert stats_payload["slides"] == 1
    assert stats_payload["ingested_reports"] == 3
    assert stats.saves == 1
    # The same ten exchanges reused one keep-alive connection.
    assert stats.requests_total == 10


def test_slide_is_a_watermark(tmp_path):
    """``/slide`` moves the clock to ``max(clock, now)``: a ``now`` equal
    to the clock or behind it (an ``/extend`` already moved it) answers
    200 with the current clock instead of a server error."""
    def client(port):
        c = Client(port)
        try:
            return [
                c.post("/extend", {"reports": [[1, 5, 5, 0],
                                               [2, 30, 30, 40]]}),
                c.post("/slide", {"now": 40}),
                c.post("/slide", {"now": 10}),
                c.post("/slide", {"now": 45}),
                c.get("/stats"),
            ]
        finally:
            c.close()

    exchanges, _ = serve_and_drive(options(tmp_path), client)
    assert [status for status, _, _ in exchanges] == [200] * 5
    assert exchanges[1][1] == {"ok": True, "now": 40}
    assert exchanges[2][1] == {"ok": True, "now": 40}
    assert exchanges[3][1] == {"ok": True, "now": 45}
    # The stale slide slid nothing.
    assert exchanges[4][1]["slides"] == 2


def test_concurrent_identical_queries_coalesce(tmp_path):
    def client(port):
        seed = Client(port)
        try:
            seed.post("/extend", {"reports": [[i, i * 7 % 100,
                                               i * 13 % 100, i // 8]
                                              for i in range(32)]})
        finally:
            seed.close()

        import concurrent.futures

        def one_query(_):
            c = Client(port)
            try:
                return c.get("/query?area=0,0,99,99&t_lo=0&t_hi=3")
            finally:
                c.close()

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            return list(pool.map(one_query, range(16)))

    exchanges, stats = serve_and_drive(
        options(tmp_path, max_linger=0.01), client)
    payloads = [payload for _, payload, _ in exchanges]
    assert all(status == 200 for status, _, _ in exchanges)
    # Every response is identical to every other (same signature)...
    assert all(p["entries"] == payloads[0]["entries"] for p in payloads)
    # ...and at least one engine call served several requests.
    assert stats.queries == 16
    assert stats.engine_query_calls < 16
    assert stats.coalesced_requests >= 2


def test_malformed_framing_gets_400_and_close(tmp_path):
    def client(port):
        import socket

        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    raw, stats = serve_and_drive(options(tmp_path), client)
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"400 Bad Request" in head
    assert b"Connection: close" in head
    assert json.loads(body)["error"] == "bad_request"
    assert stats.bad_requests == 1


def test_unsupported_body_framing(tmp_path):
    def client(port):
        c = Client(port)
        try:
            status, payload, _ = c.request(
                "POST", "/query", headers={"Transfer-Encoding":
                                           "chunked"})
            return status, payload
        finally:
            c.close()

    (status, payload), _stats = serve_and_drive(options(tmp_path),
                                                client)
    assert status == 400
    assert "chunked" in payload["detail"]


def test_startup_failure_unwinds_cleanly(tmp_path):
    """Opening a nonexistent directory fails after the executor is
    resolved; the ExitStack must close everything it acquired."""
    from repro.engine import EngineError

    bad = options(tmp_path, create=False,
                  index=str(tmp_path / "missing.d"))

    async def main():
        await serve(bad, echo=lambda line: None)

    with pytest.raises(EngineError, match="manifest"):
        asyncio.run(main())


def test_port_in_use_unwinds_engine(tmp_path):
    """A bind failure after the engine opened must close the engine so
    the directory can be served again immediately."""
    import socket

    from repro.engine import SerialExecutor, ShardedEngine

    path = str(tmp_path / "serve.d")
    with ShardedEngine(make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.save()

    squatter = socket.socket()
    squatter.bind(("127.0.0.1", 0))
    squatter.listen(1)
    port = squatter.getsockname()[1]
    try:
        first = options(tmp_path, create=False, port=port)

        async def main():
            await serve(first, echo=lambda line: None)

        # The engine had already opened when the bind failed; the
        # ExitStack unwinds it (a leak would trip CI's
        # -W error::ResourceWarning on the shard files).
        with pytest.raises(OSError):
            asyncio.run(main())
    finally:
        squatter.close()

    def client(port):
        c = Client(port)
        try:
            return c.get("/healthz")
        finally:
            c.close()

    (status, payload, _), _stats = serve_and_drive(
        options(tmp_path, create=False), client)
    assert status == 200
    assert payload["ok"] is True
