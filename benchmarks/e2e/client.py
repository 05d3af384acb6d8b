"""The load generator: keep-alive HTTP/1.1 over plain sockets.

One process, at most two connections, one thread per connection.  Every
request is encoded to bytes before a phase starts, so the timed path is
``sendall`` + read-the-response.  Answers are kept raw and checked
against the model after the phase, never inside it.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

from .inputs import Op, Query, Rect, Refresh
from .spec import CLIENT_TIMEOUT_S


class RequestFailed(Exception):
    """No complete response arrived (timeout, reset, bad framing)."""


class Connection:
    """One keep-alive connection to the server under test."""

    def __init__(self, port: int,
                 timeout: float = CLIENT_TIMEOUT_S) -> None:
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.connect()

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one encoded request; return ``(status, body)``."""
        try:
            assert self.sock is not None
            self.sock.sendall(raw)
            buf = b""
            while True:
                end = buf.find(b"\r\n\r\n")
                if end >= 0:
                    break
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise RequestFailed("connection closed")
                buf += chunk
            head = buf[:end].lower()
            at = head.find(b"content-length:")
            stop = head.find(b"\r\n", at)
            length = int(head[at + 15:stop if stop >= 0 else None])
            body = buf[end + 4:]
            while len(body) < length:
                chunk = self.sock.recv(max(65536, length - len(body)))
                if not chunk:
                    raise RequestFailed("connection closed mid-body")
                body += chunk
            return int(buf[9:12]), body
        except (OSError, ValueError) as exc:
            # The stream position is unknown now; start a fresh one so
            # the next request is not poisoned by this one's leftovers.
            try:
                self.connect()
            except OSError:
                self.close()
            raise RequestFailed(repr(exc)) from exc

    def get_json(self, target: str) -> dict:
        status, body = self.request(encode_get(target))
        if status != 200:
            raise RequestFailed(f"{target}: HTTP {status}")
        return json.loads(body)

    def post_json(self, path: str, payload: dict) -> dict:
        status, body = self.request(encode_post(path, payload))
        if status != 200:
            raise RequestFailed(f"{path}: HTTP {status} {body[:200]!r}")
        return json.loads(body)


def encode_get(target: str) -> bytes:
    return (f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").encode()


def encode_post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def encode_op(op: Op) -> bytes:
    if op.kind == "extend":
        return encode_post("/extend",
                           {"reports": [list(r) for r in op.reports]})
    return encode_post("/slide", {"now": op.now})


def encode_query(query: Query) -> bytes:
    return encode_get(query.target())


def encode_refresh(refresh: Refresh, tiles: list[Rect]) -> bytes:
    return encode_post("/query/batch",
                       {"areas": [list(t) for t in tiles],
                        "t_lo": refresh.t, "t_hi": refresh.t})


@dataclass
class Tally:
    """What one phase of requests came to."""

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    client_cpu: float = 0.0
    #: Seconds per request (closed loop: send -> last byte; open loop:
    #: due time -> last byte).
    latencies: list[float] = field(default_factory=list)
    #: Sum of send -> last byte over all answered requests, seconds.
    busy: float = 0.0
    resp_bytes: int = 0
    #: index -> raw response body, for the indices the oracle samples.
    kept: dict[int, bytes] = field(default_factory=dict)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies.extend(other.latencies)
        self.busy += other.busy
        self.resp_bytes += other.resp_bytes
        self.kept.update(other.kept)


def timed(conn: Connection, raw: bytes, tally: Tally,
          since: float | None = None) -> bytes | None:
    """One request into ``tally``; latency runs from ``since`` (a due
    time) when given, else from the send.  Returns the body on a 200."""
    started = time.perf_counter()
    tally.attempted += 1
    try:
        status, body = conn.request(raw)
    except RequestFailed:
        tally.failed += 1
        return None
    done = time.perf_counter()
    tally.latencies.append(done - (started if since is None else since))
    tally.busy += done - started
    tally.resp_bytes += len(body)
    if status != 200:
        tally.failed += 1
        return None
    return body


def run_writes(conn: Connection, ops: list[Op],
               encoded: list[bytes]) -> tuple[Tally, Tally]:
    """Closed loop, one connection: the build.  Returns the /extend
    tally (acks) and the /slide tally; a wrong ``accepted`` count in an
    ack is a failure (a lost acknowledged report)."""
    extends, slides = Tally(), Tally()
    bodies: list[tuple[int, bytes]] = []
    cpu = time.process_time()
    started = time.perf_counter()
    for op, raw in zip(ops, encoded, strict=True):
        if op.kind == "extend":
            body = timed(conn, raw, extends)
            if body is not None:
                bodies.append((len(op.reports), body))
        else:
            timed(conn, raw, slides)
    extends.elapsed = slides.elapsed = time.perf_counter() - started
    extends.client_cpu = time.process_time() - cpu
    for expected, body in bodies:
        if json.loads(body).get("accepted") != expected:
            extends.failed += 1
    return extends, slides


def run_reads(conns: list[Connection], encoded: list[bytes],
              keep_every: int) -> Tally:
    """Closed loop: request ``i`` goes out on connection ``i mod n``,
    each connection strictly one request at a time."""
    n = len(conns)
    parts = [Tally() for _ in conns]
    barrier = threading.Barrier(n + 1)

    def worker(k: int) -> None:
        tally, conn = parts[k], conns[k]
        barrier.wait()
        for i in range(k, len(encoded), n):
            body = timed(conn, encoded[i], tally)
            if body is not None and i % keep_every == 0:
                tally.kept[i] = body

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(n)]
    for thread in threads:
        thread.start()
    cpu = time.process_time()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    total = Tally(elapsed=time.perf_counter() - started,
                  client_cpu=time.process_time() - cpu)
    for part in parts:
        total.merge(part)
    return total


@dataclass
class StepResult:
    """One ladder step of the open loop."""

    refreshes: Tally
    extends: Tally
    #: Refreshes that were due before the step ended but never sent.
    queued_at_end: int
    #: Send lateness (s) of requests the generator itself delayed: the
    #: connection was idle at the due time.
    late: list[float]
    #: index -> (write ops acked before the send, write ops sent before
    #: the answer arrived): the cuts the oracle may match the answer at.
    cuts: dict[int, tuple[int, int]]


class WriteProgress:
    """How far the gateway has got, read by the dashboard thread."""

    def __init__(self) -> None:
        self.sent = 0
        self.acked = 0


def run_step(gateway: Connection, dashboard: Connection,
             ops: list[Op], ops_raw: list[bytes],
             refreshes: list[Refresh], refreshes_raw: list[bytes],
             seconds: float, keep_every: int,
             progress: WriteProgress) -> StepResult:
    """Open loop: both threads send on their schedule, late or not, and
    time every request from when it was *due*.  The gateway always
    finishes its ops (the stream must stay whole); refreshes still
    unsent when the step ends are dropped and counted."""
    result = StepResult(Tally(), Tally(), 0, [], {})
    barrier = threading.Barrier(3)
    t0 = [0.0]

    def write_lane() -> None:
        barrier.wait()
        for op, raw in zip(ops, ops_raw, strict=True):
            due = t0[0] + op.due
            _sleep_until(due)
            progress.sent += 1
            tally = result.extends if op.kind == "extend" else Tally()
            timed(gateway, raw, tally, since=due)
            if tally.failed and op.kind != "extend":
                result.extends.failed += 1
            progress.acked += 1

    def read_lane() -> None:
        barrier.wait()
        end = t0[0] + seconds
        for i, (refresh, raw) in enumerate(zip(refreshes, refreshes_raw,
                                               strict=True)):
            due = t0[0] + refresh.due
            now = time.perf_counter()
            if now >= end:
                result.queued_at_end = len(refreshes) - i
                break
            if now < due:
                _sleep_until(due)
                result.late.append(time.perf_counter() - due)
            acked = progress.acked
            body = timed(dashboard, raw, result.refreshes, since=due)
            if body is not None and i % keep_every == 0:
                result.refreshes.kept[i] = body
                result.cuts[i] = (acked, progress.sent)

    threads = [threading.Thread(target=write_lane),
               threading.Thread(target=read_lane)]
    for thread in threads:
        thread.start()
    cpu = time.process_time()
    t0[0] = time.perf_counter() + 0.01
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0[0]
    result.refreshes.elapsed = result.extends.elapsed = elapsed
    result.refreshes.client_cpu = time.process_time() - cpu
    return result


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
