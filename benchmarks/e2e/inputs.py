"""Seeded inputs: the stream, the query lists, the panel, the schedule.

Everything the server will receive is generated here from ``--seed`` and
encoded to request bytes *before* any timing starts, so the measured
path is send/receive only and two commits can be shown (by
``input_digest``) to have been sent identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.datagen.gstd import GSTDConfig, GSTDGenerator

from .spec import DEPLOYMENT, Sizes, Workload

Report = tuple[int, int, int, int]            # oid, x, y, t
Rect = tuple[int, int, int, int]              # x_lo, y_lo, x_hi, y_hi

#: Paper Table II query mix: spatial extent as a share of the domain,
#: temporal extent as a share of the window.
AREA_SHARES = (0.005, 0.01, 0.04)
INTERVAL_SHARES = (0.0, 0.05, 0.10, 0.15)
SPACE = 10_000


@dataclass(frozen=True)
class Query:
    """One ``GET /query`` and what the oracle needs to check it."""

    area: Rect
    t_lo: int
    t_hi: int

    def target(self) -> str:
        x0, y0, x1, y1 = self.area
        return (f"/query?area={x0},{y0},{x1},{y1}"
                f"&t_lo={self.t_lo}&t_hi={self.t_hi}")


@dataclass(frozen=True)
class Op:
    """One write-lane request: an /extend batch or a /slide."""

    kind: str                 # "extend" | "slide"
    reports: tuple[Report, ...] = ()
    now: int = 0
    #: Open loop only: seconds after phase start this op is due.
    due: float = 0.0


@dataclass(frozen=True)
class Refresh:
    """One dashboard ``POST /query/batch`` (a timeslice over the panel)."""

    t: int
    due: float


@dataclass
class Inputs:
    """All requests of one (workload, seed, sizes) run, in send order."""

    build: list[Op]
    queries: list[Query] = field(default_factory=list)
    probes: list[Query] = field(default_factory=list)
    warmups: list[Query] = field(default_factory=list)
    tiles: list[Rect] = field(default_factory=list)
    #: Open loop: per ladder step, the gateway ops and the refreshes.
    gateway: list[list[Op]] = field(default_factory=list)
    refreshes: list[list[Refresh]] = field(default_factory=list)
    digest: str = ""

    @property
    def build_reports(self) -> int:
        return sum(len(op.reports) for op in self.build)


def make_stream(seed: int, sizes: Sizes) -> list[Report]:
    """The GSTD report stream, as plain tuples in timestamp order."""
    config = GSTDConfig(num_objects=sizes.num_objects,
                        max_time=sizes.stream_max_time(),
                        interval_lo=1, interval_hi=2000, seed=seed)
    return [(r.oid, r.x, r.y, r.t)
            for r in GSTDGenerator(config).stream()]


def write_ops(reports: list[Report], batch: int, last_slide: int = 0,
              hz: float = 0.0) -> list[Op]:
    """Batches of ``batch`` in timestamp order, a /slide whenever stream
    time has advanced by at least L since the last one."""
    slide = DEPLOYMENT["slide"]
    ops: list[Op] = []
    for k, i in enumerate(range(0, len(reports), batch)):
        chunk = tuple(reports[i:i + batch])
        due = k / hz if hz else 0.0
        ops.append(Op("extend", reports=chunk, due=due))
        now = chunk[-1][3]
        if now - last_slide >= slide:
            ops.append(Op("slide", now=now, due=due))
            last_slide = now
    return ops


def _square(rng: random.Random, share: float) -> Rect:
    side = int(share ** 0.5 * SPACE)
    x0 = rng.randrange(0, SPACE - side)
    y0 = rng.randrange(0, SPACE - side)
    return (x0, y0, x0 + side, y0 + side)


def table2_queries(rng: random.Random, n: int, now: int) -> list[Query]:
    """``n`` distinct Table-II queries placed uniformly in the period
    that is queriable at stream time ``now``."""
    window = DEPLOYMENT["window"]
    slide = DEPLOYMENT["slide"]
    q_lo = max(now // slide * slide - window, 0)
    combos = [(a, i) for a in AREA_SHARES for i in INTERVAL_SHARES]
    out = []
    for k in range(n):
        area_share, interval_share = combos[k % len(combos)]
        length = int(interval_share * window)
        t_lo = rng.randrange(q_lo, max(now - length, q_lo) + 1)
        out.append(Query(_square(rng, area_share), t_lo, t_lo + length))
    return out


def make_inputs(workload: Workload, seed: int, sizes: Sizes) -> Inputs:
    stream = make_stream(seed, sizes)
    cut = sizes.build_reports(workload)
    if cut is None:
        cut = sum(1 for r in stream if r[3] <= sizes.max_time)
    build_part, tail = stream[:cut], stream[cut:]
    build = write_ops(build_part, workload.batch)
    now = build_part[-1][3]
    rng = random.Random(f"{seed}:{workload.name}")
    inputs = Inputs(build=build)
    inputs.warmups = table2_queries(rng, sizes.warmups, now)
    inputs.probes = table2_queries(rng, sizes.probes, now)
    if workload.loop == "closed":
        inputs.queries = table2_queries(rng, sizes.queries(workload), now)
    else:
        _make_ladder(inputs, rng, tail, now, sizes)
    inputs.digest = _digest(inputs)
    return inputs


def _make_ladder(inputs: Inputs, rng: random.Random, tail: list[Report],
                 now: int, sizes: Sizes) -> None:
    """Gateway ops and panel refreshes of every ladder step.

    A refresh asks for the timeslice ``now - 100*(i mod 4)`` where
    ``now`` is the stream time of the gateway batch due one period
    before it — fixed by the schedule, not by what was acked at run
    time, so the request list is the same on every run.
    """
    ladder = sizes.ladder
    inputs.tiles = [_square(rng, 0.01) for _ in range(ladder.tiles)]
    per_batch = sizes.gateway_batch()
    last_slide = now
    offset = 0
    for rate, seconds in zip(ladder.rates, sizes.ladder_seconds(),
                             strict=True):
        n_batches = int(seconds * ladder.gateway_hz)
        part = tail[offset:offset + n_batches * per_batch]
        offset += len(part)
        ops = write_ops(part, per_batch, last_slide, ladder.gateway_hz)
        slides = [op for op in ops if op.kind == "slide"]
        if slides:
            last_slide = slides[-1].now
        times = [op.reports[-1][3] for op in ops if op.kind == "extend"]
        refreshes = []
        for i in range(int(seconds * rate)):
            due = i / rate
            k = int(due * ladder.gateway_hz) - 1
            seen = times[min(k, len(times) - 1)] if k >= 0 and times \
                else now
            refreshes.append(Refresh(seen - 100 * (i % 4), due))
        if times:
            now = times[-1]
        inputs.gateway.append(ops)
        inputs.refreshes.append(refreshes)


def _digest(inputs: Inputs) -> str:
    """sha256 over the serialized stream and request lists."""
    h = hashlib.sha256()

    def feed(obj: object) -> None:
        h.update(json.dumps(obj, separators=(",", ":")).encode())

    for ops in [inputs.build, *inputs.gateway]:
        for op in ops:
            feed([op.kind, op.reports, op.now, op.due])
    for queries in (inputs.warmups, inputs.probes, inputs.queries):
        feed([[q.area, q.t_lo, q.t_hi] for q in queries])
    feed(inputs.tiles)
    feed([[[r.t, r.due] for r in step] for step in inputs.refreshes])
    return h.hexdigest()
