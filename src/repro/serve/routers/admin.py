"""Control-plane routes: slide, save, health, statistics.

These routes bypass admission control on purpose.  The slide barrier
must be able to run — and the operator must be able to observe the
server — precisely when the data plane is saturated; gating them behind
the same bounded queue they are meant to relieve would invert the
design (the soak test drives a slide through a deliberately full
admission queue to prove this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..wire import Request, Response, get_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import ServeApp


async def slide(app: "ServeApp", request: Request) -> Response:
    """Advance stream time: drain in-flight reads, slide, release.

    ``now`` is a watermark: one behind the clock (an ``/extend`` already
    moved it) answers 200 with the current clock and changes nothing.
    """
    obj = request.json()
    now = get_int(obj, "now")
    await app.engine.advance_time(now)
    return Response(200, {"ok": True, "now": app.engine.now})


async def save(app: "ServeApp", request: Request) -> Response:
    """Whole-directory save (two-phase epoch commit under the hood)."""
    await app.engine.save()
    return Response(200, {"ok": True})


async def reshard(app: "ServeApp", request: Request) -> Response:
    """Online reshard: rebuild the directory at a new shard count.

    Serving continues throughout — reads never park, writes stall only
    for the checkpoint/stage and flip sections.  A second reshard (or a
    save) racing an in-flight one gets a 409.
    """
    obj = request.json()
    n_shards = get_int(obj, "n_shards")
    report = await app.engine.reshard(n_shards)
    return Response(200, {
        "ok": True,
        "old_n_shards": report.old_n_shards,
        "n_shards": report.new_n_shards,
        "epoch": report.epoch,
        "generation": report.generation,
        "entries": report.entries,
    })


async def healthz(app: "ServeApp", request: Request) -> Response:
    """Liveness: answers from loop state only, no engine call."""
    return Response(200, {
        "ok": True,
        "gate": app.engine.gate.state,
        "queue_depth": app.stats.queue_depth,
    })


async def stats(app: "ServeApp", request: Request) -> Response:
    """Cumulative serving counters, live gauges, and ``recovery``: the
    plan the served engine opened with — its directory action and, per
    shard, the action, replayed WAL records and torn bytes dropped."""
    return Response(200, app.stats_snapshot())


ROUTES = (
    ("POST", "/slide", slide),
    ("POST", "/save", save),
    ("POST", "/reshard", reshard),
    ("GET", "/healthz", healthz),
    ("GET", "/stats", stats),
)

#: Routes that skip admission control (see module docstring).
UNGATED = frozenset(
    (method, path) for method, path, _ in ROUTES)

__all__ = ["ROUTES", "UNGATED", "slide", "save", "reshard", "healthz",
           "stats"]
