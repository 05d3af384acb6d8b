"""Serving-layer counters surfaced by the ``/stats`` endpoint.

All counters are mutated from the event-loop thread only (handlers,
the coalescer's flush task, and the admission controller all run on the
loop), so no locking is needed.  Engine-side statistics that ride on
query results — degraded flags — are *harvested* into these counters
as responses are produced; the serving layer never reaches into the
engine's internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ServeStats:
    """Cumulative counters of one serving front end.

    Attributes:
        requests_total: HTTP/app requests received (parse failures
            included).
        responses_total: responses produced, any status.
        queries: read requests (query/count/knn, scalar or batched).
        mutations: write requests (insert/report/close/extend).
        engine_query_calls: engine-level read calls actually issued —
            with coalescing on, several queries share one call.
        coalesced_batches: flushes that merged >= 2 requests.
        coalesced_requests: requests served by those shared flushes.
        collapsed_requests: requests that shared another request's
            identical rectangle within a flush (request collapsing) —
            the engine evaluated their rectangle once for the batch.
        degraded_responses: 206-style responses (partial coverage).
        strict_failures: strict requests failed by a shard failure.
        overload_rejections: requests refused by admission control.
        deadline_rejections: requests whose deadline elapsed in queue.
        bad_requests: malformed requests (400).
        slides: window slides executed through the facade.
        saves: whole-directory saves executed through the facade.
        reshards: online generation flips committed through the facade.
        ingested_reports: reports accepted by insert/report/extend.
        queue_depth: current in-flight (admitted, unfinished) requests.
        queue_depth_peak: high-water mark of ``queue_depth``.
    """

    requests_total: int = 0
    responses_total: int = 0
    queries: int = 0
    mutations: int = 0
    engine_query_calls: int = 0
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    collapsed_requests: int = 0
    degraded_responses: int = 0
    strict_failures: int = 0
    overload_rejections: int = 0
    deadline_rejections: int = 0
    bad_requests: int = 0
    slides: int = 0
    saves: int = 0
    reshards: int = 0
    ingested_reports: int = 0
    queue_depth: int = 0
    queue_depth_peak: int = 0

    #: Extra gauges merged into :meth:`snapshot` by the owning app
    #: (gate state, bound port, ...).  Not part of the counter set.
    extra: dict[str, Any] = field(default_factory=dict)

    def enter_queue(self) -> None:
        self.queue_depth += 1
        if self.queue_depth > self.queue_depth_peak:
            self.queue_depth_peak = self.queue_depth

    def leave_queue(self) -> None:
        self.queue_depth -= 1

    @property
    def coalesce_ratio(self) -> float:
        """Queries served per engine-level read call (>= 1.0 once any
        query ran; 1.0 means coalescing never merged anything)."""
        if self.engine_query_calls == 0:
            return 1.0
        return self.queries / self.engine_query_calls

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of every counter plus derived ratios."""
        record: dict[str, Any] = {
            name: getattr(self, name)
            for name in (
                "requests_total", "responses_total", "queries",
                "mutations", "engine_query_calls", "coalesced_batches",
                "coalesced_requests", "collapsed_requests",
                "degraded_responses", "strict_failures",
                "overload_rejections", "deadline_rejections",
                "bad_requests", "slides", "saves", "reshards",
                "ingested_reports", "queue_depth", "queue_depth_peak")}
        record["coalesce_ratio"] = round(self.coalesce_ratio, 4)
        record.update(self.extra)
        return record
