"""The benchmark's fixed facts: deployment, workloads, sizes, metric names.

Everything a reader needs to know *what* is measured lives here, and
``BENCHMARK.json`` is checked against it by the smoke test; *how* it is
measured is in :mod:`.workloads` (end to end) and :mod:`.layers` (trace).
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``SWSTConfig`` of the deployment under test (all workloads).  The pool
#: size (``buffer_capacity``) is the one field a workload sets itself.
DEPLOYMENT = dict(window=20000, slide=100, x_partitions=10, y_partitions=10,
                  d_max=2000, duration_interval=100, page_size=2048,
                  n_shards=2)

#: What ``run_seconds`` in BENCHMARK.json says: the seed spends about this
#: long in the measured phases of one run.  ``--seconds`` scales the read
#: phase (query counts, ladder step lengths) relative to it.
RUN_SECONDS = 20

#: A client request that got no answer after this long counts as failed.
CLIENT_TIMEOUT_S = 10.0
#: The "serving ... on http://" line must appear within this long.
LAUNCH_TIMEOUT_S = 30.0
#: SIGTERM -> wait this long -> killpg(SIGKILL).
STOP_GRACE_S = 5.0


@dataclass(frozen=True)
class Ladder:
    """Open-loop schedule of ``dashboard_mixed``.

    ``rates`` are refreshes/s, frozen integers measured once on the seed
    (0.4/0.7/1.0/1.4 x the 62 refreshes/s it completes when offered more
    than it can do beside the gateway stream) and never re-derived at
    run time.
    """

    rates: tuple[int, ...] = (25, 43, 62, 87)
    seconds: tuple[float, ...] = (2.0, 10.0, 2.0, 5.0)
    #: Index of the step the latency metrics are read at (r2).
    report_step: int = 1
    #: p95-from-due limit of ``max_rate_in_slo``.
    limit_ms: float = 150.0
    tiles: int = 8
    #: Gateway: this many batches per second, each ``num_objects / 10``
    #: reports (80 -> 1,600 reports/s on the seed), so stream time
    #: advances 2,000 units/s at any scale.
    gateway_hz: int = 20


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over one deployment variant."""

    name: str
    why: str
    loop: str                 # "closed" | "open"
    workers: bool             # ServeOptions(workers=True): WAL + pipes
    pool_pages: int           # buffer pool pages per shard
    batch: int                # reports per POST /extend in the build
    build_reports: int | None  # None = every report up to max_time
    relaunch: bool            # read phase on a relaunched copy of the save
    queries: int              # closed-loop Table-II queries (0 = ladder)
    conns: int                # connections (= client threads) reading


WORKLOADS = (
    Workload(
        "ingest_window",
        "write path does the work: whole stream from an empty directory "
        "with a pool smaller than the data, three window drops, one save",
        "closed", False, 128, 64, None, False, 600, 1),
    Workload(
        "scan_queries",
        "read path does the work: distinct Table-II queries on a cold "
        "relaunch, pool smaller than the data, plan cache and coalescer "
        "bypassed, no writer",
        "closed", False, 128, 64, None, True, 1000, 2),
    Workload(
        "dashboard_mixed",
        "open loop: fixed-rate tile-panel refreshes beside a 1,600 "
        "reports/s gateway, pool fits the data; plan-cache hits, shared "
        "descents, the slide gate and queueing show only here",
        "open", False, 16384, 64, None, True, 0, 2),
    Workload(
        "durable_workers",
        "worker processes and WAL: durable ingest, queries over pipes, "
        "SIGKILL with no save since start, replay, identical answers",
        "closed", True, 128, 64, 64000, False, 1000, 2),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


#: Objects in the seed's stream; ``Workload.build_reports`` is stated at
#: this size and scales with ``Sizes.num_objects``.
SEED_OBJECTS = 800


@dataclass(frozen=True)
class Sizes:
    """Everything that scales: the seed sizes and the smoke-test sizes."""

    num_objects: int = SEED_OBJECTS
    max_time: int = 100_000
    setup_reps: int = 5
    warmups: int = 20
    probes: int = 50
    #: SIGKILL -> relaunch repetitions (the median is ``recovery_s``):
    #: more where a recovery is a sub-second process start, fewer where
    #: it replays a WAL for seconds.
    crash_reps: int = 7
    crash_reps_workers: int = 3
    oracle_every: int = 25
    #: Multiplier on query counts and ladder step lengths.
    scale: float = 1.0
    ladder: Ladder = Ladder()

    @classmethod
    def for_seconds(cls, seconds: float) -> "Sizes":
        return cls(scale=seconds / RUN_SECONDS)

    @classmethod
    def smoke(cls) -> "Sizes":
        """All four workloads in well under 30 s (tests/test_smoke.py)."""
        ladder = Ladder(rates=(20, 40, 60, 80),
                        seconds=(8.0, 12.0, 8.0, 8.0))
        return cls(num_objects=60, setup_reps=2, warmups=3, probes=10,
                   crash_reps=1, crash_reps_workers=1, oracle_every=5,
                   scale=0.05, ladder=ladder)

    def queries(self, workload: Workload) -> int:
        return max(20, round(workload.queries * self.scale))

    def build_reports(self, workload: Workload) -> int | None:
        if workload.build_reports is None:
            return None
        return workload.build_reports * self.num_objects // SEED_OBJECTS

    def ladder_seconds(self) -> tuple[float, ...]:
        return tuple(s * self.scale for s in self.ladder.seconds)

    def gateway_batch(self) -> int:
        return max(1, self.num_objects // 10)

    def stream_max_time(self) -> int:
        """Build part plus enough tail for the longest ladder."""
        tail = sum(self.ladder_seconds()) * 2000 * 1.1 + 4000
        return self.max_time + int(tail)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str               # "higher" | "lower"
    bound: float | None = None  # end-to-end only: tolerated worsening


#: The contract's end-to-end metrics: every workload prints every one,
#: and a later change is rejected if one gets worse by more than its
#: bound.  Timings are expressed at reference machine speed (``speed.py``)
#: and their bounds are still the contract's maximum, because this
#: sandbox's own speed drifts by +-10% within a run (README, "Machine
#: speed").
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ingest_reports_per_s", "1/s", "higher", 0.25),
    Metric("extend_ack_p50_ms", "ms", "lower", 0.25),
    Metric("queries_per_s", "1/s", "higher", 0.25),
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("recovery_s", "s", "lower", 0.25),
    Metric("disk_bytes_per_live_entry", "B", "lower", 0.05),
    Metric("server_cpu_s", "s", "lower", 0.25),
    Metric("server_rss_peak_mb", "MB", "lower", 0.05),
)

#: End-to-end metrics of the ISSUE that the contract cannot gate, demoted
#: to the per-layer list under their own names (printed by ``run``,
#: judged by ``compare``, never a reason for the driver to reject):
#: the two p99s and ``save_s`` spread wider than any allowed bound on
#: this sandbox, ``max_rate_in_slo`` is a step function that exists on
#: one workload, ``failed_share`` must be 0 and the contract wants
#: metrics that never are (it carries ``failed``/``attempted`` itself).
EXTRA_END_TO_END = (
    Metric("extend_ack_p99_ms", "ms", "lower", 0.25),
    Metric("query_p99_ms", "ms", "lower", 0.25),
    Metric("save_s", "s", "lower", 0.25),
    Metric("max_rate_in_slo", "1/s", "higher", None),
    Metric("failed_share", "ratio", "lower", None),
)

PER_LAYER = (
    Metric("serve.http.self_us_per_req", "us", "lower"),
    Metric("serve.http.resp_bytes_per_req", "B", "lower"),
    Metric("serve.wire.decode_us_per_req", "us", "lower"),
    Metric("serve.wire.encode_us_per_req", "us", "lower"),
    Metric("serve.app.admit_wait_us_per_req", "us", "lower"),
    Metric("serve.app.rejected", "count", "lower"),
    Metric("serve.app.deadline_rejected", "count", "lower"),
    Metric("serve.coalesce.ratio", "ratio", "higher"),
    Metric("serve.gate.read_wait_us_per_req", "us", "lower"),
    Metric("serve.gate.write_wait_us_per_req", "us", "lower"),
    Metric("serve.async_engine.hop_us_per_call", "us", "lower"),
    Metric("engine.engine.route_us_per_report", "us", "lower"),
    Metric("engine.engine.fanout_self_us_per_query", "us", "lower"),
    Metric("engine.engine.shards_per_query", "count", "lower"),
    Metric("engine.executor.map_wait_us_per_query", "us", "lower"),
    Metric("engine.worker.pipe_rtt_us_per_call", "us", "lower"),
    Metric("engine.worker.restarts", "count", "lower"),
    Metric("engine.worker.orphan_procs", "count", "lower"),
    Metric("engine.wal.append_us_per_batch", "us", "lower"),
    Metric("engine.wal.fsync_us_per_batch", "us", "lower"),
    Metric("engine.wal.bytes_per_report", "B", "lower"),
    Metric("engine.wal.replayed_records", "count", "lower"),
    Metric("core.index.extend_self_us_per_report", "us", "lower"),
    Metric("core.index.node_accesses_per_report", "count", "lower"),
    Metric("core.index.query_self_us_per_query", "us", "lower"),
    Metric("core.index.node_accesses_per_query", "count", "lower"),
    Metric("core.index.candidates_per_result", "ratio", "lower"),
    Metric("core.index.refined_out_share", "ratio", "lower"),
    Metric("core.index.drop_window_ms", "ms", "lower"),
    Metric("core.index.pages_freed_per_drop", "count", "higher"),
    Metric("core.plan.build_us_per_miss", "us", "lower"),
    Metric("core.plan.cache_hit_share", "ratio", "higher"),
    Metric("core.memo.pruned_column_share", "ratio", "higher"),
    Metric("core.keys.encode_us_per_report", "us", "lower"),
    Metric("core.keys.split_us_per_candidate", "us", "lower"),
    Metric("btree.multisearch.us_per_call", "us", "lower"),
    Metric("btree.multisearch.nodes_per_range", "count", "lower"),
    Metric("btree.tree.insert_us_per_key", "us", "lower"),
    Metric("btree.tree.drop_us_per_tree", "us", "lower"),
    Metric("storage.buffer.fetch_node_us", "us", "lower"),
    Metric("storage.buffer.page_hit_share", "ratio", "higher"),
    Metric("storage.buffer.node_hit_share", "ratio", "higher"),
    Metric("storage.buffer.evict_writes", "count", "lower"),
    Metric("storage.buffer.serializations_per_logical_write", "ratio",
           "lower"),
    Metric("storage.buffer.pool_share_of_pages", "ratio", "higher"),
    Metric("storage.pager.sync_ms_per_save", "ms", "lower"),
    Metric("storage.pager.allocations", "count", "lower"),
    Metric("storage.pager.frees", "count", "higher"),
    Metric("storage.page.read_us_per_page", "us", "lower"),
    Metric("storage.page.write_us_per_page", "us", "lower"),
    Metric("storage.page.bytes_written_per_report", "B", "lower"),
    Metric("storage.page.syncs", "count", "lower"),
    Metric("client.late_ms_p99", "ms", "lower"),
    Metric("client.cpu_share", "ratio", "lower"),
    Metric("client.speed_factor", "ratio", "lower"),
    *(Metric(m.name, m.unit, m.better) for m in EXTRA_END_TO_END),
    Metric("trace.overhead_share", "ratio", "lower"),
    Metric("trace.self_sum_share", "ratio", "higher"),
)

#: ISSUE table: which workloads a metric was specified for.  The contract
#: makes every workload print every end-to-end metric, so the cells this
#: table leaves out are filled from the same run's build / read / kill
#: phases (README, "What each cell is read from"); ``compare`` marks them.
LISTED_FOR = {
    "setup_s": None,
    "ingest_reports_per_s": ("ingest_window", "durable_workers"),
    "extend_ack_p50_ms": ("ingest_window", "dashboard_mixed",
                          "durable_workers"),
    "extend_ack_p99_ms": ("ingest_window", "durable_workers"),
    "queries_per_s": ("scan_queries", "durable_workers"),
    "query_p50_ms": ("scan_queries", "dashboard_mixed",
                     "durable_workers"),
    "query_p99_ms": ("scan_queries", "dashboard_mixed",
                     "durable_workers"),
    "max_rate_in_slo": ("dashboard_mixed",),
    "save_s": ("ingest_window", "durable_workers"),
    "recovery_s": ("durable_workers",),
    "disk_bytes_per_live_entry": ("ingest_window", "durable_workers"),
    "server_cpu_s": None,
    "server_rss_peak_mb": None,
    "failed_share": None,
}


def listed(metric: str, workload: str) -> bool:
    """True if the ISSUE's table lists ``metric`` for ``workload``."""
    names = LISTED_FOR.get(metric)
    return names is None or workload in names
