"""Per-layer metrics from a traced run's dumps.

A dump (see :mod:`.tracing`) holds, per process, cumulative span
aggregates per thread, the kept spans since the previous dump, and — in
the server process — ``IOStats`` / ``ServeStats`` snapshots.  A
:class:`Phase` is the difference between two dumps of one run; the
metrics below are ratios over one phase (``B`` build, ``S`` save, ``R``
read, ``REC`` recovery), so each is normalised by the work of the phase
it describes.

Self times are *blocking* self times: a span that waits for work on
another thread or process (the facade on the pool thread, ``map`` on
the shard threads, the coordinator on the worker pipes) is charged only
for what is left after the slowest piece of that work, and the other,
overlapped pieces are scaled out, so the layer rows add up to the time
the client saw (``trace.self_sum_share``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .spec import DEPLOYMENT, PER_LAYER, Workload
from .stats import percentile
from .tracing import layer_of
from .workloads import RunResult

# kept-span tuple fields
_ID, _PARENT, _NAME, _T0, _T1, _RID, _TID = range(7)

_ENGINE_ROOTS = ("engine.engine.extend", "engine.engine.advance_time",
                 "engine.engine.save", "engine.engine.query",
                 "engine.worker.extend", "engine.worker.advance_time",
                 "engine.worker.save", "engine.worker.query")


@dataclass
class Phase:
    """Everything the deployment did between two dumps."""

    #: (pid, thread) -> span name -> [count, total_ns, self_ns]
    agg: dict[tuple[int, str], dict[str, list[int]]] = \
        field(default_factory=dict)
    #: pid -> kept spans recorded in the phase
    spans: dict[int, list[list]] = field(default_factory=dict)
    io: dict[str, int] = field(default_factory=dict)
    serve: dict[str, float] = field(default_factory=dict)
    #: The server processes (a relaunch makes it two); the rest of
    #: ``agg``/``spans`` belongs to their worker processes.
    main_pids: set[int] = field(default_factory=set)

    def _sum(self, names: tuple[str, ...], slot: int) -> int:
        return sum(cells[name][slot] for cells in self.agg.values()
                   for name in names if name in cells)

    def count(self, *names: str) -> int:
        return self._sum(names, 0)

    def total_us(self, *names: str) -> float:
        return self._sum(names, 1) / 1e3

    def self_us(self, *names: str) -> float:
        return self._sum(names, 2) / 1e3

    def add(self, other: "Phase") -> "Phase":
        """Both phases as one (for metrics over build + read)."""
        merged = Phase(main_pids=self.main_pids | other.main_pids)
        for part in (self, other):
            for key, cells in part.agg.items():
                into = merged.agg.setdefault(key, {})
                for name, cell in cells.items():
                    have = into.setdefault(name, [0, 0, 0])
                    for i in range(3):
                        have[i] += cell[i]
            for pid, spans in part.spans.items():
                merged.spans.setdefault(pid, []).extend(spans)
            for name, value in part.io.items():
                merged.io[name] = merged.io.get(name, 0) + value
            for name, value in part.serve.items():
                merged.serve[name] = merged.serve.get(name, 0) + value
        return merged


def phase_between(dumps: dict[str, list[dict]], before: str | None,
                  after: str) -> Phase:
    """The phase that ended at dump ``after`` and began at ``before``
    (``None``: at process start)."""
    phase = Phase()
    earlier = {d["pid"]: d for d in dumps.get(before or "", [])}
    for dump in dumps.get(after, []):
        pid = dump["pid"]
        base = earlier.get(pid, {})
        for tid, cells in dump["agg"].items():
            old = base.get("agg", {}).get(tid, {})
            delta = {name: [cell[i] - old.get(name, (0, 0, 0))[i]
                            for i in range(3)]
                     for name, cell in cells.items()}
            phase.agg[(pid, tid)] = delta
        phase.spans[pid] = dump["spans"]
        if "io" in dump:
            phase.main_pids.add(pid)
            phase.io = {k: v - base.get("io", {}).get(k, 0)
                        for k, v in dump["io"].items()}
            phase.serve = {
                k: v - base.get("serve", {}).get(k, 0)
                for k, v in dump["serve"].items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return phase


def run_phases(workload: Workload, dumps: dict[str, list[dict]]
               ) -> dict[str, Phase]:
    """B(uild), S(ave), R(ead), REC(overy) of one traced run."""
    read_from = ("start2" if workload.relaunch
                 else "build" if workload.workers else "save")
    return {
        "B": phase_between(dumps, "start", "build"),
        "S": phase_between(dumps,
                           "recovered" if workload.workers else "build",
                           "save"),
        "R": phase_between(dumps, read_from, "read"),
        "REC": phase_between(dumps, None, "recovered"),
    }


@dataclass
class Links:
    """What linking the thread and pipe hops of a phase found."""

    #: Σ duration of engine calls the facade awaited (pool thread roots).
    pool_root_us: float = 0.0
    #: ``map``: Σ over fan-outs of the slowest shard task / of all tasks.
    map_slowest_us: float = 0.0
    map_all_us: float = 0.0
    map_wait_us: float = 0.0
    fanout_threads: set[tuple[int, str]] = field(default_factory=set)
    #: worker pipes: Σ slowest worker-side span / all / coordinator wait.
    pipe_slowest_us: float = 0.0
    pipe_all_us: float = 0.0
    pipe_rtt_us: float = 0.0
    pipe_calls: int = 0


def link_hops(phase: Phase) -> Links:
    """Link spans across threads and pipes by time containment.

    Unambiguous because ``AsyncEngine`` runs one engine call at a time:
    whatever shard task or worker request lies inside an engine call's
    interval belongs to it."""
    links = Links()
    for main in phase.main_pids:
        _link_threads(phase.spans.get(main, []), main, links)
    serves = sorted((s for pid, ss in phase.spans.items()
                     if pid not in phase.main_pids
                     for s in ss if s[_NAME] == "engine.worker.serve"),
                    key=lambda s: s[_T0])
    if serves:
        for main in phase.main_pids:
            _link_pipes(phase.spans.get(main, []), serves, links)
    return links


def _link_threads(spans: list[list], main: int, links: Links) -> None:
    """Facade -> pool thread, and ``map`` -> shard threads."""
    links.pool_root_us += sum(
        s[_T1] - s[_T0] for s in spans
        if s[_PARENT] == 0 and s[_NAME] in _ENGINE_ROOTS) / 1e3
    tasks = sorted((s for s in spans if s[_PARENT] == 0
                    and s[_NAME].startswith("core.index.")),
                   key=lambda s: s[_T0])
    at = 0
    for m in sorted((s for s in spans
                     if s[_NAME] == "engine.executor.map"),
                    key=lambda s: s[_T0]):
        while at < len(tasks) and tasks[at][_T0] < m[_T0]:
            at += 1
        inside = []
        k = at
        while k < len(tasks) and tasks[k][_T0] <= m[_T1]:
            if tasks[k][_T1] <= m[_T1] and tasks[k][_TID] != m[_TID]:
                inside.append(tasks[k])
            k += 1
        if not inside:
            continue
        durs = [(s[_T1] - s[_T0]) / 1e3 for s in inside]
        links.map_slowest_us += max(durs)
        links.map_all_us += sum(durs)
        links.map_wait_us += (m[_T1] - m[_T0]) / 1e3 - max(durs)
        links.fanout_threads.update((main, str(s[_TID])) for s in inside)


def _link_pipes(spans: list[list], serves: list[list],
                links: Links) -> None:
    """Coordinator pipe legs -> the worker-side spans inside them."""
    pipes: dict[int, list[list]] = {}
    for s in spans:
        if s[_NAME] in ("engine.worker.pipe_send",
                        "engine.worker.pipe_collect"):
            pipes.setdefault(s[_PARENT], []).append(s)
    at = 0
    for _root, legs in sorted(pipes.items(),
                              key=lambda kv: kv[1][0][_T0]):
        lo = min(s[_T0] for s in legs)
        hi = max(s[_T1] for s in legs)
        while at < len(serves) and serves[at][_T1] < lo:
            at += 1
        k = at
        durs = []
        while k < len(serves) and serves[k][_T0] <= hi:
            durs.append((serves[k][_T1] - serves[k][_T0]) / 1e3)
            k += 1
        if not durs:
            continue
        links.pipe_calls += 1
        links.pipe_slowest_us += max(durs)
        links.pipe_all_us += sum(durs)
        links.pipe_rtt_us += (hi - lo) / 1e3 - max(durs)


def blocking_table(phase: Phase, links: Links,
                   client_busy_us: float) -> dict[str, float]:
    """Blocking self time per layer, µs, over ``phase``.

    ``serve.http`` is what the client waited beyond the application's
    ``handle`` span: socket, framing, parse and response encoding."""
    table: dict[str, float] = {}
    rho_map = (links.map_slowest_us / links.map_all_us
               if links.map_all_us else 1.0)
    rho_pipe = (links.pipe_slowest_us / links.pipe_all_us
                if links.pipe_all_us else 1.0)
    for (pid, tid), cells in phase.agg.items():
        if pid not in phase.main_pids:
            scale = rho_pipe
        elif (pid, tid) in links.fanout_threads:
            scale = rho_map
        else:
            scale = 1.0
        for name, cell in cells.items():
            if name.startswith("#") or name == "serve.http.encode":
                continue
            layer = layer_of(name)
            table[layer] = table.get(layer, 0.0) + cell[2] / 1e3 * scale
    table["serve.async_engine"] = \
        table.get("serve.async_engine", 0.0) - links.pool_root_us
    if links.map_all_us:
        table["engine.executor"] -= links.map_slowest_us
    if links.pipe_all_us:
        table["engine.worker"] -= links.pipe_slowest_us
    table["serve.http"] = client_busy_us - phase.total_us("serve.app.handle")
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload: Workload, traced: RunResult,
                      untraced: RunResult) -> tuple[dict[str, float],
                                                   dict[str, float]]:
    """``(metrics by name, blocking self time per layer in µs)``."""
    phases = run_phases(workload, traced.dumps)
    b, s, r, rec = phases["B"], phases["S"], phases["R"], phases["REC"]
    both = b.add(r)
    everything = both.add(s)
    links = link_hops(both)
    read_links = link_hops(r)
    busy_us = (traced.rtt.get("build", 0.0)
               + traced.rtt.get("read", 0.0)) * 1e6
    table = blocking_table(both, links, busy_us)

    requests = both.count("serve.app.handle")
    reports = b.count("#extend.reports")
    queries = r.count("engine.engine.query", "engine.worker.query")
    facade = tuple(f"serve.async_engine.{n}" for n in
                   ("extend", "advance_time", "save", "query_interval",
                    "query_interval_many"))
    candidates = r.count("#query.candidates")
    page = DEPLOYMENT["page_size"]
    shard_pages = traced.disk.get(".pages", 0) / page
    wal_spawns = sum(
        max(0, part.count("#worker.spawns") - DEPLOYMENT["n_shards"])
        for part in (both, rec))

    m: dict[str, float] = {
        "serve.http.self_us_per_req": _ratio(table["serve.http"],
                                             requests),
        "serve.http.resp_bytes_per_req": _ratio(traced.resp_bytes,
                                                traced.requests),
        "serve.wire.decode_us_per_req": _ratio(
            both.total_us("serve.wire.decode",
                          "serve.wire.decode_reports"), requests),
        "serve.wire.encode_us_per_req": _ratio(
            both.total_us("serve.wire.encode"), requests),
        "serve.app.admit_wait_us_per_req": _ratio(
            both.total_us("serve.app.admit"), requests),
        "serve.app.rejected": both.serve.get("overload_rejections", 0),
        "serve.app.deadline_rejected":
            both.serve.get("deadline_rejections", 0),
        "serve.coalesce.ratio": _ratio(
            r.serve.get("queries", 0),
            r.serve.get("engine_query_calls", 0)),
        "serve.gate.read_wait_us_per_req": _ratio(
            both.total_us("serve.gate.read_wait"),
            both.count("serve.gate.read_wait")),
        "serve.gate.write_wait_us_per_req": _ratio(
            both.total_us("serve.gate.write_wait"),
            both.count("serve.gate.write_wait")),
        "serve.async_engine.hop_us_per_call": _ratio(
            both.self_us(*facade) - links.pool_root_us,
            both.count(*facade)),
        "engine.engine.route_us_per_report": _ratio(
            b.self_us("engine.engine.extend", "engine.worker.extend"),
            reports),
        "engine.engine.fanout_self_us_per_query": _ratio(
            r.self_us("engine.engine.query", "engine.worker.query"),
            queries),
        "engine.engine.shards_per_query": _ratio(
            r.count("core.index.query"), queries),
        "engine.executor.map_wait_us_per_query": _ratio(
            read_links.map_wait_us, queries),
        "engine.worker.pipe_rtt_us_per_call": _ratio(
            links.pipe_rtt_us, links.pipe_calls),
        "engine.worker.restarts": wal_spawns,
        "engine.worker.orphan_procs": traced.orphans,
        "engine.wal.append_us_per_batch": _ratio(
            b.total_us("engine.wal.append"),
            b.count("engine.wal.fsync")),
        "engine.wal.fsync_us_per_batch": _ratio(
            b.total_us("engine.wal.fsync"), b.count("engine.wal.fsync")),
        "engine.wal.bytes_per_report": _ratio(
            traced.notes.get("wal_bytes", 0.0), reports),
        "engine.wal.replayed_records": rec.count("#wal.replayed"),
        "core.index.extend_self_us_per_report": _ratio(
            b.self_us("core.index.ingest"), reports),
        "core.index.node_accesses_per_report": _ratio(
            b.io.get("logical_reads", 0) + b.io.get("logical_writes", 0),
            reports),
        "core.index.query_self_us_per_query": _ratio(
            r.self_us("core.index.query"), queries),
        "core.index.node_accesses_per_query": _ratio(
            r.count("#query.node_accesses"), queries),
        "core.index.candidates_per_result": _ratio(
            candidates, r.count("#query.entries")),
        "core.index.refined_out_share": _ratio(
            r.count("#query.refined_out"), candidates),
        "core.index.drop_window_ms": _ratio(
            both.total_us("core.index.drop_window") / 1e3,
            both.count("core.index.drop_window")),
        "core.index.pages_freed_per_drop": _ratio(
            both.count("#drop.pages_freed"),
            both.count("core.index.drop_window")),
        "core.plan.build_us_per_miss": _ratio(
            r.total_us("core.plan.classify", "core.plan.build"),
            r.count("core.plan.build")),
        "core.plan.cache_hit_share": _ratio(
            r.count("#plan.hit"),
            r.count("#plan.hit") + r.count("#plan.miss")),
        "core.memo.pruned_column_share": 1.0 - _ratio(
            r.count("#query.key_ranges"),
            r.count("#query.columns_examined"))
        if r.count("#query.columns_examined") else 0.0,
        "core.keys.encode_us_per_report": _ratio(
            b.total_us("core.keys.encode"), reports),
        "core.keys.split_us_per_candidate": _ratio(
            r.total_us("core.keys.split"), r.count("#keys.split")),
        "btree.multisearch.us_per_call": _ratio(
            r.total_us("btree.multisearch.search"),
            r.count("btree.multisearch.search")),
        "btree.multisearch.nodes_per_range": _ratio(
            r.count("#query.node_accesses"),
            r.count("#multisearch.ranges")),
        "btree.tree.insert_us_per_key": _ratio(
            b.total_us("btree.tree.insert"),
            b.count("btree.tree.insert")),
        "btree.tree.drop_us_per_tree": _ratio(
            both.total_us("btree.tree.drop"),
            both.count("btree.tree.drop")),
        "storage.buffer.fetch_node_us": _ratio(
            both.total_us("storage.buffer.fetch_node"),
            both.count("storage.buffer.fetch_node")),
        "storage.buffer.page_hit_share": 1.0 - _ratio(
            r.io.get("physical_reads", 0), r.io.get("logical_reads", 0)),
        "storage.buffer.node_hit_share": _ratio(
            r.io.get("node_cache_hits", 0), r.io.get("logical_reads", 0)),
        "storage.buffer.evict_writes": b.io.get("physical_writes", 0),
        "storage.buffer.serializations_per_logical_write": _ratio(
            everything.io.get("node_serializations", 0),
            everything.io.get("logical_writes", 0)),
        "storage.buffer.pool_share_of_pages": min(1.0, _ratio(
            workload.pool_pages * DEPLOYMENT["n_shards"], shard_pages)),
        "storage.pager.sync_ms_per_save": _ratio(
            s.total_us("storage.pager.sync") / 1e3,
            max(1, s.count("engine.engine.save", "engine.worker.save"))),
        "storage.pager.allocations": everything.io.get("allocations", 0),
        "storage.pager.frees": everything.io.get("frees", 0),
        "storage.page.read_us_per_page": _ratio(
            everything.total_us("storage.page.read"),
            everything.count("storage.page.read")),
        "storage.page.write_us_per_page": _ratio(
            everything.total_us("storage.page.write"),
            everything.count("storage.page.write")),
        "storage.page.bytes_written_per_report": _ratio(
            (b.count("storage.page.write")
             + s.count("storage.page.write")) * page, reports),
        "storage.page.syncs": everything.count("storage.page.sync"),
        "client.late_ms_p99": percentile(
            [x * 1e3 for x in untraced.late], 0.99, strict=False)
        if untraced.late else 0.0,
        "client.cpu_share": _ratio(untraced.client_cpu,
                                   untraced.measured_wall),
        "client.speed_factor": statistics.median(
            untraced.speed.values()),
        # Demoted end-to-end metrics, read from the untraced pass.
        "extend_ack_p99_ms": untraced.metrics["extend_ack_p99_ms"].value,
        "query_p99_ms": untraced.metrics["query_p99_ms"].value,
        "save_s": untraced.metrics["save_s"].value,
        "max_rate_in_slo": untraced.metrics["max_rate_in_slo"].value
        if "max_rate_in_slo" in untraced.metrics else 0.0,
        "failed_share": max(traced.failed_share, untraced.failed_share),
        "trace.overhead_share": _ratio(traced.notes["closed_wall"],
                                       untraced.notes["closed_wall"])
        - 1.0,
        "trace.self_sum_share": _ratio(sum(table.values()), busy_us),
    }
    assert set(m) == {metric.name for metric in PER_LAYER}, \
        set(m) ^ {metric.name for metric in PER_LAYER}
    return {name: float(value) for name, value in m.items()}, table
