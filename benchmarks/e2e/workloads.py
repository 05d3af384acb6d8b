"""One run of one workload: launch, drive, check, measure, clean up.

All four workloads are the same sequence of phases over a different
deployment and traffic mix (``spec.WORKLOADS``):

``setup``    launch the server ``setup_reps`` times (empty ``--create``
             directory, or a fresh copy of the saved one) up to the
             first 200 from ``/healthz`` plus the warm-up requests;
``build``    closed loop, one connection: the stream prefix as
             ``POST /extend`` batches with ``POST /slide`` every L;
``read``     closed loop (Table-II ``GET /query`` over ``conns``
             connections) or the open-loop ladder (panel refreshes
             beside the gateway stream);
``crash``    a fixed probe set, SIGKILL of the whole process group,
             relaunch on the same directory, the probe set again.

``POST /save`` comes after the build, and again before the crash if the
read phase wrote (workers: only after the crash — their WAL is what the
crash tests).  Every metric of a run is read from these phases; which
phase fills which cell is the table in the README.  Timings are divided
by the speed factor the machine had during their phase (:mod:`.speed`);
the raw value stays in ``Timing.raw``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import client
from .client import Connection, RequestFailed, Tally, WriteProgress
from .inputs import Inputs, Op, make_inputs
from .model import WindowModel, canonical
from .proc import Server, group_members
from .spec import END_TO_END, EXTRA_END_TO_END, Sizes, Workload
from .speed import SpeedProbe
from .stats import Timing, percentile, timing

#: Grace for the stops that are not the measured one: the server's own
#: exit is immediate on SIGTERM; what lingers is reported once, by the
#: final stop of a traced run (``engine.worker.orphan_procs``).
QUICK_GRACE_S = 0.3

_UNITS = {m.name: m.unit for m in END_TO_END + EXTRA_END_TO_END}


@dataclass
class RunResult:
    """Everything one run produced."""

    workload: str
    seed: int
    digest: str
    metrics: dict[str, Timing] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wall seconds of the measured phases (the overhead denominator).
    measured_wall: float = 0.0
    client_cpu: float = 0.0
    late: list[float] = field(default_factory=list)
    resp_bytes: int = 0
    requests: int = 0
    #: Σ client round-trip seconds by phase (the trace's request total).
    rtt: dict[str, float] = field(default_factory=dict)
    orphans: int = 0
    #: dashboard_mixed: one row per ladder step.
    steps: list[dict] = field(default_factory=list)
    notes: dict[str, float] = field(default_factory=dict)
    #: Traced runs: phase tag -> dumps of every process at that point.
    dumps: dict[str, list[dict]] = field(default_factory=dict)
    disk: dict[str, int] = field(default_factory=dict)
    #: phase -> speed factor of the machine while it was measured.
    speed: dict[str, float] = field(default_factory=dict)

    @property
    def failed_share(self) -> float:
        return self.failed / max(self.attempted, 1)

    def record(self) -> dict:
        """JSON-ready: every metric with unit, sample count, validity."""
        return {
            "workload": self.workload, "seed": self.seed,
            "input_digest": self.digest, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": t.value, "unit": _UNITS[name],
                       "samples": t.samples, "valid": t.valid,
                       "raw": t.value if t.raw is None else t.raw}
                for name, t in self.metrics.items()},
            "speed": self.speed, "steps": self.steps,
            "notes": self.notes,
        }


class _Run:
    """State of one run in flight; ``close()`` leaves nothing behind."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes,
                 work_root: Path, trace: bool) -> None:
        self.workload = workload
        self.sizes = sizes
        self.trace = trace
        self.inputs: Inputs = make_inputs(workload, seed, sizes)
        self.model = WindowModel()
        self.result = RunResult(workload.name, seed, self.inputs.digest)
        self.work = work_root / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.trace_dir = self.work / "trace"
        self.probe = SpeedProbe(self.work / "speed.log")
        self.servers: list[Server] = []
        self.server: Server | None = None
        self.conn: Connection | None = None
        self.directory = self.work
        self.setup_times: list[float] = []
        self._dirs = 0

    # -- processes ------------------------------------------------------------

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"dir-{self._dirs}"

    def launch(self, directory: Path, create: bool) -> None:
        spec = {"dir": str(directory), "create": create,
                "workers": self.workload.workers,
                "pool_pages": self.workload.pool_pages,
                "trace_dir": str(self.trace_dir) if self.trace else None}
        self.server = Server(spec, self.work / "server.log")
        self.servers.append(self.server)
        self.conn = self.server.wait_healthy()
        self.directory = directory

    def stop(self, grace: float = QUICK_GRACE_S) -> None:
        assert self.server is not None and self.conn is not None
        self.conn.close()
        self.server.stop(grace)

    def setup(self, saved: Path | None) -> None:
        """Launch ``setup_reps`` times; the last launch keeps running.

        Each launch gets its own directory — empty, or a fresh copy of
        ``saved`` made before the clock starts — so every repetition
        opens the same bytes."""
        warmups = [client.encode_query(q) for q in self.inputs.warmups]
        reps = self.sizes.setup_reps
        for rep in range(reps):
            directory = self.fresh_dir()
            if saved is not None:
                shutil.copytree(saved, directory)
            started = time.perf_counter()
            self.launch(directory, create=saved is None)
            assert self.conn is not None
            for raw in warmups:
                self.conn.request(raw)
            self.setup_times.append(time.perf_counter() - started)
            if rep < reps - 1:
                self.stop()
                shutil.rmtree(directory, ignore_errors=True)

    def close(self) -> None:
        self.probe.stop()
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.work, ignore_errors=True)

    def speed(self, phase: str, start: float) -> float:
        """Speed factor of the machine from ``start`` (monotonic) until
        now, remembered under ``phase``.

        Only the two steady phases are measured — the build and the
        read phase (open loop: its r2 step).  Launches, saves and the
        saturated ladder steps borrow the factor of the steady phase
        next to them: the probe shares two CPUs with what it watches,
        and in a burst of process starts or at saturation its samples
        say more about that contention than about the machine."""
        factor = self.probe.factor(start, time.monotonic())
        self.result.speed[phase] = factor
        return factor

    # -- bookkeeping ----------------------------------------------------------

    def count(self, tally: Tally, phase: str) -> None:
        result = self.result
        result.attempted += tally.attempted
        result.failed += tally.failed
        result.client_cpu += tally.client_cpu
        result.resp_bytes += tally.resp_bytes
        result.requests += len(tally.latencies)
        result.rtt[phase] = result.rtt.get(phase, 0.0) + tally.busy

    def check(self, got: bytes | None, want: list, what: str) -> None:
        """One oracle comparison; a mismatch is a failed operation."""
        self.result.attempted += 1
        entries = None if got is None else json.loads(got).get("entries")
        if entries is None or canonical(entries) != want:
            self.result.failed += 1
            self.result.notes[f"mismatch:{what}"] = 1.0

    def dump(self, tag: str) -> None:
        """Traced runs: have every process write its spans and counters
        now (phase boundary, or the last moment before a SIGKILL)."""
        if not self.trace:
            return
        assert self.server is not None
        pids = list(group_members(self.server.pgid))
        before = {pid: len(list(self.trace_dir.glob(f"dump-{pid}-*.json")))
                  for pid in pids}
        self.server.signal_group(signal.SIGUSR1)
        deadline = time.perf_counter() + 20.0
        dumps = []
        for pid in pids:
            path = self.trace_dir / f"dump-{pid}-{before[pid] + 1}.json"
            while not path.exists():
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"no trace dump from pid {pid}")
                time.sleep(0.005)
            dumps.append(json.loads(path.read_text()))
        self.result.dumps[tag] = dumps

    def measure_disk(self) -> None:
        total = 0
        by_kind: dict[str, int] = {}
        for path in self.directory.rglob("*"):
            if path.is_file():
                size = path.stat().st_size
                total += size
                kind = ("snapshots" if "snapshots" in path.parts
                        else path.suffix or path.name)
                by_kind[kind] = by_kind.get(kind, 0) + size
        self.result.disk = {"total": total, **by_kind}

    def save(self, speed: float) -> Timing:
        assert self.conn is not None
        started = time.perf_counter()
        self.result.attempted += 1
        try:
            self.conn.post_json("/save", {})
        except RequestFailed:
            self.result.failed += 1
        elapsed = time.perf_counter() - started
        return Timing(elapsed, 1).at_speed(speed)


def run_workload(workload: Workload, seed: int, sizes: Sizes,
                 work_root: Path, *, trace: bool = False,
                 final_grace: float = QUICK_GRACE_S,
                 keep_trace: Path | None = None) -> RunResult:
    """One run.  ``trace`` launches the servers with the timing shims
    and collects their dumps; ``keep_trace`` copies the raw dump files
    there before the work directory is removed."""
    run = _Run(workload, seed, sizes, work_root, trace)
    try:
        _drive(run, final_grace)
        if keep_trace is not None and run.trace_dir.exists():
            shutil.copytree(run.trace_dir, keep_trace / workload.name,
                            dirs_exist_ok=True)
    finally:
        run.close()
    return run.result


def _drive(run: _Run, final_grace: float) -> None:
    workload, inputs, result = run.workload, run.inputs, run.result
    metrics = result.metrics
    if workload.relaunch:
        run.launch(run.fresh_dir(), create=True)
    else:
        run.setup(None)
    assert run.server is not None and run.conn is not None

    # -- build ----------------------------------------------------------------
    encoded = [client.encode_op(op) for op in inputs.build]
    run.dump("start")
    began = time.monotonic()
    cpu0 = run.server.cpu_s()
    extends, slides = client.run_writes(run.conn, inputs.build, encoded)
    cpu_build = run.server.cpu_s() - cpu0
    speed = run.speed("build", began)
    run.dump("build")
    for op in inputs.build:
        run.model.apply(op)
    run.count(extends, "build")
    slides.client_cpu = 0.0
    run.count(slides, "build")
    result.measured_wall += extends.elapsed
    result.notes["closed_wall"] = extends.elapsed / speed
    metrics["ingest_reports_per_s"] = Timing(
        inputs.build_reports / extends.elapsed,
        len(extends.latencies)).at_speed(speed, rate=True)
    ack_ms = [s * 1e3 for s in extends.latencies]
    metrics["extend_ack_p50_ms"] = timing(ack_ms, 0.50).at_speed(speed)
    metrics["extend_ack_p99_ms"] = timing(ack_ms, 0.99).at_speed(speed)
    cpu = Timing(cpu_build, 1).at_speed(speed)
    save = None
    if not workload.workers:
        save = run.save(speed)
        run.dump("save")
        run.measure_disk()

    # -- read -----------------------------------------------------------------
    if workload.relaunch:
        saved = run.directory
        run.stop()
        run.setup(saved)
        shutil.rmtree(saved, ignore_errors=True)
        run.dump("start2")
    cpu0 = run.server.cpu_s()
    if workload.loop == "closed":
        _closed_reads(run)
    else:
        _ladder(run)
    read_speed = result.speed["read"]
    cpu_read = Timing(run.server.cpu_s() - cpu0, 1).at_speed(read_speed)
    if workload.loop == "open":
        save = run.save(read_speed)
        run.measure_disk()
    rss = run.server.rss_peak_mb()
    run.dump("read")

    # -- crash ----------------------------------------------------------------
    run.model.prune()
    if workload.workers:
        result.notes["wal_bytes"] = float(sum(
            p.stat().st_size for p in run.directory.rglob("*.wal")))
    probes = [client.encode_query(q) for q in inputs.probes]
    before = _ask(run, probes)
    recoveries = []
    for _ in range(run.sizes.crash_reps_workers if workload.workers
                   else run.sizes.crash_reps):
        killed = time.perf_counter()
        run.conn.close()
        run.server.kill()
        run.launch(run.directory, create=False)
        recoveries.append(time.perf_counter() - killed)
    metrics["recovery_s"] = Timing(
        statistics.median(recoveries),
        len(recoveries)).at_speed(read_speed)
    after = _ask(run, probes)
    for i, query in enumerate(inputs.probes):
        want = run.model.answer(query)
        run.check(before[i], want, "probe-before-kill")
        run.check(after[i], want, "probe-after-kill")
    if workload.workers:
        run.dump("recovered")
        save = run.save(read_speed)
        run.dump("save")
        run.measure_disk()
    run.conn.close()
    result.orphans = run.server.stop(final_grace)

    assert save is not None
    metrics["setup_s"] = Timing(
        statistics.median(run.setup_times), len(run.setup_times)
    ).at_speed(read_speed if workload.relaunch else speed)
    metrics["save_s"] = save
    metrics["disk_bytes_per_live_entry"] = Timing(
        result.disk["total"] / max(run.model.live_entries(), 1), 1)
    metrics["server_cpu_s"] = Timing(
        cpu.value + cpu_read.value, 1, raw=cpu.raw + cpu_read.raw)
    metrics["server_rss_peak_mb"] = Timing(rss, 1)
    metrics["failed_share"] = Timing(result.failed_share,
                                     result.attempted)


def _ask(run: _Run, encoded: list[bytes]) -> list[bytes | None]:
    """The probe set, one request at a time, answers kept raw."""
    assert run.conn is not None
    tally = Tally()
    bodies = [client.timed(run.conn, raw, tally) for raw in encoded]
    run.count(tally, "probe")
    return bodies


def _closed_reads(run: _Run) -> None:
    workload, inputs, result = run.workload, run.inputs, run.result
    assert run.server is not None and run.conn is not None
    conns = [run.conn] + [Connection(run.server.port)
                          for _ in range(workload.conns - 1)]
    encoded = [client.encode_query(q) for q in inputs.queries]
    began = time.monotonic()
    tally = client.run_reads(conns, encoded, run.sizes.oracle_every)
    speed = run.speed("read", began)
    for conn in conns[1:]:
        conn.close()
    run.count(tally, "read")
    result.measured_wall += tally.elapsed
    result.notes["closed_wall"] += tally.elapsed / speed
    ms = [s * 1e3 for s in tally.latencies]
    result.metrics["queries_per_s"] = Timing(
        len(tally.latencies) / tally.elapsed,
        len(tally.latencies)).at_speed(speed, rate=True)
    result.metrics["query_p50_ms"] = timing(ms, 0.50).at_speed(speed)
    result.metrics["query_p99_ms"] = timing(ms, 0.99).at_speed(speed)
    for i, body in sorted(tally.kept.items()):
        run.check(body, run.model.answer(inputs.queries[i]), f"query-{i}")


def _ladder(run: _Run) -> None:
    """The open loop: every step at its frozen rate, r1 first."""
    inputs, result, sizes = run.inputs, run.result, run.sizes
    ladder = sizes.ladder
    assert run.server is not None and run.conn is not None
    gateway, dashboard = run.conn, Connection(run.server.port)
    progress = WriteProgress()
    all_ops: list[Op] = []
    samples: list[tuple[int, int, int, bytes]] = []
    best = 0
    for k, (rate, seconds) in enumerate(zip(ladder.rates,
                                            sizes.ladder_seconds(),
                                            strict=True)):
        ops, refreshes = inputs.gateway[k], inputs.refreshes[k]
        began = time.monotonic()
        step = client.run_step(
            gateway, dashboard, ops,
            [client.encode_op(op) for op in ops], refreshes,
            [client.encode_refresh(r, inputs.tiles) for r in refreshes],
            seconds, sizes.oracle_every, progress)
        speed = run.speed(
            "read" if k == ladder.report_step else f"r{k + 1}", began)
        if k > ladder.report_step:
            speed = result.speed["read"]
        run.count(step.refreshes, "read")
        step.extends.client_cpu = 0.0
        run.count(step.extends, "read")
        result.measured_wall += step.refreshes.elapsed
        result.late.extend(step.late)
        ms = [s * 1e3 for s in step.refreshes.latencies]
        p95 = percentile(ms, 0.95, strict=False) if ms else float("inf")
        in_slo = (p95 <= ladder.limit_ms and step.queued_at_end <= 1
                  and not step.refreshes.failed
                  and not step.extends.failed)
        if in_slo:
            best = max(best, rate)
        result.steps.append({
            "rate": rate, "seconds": seconds, "sent": len(ms),
            "speed": speed,
            "completed_per_s": len(ms) / step.refreshes.elapsed,
            "p50_ms": percentile(ms, 0.5, strict=False) if ms else None,
            "p95_ms": p95, "queued_at_end": step.queued_at_end,
            "extend_ack_p50_ms": percentile(
                [s * 1e3 for s in step.extends.latencies], 0.5,
                strict=False),
            "failed": step.refreshes.failed + step.extends.failed,
            "in_slo": in_slo})
        if k == ladder.report_step:
            result.metrics["query_p50_ms"] = timing(ms, 0.50).at_speed(
                speed)
            result.metrics["query_p99_ms"] = timing(ms, 0.99).at_speed(
                speed)
        if k == len(ladder.rates) - 1:
            # Offered 1.4x capacity: what completes is the capacity.
            result.metrics["queries_per_s"] = Timing(
                len(ms) / step.refreshes.elapsed,
                len(ms)).at_speed(speed, rate=True)
        for i, body in step.refreshes.kept.items():
            lo, hi = step.cuts[i]
            samples.append((lo, hi, refreshes[i].t, body))
        all_ops.extend(ops)
    dashboard.close()
    result.metrics["max_rate_in_slo"] = Timing(float(best),
                                               len(ladder.rates))
    _check_ladder(run, all_ops, samples)


def _check_ladder(run: _Run, ops: list[Op],
                  samples: list[tuple[int, int, int, bytes]]) -> None:
    """A refresh answered while writes were in flight must equal the
    model at *some* cut between "writes acked before it was sent" and
    "writes sent before its answer arrived"."""
    model, tiles = run.model, run.inputs.tiles
    waiting = sorted(samples, key=lambda s: s[0])
    parsed = {id(s): [canonical(r["entries"])
                      for r in json.loads(s[3])["results"]]
              for s in waiting}
    matched: set[int] = set()
    for k in range(len(ops) + 1):
        if k:
            model.apply(ops[k - 1])
            if k % 64 == 0:
                model.prune()
        for sample in waiting:
            lo, hi, t, _ = sample
            if lo > k:
                break
            if k <= hi and id(sample) not in matched \
                    and model.query_many(tiles, t, t) == parsed[id(sample)]:
                matched.add(id(sample))
        waiting = [s for s in waiting if s[1] >= k and id(s) not in matched]
    run.result.attempted += len(samples)
    run.result.failed += len(samples) - len(matched)
    if len(matched) != len(samples):
        run.result.notes["mismatch:refresh"] = float(
            len(samples) - len(matched))


def contract_line(result: RunResult, per_layer: dict | None) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    if per_layer is None:
        metrics = {m.name: {"value": result.metrics[m.name].value,
                            "unit": m.unit} for m in END_TO_END}
    else:
        metrics = per_layer
    return json.dumps({"correct": result.failed == 0,
                       "attempted": result.attempted,
                       "failed": result.failed, "metrics": metrics})
