"""Self-test of the end-to-end benchmark (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

All four workloads run for real — server processes, sockets, SIGKILL —
at ``Sizes.smoke()`` (60 objects), so the whole file stays under 30 s.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import client, spec  # noqa: E402
from benchmarks.e2e.compare import (RUNS_FILE, NotComparable,  # noqa: E402
                                    compare)
from benchmarks.e2e.inputs import (Refresh, make_inputs,  # noqa: E402
                                   make_stream, table2_queries)
from benchmarks.e2e.layers import per_layer_metrics  # noqa: E402
from benchmarks.e2e.model import WindowModel, canonical  # noqa: E402
from benchmarks.e2e.proc import SERVER  # noqa: E402
from benchmarks.e2e.stats import (TooFewSamples, percentile,  # noqa: E402
                                  quartiles)
from benchmarks.e2e.workloads import contract_line, run_workload  # noqa: E402

SMOKE = spec.Sizes.smoke()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One untraced smoke run of every workload."""
    work = tmp_path_factory.mktemp("e2e")
    return {w.name: run_workload(w, 7, SMOKE, work)
            for w in spec.WORKLOADS}


def test_every_end_to_end_metric_everywhere(results):
    for workload in spec.WORKLOADS:
        result = results[workload.name]
        assert result.failed == 0, result.notes
        for metric in spec.END_TO_END:
            got = result.metrics[metric.name]
            assert math.isfinite(got.value) and got.value > 0, metric.name
            assert got.samples >= 1
        for metric in spec.EXTRA_END_TO_END:
            if spec.listed(metric.name, workload.name):
                assert math.isfinite(result.metrics[metric.name].value)
        line = json.loads(contract_line(result, None))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == {m.name for m in spec.END_TO_END}
        for metric in spec.END_TO_END:
            assert line["metrics"][metric.name]["unit"] == metric.unit
        record = result.record()
        assert record["input_digest"] == result.digest
        assert record["metrics"]["setup_s"]["samples"] == SMOKE.setup_reps


def test_no_process_survives_a_run(results):
    ours = {str(SERVER), str(SERVER.with_name("speed.py"))}
    survivors = [pid for pid in os.listdir("/proc") if pid.isdigit()
                 and ours & set(_argv(pid))]
    assert survivors == []


def _argv(pid: str) -> list[str]:
    try:
        return Path(f"/proc/{pid}/cmdline").read_text().split("\0")
    except OSError:
        return []


def test_inputs_are_pinned_by_the_seed():
    workload = spec.WORKLOAD_BY_NAME["dashboard_mixed"]
    first = make_inputs(workload, 3, SMOKE)
    again = make_inputs(workload, 3, SMOKE)
    other = make_inputs(workload, 4, SMOKE)
    assert first.digest == again.digest != other.digest
    assert len(first.gateway) == len(SMOKE.ladder.rates)


@pytest.mark.parametrize("name", ["scan_queries", "durable_workers"])
def test_traced_run_prints_every_per_layer_metric(name, tmp_path,
                                                  results):
    workload = spec.WORKLOAD_BY_NAME[name]
    traced = run_workload(workload, 7, SMOKE, tmp_path, trace=True,
                          final_grace=1.0)
    assert traced.failed == 0, traced.notes
    metrics, table = per_layer_metrics(workload, traced, results[name])
    assert set(metrics) == {m.name for m in spec.PER_LAYER}
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["core.index.node_accesses_per_query"] > 0
    assert metrics["core.index.node_accesses_per_report"] > 0
    # The layer rows must account for what the client waited for.
    assert 0.9 <= metrics["trace.self_sum_share"] <= 1.1
    assert table["serve.http"] > 0
    if workload.workers:
        assert metrics["engine.wal.replayed_records"] > 0
        assert metrics["engine.wal.fsync_us_per_batch"] > 0
        assert metrics["engine.worker.pipe_rtt_us_per_call"] > 0
    # Same seed, same inputs: counts repeat exactly run over run.
    assert traced.digest == results[name].digest


def test_percentile_refuses_unsupported_tail():
    samples = [float(i) for i in range(999)]
    with pytest.raises(TooFewSamples):
        percentile(samples, 0.99)
    assert percentile(samples + [999.0], 0.99) == 989.0
    assert percentile(samples, 0.50) == 499.0
    with pytest.raises(TooFewSamples):
        percentile(samples[:19], 0.50)
    q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q.median, q.n) == (3.0, 5)


def test_model_agrees_with_naive_store():
    from repro.baselines.naive import NaiveStore
    from repro.core.config import SWSTConfig
    from repro.core.records import Rect

    stream = make_stream(11, SMOKE)[:500]
    config = SWSTConfig(**spec.DEPLOYMENT)
    naive, model = NaiveStore(config), WindowModel()
    rng = random.Random(5)
    for i in range(0, len(stream), 50):
        chunk = stream[i:i + 50]
        for oid, x, y, t in chunk:
            naive.report(oid, x, y, t)
        model.extend(chunk)
        assert model.now == naive.now
        for query in table2_queries(rng, 12, model.now):
            want = canonical([[e.oid, e.x, e.y, e.s, e.d] for e in
                              naive.query_interval(Rect(*query.area),
                                                   query.t_lo,
                                                   query.t_hi)])
            assert model.answer(query) == want
    assert model.live_entries() > 0


class _StubServer(threading.Thread):
    """Answers every request with ``{}``; stalls once, on request
    number ``stall_at``, for ``stall_s`` seconds."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_at, self.stall_s = stall_at, stall_s

    def run(self) -> None:
        conn, _ = self.listener.accept()
        body = b'{"results": []}'
        reply = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                 % len(body)) + body
        served = 0
        buf = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return
            buf += chunk
            while b"\r\n\r\n" in buf:
                head, _, rest = buf.partition(b"\r\n\r\n")
                length = int(re.search(rb"content-length: (\d+)",
                                       head.lower()).group(1))
                if len(rest) < length:
                    break
                buf = rest[length:]
                if served == self.stall_at:
                    time.sleep(self.stall_s)
                served += 1
                conn.sendall(reply)


def test_open_loop_latency_runs_from_the_due_time():
    stub = _StubServer(stall_at=10, stall_s=0.2)
    stub.start()
    idle = _StubServer(stall_at=-1, stall_s=0.0)
    idle.start()
    rate, seconds = 50, 1.0
    refreshes = [Refresh(0, i / rate) for i in range(int(rate * seconds))]
    raw = [client.encode_refresh(r, [(0, 0, 1, 1)]) for r in refreshes]
    step = client.run_step(
        client.Connection(idle.port), client.Connection(stub.port),
        [], [], refreshes, raw, seconds, 1000,
        client.WriteProgress())
    latencies = step.refreshes.latencies
    assert step.refreshes.failed == 0 and len(latencies) >= 40
    assert max(latencies[:10]) < 0.05
    assert latencies[10] >= 0.2
    # The stall delays the requests queued behind it: they were due
    # while the server was stuck, and their clocks started then.
    assert all(latency > 0.1 for latency in latencies[11:14])
    assert step.refreshes.busy < 0.2 + 0.05 * len(latencies)
    # Lateness is only recorded when the generator itself was late.
    assert all(late < 0.05 for late in step.late)


def _write_runs(directory: Path, values: dict[str, list[float]],
                digest: str = "d") -> str:
    directory.mkdir()
    with open(directory / RUNS_FILE, "w") as handle:
        for seed in range(5):
            metrics = {name: {"value": series[seed], "unit": "x",
                              "samples": 1, "valid": True}
                       for name, series in values.items()}
            handle.write(json.dumps({
                "workload": "scan_queries", "seed": seed,
                "input_digest": digest, "metrics": metrics}) + "\n")
    return str(directory)


def test_compare_verdicts(tmp_path):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _write_runs(tmp_path / "a", {
        "queries_per_s": steady, "query_p50_ms": steady,
        "ingest_reports_per_s": steady, "server_cpu_s": steady,
        "failed_share": [0.0] * 5})
    other = _write_runs(tmp_path / "b", {
        "queries_per_s": [v * 1.5 for v in steady],       # faster
        "query_p50_ms": [v * 1.4 for v in steady],        # slower
        "ingest_reports_per_s": [100, 60, 140, 100, 99],  # noisy
        "server_cpu_s": [v * 1.02 for v in steady],
        "failed_share": [0.0, 0.0, 0.1, 0.1, 0.1]})
    rows, lines = compare(base, other)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"queries_per_s": "improved",
                        "query_p50_ms": "regressed",
                        "ingest_reports_per_s": "unresolved",
                        "server_cpu_s": "unchanged",
                        "failed_share": "regressed"}
    assert any("B/A" in line for line in lines)
    assert {row["metric"] for row in rows if not row["gated"]} == \
        {"failed_share"}
    same, _ = compare(base, base)
    assert {row["verdict"] for row in same} == {"unchanged"}
    different = _write_runs(tmp_path / "c", {"queries_per_s": steady},
                            digest="other")
    with pytest.raises(NotComparable):
        compare(base, different)


def test_benchmark_json_matches_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in doc["workloads"]] == \
        [w.name for w in spec.WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] \
        + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
