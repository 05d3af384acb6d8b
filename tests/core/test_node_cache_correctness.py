"""The buffer pool is invisible to index semantics and logical accounting.

Runs the same seed workload under the default configuration and under
pools of one, two and seven pages (one page is maximum churn: every
access evicts), then asserts identical stored entries, identical query
results and identical *logical* IO counts everywhere.  Only physical IO
and CPU work may differ between configurations.
"""

import dataclasses
import random

from repro.core import Rect, SWSTConfig, SWSTIndex

BASE = SWSTConfig(window=2000, slide=100, x_partitions=4, y_partitions=4,
                  d_max=300, duration_interval=50,
                  space=Rect(0, 0, 999, 999), page_size=1024)

CONFIGS = {
    "default": BASE,
    "one_page_buffer": dataclasses.replace(BASE, buffer_capacity=1),
    "two_page_buffer": dataclasses.replace(BASE, buffer_capacity=2),
    "seven_page_buffer": dataclasses.replace(BASE, buffer_capacity=7),
}


def _seed_workload(seed=7, steps=1200, objects=20):
    rng = random.Random(seed)
    t = 0
    reports = []
    for _ in range(steps):
        t += rng.randrange(0, 4)
        reports.append((rng.randrange(objects), rng.randrange(1000),
                        rng.randrange(1000), t))
    return reports


def _queries(index, count=30, seed=99):
    rng = random.Random(seed)
    q_lo, q_hi = BASE.queriable_period(index.now)
    queries = []
    for _ in range(count):
        x0, y0 = rng.randrange(700), rng.randrange(700)
        t_lo = rng.randrange(q_lo, q_hi + 1)
        queries.append((Rect(x0, y0, x0 + 250, y0 + 250), t_lo,
                        t_lo + rng.randrange(0, 400)))
    return queries


def _run(config):
    """Build + query one configuration; returns a comparable summary."""
    index = SWSTIndex(config)
    for oid, x, y, t in _seed_workload():
        index.report(oid, x, y, t)
    build_reads = index.stats.logical_reads
    build_writes = index.stats.logical_writes
    results = []
    for area, t_lo, t_hi in _queries(index):
        result = index.query_interval(area, t_lo, t_hi)
        results.append((sorted((e.oid, e.x, e.y, e.s, e.d) for e in result),
                        result.stats.node_accesses))
    entries = sorted((e.oid, e.x, e.y, e.s, e.d) for e in index.scan())
    index.check_integrity()
    index.close()
    return {"entries": entries, "build_reads": build_reads,
            "build_writes": build_writes, "queries": results}


def test_cache_configurations_agree_exactly():
    baseline = _run(CONFIGS["default"])
    for name, config in CONFIGS.items():
        if name == "default":
            continue
        got = _run(config)
        assert got["entries"] == baseline["entries"], name
        assert got["queries"] == baseline["queries"], name
        assert got["build_reads"] == baseline["build_reads"], name
        assert got["build_writes"] == baseline["build_writes"], name


def test_default_workload_actually_hits_the_node_cache():
    index = SWSTIndex(BASE)
    for oid, x, y, t in _seed_workload():
        index.report(oid, x, y, t)
    assert index.stats.node_cache_hits > 0
    assert index.stats.node_parses < index.stats.logical_reads
    index.close()


def test_every_pool_miss_is_one_parse():
    """A one-page pool misses on every change of page: each miss reads
    the device and parses once, each hit does neither."""
    index = SWSTIndex(CONFIGS["one_page_buffer"])
    for oid, x, y, t in _seed_workload():
        index.report(oid, x, y, t)
    stats = index.stats
    assert stats.node_parses == stats.physical_reads
    assert stats.node_parses + stats.node_cache_hits == stats.logical_reads
    assert stats.node_cache_hits < stats.node_parses
    index.close()
