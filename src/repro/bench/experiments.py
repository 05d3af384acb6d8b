"""One function per paper table/figure: regenerate the evaluation.

Every function returns an :class:`ExperimentResult` whose rows mirror the
series of the corresponding figure; ``render()`` prints the same rows the
paper plots.  Absolute numbers differ from the paper (different substrate),
but the *shape* — who wins, by what factor, where crossovers fall — is the
reproduction target recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..baselines.pist import PISTIndex
from ..baselines.r3d import R3DIndex
from ..core.config import SWSTConfig
from ..core.records import Entry
from ..datagen.gstd import GSTDConfig, GSTDGenerator, Report
from ..datagen.workloads import WorkloadConfig, generate_queries
from .harness import (build_mv3r, build_swst, run_queries_mv3r,
                      run_queries_swst)
from .params import BenchParams
from .reporting import format_table

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.index import SWSTIndex


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        text = format_table(f"{self.exp_id}: {self.title}",
                            self.headers, self.rows)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


def _stream_for(params: BenchParams, num_objects: int,
                **overrides: Any) -> list[Report]:
    config = replace(params.stream, num_objects=num_objects, **overrides)
    return GSTDGenerator(config).materialize()


# -- Fig. 7 / Fig. 8: insertion cost -------------------------------------------------


def experiment_insertion(params: BenchParams
                         ) -> tuple[ExperimentResult, ExperimentResult]:
    """Fig. 7 (insertion node accesses) and Fig. 8 (insertion CPU time)."""
    fig7 = ExperimentResult(
        exp_id="Fig.7", title="Insertion node accesses vs dataset size",
        headers=["objects", "records", "SWST IOs", "MV3R IOs",
                 "SWST IOs/rec", "MV3R IOs/rec"])
    fig8 = ExperimentResult(
        exp_id="Fig.8", title="Insertion CPU time vs dataset size",
        headers=["objects", "records", "SWST s", "MV3R s",
                 "MV3R/SWST speedup"],
        notes="paper: SWST insertion CPU ~5x faster than MV3R")
    for num_objects in params.dataset_objects:
        stream = _stream_for(params, num_objects)
        swst, swst_build = build_swst(stream, params.index)
        mv3r, mv3r_build = build_mv3r(stream,
                                      page_size=params.index.page_size,
                                      buffer_capacity=params.index
                                      .buffer_capacity)
        fig7.rows.append([num_objects, len(stream),
                          swst_build.node_accesses,
                          mv3r_build.node_accesses,
                          swst_build.accesses_per_record,
                          mv3r_build.accesses_per_record])
        speedup = (mv3r_build.cpu_seconds
                   / max(swst_build.cpu_seconds, 1e-9))
        fig8.rows.append([num_objects, len(stream),
                          swst_build.cpu_seconds, mv3r_build.cpu_seconds,
                          speedup])
        swst.close()
        mv3r.close()
    return fig7, fig8


# -- Fig. 9 / Fig. 10: search cost ---------------------------------------------------


def _search_experiment(params: BenchParams, spatial_extents: list[float],
                       temporal_extents: list[float],
                       exp_id: str, title: str,
                       vary: str) -> ExperimentResult:
    stream = _stream_for(params, params.dataset_objects[-1])
    swst, _ = build_swst(stream, params.index)
    mv3r, _ = build_mv3r(stream, page_size=params.index.page_size,
                         buffer_capacity=params.index.buffer_capacity)
    result = ExperimentResult(
        exp_id=exp_id, title=title,
        headers=[vary, "SWST acc/query", "MV3R acc/query", "results/query"])
    points = [(s, t) for s in spatial_extents for t in temporal_extents]
    for spatial, temporal in points:
        workload = WorkloadConfig(spatial_extent=spatial,
                                  temporal_extent=temporal,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count)
        queries = generate_queries(params.index, workload, swst.now)
        swst_batch = run_queries_swst(swst, queries)
        mv3r_batch = run_queries_mv3r(mv3r, queries)
        label = (f"{spatial * 100:g}%" if vary == "spatial extent"
                 else f"{temporal * 100:g}%")
        result.rows.append([label, swst_batch.accesses_per_query,
                            mv3r_batch.accesses_per_query,
                            swst_batch.result_entries
                            / max(len(queries), 1)])
    swst.close()
    mv3r.close()
    return result


def experiment_spatial_extent(params: BenchParams) -> ExperimentResult:
    """Fig. 9: effect of the query's spatial extent (temporal fixed 10%)."""
    result = _search_experiment(
        params, spatial_extents=[0.005, 0.01, 0.04],
        temporal_extents=[0.10],
        exp_id="Fig.9", title="Search node accesses vs spatial extent "
                              "(time interval 10% of T)",
        vary="spatial extent")
    result.notes = ("paper: SWST wins below ~4% spatial extent, gap grows "
                    "as the extent shrinks")
    return result


def experiment_time_interval(params: BenchParams) -> ExperimentResult:
    """Fig. 10: effect of the query's time interval (spatial fixed 1%)."""
    result = _search_experiment(
        params, spatial_extents=[0.01],
        temporal_extents=[0.0, 0.05, 0.10, 0.15],
        exp_id="Fig.10", title="Search node accesses vs time interval "
                               "(spatial extent 1%)",
        vary="time interval")
    result.notes = ("paper: MV3R wins at timeslice (0%), SWST wins once "
                    "the interval exceeds ~4-5% of T")
    return result


# -- Fig. 11: the isPresent memo -----------------------------------------------------


def experiment_memo(params: BenchParams) -> ExperimentResult:
    """Fig. 11: SWST with vs without the memo, 4% long-duration entries."""
    stream = _stream_for(params, params.dataset_objects[-1],
                         long_fraction=0.04, long_interval_hi=20000)
    # Long durations exist, so the index must represent them: raise Dmax to
    # the long interval bound, as the paper's Fig. 11 setup does.
    base = replace(params.index, d_max=20000, duration_interval=1000)
    result = ExperimentResult(
        exp_id="Fig.11", title="isPresent memo benefit with 4% "
                               "long-duration entries",
        headers=["time interval", "with memo acc/query",
                 "without memo acc/query", "memo reduction"],
        notes="paper: the memo greatly reduces node accesses when a small "
              "fraction of entries is long")
    with_memo, _ = build_swst(stream, replace(base, use_memo=True))
    without_memo, _ = build_swst(stream, replace(base, use_memo=False))
    for temporal in (0.0, 0.05, 0.10):
        workload = WorkloadConfig(spatial_extent=0.01,
                                  temporal_extent=temporal,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count)
        queries = generate_queries(base, workload, with_memo.now)
        batch_with = run_queries_swst(with_memo, queries)
        batch_without = run_queries_swst(without_memo, queries)
        reduction = (batch_without.accesses_per_query
                     / max(batch_with.accesses_per_query, 1e-9))
        result.rows.append([f"{temporal * 100:g}%",
                            batch_with.accesses_per_query,
                            batch_without.accesses_per_query,
                            f"{reduction:.2f}x"])
    with_memo.close()
    without_memo.close()
    return result


# -- Section V-E: parameter effects ----------------------------------------------------


def experiment_spatial_cells(params: BenchParams,
                             grids: Sequence[tuple[int, int]] = (
                                 (2, 2), (5, 5), (10, 10), (20, 20),
                                 (30, 30))) -> ExperimentResult:
    """V-E: effect of the number of spatial cells (paper: 300-600 best)."""
    stream = _stream_for(params, params.dataset_objects[-1])
    result = ExperimentResult(
        exp_id="Sec.V-E(a)", title="Effect of the number of spatial cells",
        headers=["grid", "cells", "SWST acc/query"],
        notes="paper: too few cells lose spatial discrimination; too many "
              "raise overhead (their sweet spot: 300-600 cells)")
    for xp, yp in grids:
        config = replace(params.index, x_partitions=xp, y_partitions=yp)
        index, _ = build_swst(stream, config)
        workload = WorkloadConfig(spatial_extent=0.01, temporal_extent=0.10,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count)
        queries = generate_queries(config, workload, index.now)
        batch = run_queries_swst(index, queries)
        result.rows.append([f"{xp}x{yp}", xp * yp,
                            batch.accesses_per_query])
        index.close()
    return result


def experiment_spartition(params: BenchParams,
                          s_partitions: Sequence[int] = (
                              25, 100, 201, 400, 800)) -> ExperimentResult:
    """V-E: effect of the s-partition size on search."""
    stream = _stream_for(params, params.dataset_objects[-1])
    result = ExperimentResult(
        exp_id="Sec.V-E(b)", title="Effect of the s-partition count "
                                   "(per window)",
        headers=["Sp", "s-interval", "SWST acc/query"],
        notes="paper: too-large s-partitions create false positives, "
              "too-small ones scatter similar entries")
    for sp in s_partitions:
        config = replace(params.index, s_partitions=sp)
        index, _ = build_swst(stream, config)
        workload = WorkloadConfig(spatial_extent=0.01, temporal_extent=0.10,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count)
        queries = generate_queries(config, workload, index.now)
        batch = run_queries_swst(index, queries)
        result.rows.append([sp, -(-config.w_max // sp),
                            batch.accesses_per_query])
        index.close()
    return result


# -- Ablations ------------------------------------------------------------------------


def experiment_zcurve(params: BenchParams) -> ExperimentResult:
    """Ablation: keys with vs without the Z-curve spatial bits (Fig. 9
    discussion: spatial encoding is what keeps small-overlap cells cheap)."""
    stream = _stream_for(params, params.dataset_objects[-1])
    result = ExperimentResult(
        exp_id="Ablation-Z", title="Z-curve spatial key bits on vs off",
        headers=["spatial extent", "with Z acc/query", "without Z "
                 "acc/query", "with Z candidates", "without Z candidates"])
    with_z, _ = build_swst(stream, replace(params.index, spatial_keys=True))
    without_z, _ = build_swst(stream,
                              replace(params.index, spatial_keys=False))
    for spatial in (0.005, 0.01, 0.04):
        workload = WorkloadConfig(spatial_extent=spatial,
                                  temporal_extent=0.10,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count)
        queries = generate_queries(params.index, workload, with_z.now)
        candidates = [0, 0]
        accesses = [0, 0]
        for pos, index in enumerate((with_z, without_z)):
            for query in queries:
                res = index.query_interval(query.area, query.t_lo,
                                           query.t_hi)
                candidates[pos] += res.stats.candidates
                accesses[pos] += res.stats.node_accesses
        n = max(len(queries), 1)
        result.rows.append([f"{spatial * 100:g}%", accesses[0] / n,
                            accesses[1] / n, candidates[0] / n,
                            candidates[1] / n])
    with_z.close()
    without_z.close()
    return result


def experiment_maintenance(params: BenchParams) -> ExperimentResult:
    """Ablation (Sections IV-C and V-A): sliding-window maintenance cost.

    SWST drops an expired window wholesale; a 3D R-tree must delete each
    expired entry; PIST must delete each expired *sub-entry* (splitting
    multiplies them).
    """
    stream = _stream_for(params, params.dataset_objects[0])
    config = params.index
    cutoff = config.w_max  # expire the first window
    result = ExperimentResult(
        exp_id="Ablation-M", title="Sliding-window maintenance cost "
                                   "(expiring one window)",
        headers=["index", "expired entries", "node accesses",
                 "accesses/entry", "cpu s"])

    # SWST: the drop happens when the clock crosses 2*Wmax.
    swst, _ = build_swst([r for r in stream if r.t < 2 * config.w_max],
                         config)
    expired = sum(1 for r in stream if r.t < cutoff)
    before = swst.stats.snapshot()
    started = time.process_time()
    swst.advance_time(2 * config.w_max)
    swst_cpu = time.process_time() - started
    swst_accesses = swst.stats.diff(before).node_accesses
    result.rows.append(["SWST (drop)", expired, swst_accesses,
                        swst_accesses / max(expired, 1), swst_cpu])
    swst.close()

    # 3D R-tree: per-entry deletes.
    r3d = R3DIndex(page_size=config.page_size,
                   buffer_capacity=config.buffer_capacity)
    for report in stream:
        if report.t < 2 * config.w_max:
            r3d.report(report.oid, report.x, report.y, report.t)
    before = r3d.stats.snapshot()
    started = time.process_time()
    removed = r3d.expire_before(cutoff)
    r3d_cpu = time.process_time() - started
    r3d_accesses = r3d.stats.diff(before).node_accesses
    result.rows.append(["3D R-tree (per-entry delete)", removed,
                        r3d_accesses, r3d_accesses / max(removed, 1),
                        r3d_cpu])
    r3d.close()

    # PIST: per-sub-entry deletes (split multiplies the work).
    closed = _closed_entries(stream, horizon=2 * config.w_max)
    pist = PISTIndex(config.space, config.x_partitions, config.y_partitions,
                     lam=config.slide, page_size=config.page_size,
                     buffer_capacity=config.buffer_capacity)
    pist.build(closed)
    before = pist.stats.snapshot()
    started = time.process_time()
    removed = pist.delete_expired(cutoff)
    pist_cpu = time.process_time() - started
    pist_accesses = pist.stats.diff(before).node_accesses
    result.rows.append(["PIST (per-sub-entry delete)", removed,
                        pist_accesses, pist_accesses / max(removed, 1),
                        pist_cpu])
    pist.close()
    result.notes = ("SWST accesses/entry should be <<1 (wholesale drop); "
                    "the baselines pay per entry or per sub-entry")
    return result


def experiment_wave(params: BenchParams) -> ExperimentResult:
    """Ablation for Section II's sub-index argument: SWST's two-tree
    modulo design vs a wave-index-style partition per slide step.

    Both expire wholesale, but the per-slide design must search every
    live partition (no duration dimension), so its query cost is flat and
    high while SWST's scales with the query interval.
    """
    from ..baselines.wave import WaveIndex

    stream = _stream_for(params, params.dataset_objects[-1])
    swst, swst_build = build_swst(stream, params.index)
    wave = WaveIndex(params.index)
    before = wave.stats.snapshot()
    started = time.process_time()
    for report in stream:
        wave.report(report.oid, report.x, report.y, report.t)
    wave_cpu = time.process_time() - started
    wave_build = wave.stats.diff(before).node_accesses
    result = ExperimentResult(
        exp_id="Ablation-W", title="Two-tree modulo design vs per-slide "
                                   "sub-indexes (wave index)",
        headers=["time interval", "SWST acc/query", "wave acc/query"],
        notes=f"insertion: SWST {swst_build.node_accesses:,} accesses / "
              f"{swst_build.cpu_seconds:.2f}s, wave {wave_build:,} / "
              f"{wave_cpu:.2f}s; search below")
    for temporal in (0.0, 0.05, 0.10, 0.15):
        workload = WorkloadConfig(spatial_extent=0.01,
                                  temporal_extent=temporal,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count)
        queries = generate_queries(params.index, workload, swst.now)
        swst_batch = run_queries_swst(swst, queries)
        before = wave.stats.snapshot()
        for query in queries:
            wave.query_interval(query.area, query.t_lo, query.t_hi)
        wave_accesses = wave.stats.diff(before).node_accesses
        result.rows.append([f"{temporal * 100:g}%",
                            swst_batch.accesses_per_query,
                            wave_accesses / max(len(queries), 1)])
    swst.close()
    wave.close()
    return result


def experiment_hrtree(params: BenchParams) -> ExperimentResult:
    """Ablation for Section II's HR-tree discussion: one R-tree version
    per timestamp is strong at timeslices, unusable for long intervals,
    and storage-hungry."""
    from ..baselines.hrtree import HRTree

    stream = _stream_for(params, params.dataset_objects[0])
    swst, _ = build_swst(stream, params.index)
    hrtree = HRTree(page_size=params.index.page_size,
                    buffer_capacity=params.index.buffer_capacity)
    for report in stream:
        hrtree.report(report.oid, report.x, report.y, report.t)
    result = ExperimentResult(
        exp_id="Ablation-HR", title="HR-tree (R-tree per timestamp) vs "
                                    "SWST",
        headers=["time interval", "SWST acc/query", "HR-tree acc/query"],
        notes=f"storage: SWST {swst.node_count():,} pages vs HR-tree "
              f"{hrtree.live_pages():,} pages for {len(stream):,} reports "
              f"of {params.dataset_objects[0]} objects")
    for temporal in (0.0, 0.05, 0.10):
        workload = WorkloadConfig(spatial_extent=0.01,
                                  temporal_extent=temporal,
                                  temporal_domain=params.temporal_domain,
                                  count=max(params.query_count // 4, 5))
        queries = generate_queries(params.index, workload, swst.now)
        swst_batch = run_queries_swst(swst, queries)
        before = hrtree.stats.snapshot()
        for query in queries:
            if query.is_timeslice:
                hrtree.query_timeslice(query.area, query.t_lo)
            else:
                hrtree.query_interval(query.area, query.t_lo, query.t_hi)
        hr_accesses = hrtree.stats.diff(before).node_accesses
        result.rows.append([f"{temporal * 100:g}%",
                            swst_batch.accesses_per_query,
                            hr_accesses / max(len(queries), 1)])
    swst.close()
    hrtree.close()
    return result


def experiment_physical_io(params: BenchParams,
                           capacities: Sequence[int] = (8, 32, 128, 512),
                           ) -> ExperimentResult:
    """Disk-level behaviour: physical reads per query vs buffer capacity.

    Node accesses (the paper's metric) are cache-independent; this
    extension measures what actually hits the disk.  The index is built
    once on a real page file, then reopened cold with different buffer
    pool sizes.  SWST's key clustering keeps each query inside a few
    leaves, so physical reads approach the logical count with tiny
    buffers and collapse quickly as the pool grows.
    """
    import os
    import tempfile

    from ..core.index import SWSTIndex

    stream = _stream_for(params, params.dataset_objects[-1])
    result = ExperimentResult(
        exp_id="Physical-IO", title="Physical reads per query vs buffer "
                                    "pool capacity (cold cache, SWST)",
        headers=["buffer pages", "physical reads/query",
                 "logical accesses/query"])
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "swst.db")
        disk = _replay_to_disk(stream, params.index, path)
        now = disk.now
        disk.save()
        disk.close()
        workload = WorkloadConfig(spatial_extent=0.01, temporal_extent=0.10,
                                  temporal_domain=params.temporal_domain,
                                  count=max(params.query_count // 4, 5))
        for capacity in capacities:
            config = replace(params.index, buffer_capacity=capacity)
            with SWSTIndex.open(path, config) as reopened:
                reopened.pool.drop_cache()
                reopened.stats.reset()
                queries = generate_queries(config, workload, now)
                for query in queries:
                    reopened.query_interval(query.area, query.t_lo,
                                            query.t_hi)
                stats = reopened.stats
                result.rows.append([capacity,
                                    stats.physical_reads / len(queries),
                                    stats.node_accesses / len(queries)])
    result.notes = ("logical accesses are capacity-independent; physical "
                    "reads shrink as the pool grows — key clustering at "
                    "work")
    return result


def _replay_to_disk(stream: list[Report], config: SWSTConfig,
                    path: str) -> "SWSTIndex":
    from ..core.index import SWSTIndex

    index = SWSTIndex(config, path=path)
    try:
        for report in stream:
            index.report(report.oid, report.x, report.y, report.t)
    except BaseException:
        index.close()
        raise
    return index


def experiment_skew(params: BenchParams) -> ExperimentResult:
    """Section V-B's omitted result: "Our index performs better when the
    data is skewed.  For skewed data, the isPresent memo becomes more
    useful."  We measure SWST vs MV3R on uniform, gaussian and skewed
    GSTD initial distributions, plus the memo's contribution per
    distribution."""
    result = ExperimentResult(
        exp_id="Sec.V-B(skew)", title="Effect of spatial data skew "
                                      "(1% spatial, 10% temporal, queries "
                                      "correlated with the data)",
        headers=["distribution", "SWST acc/query", "SWST no-memo "
                 "acc/query", "MV3R acc/query"],
        notes="paper (text only): SWST gains on skewed data because the "
              "memo prunes more")
    for distribution in ("uniform", "gaussian", "skewed"):
        stream = _stream_for(params, params.dataset_objects[-1],
                             initial=distribution)
        swst, _ = build_swst(stream, params.index)
        no_memo, _ = build_swst(stream,
                                replace(params.index, use_memo=False))
        mv3r, _ = build_mv3r(stream, page_size=params.index.page_size,
                             buffer_capacity=params.index.buffer_capacity)
        workload = WorkloadConfig(spatial_extent=0.01, temporal_extent=0.10,
                                  temporal_domain=params.temporal_domain,
                                  count=params.query_count,
                                  placement=distribution)
        queries = generate_queries(params.index, workload, swst.now)
        result.rows.append([
            distribution,
            run_queries_swst(swst, queries).accesses_per_query,
            run_queries_swst(no_memo, queries).accesses_per_query,
            run_queries_mv3r(mv3r, queries).accesses_per_query,
        ])
        swst.close()
        no_memo.close()
        mv3r.close()
    return result


def experiment_interleaved(params: BenchParams) -> ExperimentResult:
    """Section V-A: a sliding-window index must support *interleaved*
    insertions and queries (the restriction that disqualifies PIST).

    Feeds the stream in chunks and fires a query burst after every chunk
    once steady state is reached, reporting how query cost evolves as the
    window keeps sliding.  Stable per-query cost across checkpoints is
    the success criterion — the index does not degrade as windows expire
    and trees are recycled.
    """
    stream = _stream_for(params, params.dataset_objects[-1])
    index, _ = build_swst(stream[:0], params.index)  # empty index
    checkpoints = 5
    chunk = len(stream) // checkpoints
    result = ExperimentResult(
        exp_id="Interleaved", title="Query cost at steady-state "
                                    "checkpoints (interleaved workload)",
        headers=["checkpoint", "stream time", "physical entries",
                 "SWST acc/query"],
        notes="stable accesses/query across checkpoints = no degradation "
              "as the window slides")
    for checkpoint in range(checkpoints):
        for report in stream[checkpoint * chunk:(checkpoint + 1) * chunk]:
            index.report(report.oid, report.x, report.y, report.t)
        if index.now < params.index.window:
            continue  # not yet at steady state
        workload = WorkloadConfig(spatial_extent=0.01, temporal_extent=0.10,
                                  temporal_domain=params.temporal_domain,
                                  count=max(params.query_count // 4, 5),
                                  seed=checkpoint)
        queries = generate_queries(params.index, workload, index.now)
        batch = run_queries_swst(index, queries)
        result.rows.append([checkpoint + 1, index.now, len(index),
                            batch.accesses_per_query])
    index.close()
    return result


def _closed_entries(stream: list[Report], horizon: int) -> list[Entry]:
    """Convert a report stream into closed entries (for PIST's bulk load)."""
    last: dict[int, Report] = {}
    closed: list[Entry] = []
    for report in stream:
        if report.t >= horizon:
            break
        previous = last.get(report.oid)
        if previous is not None and report.t > previous.t:
            closed.append(Entry(previous.oid, previous.x, previous.y,
                                previous.t, report.t - previous.t))
        last[report.oid] = report
    return closed


#: Every experiment in paper order: (ids of the tables it renders,
#: function).  ``run_all`` and ``repro bench --figures`` both walk this.
EXPERIMENTS: Sequence[tuple[tuple[str, ...], Callable[..., Any]]] = (
    (("Fig.7", "Fig.8"), experiment_insertion),
    (("Fig.9",), experiment_spatial_extent),
    (("Fig.10",), experiment_time_interval),
    (("Fig.11",), experiment_memo),
    (("Sec.V-E(a)",), experiment_spatial_cells),
    (("Sec.V-E(b)",), experiment_spartition),
    (("Ablation-Z",), experiment_zcurve),
    (("Ablation-M",), experiment_maintenance),
    (("Ablation-W",), experiment_wave),
    (("Ablation-HR",), experiment_hrtree),
    (("Physical-IO",), experiment_physical_io),
    (("Sec.V-B(skew)",), experiment_skew),
    (("Interleaved",), experiment_interleaved),
)


def run_experiment(experiment: Callable[..., Any],
                   params: BenchParams) -> tuple[ExperimentResult, ...]:
    """Run one :data:`EXPERIMENTS` function; always a tuple of results."""
    produced = experiment(params)
    return produced if isinstance(produced, tuple) else (produced,)


def run_all(params: BenchParams) -> list[ExperimentResult]:
    """Regenerate every table/figure; returns the results in paper order."""
    return [result for _, experiment in EXPERIMENTS
            for result in run_experiment(experiment, params)]
