"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — produce a GSTD report stream as CSV.
* ``build`` — build an on-disk SWST index from a stream CSV.
* ``query`` — run a timeslice/interval/KNN query against a saved index
  (``--no-strict`` degrades gracefully when shards fail).
* ``scrub`` — checksum-sweep a page file — or, given an engine
  directory, every shard file plus the manifest.
* ``bench`` — regenerate one (or all) of the paper's figures.
* ``lint`` — run the project-invariant lint (``repro.analysis``).

Every command prints what it did and the node-access cost, so the CLI
doubles as a quick way to poke at the index's behaviour.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Iterator

from .bench.experiments import EXPERIMENTS, run_experiment
from .bench.params import PAPER, SCALED, TINY
from .core.config import SWSTConfig
from .core.index import SWSTIndex
from .core.records import Rect
from .datagen.gstd import GSTDConfig, GSTDGenerator, Report

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .engine import Coordinator


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=20000,
                        help="sliding window size W (default 20000)")
    parser.add_argument("--slide", type=int, default=100,
                        help="slide L (default 100)")
    parser.add_argument("--grid", type=int, default=20,
                        help="spatial partitions per axis (default 20)")
    parser.add_argument("--d-max", type=int, default=2000,
                        help="maximum duration Dmax (default 2000)")
    parser.add_argument("--page-size", type=int, default=8192,
                        help="page size in bytes (default 8192)")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard the index over N page files "
                             "(index path becomes a directory; default 1)")
    parser.add_argument("--executor", default="serial",
                        help="executor for in-process --shards > 1: "
                             "serial | thread[:N] (default serial; both "
                             "run shard work inline — it is not a speed "
                             "setting)")
    parser.add_argument("--workers", action="store_true",
                        help="with --shards > 1: run each shard in a "
                             "long-lived worker process behind a "
                             "write-ahead log (durable per-batch, "
                             "supervised restarts)")


def _config_from(args: argparse.Namespace) -> SWSTConfig:
    return SWSTConfig(window=args.window, slide=args.slide,
                      x_partitions=args.grid, y_partitions=args.grid,
                      d_max=args.d_max, page_size=args.page_size,
                      n_shards=args.shards)


@contextlib.contextmanager
def _open_index(args: argparse.Namespace, config: SWSTConfig, *,
                build: bool) -> "Iterator[SWSTIndex | Coordinator]":
    """Open (or create) the index named on the command line.

    ``--shards N`` with N > 1 selects the sharded engine, whose on-disk
    form is a directory of per-shard page files; otherwise the classic
    single page file.  ``--workers`` runs the engine's shards as warm
    worker processes: one long-lived process per shard behind a
    write-ahead log, so every acknowledged batch is durable without a
    full ``save()``.  A context manager so everything the engine owns
    is torn down alongside it even when the command body raises.
    """
    if config.n_shards == 1:
        if build:
            with SWSTIndex(config, path=args.index) as index:
                yield index
        else:
            with SWSTIndex.open(args.index, config) as index:
                yield index
        return
    import random
    import time

    from .engine import RetryPolicy, open_engine

    # Unlike the engine's deterministic in-process default, the CLI
    # wires real backoff: transient device errors get retried with
    # actual sleeps and seeded jitter (the engine core itself stays
    # clock-free; the seams are injected here, at the edge).
    retry = RetryPolicy(jitter=0.1, sleep=time.sleep,
                        rng=random.Random(0).random)
    with open_engine(args.index, config, create=build,
                     workers=getattr(args, "workers", False),
                     executor=args.executor, retry_policy=retry) as engine:
        yield engine


def _page_count(index: "SWSTIndex | Coordinator") -> int:
    if isinstance(index, SWSTIndex):
        return index.pager.page_count()
    # The shards may live in other processes; size the committed page
    # files directly (cmd_build saves before printing).
    import os

    return sum(os.path.getsize(index.shard_path(sid))
               // index.config.page_size
               for sid in range(index.config.n_shards))


def cmd_generate(args: argparse.Namespace) -> int:
    config = GSTDConfig(num_objects=args.objects, max_time=args.max_time,
                        initial=args.distribution, seed=args.seed,
                        long_fraction=args.long_fraction)
    with contextlib.ExitStack() as stack:
        handle = sys.stdout if args.output == "-" else stack.enter_context(
            open(args.output, "w", newline=""))
        writer = csv.writer(handle)
        writer.writerow(["oid", "x", "y", "t"])
        count = 0
        for report in GSTDGenerator(config).stream():
            writer.writerow([report.oid, report.x, report.y, report.t])
            count += 1
    print(f"generated {count} reports from {args.objects} objects",
          file=sys.stderr)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    config = _config_from(args)
    with _open_index(args, config, build=True) as index:
        with open(args.stream, newline="") as handle:
            rows = (Report(oid=int(row["oid"]), x=int(row["x"]),
                           y=int(row["y"]), t=int(row["t"]))
                    for row in csv.DictReader(handle))
            count = index.extend(rows)
        index.save()
        stats = index.stats
        sharded = f", {config.n_shards} shards" if config.n_shards > 1 else ""
        print(f"built {args.index}: {count} reports, {len(index)} stored "
              f"entries, {stats.node_accesses} node accesses, "
              f"{stats.node_cache_hits} node parses avoided, "
              f"{_page_count(index)} pages{sharded}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    config = _config_from(args)
    kwargs: dict[str, object] = {"window": args.logical_window}
    if config.n_shards > 1:
        # strict is an engine-level notion; the single-file index has
        # no shards to lose.
        kwargs["strict"] = not args.no_strict
    elif args.no_strict:
        print("--no-strict has no effect without --shards > 1",
              file=sys.stderr)
    with _open_index(args, config, build=False) as index:
        area = Rect(*args.area)
        if args.knn:
            result = index.query_knn(args.point[0], args.point[1], args.knn,
                                     args.t_lo,
                                     args.t_hi if args.t_hi >= 0 else None,
                                     **kwargs)
        else:
            t_hi = args.t_hi if args.t_hi >= 0 else args.t_lo
            result = index.query_interval(area, args.t_lo, t_hi, **kwargs)
        for entry in result:
            end = "current" if entry.d is None else entry.s + entry.d
            print(f"oid={entry.oid} x={entry.x} y={entry.y} "
                  f"s={entry.s} end={end}")
        print(f"-- {len(result)} entries, "
              f"{result.stats.node_accesses} node accesses", file=sys.stderr)
        if result.stats.degraded:
            failures = getattr(result, "failures", [])
            for failure in failures:
                print(f"degraded: {failure}", file=sys.stderr)
            print(f"-- DEGRADED result: {len(failures)} shard(s) missing",
                  file=sys.stderr)
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    import os

    from .storage import StorageError
    from .storage.scrub import scrub_page_file

    if os.path.isdir(args.index):
        from .engine import scrub_directory

        dir_report = scrub_directory(args.index)
        print(dir_report.render())
        return 0 if dir_report.ok else 1
    try:
        report = scrub_page_file(args.index)
    except (StorageError, OSError) as exc:
        print(f"{args.index}: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def cmd_reshard(args: argparse.Namespace) -> int:
    import os

    from .engine import ReshardError, reshard

    if not os.path.isdir(args.index):
        print(f"{args.index}: not an engine directory (only sharded "
              f"directories can be resharded)", file=sys.stderr)
        return 2
    config = _config_from(args)
    try:
        report = reshard(args.index, args.to, config)
    except ReshardError as exc:
        print(f"{args.index}: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


#: Figures with (series name -> value column) mappings for --chart.
_CHARTABLE = {
    "Fig.9": {"SWST": 1, "MV3R": 2},
    "Fig.10": {"SWST": 1, "MV3R": 2},
    "Fig.11": {"with memo": 1, "without memo": 2},
    "Ablation-W": {"SWST": 1, "wave": 2},
    "Ablation-HR": {"SWST": 1, "HR-tree": 2},
    "Sec.V-E(a)": {"SWST": 2},
    "Sec.V-E(b)": {"SWST": 2},
}


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.main import run_lint

    return run_lint(args)


def cmd_bench(args: argparse.Namespace) -> int:
    import pathlib

    from .bench.reporting import chart_from_result
    from .bench.svgplots import svg_from_result

    params = {"tiny": TINY, "scaled": SCALED, "paper": PAPER}[args.scale]
    if args.objects:
        params = replace(params, dataset_objects=tuple(args.objects))
    wanted = [w.lower() for w in args.figures or ()]

    def selected(exp_id: str) -> bool:
        return not wanted or any(w in exp_id.lower() for w in wanted)

    svg_dir = pathlib.Path(args.svg) if args.svg else None
    if svg_dir is not None:
        svg_dir.mkdir(parents=True, exist_ok=True)
    # Unselected experiments never run; one that renders two tables
    # (Fig.7 + Fig.8) prints only the one asked for.
    results = [result for exp_ids, experiment in EXPERIMENTS
               if any(map(selected, exp_ids))
               for result in run_experiment(experiment, params)
               if selected(result.exp_id)]
    for result in results:
        if args.chart and result.exp_id in _CHARTABLE:
            print(chart_from_result(result, _CHARTABLE[result.exp_id]))
        else:
            print(result.render())
        print()
        if svg_dir is not None and result.exp_id in _CHARTABLE:
            name = result.exp_id.replace(".", "_").lower() + ".svg"
            (svg_dir / name).write_text(
                svg_from_result(result, _CHARTABLE[result.exp_id]))
            print(f"  [wrote {svg_dir / name}]", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import random
    import time

    from .engine import RetryPolicy
    from .serve import ServeOptions
    from .serve.main import run as serve_run

    config = _config_from(args)
    if config.n_shards < 1:
        print("serve needs --shards >= 1", file=sys.stderr)
        return 2
    # The serving layer itself is clock- and rng-free (invariant R002);
    # the real clock and a seeded rng are wired in here, at the edge —
    # retry backoff sleeps, jittered Retry-After hints.
    retry = RetryPolicy(jitter=0.1, sleep=time.sleep,
                        rng=random.Random(0).random)
    options = ServeOptions(
        index=args.index, config=config, create=args.create,
        workers=getattr(args, "workers", False), executor=args.executor,
        host=args.host, port=args.port, capacity=args.capacity,
        max_batch=args.max_batch, max_linger=args.max_linger,
        request_timeout=args.request_timeout, retry_policy=retry,
        rng=random.Random(1).random)
    return serve_run(options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SWST sliding-window spatio-temporal index "
                    "(ICDE 2012 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a GSTD report stream as CSV")
    generate.add_argument("--objects", type=int, default=1000)
    generate.add_argument("--max-time", type=int, default=100_000)
    generate.add_argument("--distribution", default="uniform",
                          choices=["uniform", "gaussian", "skewed"])
    generate.add_argument("--long-fraction", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--output", default="-",
                          help="output CSV path (default stdout)")
    generate.set_defaults(func=cmd_generate)

    build = commands.add_parser(
        "build", help="build an on-disk SWST index from a stream CSV")
    build.add_argument("stream", help="input CSV from 'generate'")
    build.add_argument("index", help="output index page file")
    _add_config_args(build)
    build.set_defaults(func=cmd_build)

    query = commands.add_parser(
        "query", help="query a saved SWST index")
    query.add_argument("index", help="index page file from 'build'")
    query.add_argument("--area", type=int, nargs=4,
                       default=[0, 0, 10000, 10000],
                       metavar=("XLO", "YLO", "XHI", "YHI"))
    query.add_argument("--t-lo", type=int, required=True)
    query.add_argument("--t-hi", type=int, default=-1,
                       help="omit for a timeslice query")
    query.add_argument("--logical-window", type=int, default=None)
    query.add_argument("--knn", type=int, default=None,
                       help="return the K nearest entries instead")
    query.add_argument("--point", type=int, nargs=2, default=[5000, 5000],
                       metavar=("X", "Y"), help="KNN query point")
    query.add_argument("--no-strict", action="store_true",
                       help="with --shards > 1: answer from the surviving "
                            "shards when one fails, instead of erroring "
                            "(failures are reported on stderr)")
    _add_config_args(query)
    query.set_defaults(func=cmd_query)

    scrub = commands.add_parser(
        "scrub", help="checksum-sweep a page file (or a whole engine "
                      "directory), reporting corruption")
    scrub.add_argument("index", help="page file or engine directory to "
                                     "verify")
    scrub.set_defaults(func=cmd_scrub)

    reshard = commands.add_parser(
        "reshard", help="rewrite an engine directory at a new shard "
                        "count (side-by-side build, atomic flip)")
    reshard.add_argument("index", help="engine directory from 'build' "
                                       "with --shards")
    reshard.add_argument("--to", type=int, required=True, metavar="M",
                         help="target shard count")
    _add_config_args(reshard)
    reshard.set_defaults(func=cmd_reshard)

    bench = commands.add_parser(
        "bench", help="regenerate the paper's figures")
    bench.add_argument("--scale", default="scaled",
                       choices=["tiny", "scaled", "paper"])
    bench.add_argument("--figures", nargs="*", default=None,
                       help="only figures whose id contains these strings")
    bench.add_argument("--objects", type=int, nargs="*", default=None,
                       help="override the dataset-size sweep")
    bench.add_argument("--chart", action="store_true",
                       help="render figures as ASCII bar charts")
    bench.add_argument("--svg", default=None, metavar="DIR",
                       help="also write one SVG chart per figure to DIR")
    bench.set_defaults(func=cmd_bench)

    serve = commands.add_parser(
        "serve", help="serve an engine directory over HTTP/JSON "
                      "(async front end: request coalescing, admission "
                      "control, slide-aware backpressure)")
    serve.add_argument("index", help="engine directory from 'build' "
                                     "with --shards, or a new one with "
                                     "--create")
    serve.add_argument("--create", action="store_true",
                       help="create a fresh engine directory instead "
                            "of opening an existing one")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8781,
                       help="bind port (0 picks a free one; "
                            "default 8781)")
    serve.add_argument("--capacity", type=int, default=64,
                       help="admission bound: concurrent data-plane "
                            "requests before 503 (default 64)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescer flush threshold; 1 disables "
                            "coalescing (default 64)")
    serve.add_argument("--max-linger", type=float, default=0.0,
                       help="coalescer linger window in seconds; 0 = "
                            "one event-loop tick (default 0)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="default per-request deadline in seconds "
                            "(clients can override with X-Deadline)")
    _add_config_args(serve)
    serve.set_defaults(func=cmd_serve)

    from .analysis.main import add_lint_arguments

    lint = commands.add_parser(
        "lint", help="run the project-invariant lint (see docs/internals.md)")
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
