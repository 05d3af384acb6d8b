"""Reach census: which ``src/repro`` functions do the entry points call?

Run from the repository root (the stdlib is all it needs; the tier-1 and
e2e phases run the existing pytest suites, which need pytest)::

    python tools/census.py                       # census of this checkout
    python tools/census.py --root ../other-checkout

Either way the table is written to ``tools/census.md`` next to this
script.  All four phases run, each one or more python processes:

* ``tier1``   -- the tier-1 suite; every call is attributed to the test
  file that was running (module-scoped fixtures included);
* ``cli``     -- every CLI subcommand once on a small stream: generate,
  build (single file, sharded, ``--workers``), query, scrub, reshard,
  lint, bench, and ``repro serve`` (in-process and ``--workers``) driven
  over HTTP and stopped with SIGTERM;
* ``figures`` -- ``repro bench --scale scaled`` (every figure);
* ``e2e``     -- the four e2e workloads at smoke size
  (``benchmarks/e2e/tests``).

Tracing is ``sys.setprofile`` + ``threading.setprofile``, installed in
every python process a phase starts by a generated ``sitecustomize``
module on ``PYTHONPATH``, so subprocesses (servers, ``python -m repro``)
are seen.  A forked child (a shard worker) records under its parent's
origin plus ``[fork]``.  Each process appends one line per (origin,
function) the first time it sees it, so a SIGKILLed server keeps what it
reached.  The report lists, per module, every function that no entry
point phase called, with the test files that did.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

ENV_LOG = "SWST_CENSUS_LOG"
ENV_ORIGIN = "SWST_CENSUS_ORIGIN"
ENTRY_PHASES = ("cli", "figures", "e2e")
ALL_PHASES = ("tier1", *ENTRY_PHASES)
OUT = Path(__file__).with_name("census.md")

# -- the tracer (runs inside every traced process) ---------------------------

_state: dict = {}


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    seen = _state["seen"]
    if code in seen:
        return
    seen.add(code)
    if code.co_filename.startswith(_state["src"]):
        line = (f"{_state['origin']}\t{code.co_filename}\t"
                f"{code.co_firstlineno}\t{code.co_qualname}\n")
        os.write(_state["fd"], line.encode())


def set_origin(origin: str) -> None:
    """Attribute every later first call to ``origin`` (also inherited by
    subprocesses through the environment)."""
    if _state.get("origin") != origin:
        _state["origin"] = origin
        _state["seen"] = set()
        os.environ[ENV_ORIGIN] = origin


def _after_fork() -> None:
    _state["origin"] += " [fork]"
    _state["seen"] = set()


def install_from_env() -> None:
    """Start tracing if this process belongs to a census phase."""
    log = os.environ.get(ENV_LOG)
    if not log or _state:
        return
    _state["fd"] = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    _state["src"] = os.environ[ENV_LOG + "_SRC"]
    set_origin(os.environ.get(ENV_ORIGIN, "?"))
    os.register_at_fork(after_in_child=_after_fork)
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def pytest_runtest_setup(item) -> None:
    """pytest hook (``-p census``): attribute calls to the test file.

    Also re-arms the tracer: a test that installs its own profile
    function (``tests/core/test_overlap.py`` counts calls that way)
    unsets ours, so calls made while its own is active go unseen.
    """
    if os.environ.get(ENV_ORIGIN, "").startswith("tier1"):
        set_origin("tier1 " + Path(str(item.path)).relative_to(
            Path.cwd()).as_posix())
    if _state:
        sys.setprofile(_profile)


def pytest_runtest_teardown(item) -> None:
    """pytest hook: re-arm the tracer for fixture finalizers."""
    if _state:
        sys.setprofile(_profile)


# -- the cli phase (runs traced, in one process) ----------------------------


def _serve_session(work: Path, name: str, extra: list[str]) -> None:
    """``repro serve`` in a subprocess, a few requests, then SIGTERM."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(work / name),
         "--create", "--shards", "2", "--port", "0", "--grid", "4",
         *extra], stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        base = line.split(" on ", 1)[1].split()[0]

        def call(path: str, body: dict | None = None) -> None:
            data = None if body is None else json.dumps(body).encode()
            with urllib.request.urlopen(base + path, data, timeout=30):
                pass

        area = {"area": [0, 0, 5000, 5000], "t_lo": 0, "t_hi": 70}
        call("/healthz")
        call("/extend", {"reports": [[i, 50 * i, 40 * i, i]
                                     for i in range(1, 60)]})
        call("/insert", {"oid": 900, "x": 10, "y": 10, "s": 60, "d": 5})
        call("/report", {"oid": 901, "x": 20, "y": 20, "t": 61})
        call("/close", {"oid": 901, "t": 62})
        call("/query?area=0,0,5000,5000&t_lo=0&t_hi=70")
        call("/query", area)
        call("/query/batch", {**area, "areas": [area["area"]] * 2})
        call("/count?area=0,0,5000,5000&t_lo=0&t_hi=70")
        call("/knn?x=100&y=100&k=3&t_lo=0&t_hi=70")
        call("/slide", {"now": 80})
        call("/save", {})
        if "--workers" not in extra:
            call("/reshard", {"n_shards": 3})
        call("/stats")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)


def drive_cli(work: Path) -> None:
    from repro.cli import main

    stream, single = work / "stream.csv", work / "single.db"
    fleet, wfleet = work / "fleet.d", work / "wfleet.d"
    area = ["--area", "2000", "2000", "6000", "6000"]
    steps = [
        ["generate", "--objects", "150", "--max-time", "30000",
         "--output", str(stream)],
        ["build", str(stream), str(single)],
        ["query", str(single), *area, "--t-lo", "28000", "--t-hi", "29000"],
        ["query", str(single), "--t-lo", "28500", "--knn", "3"],
        ["scrub", str(single)],
        ["build", str(stream), str(fleet), "--shards", "3"],
        ["query", str(fleet), "--shards", "3", *area, "--t-lo", "28000",
         "--t-hi", "29000"],
        ["reshard", str(fleet), "--to", "4"],
        ["scrub", str(fleet)],
        ["build", str(stream), str(wfleet), "--shards", "2", "--workers"],
        ["query", str(wfleet), "--shards", "2", "--workers", "--t-lo",
         "28000", "--t-hi", "29000"],
        ["lint", "src"],
        ["bench", "--scale", "tiny", "--figures", "Fig.7", "--chart"],
    ]
    for argv in steps:
        set_origin(f"cli {argv[0]}")
        main(argv)
    set_origin("cli serve")
    _serve_session(work, "served.d", [])
    _serve_session(work, "wserved.d", ["--workers"])


# -- the driver --------------------------------------------------------------


def _phase_command(phase: str, work: Path) -> list[str]:
    py = sys.executable
    if phase == "tier1":
        return [py, "-m", "pytest", "-q", "-x", "-p", "census",
                "-p", "no:cacheprovider"]
    if phase == "cli":
        return [py, str(Path(__file__).resolve()), "--drive-cli", str(work)]
    if phase == "figures":
        return [py, "-m", "repro", "bench", "--scale", "scaled"]
    return [py, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "benchmarks/e2e/tests"]


def run_phase(phase: str, root: Path, logdir: Path) -> None:
    with tempfile.TemporaryDirectory(prefix=f"census-{phase}-") as tmp:
        work = Path(tmp)
        (work / "sitecustomize.py").write_text(
            "import census\ncensus.install_from_env()\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [tmp, str(Path(__file__).resolve().parent),
             str(root / "src"), str(root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env[ENV_LOG] = str(logdir / f"{phase}.log")
        env[ENV_LOG + "_SRC"] = str((root / "src" / "repro").resolve()) \
            + os.sep
        env[ENV_ORIGIN] = phase
        started = time.monotonic()
        done = subprocess.run(_phase_command(phase, work), cwd=root,
                              env=env, stdout=subprocess.DEVNULL)
    print(f"[census] {phase}: exit {done.returncode}, "
          f"{time.monotonic() - started:.0f}s", file=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"census phase {phase} failed")


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A protocol/abstract stub: docstring then ``...``/``pass``/raise."""
    return all(isinstance(stmt, (ast.Pass, ast.Raise))
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant))
               for stmt in node.body)


def inventory(root: Path) -> dict[tuple[str, int], tuple[str, bool]]:
    """(file, first line) -> (qualname, is a stub) for every function in
    src/repro.  The first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: dict[tuple[str, int], tuple[str, bool]] = {}
    base = (root / "src" / "repro").resolve()
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base.parent).as_posix()

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    qual = prefix + child.name
                    found[(rel, first)] = (qual, _is_stub(child))
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


def _own_tests(rel: str) -> tuple[str, str]:
    """Test-file prefix that counts as a module's own tests."""
    parts = rel.split("/")[1:]                  # drop "repro"
    stem = parts[-1][:-3]
    return ("/".join(["tests", *parts[:-1]]) + "/", f"test_{stem}")


def _classify(rel: str, origins: set[str], stub: bool) -> tuple[str, list]:
    """Reach kind of one function no entry-point phase called, and the
    tier-1 test files that called it."""
    tests = sorted({o.split()[1] for o in origins if o.startswith("tier1 ")})
    directory, stem = _own_tests(rel)
    own = [t for t in tests
           if t.startswith(directory) and Path(t).name.startswith(stem)]
    if stub:
        return "declaration (protocol/abstract stub)", tests
    if not origins:
        return "**zero calls**", tests
    if tests and len(own) == len(tests):
        return "**own tests only**", tests
    if tests:
        return "tests only", tests
    return "collection/import only", tests


def report(root: Path, logdir: Path, commit: str) -> str:
    funcs = inventory(root)
    base = (root / "src").resolve().as_posix() + "/"
    reach: dict[tuple[str, int], set[str]] = defaultdict(set)
    for phase in ALL_PHASES:
        for raw in (logdir / f"{phase}.log").read_text().splitlines():
            origin, filename, line, _ = raw.split("\t")
            rel = Path(filename).resolve().as_posix()
            if rel.startswith(base):
                reach[(rel[len(base):], int(line))].add(origin)
    rows: dict[str, list[str]] = defaultdict(list)
    totals: dict[str, int] = defaultdict(int)
    per_module: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    fork_only: list[str] = []
    for (rel, line), (qual, stub) in sorted(funcs.items()):
        origins = reach.get((rel, line), set())
        entry = [o for o in origins if o.split()[0] in ENTRY_PHASES]
        if not stub:
            per_module[rel][1] += 1
        if entry:
            totals["entry"] += 1
            per_module[rel][0] += 1
            if all(o.endswith("[fork]") for o in entry):
                fork_only.append(f"`{rel}` `{qual}`")
            continue
        kind, tests = _classify(rel, origins, stub)
        totals[kind] += 1
        forks = " (some in a forked worker)" if any(
            o.endswith("[fork]") for o in origins) else ""
        shown = ", ".join(tests[:4]) + (" …" if len(tests) > 4 else "")
        rows[rel].append(f"| `{qual}` | {line} | {kind}{forks} | "
                         f"{shown} |")
    out = [f"# Reach census at `{commit}`", "",
           f"Phases: {', '.join(ALL_PHASES)}.  Entry-point phases: "
           f"{', '.join(ENTRY_PHASES)}.  "
           "Generated by `python tools/census.py`; see its docstring.", "",
           "| functions | count |", "|---|---|"]
    out += [f"| {kind} | {count} |" for kind, count in sorted(totals.items())]
    out += ["", "## Modules no entry point reaches", "",
            "Every function of these modules is unreached by the "
            "entry-point phases:", ""]
    out += [f"* `{rel}` ({total} functions)"
            for rel, (hit, total) in sorted(per_module.items())
            if total and not hit]
    out += ["", "## Reached by an entry point only inside a forked worker",
            "", *(f"* {name}" for name in fork_only), "",
            "## Functions no entry point calls", "",
            "By module; line = first line, decorators included; callers = "
            "tier-1 test files.", ""]
    for rel in sorted(rows):
        out += [f"### `{rel}`", "", "| function | line | reach | callers |",
                "|---|---|---|---|", *rows[rel], ""]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to census (default: the cwd)")
    parser.add_argument("--drive-cli", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.drive_cli is not None:
        # The traced copy of this module is the one sitecustomize
        # imported as ``census``, not ``__main__``.
        import census

        census.drive_cli(args.drive_cli)
        return 0
    root = args.root.resolve()
    with tempfile.TemporaryDirectory(prefix="census-logs-") as tmp:
        logdir = Path(tmp)
        for phase in ALL_PHASES:
            run_phase(phase, root, logdir)
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=root, capture_output=True,
                                text=True).stdout.strip() or "?"
        OUT.write_text(report(root, logdir, commit) + "\n")
    print(f"[census] wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
