"""The server process under test: ``repro serve`` with the same wiring.

Started by :mod:`.proc` as ``python server.py '<json spec>'``.  Builds
``ServeOptions`` exactly as ``repro.cli.cmd_serve`` does (real-sleep
``RetryPolicy``, seeded rngs) and hands them to ``repro.serve.main.serve``.
With ``"trace_dir"`` in the spec, timing shims from :mod:`.tracing` are
installed around the layers' callables *before* the stack is built, and
every SIGUSR1 dumps spans and counters there.  Nothing under ``src/`` is
modified either way.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    from repro.core.config import SWSTConfig
    from repro.engine import RetryPolicy
    from repro.serve.main import ServeOptions, serve

    from benchmarks.e2e.spec import DEPLOYMENT

    config = SWSTConfig(buffer_capacity=spec["pool_pages"], **DEPLOYMENT)
    retry = RetryPolicy(jitter=0.1, sleep=time.sleep,
                        rng=random.Random(0).random)
    options = ServeOptions(
        index=spec["dir"], config=config, create=spec["create"],
        workers=spec["workers"], executor="thread", port=0,
        retry_policy=retry, rng=random.Random(1).random)
    ready = None
    if spec.get("trace_dir"):
        from benchmarks.e2e import tracing

        ready = tracing.install(spec["trace_dir"])

    def echo(line: str) -> None:
        print(line, flush=True)

    asyncio.run(serve(options, ready=ready, echo=echo))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
