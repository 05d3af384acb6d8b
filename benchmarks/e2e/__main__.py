"""``python -m benchmarks.e2e ...`` from a checkout root.

The server under test and the input generator come from ``src/`` of the
same checkout, so that directory goes on ``sys.path`` here: the command
in BENCHMARK.json then needs no environment variable.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

if not (_ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"{_ROOT / 'src' / 'repro'} is missing: the benchmark "
                     f"drives the server of the checkout it sits in")

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
