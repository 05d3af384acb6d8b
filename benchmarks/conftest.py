"""Shared benchmark fixtures.

Scale is selected by ``SWST_BENCH_SCALE`` (tiny | scaled | paper, default
scaled — see :mod:`repro.bench.params`).
"""

from __future__ import annotations

import pytest

from repro.bench import active_params


@pytest.fixture(scope="session")
def params():
    return active_params()
