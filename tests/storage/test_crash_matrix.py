"""Crash matrix: inject a fault at every write ordinal, reopen, verify.

The invariant under test (the tentpole of the crash-safety layer): after a
crash at *any* write, reopening the index either

* succeeds, and the index state is byte-exact one of the committed
  (``save()``-ed) states — queries return exactly that snapshot's results;
* or raises a typed :class:`StorageError` subclass.

Never a silent wrong answer.
"""

import dataclasses
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.storage import FilePageDevice, StorageError
from tests.storage.fault import FaultInjectingPageDevice

EVERYWHERE = Rect(0, 0, 199, 199)

CFG = SWSTConfig(window=400, slide=100, x_partitions=2, y_partitions=2,
                 d_max=100, duration_interval=50, space=EVERYWHERE,
                 page_size=1024, buffer_capacity=8)


def _workload(cfg: SWSTConfig, path: str,
              snapshots: dict | None = None) -> None:
    """Deterministic ingest with three ``save()`` commit points."""
    rng = random.Random(7)
    index = SWSTIndex(cfg, path=path)
    try:
        t = 0
        for _ in range(3):
            for _ in range(12):
                t += rng.randrange(0, 3)
                d = rng.choice([None, rng.randrange(1, 100)])
                index.insert(oid=rng.randrange(8), x=rng.randrange(200),
                             y=rng.randrange(200), s=t, d=d)
            index.save()
            if snapshots is not None:
                snapshots[index.now] = _snapshot(index)
    finally:
        index.close()


def _snapshot(index: SWSTIndex) -> list:
    lo, hi = index.config.queriable_period(index.now)
    result = index.query_interval(EVERYWHERE, lo, hi)
    return sorted((e.oid, e.x, e.y, e.s, e.d) for e in result)


@pytest.fixture(scope="module")
def committed_snapshots(tmp_path_factory):
    """Query results at each commit point of a fault-free run."""
    path = tmp_path_factory.mktemp("reference") / "ref.db"
    snapshots: dict[int, list] = {}
    _workload(CFG, str(path), snapshots)
    return snapshots


def _total_writes(tmp_path: Path) -> int:
    devices = []

    def factory(path, page_size):
        device = FaultInjectingPageDevice(FilePageDevice(path, page_size))
        devices.append(device)
        return device

    cfg = dataclasses.replace(CFG, device_factory=factory)
    _workload(cfg, str(tmp_path / "count.db"))
    return devices[0].writes_seen


def _crash_and_check(path: Path, fail_write: int, tear_bytes: int,
                     snapshots: dict) -> str:
    """Run the workload crashing at ``fail_write``; reopen and verify."""

    def factory(file_path, page_size):
        return FaultInjectingPageDevice(
            FilePageDevice(file_path, page_size),
            fail_write=fail_write, tear_bytes=tear_bytes)

    cfg = dataclasses.replace(CFG, device_factory=factory)
    crashed = False
    try:
        _workload(cfg, str(path))
    except OSError:
        crashed = True
    if not crashed:
        # The ordinal was beyond the workload's writes; nothing to verify.
        return "completed"
    try:
        index = SWSTIndex.open(str(path), CFG)
    except StorageError:
        return "typed-error"
    try:
        assert index.now in snapshots, \
            f"reopened at clock {index.now}, which is not a commit point"
        assert _snapshot(index) == snapshots[index.now], \
            "reopened state diverges from its committed snapshot"
    finally:
        index.close()
    return "clean"


class TestExhaustiveMatrix:
    @pytest.mark.parametrize("tear_bytes", [0, 700])
    def test_every_write_ordinal(self, tmp_path, tear_bytes,
                                 committed_snapshots):
        total = _total_writes(tmp_path)
        assert total > 0
        outcomes = {"clean": 0, "typed-error": 0}
        for k in range(1, total + 1):
            outcome = _crash_and_check(tmp_path / f"crash_{k}.db", k,
                                       tear_bytes, committed_snapshots)
            assert outcome in outcomes, outcome
            outcomes[outcome] += 1
        # Both arms of the invariant must actually be exercised.
        assert outcomes["clean"] > 0
        assert outcomes["typed-error"] > 0


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(fail_write=st.integers(min_value=1, max_value=40),
           tear_bytes=st.integers(min_value=0, max_value=1040))
    def test_random_fault_point(self, fail_write, tear_bytes,
                                committed_snapshots):
        with tempfile.TemporaryDirectory() as tmp:
            outcome = _crash_and_check(Path(tmp) / "crash.db", fail_write,
                                       tear_bytes, committed_snapshots)
        assert outcome in ("clean", "typed-error", "completed")
