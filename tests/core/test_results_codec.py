"""Query results cross worker pipes as packed records.

``QueryResult`` pickles its entries as one ``RECORD_SIZE``-stride blob
in the page payload layout (``d = None`` as the ``CURRENT_DURATION``
sentinel) and ``QueryStats`` as its field tuple; ``MultiQueryResult``
inherits both through its members.  ``PartialResult`` keeps default
pickling.
"""

import dataclasses
import pickle

from repro.core import RECORD_SIZE, Entry, SWSTConfig
from repro.core.results import MultiQueryResult, QueryResult, QueryStats
from repro.engine import PartialResult, ShardFailure

D_MAX = SWSTConfig().d_max


def every_stat_set():
    names = [field.name for field in dataclasses.fields(QueryStats)]
    values = {name: 11 + idx for idx, name in enumerate(names)}
    values["degraded"] = True
    return QueryStats(**values)


def sample_entries():
    return [Entry(7, 0, 0, 5, None),               # current entry
            Entry(2**40, 4095, 17, 2**33, D_MAX),  # duration at Dmax
            Entry(3, 9, 9, 0, 1),                  # shortest duration
            Entry(8, 1, 2, 3, None)]


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def test_entries_and_stats_round_trip():
    result = QueryResult(sample_entries(), every_stat_set())
    clone = round_trip(result)
    assert type(clone) is QueryResult
    assert clone == result
    assert [entry.d for entry in clone.entries] == [None, D_MAX, 1, None]
    assert clone.stats.degraded is True


def test_empty_result_round_trips():
    clone = round_trip(QueryResult())
    assert clone == QueryResult()
    assert clone.entries == []


def test_multi_result_round_trips():
    batch = MultiQueryResult(
        results=[QueryResult(sample_entries()[:2], every_stat_set()),
                 QueryResult(),
                 QueryResult(sample_entries()[2:])],
        stats=every_stat_set())
    clone = round_trip(batch)
    assert clone == batch
    assert all(type(result) is QueryResult for result in clone.results)


def test_stats_round_trip_alone():
    stats = every_stat_set()
    assert round_trip(stats) == stats
    assert round_trip(QueryStats()) == QueryStats()


def test_hundred_entries_cost_their_records_and_little_else():
    entries = [Entry(oid, oid % 97, oid % 89, 1000 + oid,
                     None if oid % 3 else 1 + oid % D_MAX)
               for oid in range(100)]
    result = QueryResult(entries, every_stat_set())
    blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    assert len(blob) <= 100 * RECORD_SIZE + 256
    assert pickle.loads(blob) == result


def test_partial_result_keeps_default_pickling():
    partial = PartialResult(
        sample_entries(), every_stat_set(),
        failures=[ShardFailure(2, "shard-002.pages", OSError("gone"))])
    clone = round_trip(partial)
    assert type(clone) is PartialResult
    assert clone.entries == partial.entries
    assert clone.stats == partial.stats
    (failure,) = clone.failures
    assert (failure.shard_id, failure.path) == (2, "shard-002.pages")
    assert isinstance(failure.error, OSError)
    assert str(failure.error) == "gone"
