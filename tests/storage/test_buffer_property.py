"""Model check of the buffer pool: one LRU of page slots.

A pure-python model (an LRU list of page ids with dirty bits, the latest
contents of every page, and what the pager holds) runs beside a real
:class:`BufferPool` through random writes, fetches, frees, flushes, cache
drops and discards.  After every step the pool must return the model's
contents, its counters must match the model's logical and physical
counts, and the pager must hold exactly what the model wrote back.  The
byte API (``fetch`` / ``write``) and the node API (``fetch_node`` /
``write_node``) are checked each on its own pool — one pool serves one
page format.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import MEMORY, BufferPool, Pager

PAGE = 256
PAGES = 10


class Node:
    """A decoded page: one fill byte."""

    def __init__(self, value: int) -> None:
        self.value = value


def encode(node: Node) -> bytes:
    return bytes([node.value]) * PAGE


def decode(data: bytes) -> Node:
    assert data == data[:1] * PAGE
    return Node(data[0])


class PoolModel:
    """What a one-LRU write-back pool must do, counted."""

    def __init__(self, capacity: int, pages: list[int],
                 node_api: bool) -> None:
        self.capacity = capacity
        self.node_api = node_api
        self.lru: OrderedDict[int, bool] = OrderedDict()  # page -> dirty
        self.latest = {page: 0 for page in pages}
        self.disk = dict(self.latest)
        self.reset_counters()

    def reset_counters(self) -> None:
        self.counts = dict.fromkeys(
            ("logical_reads", "logical_writes", "physical_reads",
             "physical_writes", "node_parses", "node_cache_hits",
             "node_serializations", "frees"), 0)

    def _write_back(self, page: int) -> None:
        self.disk[page] = self.latest[page]
        self.counts["physical_writes"] += 1
        if self.node_api:
            self.counts["node_serializations"] += 1

    def _touch(self, page: int, dirty: bool) -> None:
        if page in self.lru:
            self.lru[page] = self.lru[page] or dirty
            self.lru.move_to_end(page)
            return
        self.lru[page] = dirty
        if len(self.lru) > self.capacity:
            victim, victim_dirty = self.lru.popitem(last=False)
            if victim_dirty:
                self._write_back(victim)

    def fetch(self, page: int) -> int:
        self.counts["logical_reads"] += 1
        if page in self.lru:
            if self.node_api:
                self.counts["node_cache_hits"] += 1
        else:
            self.counts["physical_reads"] += 1
            if self.node_api:
                self.counts["node_parses"] += 1
        self._touch(page, False)
        return self.latest[page]

    def write(self, page: int, value: int) -> None:
        self.counts["logical_writes"] += 1
        self.latest[page] = value
        self._touch(page, True)

    def flush(self) -> None:
        for page in sorted(p for p, dirty in self.lru.items() if dirty):
            self.lru[page] = False
            self._write_back(page)

    def drop_cache(self) -> None:
        self.flush()
        self.lru.clear()

    def free(self, page: int) -> None:
        """Free, then reallocate: the pager hands the page back zeroed."""
        self.lru.pop(page, None)
        self.counts["frees"] += 1
        self.latest[page] = self.disk[page] = 0

    def discard(self) -> None:
        """Dirty slots are lost; a fresh pool starts on the same pager."""
        self.lru.clear()
        self.latest = dict(self.disk)
        self.reset_counters()


class Harness:
    """One real pool driven through one API, beside its model."""

    def __init__(self, api: str, capacity: int) -> None:
        self.node_api = api == "node"
        self.capacity = capacity
        self.pool = BufferPool(Pager(MEMORY, page_size=PAGE),
                               capacity=capacity)
        self.pages = [self.pool.allocate() for _ in range(PAGES)]
        self.model = PoolModel(capacity, self.pages, self.node_api)

    def fetch(self, page: int) -> int:
        if self.node_api:
            return self.pool.fetch_node(page, decode).value
        data = self.pool.fetch(page)
        assert data == data[:1] * PAGE
        return data[0]

    def write(self, page: int, value: int) -> None:
        if self.node_api:
            self.pool.write_node(page, Node(value), encode)
        else:
            self.pool.write(page, bytes([value]) * PAGE)

    def step(self, op: str, page: int, value: int) -> None:
        pool, model = self.pool, self.model
        if op == "write":
            self.write(page, value)
            model.write(page, value)
        elif op == "fetch":
            assert self.fetch(page) == model.fetch(page)
        elif op == "free":
            pool.free(page)
            assert pool.allocate() == page  # LIFO free-list reuse
            model.free(page)
        elif op == "flush":
            pool.flush()
            model.flush()
        elif op == "drop_cache":
            pool.drop_cache()
            model.drop_cache()
        else:
            pager = pool.pager
            pool.discard()
            self.pool = BufferPool(pager, capacity=self.capacity)
            model.discard()
        self.check()

    def check(self) -> None:
        stats = self.pool.stats
        assert {name: getattr(stats, name) for name in self.model.counts} \
            == self.model.counts
        assert len(self.pool._slots) == len(self.model.lru)
        assert list(self.pool._slots) == list(self.model.lru)
        for page in self.pages:
            assert self.pool.pager.read(page) == \
                bytes([self.model.disk[page]]) * PAGE


operations = st.lists(
    st.tuples(st.sampled_from(("write", "write", "fetch", "fetch", "free",
                               "flush", "drop_cache", "discard")),
              st.integers(0, PAGES - 1), st.integers(1, 255)),
    max_size=80,
)


@settings(max_examples=120, deadline=None)
@given(api=st.sampled_from(("raw", "node")),
       capacity=st.sampled_from((1, 2, 7)), ops=operations)
def test_pool_is_transparent(api, capacity, ops):
    harness = Harness(api, capacity)
    for op, idx, value in ops:
        harness.step(op, harness.pages[idx], value)
    for page in harness.pages:
        assert harness.fetch(page) == harness.model.latest[page]
    # After a final flush the pager itself holds the truth.
    harness.pool.flush()
    for page in harness.pages:
        assert harness.pool.pager.read(page) == \
            bytes([harness.model.latest[page]]) * PAGE


@settings(max_examples=30, deadline=None)
@given(api=st.sampled_from(("raw", "node")),
       capacity=st.sampled_from((1, 2, 7)),
       writes=st.lists(st.tuples(st.integers(0, PAGES - 1),
                                 st.integers(1, 255)),
                       min_size=1, max_size=60))
def test_eviction_never_loses_dirty_data(api, capacity, writes):
    harness = Harness(api, capacity)
    latest: dict[int, int] = {}
    for idx, value in writes:
        harness.write(harness.pages[idx], value)
        latest[harness.pages[idx]] = value
    harness.pool.drop_cache()
    for page, value in latest.items():
        assert harness.fetch(page) == value
