"""The compiled query-plan cache: hits, epoch fencing (a pre-slide plan
is never reused after a slide; the fence cases replay one stream on a
cached index and on one under ``PlanCache(0)``), memo-generation fencing
of cached key ranges, LRU bounding, and byte-identical statistics with
the cache on and off."""

import dataclasses
import random

import pytest

from repro.core import (PlanCache, QueryStats, Rect, SWSTConfig, SWSTIndex,
                        build_query_plan, classify_interval)

CFG = SWSTConfig(window=200, slide=20, x_partitions=4, y_partitions=4,
                 d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                 page_size=512)


def fill(index, seed=7, count=250):
    rng = random.Random(seed)
    t = 0
    for _ in range(count):
        t += rng.choice([0, 1, 1, 2])
        index.report(rng.randrange(30), rng.randrange(100),
                     rng.randrange(100), t)
    return t


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def stats_without_cache_hits(stats):
    clone = dataclasses.replace(stats)
    clone.plan_cache_hits = 0
    return clone


class TestPlanCacheHits:
    def test_repeated_query_hits_the_cache(self):
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(10, 10, 60, 60)
            first = index.query_interval(area, t - 50, t)
            second = index.query_interval(area, t - 50, t)
            assert first.stats.plan_cache_hits == 0
            assert second.stats.plan_cache_hits == 1
            assert sorted(map(entry_key, first.entries)) == \
                sorted(map(entry_key, second.entries))

    def test_cached_results_and_stats_are_identical(self):
        """Everything except the hit counter is byte-identical on a hit
        — including node accesses (the cache must not change IO)."""
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(5, 5, 80, 80)
            first = index.query_interval(area, t - 80, t)
            second = index.query_interval(area, t - 80, t)
            assert stats_without_cache_hits(first.stats) == \
                stats_without_cache_hits(second.stats)
            assert [entry_key(e) for e in first.entries] == \
                [entry_key(e) for e in second.entries]

    def test_distinct_signatures_miss(self):
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(0, 0, 99, 99)
            index.query_interval(area, t - 50, t)
            other = index.query_interval(area, t - 51, t)
            assert other.stats.plan_cache_hits == 0
            windowed = index.query_interval(area, t - 50, t, 100)
            assert windowed.stats.plan_cache_hits == 0

    def test_count_and_knn_share_the_cache(self):
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(0, 0, 99, 99)
            index.query_interval(area, t - 30, t)
            _, count_stats = index.count_interval(area, t - 30, t)
            assert count_stats.plan_cache_hits == 1
            knn = index.query_knn(50, 50, 3, t - 30, t)
            assert knn.stats.plan_cache_hits == 1


def fill_until(index, t_end, seed=11, oids=30):
    """Report random positions at non-decreasing times up to ``t_end``."""
    rng = random.Random(seed)
    t = index.now
    while t < t_end:
        t = min(t + rng.choice([0, 1, 2, 3]), t_end)
        index.report(rng.randrange(oids), rng.randrange(100),
                     rng.randrange(100), t)


def answers_with(plans, script):
    """Run ``script(index, ask)`` on a fresh index whose plan cache is
    ``plans`` (``None``: the default cache).  ``ask`` queries; returns
    every answer (sorted entries, stats minus the hit counter) and the
    hits the cache served."""
    answers, hits = [], 0
    with SWSTIndex(CFG) as index:
        if plans is not None:
            index._plans = plans

        def ask(area, t_lo, t_hi, window=None):
            nonlocal hits
            result = index.query_interval(area, t_lo, t_hi, window)
            hits += result.stats.plan_cache_hits
            answers.append((sorted(map(entry_key, result.entries)),
                            stats_without_cache_hits(result.stats)))

        script(index, ask)
        index.check_integrity()
    return answers, hits


def assert_cache_is_transparent(script):
    """The cached index answers ``script`` exactly as one under
    ``PlanCache(0)`` does, and the cache did serve some of it."""
    cached, hits = answers_with(None, script)
    uncached, no_hits = answers_with(PlanCache(0), script)
    assert no_hits == 0
    assert hits > 0
    assert cached == uncached


class TestEpochFence:
    def test_t_hi_at_now_matches_the_uncached_stream(self):
        """``t_hi = now`` includes the current entries: a same-clock
        report must show up through a cached plan.  A plan derived while
        ``t_hi`` was ahead of the clock must not answer once the clock
        reached it (even inside one slide): its start bound stopped at
        the old clock."""
        area = Rect(0, 0, 99, 99)

        def script(index, ask):
            fill_until(index, 150)
            for step in range(6):
                now = index.now
                ask(area, now - 40, now)
                ask(area, now - 40, now + 3)
                index.report(900 + step, 10 * step, 50, now)
                ask(area, now - 40, now)
                ask(Rect(0, 0, 49, 49), now - 40, now)
                fill_until(index, now + 3, seed=step)
                ask(area, now - 40, now + 3)
                ask(area, now - 40, now)

        assert_cache_is_transparent(script)

    def test_query_straddling_a_slide_matches_the_uncached_stream(self):
        """One interval ``[b - 15, b + 5]`` around a slide boundary
        ``b``, asked before, at and after the clock crosses ``b``."""
        area = Rect(10, 10, 90, 90)
        boundary = 10 * CFG.slide

        def script(index, ask):
            fill_until(index, boundary - 12)
            for now in (boundary - 12, boundary - 1, boundary,
                        boundary + 3, boundary + CFG.slide):
                fill_until(index, now, seed=now)
                ask(area, boundary - 15, boundary + 5)
                index.report(7, 50, 50, now)
                ask(area, boundary - 15, boundary + 5)
                ask(area, boundary - 15, boundary + 5, CFG.slide * 3)

        assert_cache_is_transparent(script)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_clock_at_k_wmax_matches_the_uncached_stream(self, k):
        """The clock lands exactly on ``k·Wmax``, where a whole tree is
        dropped: plans cached just before must not answer after."""
        area = Rect(0, 0, 99, 99)
        edge = k * CFG.w_max

        def script(index, ask):
            fill_until(index, edge - 30)
            for now in (edge - 30, edge - 1, edge, edge, edge + 1):
                index.advance_time(now)
                q_lo, q_hi = CFG.queriable_period(now)
                ask(area, q_lo, q_hi)
                ask(area, edge - 60, edge - 1)
                ask(area, edge - 5, edge + 5)
                index.report(5, 40, 60, now)

        assert_cache_is_transparent(script)

    def test_pre_slide_plan_is_never_reused_after_slide(self):
        """S1 regression: a plan compiled before advance_time must not
        answer queries after the clock moved — the queriable period
        (and possibly the live tree set) changed."""
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(0, 0, 99, 99)
            index.query_interval(area, t - 50, t)  # populate the cache
            index.advance_time(t + CFG.slide)
            post = index.query_interval(area, t - 50, t)
            assert post.stats.plan_cache_hits == 0
            # The post-slide result matches a fresh index that never
            # cached anything.
            with SWSTIndex(CFG) as fresh:
                fill(fresh)
                fresh.advance_time(t + CFG.slide)
                expected = fresh.query_interval(area, t - 50, t)
            assert sorted(map(entry_key, post.entries)) == \
                sorted(map(entry_key, expected.entries))
            assert stats_without_cache_hits(post.stats) == \
                stats_without_cache_hits(expected.stats)

    def test_slide_across_drop_boundary_invalidates(self):
        """A slide that crosses a Wmax boundary drops a whole tree; the
        fence must hold there too (the old plan references dropped
        columns)."""
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(0, 0, 99, 99)
            index.query_interval(area, max(t - 50, 0), t)
            boundary = (t // CFG.w_max + 2) * CFG.w_max
            index.advance_time(boundary)
            q_lo, q_hi = CFG.queriable_period(boundary)
            post = index.query_interval(area, q_lo, q_hi)
            assert post.stats.plan_cache_hits == 0
            index.check_integrity()

    def test_same_clock_mutation_is_visible_through_the_cache(self):
        """Inserts at an unchanged clock don't invalidate the plan (the
        classification can't change) but must invalidate the cached
        memo-pruned ranges — the new entry has to be found."""
        with SWSTIndex(CFG) as index:
            t = fill(index)
            area = Rect(0, 0, 99, 99)
            index.query_interval(area, t - 30, t)
            index.insert(991, 50, 50, t, 5)  # same clock
            hit = index.query_interval(area, t - 30, t)
            assert hit.stats.plan_cache_hits == 1
            assert (991, 50, 50, t, 5) in [entry_key(e)
                                           for e in hit.entries]

    def test_same_clock_delete_is_visible_through_the_cache(self):
        with SWSTIndex(CFG) as index:
            t = fill(index)
            index.insert(992, 40, 40, t, 7)
            area = Rect(0, 0, 99, 99)
            before = index.query_interval(area, t - 30, t)
            assert (992, 40, 40, t, 7) in [entry_key(e)
                                           for e in before.entries]
            assert index.delete(992, 40, 40, t, 7)
            after = index.query_interval(area, t - 30, t)
            assert after.stats.plan_cache_hits == 1
            assert (992, 40, 40, t, 7) not in [entry_key(e)
                                               for e in after.entries]


class TestCacheDisabled:
    def test_size_zero_disables_caching_with_identical_results(self):
        with SWSTIndex(CFG) as cached, SWSTIndex(CFG) as uncached:
            uncached._plans = PlanCache(0)
            t = fill(cached)
            fill(uncached)
            area = Rect(10, 0, 70, 90)
            for _ in range(3):
                a = cached.query_interval(area, t - 40, t)
                b = uncached.query_interval(area, t - 40, t)
                assert b.stats.plan_cache_hits == 0
                assert [entry_key(e) for e in a.entries] == \
                    [entry_key(e) for e in b.entries]
                # Identical logical work, in particular node accesses.
                assert stats_without_cache_hits(a.stats) == \
                    stats_without_cache_hits(b.stats)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(-1)


class TestPlanCacheUnit:
    def make_plan(self, clock, t_lo, t_hi, window=None):
        columns = classify_interval(CFG, clock, t_lo, t_hi, window)
        assert columns
        return build_query_plan(CFG, clock, columns, t_lo, t_hi, window)

    def test_lru_bound(self):
        cache = PlanCache(4)
        for t_lo in range(10):
            plan = self.make_plan(100, t_lo, 100)
            cache.store(plan, t_lo, 100, None)
        assert len(cache) == 4
        assert cache.lookup(9, 100, None, 100) is not None
        assert cache.lookup(0, 100, None, 100) is None

    def test_lookup_moves_to_front(self):
        cache = PlanCache(2)
        cache.store(self.make_plan(100, 1, 100), 1, 100, None)
        cache.store(self.make_plan(100, 2, 100), 2, 100, None)
        assert cache.lookup(1, 100, None, 100) is not None
        cache.store(self.make_plan(100, 3, 100), 3, 100, None)
        assert cache.lookup(1, 100, None, 100) is not None
        assert cache.lookup(2, 100, None, 100) is None

    def test_clock_fence_drops_stale_entry_defensively(self):
        cache = PlanCache(4)
        cache.store(self.make_plan(100, 5, 100), 5, 100, None)
        assert cache.lookup(5, 100, None, 120) is None
        assert len(cache) == 0

    def test_invalidate_clears_everything(self):
        cache = PlanCache(4)
        cache.store(self.make_plan(100, 5, 100), 5, 100, None)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.lookup(5, 100, None, 100) is None

    def test_capacity_zero_stores_nothing(self):
        cache = PlanCache(0)
        entry = cache.store(self.make_plan(100, 5, 100), 5, 100, None)
        assert entry.plan.clock == 100  # entry still usable in-query
        assert len(cache) == 0
        assert cache.lookup(5, 100, None, 100) is None

    def test_plan_is_frozen(self):
        plan = self.make_plan(100, 5, 100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.q_lo = 0
