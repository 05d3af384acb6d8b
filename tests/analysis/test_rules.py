"""Fixture pairs for every lint rule: a snippet the rule must flag and a
closely-related snippet it must pass.

Each fixture is linted through :func:`repro.analysis.lint_source` with a
fake in-repo path, because several rules scope themselves by subpackage
(``src/repro/<sub>/...``).
"""

import textwrap

from repro.analysis import all_rules, lint_source


def lint(source: str, path: str, rule_id: str | None = None):
    rules = (all_rules(only=lambda cls: cls.rule_id == rule_id)
             if rule_id else None)
    return lint_source(textwrap.dedent(source), path, rules=rules)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# -- R001: raw page I/O stays inside storage/ ---------------------------------


class TestR001RawPageIO:
    FLAGGED = """\
        class Catalog:
            def load(self):
                data = self.pager.read(7)
                self.pager.write(7, data)
        """

    def test_must_flag_outside_storage(self):
        findings = lint(self.FLAGGED, "src/repro/core/catalog.py", "R001")
        assert rule_ids(findings) == ["R001", "R001"]
        assert findings[0].line == 3
        assert "self.pager.read" in findings[0].message

    def test_must_pass_inside_storage(self):
        findings = lint(self.FLAGGED, "src/repro/storage/catalog.py", "R001")
        assert findings == []

    def test_must_pass_buffer_pool_io(self):
        source = """\
            def load(pool):
                return pool.read(7)
            """
        assert lint(source, "src/repro/core/catalog.py", "R001") == []

    def test_device_receiver_flagged(self):
        source = """\
            def dump(device):
                return device.read(0)
            """
        findings = lint(source, "src/repro/engine/dump.py", "R001")
        assert rule_ids(findings) == ["R001"]


# -- R002: no nondeterminism in the index stack -------------------------------


class TestR002Nondeterminism:
    FLAGGED = """\
        import time

        def stamp():
            return time.monotonic()
        """

    def test_must_flag_in_core(self):
        findings = lint(self.FLAGGED, "src/repro/core/clock.py", "R002")
        assert rule_ids(findings) == ["R002"]
        assert findings[0].line == 1

    def test_must_pass_in_bench(self):
        assert lint(self.FLAGGED, "src/repro/bench/clock.py", "R002") == []

    def test_must_flag_from_import_and_urandom(self):
        source = """\
            from random import shuffle
            import os

            def salt():
                return os.urandom(8)
            """
        findings = lint(source, "src/repro/storage/salt.py", "R002")
        assert rule_ids(findings) == ["R002", "R002"]
        assert {f.line for f in findings} == {1, 5}

    def test_must_pass_benign_imports(self):
        source = """\
            import os
            import struct
            from os import fspath
            """
        assert lint(source, "src/repro/btree/x.py", "R002") == []

    def test_must_flag_in_serve(self):
        # The serving layer is in scope: linger timers and retry
        # jitter must come through injected seams, not module imports.
        findings = lint(self.FLAGGED, "src/repro/serve/linger.py",
                        "R002")
        assert rule_ids(findings) == ["R002"]

    def test_must_pass_asyncio_in_serve(self):
        source = """\
            import asyncio
            import threading

            def loop_time():
                return asyncio.get_running_loop().time()
            """
        assert lint(source, "src/repro/serve/timing.py", "R002") == []


# -- R003: typed errors only in storage/ and engine/ --------------------------


class TestR003TypedErrors:
    FLAGGED = """\
        def commit(ok):
            if not ok:
                raise RuntimeError("commit failed")
        """

    def test_must_flag_in_storage(self):
        findings = lint(self.FLAGGED, "src/repro/storage/commit.py", "R003")
        assert rule_ids(findings) == ["R003"]
        assert "RuntimeError" in findings[0].message

    def test_must_pass_outside_scope(self):
        assert lint(self.FLAGGED, "src/repro/bench/commit.py", "R003") == []

    def test_must_pass_typed_and_validation_raises(self):
        source = """\
            from .errors import ChecksumError

            def check(page, size):
                if size <= 0:
                    raise ValueError("size must be positive")
                raise ChecksumError(page)
            """
        assert lint(source, "src/repro/storage/check.py", "R003") == []

    def test_bare_reraise_allowed(self):
        source = """\
            def passthrough(fn):
                try:
                    fn()
                except KeyError:
                    raise
            """
        assert lint(source, "src/repro/engine/x.py", "R003") == []


# -- R004: acquisitions lifecycle-managed -------------------------------------


class TestR004ResourceGuard:
    def test_must_flag_unguarded_open(self):
        source = """\
            def head(path):
                handle = open(path)
                return handle.readline()
            """
        findings = lint(source, "src/repro/bench/head.py", "R004")
        assert rule_ids(findings) == ["R004"]
        assert findings[0].line == 2

    def test_must_pass_with_statement(self):
        source = """\
            def head(path):
                with open(path) as handle:
                    return handle.readline()
            """
        assert lint(source, "src/repro/bench/head.py", "R004") == []

    def test_must_pass_try_finally_close(self):
        source = """\
            def head(path):
                handle = open(path)
                try:
                    return handle.readline()
                finally:
                    handle.close()
            """
        assert lint(source, "src/repro/bench/head.py", "R004") == []

    def test_must_pass_ownership_transfer(self):
        source = """\
            def make(path, page_size):
                return FilePageDevice(path, page_size)
            """
        assert lint(source, "src/repro/storage/make.py", "R004") == []

    def test_must_pass_exit_stack(self):
        source = """\
            def run(stack, spec):
                executor = stack.enter_context(resolve_executor(spec))
                return executor
            """
        assert lint(source, "src/repro/engine/run.py", "R004") == []

    def test_must_pass_close_on_error_guard(self):
        source = """\
            def build(path, config):
                index = SWSTIndex(path, config)
                try:
                    index.extend([])
                except BaseException:
                    index.close()
                    raise
                return index
            """
        assert lint(source, "src/repro/bench/build.py", "R004") == []

    def test_must_flag_unguarded_constructor(self):
        source = """\
            def build(path, config):
                index = SWSTIndex(path, config)
                index.extend([])
                return index
            """
        findings = lint(source, "src/repro/bench/build.py", "R004")
        assert rule_ids(findings) == ["R004"]


# -- R005: executor tasks must not mutate closed-over state -------------------


class TestR005ExecutorClosures:
    def test_must_flag_mutating_lambda(self):
        source = """\
            def gather(executor, shard):
                results = []
                executor.submit(lambda: results.append(shard.count()))
                return results
            """
        findings = lint(source, "src/repro/serve/gather.py", "R005")
        assert rule_ids(findings) == ["R005"]
        assert "results" in findings[0].message

    def test_must_pass_pure_lambda(self):
        # ``map`` runs inline on the calling thread: not a trigger.
        source = """\
            def gather(executor, shards, q):
                seen = []
                executor.map(lambda s: seen.append(s), shards)
                return executor.submit(lambda: shards[0].query(q))
            """
        assert lint(source, "src/repro/serve/gather.py", "R005") == []

    def test_must_flag_nested_def_nonlocal(self):
        source = """\
            def gather(executor, shard):
                total = 0

                def task():
                    nonlocal total
                    total += shard.count()

                executor.submit(task)
                return total
            """
        findings = lint(source, "src/repro/serve/gather.py", "R005")
        assert rule_ids(findings) == ["R005"]

    def test_must_pass_local_mutation_in_task(self):
        source = """\
            def gather(executor, shard):
                def task():
                    rows = []
                    rows.append(shard.count())
                    return rows

                return executor.submit(task)
            """
        assert lint(source, "src/repro/serve/gather.py", "R005") == []

    def test_must_flag_attribute_store(self):
        source = """\
            def gather(self, executor, shard):
                executor.submit(lambda: shard.close())
                def task():
                    self.last = shard
                executor.submit(task)
            """
        findings = lint(source, "src/repro/serve/gather.py", "R005")
        assert rule_ids(findings) == ["R005"]
        assert "'self'" in findings[0].message


# -- R006: no broad except swallowing corruption errors -----------------------


class TestR006SwallowedErrors:
    def test_must_flag_silent_broad_handler(self):
        source = """\
            def scrub(page):
                try:
                    check(page)
                except Exception:
                    pass
            """
        findings = lint(source, "src/repro/storage/scrub.py", "R006")
        assert rule_ids(findings) == ["R006"]
        assert findings[0].line == 4

    def test_must_flag_bare_except(self):
        source = """\
            def scrub(page):
                try:
                    check(page)
                except:
                    return None
            """
        findings = lint(source, "src/repro/core/scrub.py", "R006")
        assert rule_ids(findings) == ["R006"]

    def test_must_pass_reraise(self):
        source = """\
            def scrub(page):
                try:
                    check(page)
                except BaseException:
                    cleanup()
                    raise
            """
        assert lint(source, "src/repro/storage/scrub.py", "R006") == []

    def test_must_pass_bound_name_used(self):
        source = """\
            def scrub(page, log):
                try:
                    check(page)
                except Exception as exc:
                    log.append(exc)
            """
        assert lint(source, "src/repro/storage/scrub.py", "R006") == []

    def test_must_pass_narrow_handler(self):
        source = """\
            def scrub(page):
                try:
                    check(page)
                except struct.error:
                    return None
            """
        assert lint(source, "src/repro/storage/scrub.py", "R006") == []

    def test_bound_but_unused_still_flagged(self):
        source = """\
            def scrub(page):
                try:
                    check(page)
                except Exception as exc:
                    return None
            """
        findings = lint(source, "src/repro/storage/scrub.py", "R006")
        assert rule_ids(findings) == ["R006"]


# -- R007: query plans are immutable after construction -----------------------


class TestR007PlanPurity:
    def test_subscript_store_flagged(self):
        source = """\
            def tweak(plan):
                plan.column_of[3] = None
            """
        findings = lint(source, "src/repro/core/index.py", "R007")
        assert rule_ids(findings) == ["R007"]
        assert "plan.column_of" in findings[0].message

    def test_attribute_store_through_holder_flagged(self):
        source = """\
            def tweak(entry):
                entry.plan.q_lo = 0
            """
        findings = lint(source, "src/repro/engine/engine.py", "R007")
        assert rule_ids(findings) == ["R007"]

    def test_legacy_dict_plan_store_flagged(self):
        source = """\
            def tweak(shard_plan):
                shard_plan["by_tree"] = []
            """
        findings = lint(source, "src/repro/engine/engine.py", "R007")
        assert rule_ids(findings) == ["R007"]

    def test_mutator_call_flagged(self):
        source = """\
            def tweak(plan, extra):
                plan.column_of.update(extra)
            """
        findings = lint(source, "src/repro/core/index.py", "R007")
        assert rule_ids(findings) == ["R007"]

    def test_augassign_flagged(self):
        source = """\
            def tweak(plan):
                plan.s_hi_eff += 1
            """
        findings = lint(source, "src/repro/core/index.py", "R007")
        assert rule_ids(findings) == ["R007"]

    def test_delete_flagged(self):
        source = """\
            def tweak(plan):
                del plan.column_of[3]
            """
        findings = lint(source, "src/repro/core/index.py", "R007")
        assert rule_ids(findings) == ["R007"]

    def test_holder_rebinding_passes(self):
        source = """\
            class PlanEntry:
                def __init__(self, plan):
                    self.plan = plan
            """
        assert lint(source, "src/repro/core/plan.py", "R007") == []

    def test_local_rebinding_passes(self):
        source = """\
            def resolve(plan, other):
                plan = other
                return plan.q_lo
            """
        assert lint(source, "src/repro/core/index.py", "R007") == []

    def test_reads_pass(self):
        source = """\
            def use(plan):
                column = plan.column_of.get(3)
                return plan.by_tree[0], column
            """
        assert lint(source, "src/repro/core/index.py", "R007") == []

    def test_out_of_scope_subpackage_passes(self):
        source = """\
            def tweak(plan):
                plan.column_of[3] = None
            """
        assert lint(source, "src/repro/storage/pager.py", "R007") == []


# -- suppression comments -----------------------------------------------------


class TestSuppression:
    def test_targeted_suppression(self):
        source = """\
            class Catalog:
                def load(self):
                    return self.pager.read(7)  # repro-lint: ignore[R001]
            """
        assert lint(source, "src/repro/core/catalog.py") == []

    def test_suppression_is_rule_specific(self):
        source = """\
            class Catalog:
                def load(self):
                    return self.pager.read(7)  # repro-lint: ignore[R006]
            """
        findings = lint(source, "src/repro/core/catalog.py")
        assert rule_ids(findings) == ["R001"]

    def test_blanket_suppression(self):
        source = """\
            import time  # repro-lint: ignore
            """
        assert lint(source, "src/repro/core/clock.py") == []
