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
