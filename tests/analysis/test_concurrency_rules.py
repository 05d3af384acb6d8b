"""Fixture tests for the interprocedural concurrency/durability rules.

Each rule gets at least three snippets it must flag and three
closely-related snippets it must pass.  Single-module fixtures go
through :func:`lint_source`; the call chains that span modules (the
whole point of R009's interprocedural reach) go through
:func:`lint_sources` with a dict of fake in-repo paths.
"""

import textwrap

from repro.analysis import all_rules, lint_source, lint_sources


def lint(source: str, path: str, rule_id: str):
    rules = all_rules(only=lambda cls: cls.rule_id == rule_id)
    return lint_source(textwrap.dedent(source), path, rules=rules)


def lint_many(sources: dict[str, str], rule_id: str):
    rules = all_rules(only=lambda cls: cls.rule_id == rule_id)
    return lint_sources({path: textwrap.dedent(source)
                         for path, source in sources.items()},
                        rules=rules)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# -- R009: no blocking call reachable from a serve/ coroutine -----------------


class TestR009AsyncBlocking:
    def test_must_flag_direct_sleep(self):
        source = """\
            import time

            async def handle(request):
                time.sleep(0.1)
            """
        findings = lint(source, "src/repro/serve/app.py", "R009")
        assert rule_ids(findings) == ["R009"]
        assert "time.sleep" in findings[0].message
        assert "directly in async def" in findings[0].message

    def test_must_flag_transitive_two_hop_path_across_modules(self):
        findings = lint_many({
            "src/repro/serve/util.py": """\
                import time

                def deep():
                    time.sleep(0.5)
                """,
            "src/repro/serve/app.py": """\
                from .util import deep

                def helper():
                    deep()

                async def handle(request):
                    helper()
                """,
        }, "R009")
        assert rule_ids(findings) == ["R009"]
        assert findings[0].path == "src/repro/serve/util.py"
        assert ("reachable from async def serve.app.handle "
                "via serve.app.helper -> serve.util.deep"
                in findings[0].message)

    def test_must_flag_unawaited_engine_call(self):
        source = """\
            class Facade:
                async def query(self, q):
                    return self.engine.query_interval(q)
            """
        findings = lint(source, "src/repro/serve/facade.py", "R009")
        assert rule_ids(findings) == ["R009"]
        assert "outside the Executor seam" in findings[0].message

    def test_must_flag_blocking_lock_acquire(self):
        source = """\
            async def handle(self):
                self._mutex.acquire()
            """
        findings = lint(source, "src/repro/serve/app.py", "R009")
        assert rule_ids(findings) == ["R009"]
        assert "lock .acquire()" in findings[0].message

    def test_must_pass_executor_seam(self):
        source = """\
            import time

            def blocking_work():
                time.sleep(1.0)

            async def handle(loop):
                return await loop.run_in_executor(None, blocking_work)
            """
        assert lint(source, "src/repro/serve/app.py", "R009") == []

    def test_must_pass_awaited_facade_call(self):
        source = """\
            class Facade:
                async def query(self, q):
                    return await self.engine.query_interval(q)
            """
        assert lint(source, "src/repro/serve/facade.py", "R009") == []

    def test_must_pass_asyncio_sleep(self):
        source = """\
            import asyncio

            async def backoff():
                await asyncio.sleep(0.1)
            """
        assert lint(source, "src/repro/serve/retry.py", "R009") == []

    def test_must_pass_blocking_code_in_submitted_closure(self):
        source = """\
            import time

            async def handle(executor):
                def work():
                    time.sleep(1.0)
                return executor.submit(work)
            """
        assert lint(source, "src/repro/serve/app.py", "R009") == []

    def test_must_pass_outside_serve(self):
        source = """\
            import time

            async def tick():
                time.sleep(0.1)
            """
        assert lint(source, "src/repro/bench/clock.py", "R009") == []


# -- R010: fsync discipline on durable-write paths ----------------------------


class TestR010FsyncDiscipline:
    def test_must_flag_write_onto_final_path(self):
        source = """\
            def save_manifest(fops, path, data):
                fops.write_file(path, data)
            """
        findings = lint(source, "src/repro/storage/manifest.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert "final path" in findings[0].message

    def test_must_flag_replace_without_dir_fsync(self):
        source = """\
            def flip(fops, tmp, path):
                fops.replace(tmp, path)
            """
        findings = lint(source, "src/repro/storage/manifest.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert "directory" in findings[0].message

    def test_must_flag_append_without_fsync_barrier(self):
        source = """\
            def append_record(fops, path, record):
                fops.append_file(path, record)
            """
        findings = lint(source, "src/repro/engine/journal.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert "fsync_file barrier" in findings[0].message

    def test_must_flag_wal_log_without_commit(self):
        source = """\
            class Worker:
                def apply(self, batch):
                    for record in batch:
                        self.wal.log(record)
                    return len(batch)
            """
        findings = lint(source, "src/repro/engine/worker.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert ".commit()" in findings[0].message

    def test_must_flag_copy_without_dir_fsync(self):
        source = """\
            def snapshot_shard(fops, src, dst):
                fops.copy_file(src, dst)
            """
        findings = lint(source, "src/repro/engine/engine.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert "directory entry" in findings[0].message

    def test_must_flag_mkdir_without_dir_fsync(self):
        source = """\
            def stage_generation(fops, gen_dir):
                fops.mkdir(gen_dir)
            """
        findings = lint(source, "src/repro/engine/reshard.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert ".mkdir()" in findings[0].message

    def test_must_flag_rmdir_without_dir_fsync(self):
        source = """\
            def drop_generation(fops, gen_dir):
                fops.rmdir(gen_dir)
            """
        findings = lint(source, "src/repro/engine/reshard.py", "R010")
        assert rule_ids(findings) == ["R010"]
        assert ".rmdir()" in findings[0].message

    def test_must_pass_full_discipline(self):
        source = """\
            def save_manifest(fops, tmp_path, path, parent, data):
                fops.write_file(tmp_path, data)
                fops.replace(tmp_path, path)
                fops.fsync_dir(parent)
            """
        assert lint(source, "src/repro/storage/manifest.py", "R010") == []

    def test_must_pass_fsync_in_later_helper(self):
        source = """\
            class Journal:
                def append(self, record):
                    self.fops.append_file(self.path, record)
                    self._barrier()

                def _barrier(self):
                    self.fops.fsync_file(self.path)
            """
        assert lint(source, "src/repro/engine/journal.py", "R010") == []

    def test_must_pass_snapshot_copy_with_dir_fsync(self):
        source = """\
            def snapshot_shards(fops, paths, snap_dir, parent):
                fops.mkdir(snap_dir)
                for src, dst in paths:
                    fops.copy_file(src, dst)
                fops.fsync_dir(snap_dir)
                fops.fsync_dir(parent)
            """
        assert lint(source, "src/repro/engine/engine.py", "R010") == []

    def test_must_pass_dir_fsync_in_later_helper(self):
        source = """\
            class Build:
                def stage(self):
                    self.fops.mkdir(self.gen_dir)
                    self._settle()

                def _settle(self):
                    self.fops.fsync_dir(self.parent)
            """
        assert lint(source, "src/repro/engine/reshard.py", "R010") == []

    def test_must_pass_wal_group_commit(self):
        source = """\
            class Worker:
                def apply(self, batch):
                    for record in batch:
                        self.wal.log(record)
                    self.wal.commit()
                    return len(batch)
            """
        assert lint(source, "src/repro/engine/worker.py", "R010") == []

    def test_must_pass_outside_scope(self):
        source = """\
            def save(fops, path, data):
                fops.write_file(path, data)
            """
        assert lint(source, "src/repro/bench/report.py", "R010") == []


# -- R011: no await while holding a sync lock ---------------------------------


class TestR011AwaitHoldingLock:
    def test_must_flag_await_under_sync_lock(self):
        source = """\
            class Facade:
                async def refresh(self):
                    with self._mutex:
                        await self._reload()
            """
        findings = lint(source, "src/repro/serve/facade.py", "R011")
        assert rule_ids(findings) == ["R011"]
        assert "'mutex'" in findings[0].message

    def test_must_flag_in_engine_subpackage(self):
        source = """\
            class Pool:
                async def drain(self):
                    with self._state_lock:
                        await self._queue.get()
            """
        findings = lint(source, "src/repro/engine/pool.py", "R011")
        assert rule_ids(findings) == ["R011"]

    def test_must_flag_every_await_in_the_block(self):
        source = """\
            async def swap(lock, queue):
                with lock:
                    first = await queue.get()
                    second = await queue.get()
                return first, second
            """
        findings = lint(source, "src/repro/serve/swap.py", "R011")
        assert rule_ids(findings) == ["R011", "R011"]
        assert findings[0].line == 3 and findings[1].line == 4

    def test_must_pass_async_with_gate(self):
        source = """\
            class Facade:
                async def read(self, q):
                    async with self._gate.read():
                        return await self._query(q)
            """
        assert lint(source, "src/repro/serve/facade.py", "R011") == []

    def test_must_pass_await_outside_the_lock(self):
        source = """\
            class Facade:
                async def refresh(self):
                    with self._mutex:
                        self._dirty = True
                    await self._reload()
            """
        assert lint(source, "src/repro/serve/facade.py", "R011") == []

    def test_must_pass_nested_coroutine_under_lock(self):
        source = """\
            class Facade:
                async def schedule(self):
                    with self._mutex:
                        async def later():
                            await self._reload()
                        self._pending = later
            """
        assert lint(source, "src/repro/serve/facade.py", "R011") == []

    def test_must_pass_outside_scope(self):
        source = """\
            async def swap(lock, queue):
                with lock:
                    return await queue.get()
            """
        assert lint(source, "src/repro/core/swap.py", "R011") == []
