"""CLI: generate -> build -> query round trip, bench figure selection."""

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "stream.csv"
        assert run_cli("generate", "--objects", "20", "--max-time", "3000",
                       "--output", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "oid,x,y,t"
        assert len(lines) > 20

    def test_generate_to_stdout(self, capsys):
        assert run_cli("generate", "--objects", "5",
                       "--max-time", "500") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("oid,x,y,t")


class TestBuildAndQuery:
    @pytest.fixture
    def built(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        index = tmp_path / "index.db"
        run_cli("generate", "--objects", "30", "--max-time", "30000",
                "--output", str(stream))
        args = ["--window", "20000", "--slide", "100", "--grid", "4",
                "--page-size", "1024"]
        assert run_cli("build", str(stream), str(index), *args) == 0
        capsys.readouterr()
        return index, args

    def test_build_then_interval_query(self, built, capsys):
        index, args = built
        assert run_cli("query", str(index), "--t-lo", "15000",
                       "--t-hi", "25000", *args) == 0
        captured = capsys.readouterr()
        assert "node accesses" in captured.err
        assert "oid=" in captured.out

    def test_timeslice_query(self, built, capsys):
        index, args = built
        assert run_cli("query", str(index), "--t-lo", "25000", *args) == 0

    def test_knn_query(self, built, capsys):
        index, args = built
        assert run_cli("query", str(index), "--t-lo", "25000",
                       "--knn", "3", "--point", "5000", "5000", *args) == 0
        captured = capsys.readouterr()
        assert len([line for line in captured.out.splitlines()
                    if line.startswith("oid=")]) <= 3

    def test_logical_window_query(self, built, capsys):
        index, args = built
        assert run_cli("query", str(index), "--t-lo", "10000",
                       "--t-hi", "29000", "--logical-window", "5000",
                       *args) == 0


class TestShardedBuildAndQuery:
    @pytest.fixture
    def built(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        index = tmp_path / "index.d"
        run_cli("generate", "--objects", "30", "--max-time", "30000",
                "--output", str(stream))
        args = ["--window", "20000", "--slide", "100", "--grid", "4",
                "--page-size", "1024", "--shards", "3"]
        assert run_cli("build", str(stream), str(index), *args) == 0
        capsys.readouterr()
        return index, args

    def test_build_creates_shard_directory(self, built, capsys):
        index, args = built
        assert (index / "engine.json").exists()
        assert (index / "shard-000.pages").exists()
        assert (index / "shard-002.pages").exists()

    def test_sharded_interval_query(self, built, capsys):
        index, args = built
        assert run_cli("query", str(index), "--t-lo", "15000",
                       "--t-hi", "25000", *args) == 0
        captured = capsys.readouterr()
        assert "node accesses" in captured.err
        assert "oid=" in captured.out

    def test_sharded_matches_unsharded_results(self, built, tmp_path,
                                               capsys):
        index, args = built
        plain = tmp_path / "plain.db"
        stream = tmp_path / "stream.csv"
        plain_args = [a for a in args if a not in ("--shards", "3")]
        assert run_cli("build", str(stream), str(plain), *plain_args) == 0
        capsys.readouterr()
        assert run_cli("query", str(index), "--t-lo", "15000",
                       "--t-hi", "25000", *args) == 0
        sharded_out = capsys.readouterr().out
        assert run_cli("query", str(plain), "--t-lo", "15000",
                       "--t-hi", "25000", *plain_args) == 0
        plain_out = capsys.readouterr().out
        assert sorted(sharded_out.splitlines()) == \
            sorted(plain_out.splitlines())

    def test_sharded_query_with_serial_executor(self, built, capsys):
        index, args = built
        assert run_cli("query", str(index), "--t-lo", "25000",
                       "--executor", "serial", *args) == 0


class TestBench:
    def test_bench_single_figure(self, capsys):
        assert run_cli("bench", "--scale", "tiny",
                       "--figures", "Fig.7", "--objects", "20") == 0
        captured = capsys.readouterr()
        assert "Fig.7" in captured.out
        assert "Fig.9" not in captured.out

    def test_bench_runs_only_the_selected_experiment(self, capsys,
                                                     monkeypatch):
        from repro.bench import experiments

        called = []

        def recorder(exp_ids):
            def run(params):
                called.append(exp_ids)
                return tuple(experiments.ExperimentResult(
                    exp_id, "stub", ["n"], [[1]]) for exp_id in exp_ids)
            return run

        monkeypatch.setattr("repro.cli.EXPERIMENTS", tuple(
            (exp_ids, recorder(exp_ids))
            for exp_ids, _ in experiments.EXPERIMENTS))
        assert run_cli("bench", "--scale", "tiny",
                       "--figures", "fig.7") == 0
        assert called == [("Fig.7", "Fig.8")]
        out = capsys.readouterr().out
        assert "Fig.7" in out and "Fig.8" not in out

    def test_bench_chart_mode(self, capsys):
        assert run_cli("bench", "--scale", "tiny", "--chart",
                       "--figures", "Fig.10", "--objects", "20") == 0
        captured = capsys.readouterr()
        assert "|" in captured.out and "#" in captured.out


class TestErrors:
    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("bench", "--scale", "enormous")

    def test_missing_stream_file_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_cli("build", str(tmp_path / "nope.csv"),
                    str(tmp_path / "out.db"))

    def test_query_missing_index_fails(self, tmp_path):
        from repro.storage import CorruptPageFileError, Pager
        with pytest.raises(CorruptPageFileError):
            # A fresh page file has no saved catalog.
            Pager(tmp_path / "empty.db", page_size=8192).close()
            run_cli("query", str(tmp_path / "empty.db"), "--t-lo", "0")


class TestScrub:
    def _build(self, tmp_path):
        stream = tmp_path / "stream.csv"
        index = tmp_path / "idx.db"
        run_cli("generate", "--objects", "15", "--max-time", "2000",
                "--output", str(stream))
        run_cli("build", str(stream), str(index), "--page-size", "1024")
        return index

    def test_clean_index_scrubs_clean(self, tmp_path, capsys):
        index = self._build(tmp_path)
        assert run_cli("scrub", str(index)) == 0
        out = capsys.readouterr().out
        assert "0 corrupt page(s)" in out

    def test_bit_flip_reports_exact_page(self, tmp_path, capsys):
        from repro.storage import FilePageDevice
        from tests.storage.fault import FaultInjectingPageDevice
        index = self._build(tmp_path)
        device = FaultInjectingPageDevice(FilePageDevice(index, 1024))
        victim = device.page_count() - 1
        device.flip_stored_bit(victim, 33, 0x08)
        device.close()
        assert run_cli("scrub", str(index)) == 1
        out = capsys.readouterr().out
        assert f"page {victim}:" in out
        assert "1 corrupt page(s)" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert run_cli("scrub", str(tmp_path / "nope.db")) == 2


class TestScrubDirectory:
    def _build_dir(self, tmp_path):
        stream = tmp_path / "stream.csv"
        index = tmp_path / "index.d"
        run_cli("generate", "--objects", "20", "--max-time", "3000",
                "--output", str(stream))
        run_cli("build", str(stream), str(index), "--page-size", "1024",
                "--shards", "3")
        return index

    def test_clean_directory_scrubs_clean(self, tmp_path, capsys):
        index = self._build_dir(tmp_path)
        assert run_cli("scrub", str(index)) == 0
        out = capsys.readouterr().out
        assert "engine directory" in out
        assert "3 shard file(s) swept" in out
        assert "directory verdict: clean" in out

    def test_corrupt_shard_fails_directory_scrub(self, tmp_path, capsys):
        from repro.storage import FilePageDevice
        from tests.storage.fault import FaultInjectingPageDevice
        index = self._build_dir(tmp_path)
        shard = index / "shard-001.pages"
        device = FaultInjectingPageDevice(FilePageDevice(shard, 1024))
        device.flip_stored_bit(device.page_count() - 1, 17, 0x04)
        device.close()
        assert run_cli("scrub", str(index)) == 1
        out = capsys.readouterr().out
        assert "directory verdict: CORRUPT" in out

    def test_missing_shard_file_is_a_problem(self, tmp_path, capsys):
        index = self._build_dir(tmp_path)
        (index / "shard-002.pages").unlink()
        assert run_cli("scrub", str(index)) == 1
        out = capsys.readouterr().out
        assert "shard-002.pages is missing" in out


class TestNoStrictFlag:
    def test_sharded_query_accepts_no_strict(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        index = tmp_path / "index.d"
        run_cli("generate", "--objects", "20", "--max-time", "30000",
                "--output", str(stream))
        args = ["--page-size", "1024", "--shards", "3"]
        run_cli("build", str(stream), str(index), *args)
        capsys.readouterr()
        assert run_cli("query", str(index), "--t-lo", "25000",
                       "--no-strict", *args) == 0
        captured = capsys.readouterr()
        # Healthy directory: full answer, no degradation banner.
        assert "DEGRADED" not in captured.err

    def test_no_strict_warns_without_shards(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        index = tmp_path / "idx.db"
        run_cli("generate", "--objects", "10", "--max-time", "2000",
                "--output", str(stream))
        run_cli("build", str(stream), str(index), "--page-size", "1024")
        capsys.readouterr()
        assert run_cli("query", str(index), "--t-lo", "1500",
                       "--no-strict", "--page-size", "1024") == 0
        assert "no effect" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m_repro(self):
        proc = subprocess.run([sys.executable, "-m", "repro", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "generate" in proc.stdout


def _group_members(pgid):
    """Live (non-zombie) pids of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                raw = handle.read()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestServeWorkersDoNotOutliveTheServer:
    """``repro serve --workers`` must take its worker processes with it,
    however it ends (regression: SIGTERM used to orphan every worker)."""

    N_SHARDS = 2

    @pytest.fixture
    def server(self, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             str(tmp_path / "fleet.d"), "--create", "--workers",
             "--shards", str(self.N_SHARDS), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            start_new_session=True)
        try:
            # The port line is printed once the engine (and with it
            # every worker) is up.
            for raw in proc.stdout:
                if raw.startswith(b"serving "):
                    break
            assert len(_group_members(proc.pid)) == 1 + self.N_SHARDS
            yield proc
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()

    def _wait_group_empty(self, pgid, seconds=5.0):
        deadline = time.monotonic() + seconds
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        return _group_members(pgid)

    def test_sigterm_is_a_clean_shutdown(self, server):
        os.kill(server.pid, signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        assert self._wait_group_empty(server.pid) == []

    def test_workers_exit_on_eof_when_the_server_is_killed(self, server):
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        assert self._wait_group_empty(server.pid) == []
