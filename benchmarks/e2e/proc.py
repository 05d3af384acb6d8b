"""Server processes: launch, account, stop, and never leave one behind.

Each server runs in its own session (``start_new_session=True``), so its
process-group id is its pid and "everything it started" is one
``/proc`` scan away — for CPU and memory accounting, for SIGKILLing the
whole deployment, and for finding what survived a SIGTERM.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .client import Connection, RequestFailed
from .spec import LAUNCH_TIMEOUT_S, STOP_GRACE_S

ROOT = Path(__file__).resolve().parents[2]
SERVER = Path(__file__).resolve().with_name("server.py")
_TICK = os.sysconf("SC_CLK_TCK")
_PORT_LINE = re.compile(r"serving .* on http://[^:]+:(\d+)")


class LaunchError(RuntimeError):
    """The server never printed its port line (or died first)."""


def group_members(pgid: int) -> dict[int, list[str]]:
    """pid -> ``/proc/<pid>/stat`` fields after the command name, for
    every live (non-zombie) process of process group ``pgid``."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members[int(entry)] = fields
    return members


class Server:
    """One launched ``server.py`` and the group it leads."""

    def __init__(self, spec: dict, log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.launched = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(ROOT), start_new_session=True)
        self.pgid = self.proc.pid
        self.port = 0
        self._port_seen = threading.Event()
        # Worker processes inherit the stdout pipe and can outlive the
        # parent, so the pipe is drained by a daemon thread and nothing
        # here ever waits for it to reach EOF.
        self._reader = threading.Thread(target=self._read_stdout,
                                        daemon=True)
        self._reader.start()
        try:
            self._await_port()
        except BaseException:
            self.kill()
            raise

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for raw in self.proc.stdout:
            match = _PORT_LINE.search(raw.decode("utf-8", "replace"))
            if match and not self.port:
                self.port = int(match.group(1))
                self._port_seen.set()
        self._port_seen.set()

    def _await_port(self) -> None:
        self._port_seen.wait(LAUNCH_TIMEOUT_S)
        if not self.port:
            raise LaunchError(
                f"no port line within {LAUNCH_TIMEOUT_S:g}s "
                f"(exit code {self.proc.poll()}); see {self._log.name}")

    def wait_healthy(self) -> Connection:
        """First 200 from /healthz, on a connection the caller keeps."""
        deadline = self.launched + LAUNCH_TIMEOUT_S
        while True:
            try:
                conn = Connection(self.port)
                conn.get_json("/healthz")
                return conn
            except (OSError, RequestFailed):
                if time.perf_counter() > deadline:
                    raise LaunchError("never became healthy") from None
                time.sleep(0.005)

    def cpu_s(self) -> float:
        """utime + stime of every live member of the group, seconds."""
        return sum(int(f[11]) + int(f[12])
                   for f in group_members(self.pgid).values()) / _TICK

    def rss_peak_mb(self) -> float:
        """Sum of ``VmHWM`` over the group's live members, MB."""
        total_kb = 0
        for pid in group_members(self.pgid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.pgid, signum)
        except ProcessLookupError:
            pass

    def stop(self, grace: float = STOP_GRACE_S) -> int:
        """SIGTERM the server, wait up to ``grace`` for its whole group
        to be gone, SIGKILL what is left.  Returns how many group
        members outlived the SIGTERM."""
        try:
            os.kill(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.perf_counter() + grace
        while True:
            self.proc.poll()
            survivors = len(group_members(self.pgid))
            if not survivors or time.perf_counter() >= deadline:
                break
            time.sleep(0.02)
        self.kill()
        return survivors

    def kill(self) -> None:
        """SIGKILL the whole group and wait until it is empty."""
        self.signal_group(signal.SIGKILL)
        self.proc.wait()
        deadline = time.perf_counter() + STOP_GRACE_S
        while group_members(self.pgid):
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"process group {self.pgid} survived SIGKILL")
            self.signal_group(signal.SIGKILL)
            time.sleep(0.01)
        self._log.close()
