"""Server processes under test: spawn, time the set-up, meter, stop.

Every server the benchmark drives runs in its own OS process (its own
interpreter and GIL), started from the checkout's ``src/`` tree:

* the shipped daemon or fleet, through the real CLI
  (``python -m repro serve --port P [--workers 2]``) -- shipped
  defaults, only the port differs;
* the same CLI behind :mod:`traced_server` for the per-layer run;
* the :mod:`null_server` framing floor.

CPU time and peak RSS come from ``/proc`` for the whole process tree
(a fleet is the router plus its workers), so the numbers are the
server's alone, never the load generator's.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["ServerProcess", "free_port", "process_tree", "cpu_seconds",
           "peak_rss_mb", "repro_serve_argv"]

#: Longest a server may take to answer its first ``/healthz``.
SETUP_TIMEOUT = 60.0
#: Longest a SIGTERM drain may take before the group is killed.
STOP_TIMEOUT = 30.0


def free_port() -> int:
    """An ephemeral localhost port that is free right now."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces; every field after it is space-separated.
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (a fleet's workers, pools)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """CPU time per process: the scheduler's run time of its live threads.

    ``/proc/<pid>/task/<tid>/schedstat`` counts nanoseconds, where
    ``stat``'s user and system times count 10 ms ticks -- a 4 % step in
    a 0.25 s window.
    """
    usage = {}
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        total = 0
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except OSError:
                continue
        usage[pid] = total / 1e9
    return usage


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the processes."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServerProcess:
    """One server process group: started, timed to ready, stopped."""

    def __init__(self, argv: list[str], root: Path, port: int,
                 log_path: Path) -> None:
        self.argv = argv
        self.root = root
        self.port = port
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.setup_s = 0.0

    def start(self) -> float:
        """Spawn and poll ``/healthz``; returns spawn -> first 200 (s)."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        with open(self.log_path, "ab") as log:
            began = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=env,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        deadline = began + SETUP_TIMEOUT
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"answering /healthz; see {self.log_path}"
                )
            if self._healthy():
                self.setup_s = time.perf_counter() - began
                return self.setup_s
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server not healthy within {SETUP_TIMEOUT}s")

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid) if self.proc else []

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the group is gone."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait(STOP_TIMEOUT)
        # Workers outliving their supervisor would keep running (and
        # holding ports); reap the whole process group.
        deadline = time.monotonic() + STOP_TIMEOUT
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"process group {pgid} did not exit")
            os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.05)
        self.proc = None


def repro_serve_argv(workers: int, port: int) -> list[str]:
    """The shipped daemon/fleet command line (defaults but the port)."""
    argv = [sys.executable, "-m", "repro", "serve", "--port", str(port)]
    if workers > 1:
        argv += ["--workers", str(workers)]
    return argv
