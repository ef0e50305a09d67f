"""Child processes of the benchmark: wall time, peak RSS, hard deadlines.

Every ``repro`` invocation is a real process started from the checkout's
``src`` tree through :mod:`spawn`, which forks it from a bare interpreter
and measures it: wall time from fork to reap (interpreter start and
imports included) and peak RSS from ``wait4``, whose usage record covers
the command and every descendant it reaped (the counting and build pools),
so it is the RSS of the largest of them.  Each child runs in its own
process group, which is what deadlines kill and servers are interrupted
through.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Proc", "Env", "clear_bytecode"]

HERE = Path(__file__).resolve().parent


@dataclass
class Proc:
    """Outcome of one finished child process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    output: str


def clear_bytecode(src: Path) -> None:
    """Drop the program's cached bytecode so the next start compiles it."""
    for cache in src.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


class _Child:
    """One launched command: its launcher process and measurement file."""

    def __init__(self, env: "Env", argv: list, stdout, stderr) -> None:
        self.result = env.next_path("result.json")
        self.popen = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py"), str(self.result), "--",
             *argv],
            stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
            cwd=env.work, env=env.environ, start_new_session=True)
        self.started = time.perf_counter()

    def kill_after(self, timeout: float) -> threading.Timer:
        timer = threading.Timer(timeout, _signal_group,
                                (self.popen.pid, signal.SIGKILL))
        timer.start()
        return timer

    def reap(self, timeout: float) -> tuple:
        """Wait for the command; return (returncode, wall_s, peak_rss_mb)."""
        timer = self.kill_after(timeout)
        try:
            self.popen.wait()
        finally:
            timer.cancel()
        try:
            measured = json.loads(self.result.read_text())
        except (OSError, ValueError):     # killed before it could report
            return (self.popen.returncode or -signal.SIGKILL,
                    time.perf_counter() - self.started, 0.0)
        return measured["returncode"], measured["wall_s"], measured["peak_rss_mb"]


class Env:
    """How to start ``repro`` from one checkout, confined to a work directory."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.deadline = deadline          # perf_counter() after which children are killed
        self.src = root / "src"
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(tmp)          # the streaming miner's spill lands here
        env.pop("PYTHONPYCACHEPREFIX", None)
        self.environ = env
        self._count = 0

    def argv(self, repro_args: list, trace_path: Path | None = None) -> list:
        if trace_path is None:
            return [sys.executable, "-m", "repro.cli", *repro_args]
        return [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), "--",
                *repro_args]

    def timeout(self, timeout: float) -> float:
        return max(0.1, min(timeout, self.deadline - time.perf_counter()))

    def next_path(self, suffix: str) -> Path:
        self._count += 1
        return self.work / f"proc-{self._count:04d}.{suffix}"

    def run(self, repro_args: list, *, timeout: float, trace_path=None,
            cold: bool = False) -> Proc:
        """Run one CLI command to completion.

        ``cold`` first drops the program's bytecode, so the command pays
        what the first run in a fresh checkout pays.
        """
        if cold:
            clear_bytecode(self.src)
        log = self.next_path("log")
        with log.open("wb") as handle:
            child = _Child(self, self.argv(repro_args, trace_path), handle,
                           subprocess.STDOUT)
            code, wall, rss = child.reap(self.timeout(timeout))
        return Proc(code, wall, rss, log.read_text(errors="replace"))

    def start_server(self, repro_args: list, *, timeout: float, trace_path=None,
                     cold: bool = False) -> "Server":
        if cold:
            clear_bytecode(self.src)
        return Server(self, self.argv(repro_args, trace_path), self.timeout(timeout))


class Server:
    """A ``repro serve`` child, started until it prints its address.

    ``start_s`` runs from launch to the "serving on" line, so it includes
    the launcher's own start (a bare interpreter, ~20 ms).
    """

    def __init__(self, env: Env, argv: list, timeout: float) -> None:
        self.log = env.next_path("log")
        self._handle = self.log.open("wb")
        start = time.perf_counter()
        self.child = _Child(env, argv, subprocess.PIPE, self._handle)
        stdout = self.child.popen.stdout
        self.address = None
        self._lines: list = []
        deadline = self.child.kill_after(timeout)
        try:
            for raw in stdout:
                line = raw.decode(errors="replace")
                self._lines.append(line)
                if line.startswith("serving on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    self.address = (host, int(port))
                    break
        finally:
            deadline.cancel()
        self.start_s = time.perf_counter() - start
        self.peak_rss_mb = 0.0
        self.returncode = None
        if self.address is None:
            self.stop(timeout)
            raise RuntimeError("server did not start: " + "".join(self._lines)
                               + self.log.read_text(errors="replace"))

    def stop(self, timeout: float) -> None:
        """Interrupt the server and reap it (killing it at ``timeout``)."""
        if self.returncode is not None:
            return
        _signal_group(self.child.popen.pid, signal.SIGINT)
        # The reader thread keeps the stdout pipe drained while it exits.
        stdout = self.child.popen.stdout
        rest: list = []
        reader = threading.Thread(target=lambda: rest.extend(stdout))
        reader.start()
        self.returncode, _, self.peak_rss_mb = self.child.reap(timeout)
        reader.join(timeout)
        stdout.close()
        self._handle.close()
        self._lines.extend(r.decode(errors="replace") for r in rest)

    @property
    def output(self) -> str:
        return "".join(self._lines)
