"""Starting, probing and stopping the program's processes.

Every process is started with its output going to a log file inside
the run's work directory, stopped with SIGTERM after the benchmark has
closed its connections, and waited for.  The log is returned unfiltered
so tracebacks are reported with the run.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: Scratch space of running benchmarks, inside the checkout.
WORK_ROOT = ROOT / ".auditbench-work"

#: Longest a server may take from launch to its first healthy reply.
START_TIMEOUT_S = 120.0
#: Longest a process may take to exit after SIGTERM before it is killed.
STOP_TIMEOUT_S = 30.0
#: Pause between the benchmark closing its connections and SIGTERM, so
#: the server has retired them; a traceback at shutdown then means a
#: connection really was open.
CLOSE_SETTLE_S = 0.2


def child_env(workdir: Path) -> dict[str, str]:
    """The environment of every child: the checkout's ``src`` on the
    path, and temporary files kept inside the run's work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(workdir)
    env["SQLITE_TMPDIR"] = str(workdir)
    return env


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """CPU time a live process's threads have used so far, in seconds.

    Summed from each thread's ``schedstat`` (nanoseconds on the CPU),
    which keeps every digit where ``/proc/<pid>/stat`` counts 10 ms
    ticks.  Threads that already exited are not counted; the program's
    thread pool lives as long as the program.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread exited while being read
            continue
    return total / 1e9


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        conn.close()


@dataclass
class Stopped:
    """How a process ended."""

    returncode: int
    log: str
    tracebacks: list[str] = field(default_factory=list)


def _tracebacks(log: str) -> list[str]:
    """Each ``Traceback`` block of a log, verbatim."""
    blocks: list[str] = []
    lines = log.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("Traceback"):
            j = i + 1
            while j < len(lines) and (lines[j].startswith((" ", "\t")) or not lines[j].strip()):
                j += 1
            blocks.append("\n".join(lines[i : j + 1]))
            i = j + 1
        else:
            i += 1
    return blocks


class Process:
    """One child process with its log file."""

    def __init__(
        self, argv: list[str], log_path: Path, workdir: Path, *, pipe: bool = False
    ) -> None:
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.started_at = time.perf_counter()
        # a piped child talks over stdin/stdout; its stderr is the log
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if pipe else subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipe else self._log,
            stderr=self._log if pipe else subprocess.STDOUT,
            env=child_env(workdir),
            cwd=str(ROOT),
            text=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _set_up(self) -> None:
        """Note set-up done: the program now answers (a server's first
        successful ``/v1/healthz``, the mining child's ``ready``)."""
        #: Launch to ready, in wall-clock seconds.
        self.setup_wall_s = time.perf_counter() - self.started_at
        #: CPU seconds the process spent getting ready: the set-up work
        #: itself, whatever else the host runs meanwhile.
        self.setup_s = cpu_seconds(self.pid)

    def log_text(self) -> str:
        return self.log_path.read_text(errors="replace")

    def stop(self) -> Stopped:
        """Ask the process to exit (end of input for a piped child,
        SIGTERM otherwise), wait, kill past the timeout, and collect the
        log."""
        if self.proc.stdin is not None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            time.sleep(CLOSE_SETTLE_S)
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        log = self.log_text()
        return Stopped(self.proc.returncode, log, _tracebacks(log))


class Server(Process):
    """``python -m repro.cli serve`` (or the traced launcher) on a free
    port, started and timed until its first healthy reply."""

    def __init__(
        self,
        db_dir: Path,
        workdir: Path,
        log_path: Path,
        extra: tuple[str, ...] = (),
        spans_path: Path | None = None,
    ) -> None:
        self.port = free_port()
        serve = ["serve", "--db", str(db_dir), "--port", str(self.port), *extra]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [
                sys.executable,
                str(BENCH_DIR / "traced_serve.py"),
                str(spans_path),
                *serve,
            ]
        super().__init__(argv, log_path, workdir)
        deadline = self.started_at + START_TIMEOUT_S
        while not _healthy(self.port):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                stopped = self.stop()
                raise RuntimeError(
                    f"server did not become healthy (exit "
                    f"{stopped.returncode}):\n{stopped.log}"
                )
            time.sleep(0.005)
        self._set_up()


class MineChild(Process):
    """``mine_child.py`` over a CSV directory, timed until it reports
    its service open; it sweeps for ``seconds`` once :meth:`run` is
    called."""

    def __init__(
        self,
        db_dir: Path,
        workdir: Path,
        log_path: Path,
        seconds: float,
        spans_path: Path | None = None,
    ) -> None:
        argv = [sys.executable, str(BENCH_DIR / "mine_child.py"), str(db_dir), str(seconds)]
        if spans_path is not None:
            argv.append(str(spans_path))
        super().__init__(argv, log_path, workdir, pipe=True)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            stopped = self.stop()
            raise RuntimeError(
                f"mining child did not start (exit {stopped.returncode}):\n"
                f"{stopped.log}"
            )
        self._set_up()

    def run(self) -> dict:
        """Start the sweeps; the child's report."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"mining child died:\n{self.log_text()}")
        return json.loads(line)
