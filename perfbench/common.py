"""Shared plumbing: checkout paths, child processes, statistics, machine facts."""

from __future__ import annotations

import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

#: A child that runs longer than this is killed (with its process group)
#: and counted as failed, so one run always ends within three minutes.
CHILD_TIMEOUT_S = 120.0


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def check_checkout() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise MissingProgram(f"src/repro/cli.py not found under {ROOT}")


class Workdir:
    """A private directory for one benchmark run, removed when it ends."""

    def __init__(self, workload: str) -> None:
        self.path = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, stem: str) -> Path:
        """A new empty subdirectory (``stem-<n>``)."""
        self._count += 1
        path = self.path / f"{stem}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def child_env(cache_dir: Path, home: Path) -> dict:
    """Environment for a program child: the checkout's sources, a private
    dataset cache, and a private ``HOME`` so nothing reads ``~/.cache``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        HOME=str(home),
    )
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stderr: str


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(proc: subprocess.Popen, start: float, timeout: float = CHILD_TIMEOUT_S):
    """Wait for ``proc`` with ``wait4``; returns ``(wall, peak_rss_mb, cpu_s)``.

    ``wait4``'s ``ru_maxrss`` is the largest resident set of the child
    and of every descendant it reaped (its pool workers); its user and
    system times cover the same processes.  The process group is killed
    on timeout.
    """
    timer = threading.Timer(timeout, kill_group, args=(proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def run_child(argv, env, cwd, *, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one program child to completion; wall time is spawn to exit."""
    err_path = Path(cwd) / "stderr.txt"
    with open(Path(cwd) / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=out, stderr=err, start_new_session=True
        )
        wall, rss, cpu = reap(proc, start, timeout)
    return ChildResult(
        proc.returncode, wall, rss, cpu, err_path.read_text(errors="replace")
    )


def reference_sweep_cpu_s(cwd: Path) -> float:
    """CPU seconds of one run of ``child.py reference-sweep``, shards included."""
    child = run_child(python_child("reference-sweep"), child_env(cwd, cwd), cwd)
    if child.returncode != 0:
        raise RuntimeError(f"reference computation failed:\n{child.stderr}")
    return child.cpu_s


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, all threads (Linux)."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may hold spaces; the fields after it do not.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def python_child(*args) -> list:
    """argv for ``python perfbench/child.py ...``."""
    return [sys.executable, str(CHILD), *map(str, args)]


def python_cli(*args) -> list:
    """argv for the program's own command line, ``python -m repro.cli ...``."""
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def upper_percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def host_steal_s() -> float:
    """CPU seconds the hypervisor took from this machine since boot, all
    CPUs (``steal`` in /proc/stat); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_facts() -> dict:
    """Facts that change how numbers should be read."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "numba": has_numba,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
