"""Shared plumbing of the benchmark: sources, environment, workspace,
operation accounting, latency statistics, child processes and memory."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"
WORK_ROOT = REPO_ROOT / ".perfbench_work"

#: environment toggles that inject sleeps or faults, or flip the planner
#: and index layout; a run under any of them measures something else
FORBIDDEN_ENV = (
    "FLIX_SHARD_LATENCY_MS",
    "FAULT_PLAN",
    "FLIX_FAULT_PLAN",
    "FLIX_PLANNER",
    "FLIX_PACKED",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no sources, unclean environment)."""


def require_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or refuse."""
    if not (SOURCE_ROOT / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no FliX sources under {SOURCE_ROOT}")
    path = str(SOURCE_ROOT)
    if path not in sys.path:
        sys.path.insert(0, path)


def require_clean_environment(environ=os.environ) -> None:
    """Refuse to start while an injected-latency, fault or toggle
    variable is set."""
    present = [name for name in FORBIDDEN_ENV if environ.get(name)]
    if present:
        raise BenchmarkError(
            "refusing to run with " + ", ".join(present)
            + " set: unset it to measure FliX itself"
        )


def child_environment() -> Dict[str, str]:
    """The environment for processes the benchmark starts: the checkout's
    sources on the path, unbuffered output."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SOURCE_ROOT) if not existing
        else str(SOURCE_ROOT) + os.pathsep + existing
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_workspace(workload: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))


def remove_workspace(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# operation accounting
# ----------------------------------------------------------------------
class OracleMismatch(AssertionError):
    """An answer FliX gave disagrees with the independent oracle."""


class Ledger:
    """Operations attempted and failed, request latencies, result rows.

    A failure is a non-200 reply, an exception, or an answer whose
    completeness is not ``complete``; failures carry no latency sample.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.rows = 0
        self.failures: List[str] = []

    def ok(self, seconds: float, rows: int) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.rows += rows

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies.extend(other.latencies)
        self.rows += other.rows
        self.failures.extend(other.failures[: 20 - len(self.failures)])


def median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1000.0


def quantile_ms(seconds: Sequence[float], q: int) -> float:
    """The ``q``-th percentile in milliseconds (needs 2+ samples)."""
    return statistics.quantiles(seconds, n=100)[q - 1] * 1000.0


# ----------------------------------------------------------------------
# child processes and memory
# ----------------------------------------------------------------------
class Children:
    """Every process the benchmark starts, stopped on ``close`` — also
    when the run fails — and waited for.  ``grandchildren`` are pids a
    started process spawned itself (``repro serve``'s shard workers);
    they are waited for too."""

    def __init__(self) -> None:
        self._processes: Dict[subprocess.Popen, List[int]] = {}

    def start(self, argv: List[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, env=child_environment(), **kwargs)
        self._processes[process] = []
        return process

    def adopt(self, process: subprocess.Popen) -> None:
        """Track a process started elsewhere (``spawn_worker``)."""
        self._processes.setdefault(process, [])

    def add_grandchild(self, process: subprocess.Popen, pid: int) -> None:
        self._processes[process].append(pid)

    def pids(self) -> List[int]:
        pids = []
        for process, grandchildren in self._processes.items():
            if process.poll() is None:
                pids.append(process.pid)
            pids.extend(pid for pid in grandchildren if _alive(pid))
        return pids

    def stop(self, process: subprocess.Popen, timeout: float = 10.0) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5.0)
        for stream in (process.stdin, process.stdout, process.stderr):
            if stream is not None:
                stream.close()
        deadline = time.monotonic() + timeout
        for pid in self._processes.pop(process, []):
            _reap(pid, deadline)

    def close(self) -> None:
        for process in list(self._processes):
            self.stop(process)


def _alive(pid: int) -> bool:
    """Running (a zombie waiting for its parent counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _reap(pid: int, deadline: float) -> None:
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    if _alive(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
        while _alive(pid):
            time.sleep(0.02)


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus every listed child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    return (own + sum(_peak_rss_kib(pid) for pid in child_pids)) / 1024.0


def note(message: str) -> None:
    """Progress for the operator, on standard error."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
