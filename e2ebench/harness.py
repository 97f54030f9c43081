"""Shared machinery of the end-to-end benchmark.

Everything here is independent of the program under test: the
environment scrub, span recording, quantiles, the subprocess runner
and the result line.  Workload modules import the program (``repro``)
themselves, after :func:`prepare_environment` has run.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

T = TypeVar("T")

#: The program's environment knobs that change how it runs.  They are
#: removed for the benchmark process and every subprocess, so a caller's
#: shell settings cannot change what is measured.
SCRUBBED_ENV = ("REPRO_POOL_WORKERS", "REPRO_POOL_START_METHOD",
                "REPRO_SHARD_CACHE_MB")
#: Fixed for the benchmark process and every subprocess.  glibc moves
#: its mmap threshold up the first time a large block is freed, so
#: whether a later large array is page-faulted in fresh or reused from
#: the heap depends on the process's history, and the same query ran at
#: 1.4 ms in one process and 2.8 ms in the next.  Setting the threshold
#: (to glibc's initial 128 KiB) turns that adjustment off.
PINNED_ENV = {"PYTHONHASHSEED": "0", "COLUMNS": "100",
              "MALLOC_MMAP_THRESHOLD_": "131072"}

HERE = os.path.dirname(os.path.abspath(__file__))


def checkout_root() -> str:
    """The checkout the benchmark runs in (its working directory)."""
    return os.getcwd()


def program_src(root: str) -> str:
    return os.path.join(root, "src")


def program_present(root: str) -> bool:
    return os.path.isfile(os.path.join(program_src(root), "repro", "cli.py"))


def clean_env(root: str) -> Dict[str, str]:
    """The environment every benchmark process and subprocess runs with."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = program_src(root)
    return env


def environment_is_clean(root: str) -> bool:
    want = clean_env(root)
    return all(os.environ.get(k) == want[k]
               for k in (*PINNED_ENV, "PYTHONPATH")) and \
        not any(k in os.environ for k in SCRUBBED_ENV)


def prepare_environment(root: str) -> None:
    """Re-exec under the clean environment unless already running in it.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, so the
    benchmark process replaces itself (``execve``: no extra process)
    with a fresh interpreter when the caller's environment differs.
    """
    if environment_is_clean(root):
        if program_src(root) not in sys.path:
            sys.path.insert(0, program_src(root))
        return
    os.execve(sys.executable, [sys.executable] + sys.argv, clean_env(root))


def environment_record() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "repro_env_seen": sorted(k for k in os.environ
                                 if k.startswith("REPRO_")),
    }


# -- statistics -------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise ValueError("quantile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """This process's high-water resident set size in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# -- host speed ---------------------------------------------------------------

#: What :func:`calibration_s` reads on the reference host (2-vCPU KVM
#: guest, Python 3.11, numpy 2.4) when it is quiet, in seconds: the
#: speed end-to-end timings are reported at.
CALIBRATION_REF_S = 0.0105


def calibration_s() -> float:
    """Time one fixed piece of work, independent of the program.

    An interpreted dict loop and a numpy sort of a 1.6 MB array, the
    two kinds of work the program's hot paths are made of.
    """
    import numpy as np

    t0 = time.perf_counter()
    d: Dict[int, int] = {}
    for i in range(50_000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    a = np.arange(200_000, dtype=np.uint64) * np.uint64(2654435761)
    np.sort(a % np.uint64(1_000_003))
    return time.perf_counter() - t0


class SpeedGauge:
    """Host speed, sampled just before and just after each measurement.

    On a shared host the same code runs at different speeds from one
    second to the next, and phases of a slow host last longer than a
    run.  Every end-to-end timing is therefore reported at the
    reference speed: a time measured while the calibration took ``c``
    seconds on average is scaled by ``CALIBRATION_REF_S / c``.  The
    calibration is the benchmark's own code, so a change to the
    program moves the scaled figures exactly as it moves the raw ones.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        c = calibration_s()
        self.samples.append(c)
        return c

    def run(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Call ``fn``; return its result and the factor that brings a
        time measured inside the call to the reference speed."""
        before = self.sample()
        out = fn()
        return out, CALIBRATION_REF_S / ((before + self.sample()) / 2.0)

    def record(self) -> Dict[str, Any]:
        return {"reference_s": CALIBRATION_REF_S,
                "samples": len(self.samples),
                "median_s": median(self.samples) if self.samples else None}


class NullGauge:
    """No calibration: for the traced run, whose times are not scaled."""

    def run(self, fn: Callable[[], T]) -> Tuple[T, float]:
        return fn(), 1.0


# -- spans ------------------------------------------------------------------

class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    Each span is ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``op`` groups the
    spans of one workload operation.  The benchmark is single-threaded,
    so spans nest strictly and a span's self time is its duration minus
    its direct children's.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self) -> List[List[Any]]:
        return [list(s) for s in self.spans]


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    enabled = False
    op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


# -- subprocesses -------------------------------------------------------------

def _wait_exit(pid: int, timeout_s: float) -> bool:
    """Block until ``pid`` exits (without reaping it); False on timeout."""
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        return bool(poller.poll(timeout_s * 1000.0))
    finally:
        os.close(fd)


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A grandchild whose parent exits first (a program subprocess's pool
    worker, say) is re-parented here instead of to init, so
    :func:`stop_children` can wait for it too.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> List[int]:
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return pids


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The program's worker pool is shut down, the ``multiprocessing``
    resource tracker (started by shared-memory segments, and otherwise
    left to exit on its own after this process) is closed and reaped,
    and any other child — adopted orphans included — gets
    ``timeout_s`` to exit before it is killed, then is reaped.
    """
    if "repro.core.pool" in sys.modules:
        sys.modules["repro.core.pool"].shutdown()
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]
        tracker._resource_tracker._stop()
    while True:
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                if not _wait_exit(pid, timeout_s):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass


class ChildResult:
    __slots__ = ("returncode", "wall_s", "maxrss_mb", "stdout", "stderr")

    def __init__(self, returncode: int, wall_s: float, maxrss_mb: float,
                 stdout: bytes, stderr: bytes) -> None:
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv: Sequence[str], env: Dict[str, str], out_path: str,
              err_path: str, cwd: Optional[str] = None,
              timeout_s: float = 120.0) -> ChildResult:
    """Run ``argv`` to completion; stdout/stderr go to files.

    The wall time covers process creation to reaping.  The child's own
    peak RSS comes from ``wait4`` on exactly that pid, so earlier
    children (the set-up runs) do not leak into it.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        if not _wait_exit(proc.pid, timeout_s):
            proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       stdout, stderr)


# -- the result line ----------------------------------------------------------

def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
