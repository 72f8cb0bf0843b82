"""Shared pieces of the pipeline benchmark: paths, statistics, child
processes, the environment block and the span tracer.

Nothing here imports ``repro``: the workload modules do that after
:func:`require_program` has checked that the program's sources exist.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test is built from these sources.
SRC = ROOT / "src"
#: Scratch space for generated inputs; emptied after every run.
WORK_ROOT = ROOT / ".perfbench_work"

#: BLAS / OpenMP thread variables reported in the environment block.  The
#: benchmark never sets them: default runs measure what a user gets.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def require_program() -> None:
    """Fail unless the program's sources are present, then import them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"program sources not found under {SRC}; run the benchmark from "
            "the root of a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The benchmark's ``BENCHMARK.json``: workloads, metrics and bounds."""
    import json
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} not found")
    with open(path) as handle:
        return json.load(handle)


def child_env() -> dict[str, str]:
    """Environment of every program process: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["PYTHONUNBUFFERED"] = "1"
    return env


def program_cmd(*args: str) -> list[str]:
    """``python -m repro <args>`` as a user runs it."""
    return [sys.executable, "-m", "repro", *args]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail_label(count: int) -> str:
    """The highest of p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (95, 90, 75):
        if count * (100 - q) / 100.0 >= 10:
            return f"p{q}"
    return "p50"


def summarize_ms(seconds: list[float]) -> str:
    """``p50 X ms, p95 Y ms (n=N)``, naming the highest honest tail."""
    ms = [s * 1000.0 for s in seconds]
    tail = tail_label(len(ms))
    if tail == "p50":
        return f"p50 {median(ms):.3f} ms, max {max(ms):.3f} ms (n={len(ms)})"
    return (f"p50 {median(ms):.3f} ms, {tail} "
            f"{percentile(ms, float(tail[1:])):.3f} ms (n={len(ms)})")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; return (exit code, its own peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux.
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop(proc: subprocess.Popen) -> None:
    """Kill a child that is still running and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _blas_info() -> dict:
    """BLAS library and version as numpy reports them (best effort)."""
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        return {"name": None, "version": None}


def _git_commit() -> str | None:
    """The checkout's commit, when it is a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    #: Time covered by direct children (for self time).
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Spans recorded around calls into the program's layers.

    Spans stay in memory; :meth:`write` dumps them when the run ends.  A
    disabled tracer records nothing, so the same replay code runs with
    tracing on and off and the difference is the tracing overhead.
    """

    enabled: bool = True
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time (s) per span name, from span ``first`` on."""
        totals: dict[str, float] = {}
        for span in self.spans[first:]:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def totals(self, name: str, first: int = 0) -> tuple[float, int]:
        """(summed duration, count) of the spans called ``name``, from
        span ``first`` on."""
        chosen = [s.duration for s in self.spans[first:] if s.name == name]
        return sum(chosen), len(chosen)

    def write(self, path: Path) -> None:
        import json
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request}) + "\n")
