"""Measurement plumbing shared by the workloads and the layer probes:
the tail percentile, the speed meter, the span recorder, resource usage and
the environment record. Stdlib only; nothing here imports gaindex.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise it is a single outlier, not a percentile.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples lie strictly beyond its rank."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


# Parent of each vertex 1..1499 in the reference kernel's fixed random tree.
_PARENTS = [(v * 2654435761 >> 7) % v for v in range(1, 1500)]


def reference_kernel() -> int:
    """Fixed graph-shaped work, independent of gaindex: adjacency lists, a
    traversal, sorting and hashing, like the code under test."""
    adj = [[] for _ in range(len(_PARENTS) + 1)]
    for child, parent in enumerate(_PARENTS, start=1):
        adj[parent].append(child)
        adj[child].append(parent)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    shapes = {(v, len(nbrs)): tuple(sorted(nbrs)) for v, nbrs in enumerate(adj)}
    return len(frozenset(shapes.values())) + len(seen)


class SpeedMeter:
    """Times a block of work in raw and in reference-speed seconds (ref_s).

    The CPU this runs on is shared with other tenants, and its speed can
    change by up to 1.7x within seconds, so raw times of the same work
    spread widely between runs. While the block runs, a SIGALRM timer
    interrupts it every INTERVAL_S to time reference_kernel. Each slice of
    work between two samples is rescaled by REFERENCE_S over the kernel
    time measured at its start: `calibrated` is the time in ref_s, the
    time the block would take at the speed where the kernel takes
    REFERENCE_S, and `clock()` reads that time so far. `wall` is raw and
    excludes the sampling; `sampling` is the time spent in it. A child
    process handed to `watch` is stopped while the kernel runs, so the two
    never share the CPU, and is killed once its deadline has passed.
    """

    INTERVAL_S = 0.05
    # The median kernel time over 30 runs of the three workloads on a shared
    # 2-vCPU Intel Xeon cloud VM, so ref_s read as seconds at that host's
    # typical speed.
    REFERENCE_S = 0.0014

    def __init__(self):
        self.pause = None  # a subprocess.Popen to stop while sampling
        self._pause_deadline = None

    def watch(self, child, deadline_s: float = math.inf) -> None:
        """Stop `child` while sampling, and kill it once it has run for
        `deadline_s`; `child=None` stops watching."""
        self.pause = child
        self._pause_deadline = perf_counter() + deadline_s

    @staticmethod
    def _kernel_s() -> float:
        """The faster of two kernel runs, in case one was preempted."""
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            reference_kernel()
            best = min(best, perf_counter() - t0)
        return best

    def clock(self) -> float:
        return self.calibrated + (perf_counter() - self._slice_start) * self.REFERENCE_S / self._speed

    def _tick(self, signum, frame) -> None:
        slice_end = perf_counter()
        self.calibrated += (slice_end - self._slice_start) * self.REFERENCE_S / self._speed
        if self.pause is not None:
            self.pause.send_signal(signal.SIGSTOP)
        self._speed = self._kernel_s()
        if self.pause is not None:
            self.pause.send_signal(signal.SIGCONT)
            if slice_end > self._pause_deadline:
                self.pause.kill()
        self._slice_start = perf_counter()
        self.sampling += self._slice_start - slice_end
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)  # one-shot, so samples never nest

    def __enter__(self):
        self.calibrated = self.sampling = 0.0
        self._speed = self._kernel_s()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = self._slice_start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.pause = None
        self.calibrated += (end - self._slice_start) * self.REFERENCE_S / self._speed
        self.wall = end - self._start - self.sampling
        return False


class Tracer:
    """In-memory span recorder.

    A span has a name, start and end (seconds on `clock`), the id of the
    enclosing span and a request id shared by every span of one request.
    Extra keyword attributes (call counts, outcomes) ride along and may be
    set on the yielded record while the span is open.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request, **attrs):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "request": request, "name": name, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def per_call(self, name: str) -> float:
        """Seconds per call over every span of this name (attribute `calls`, default 1)."""
        spans = self.named(name)
        calls = sum(s.get("calls", 1) for s in spans)
        return sum(s["end"] - s["start"] for s in spans) / calls

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def span(tracer: Tracer | None, name: str, request, **attrs):
    """A span on `tracer`, or a no-op context when tracing is off."""
    return tracer.span(name, request, **attrs) if tracer is not None else nullcontext({})


# Spans timed by span_cost_s, enough for well over one speed sample.
SPAN_COST_CALLS = 50_000


def span_cost_s() -> float:
    """The ref_s that recording one workload span adds over the untraced
    no-op context, each timed over SPAN_COST_CALLS calls."""
    costs = []
    for tracer in (None, Tracer()):
        with SpeedMeter() as meter:
            for i in range(SPAN_COST_CALLS):
                with span(tracer, "cost", i):
                    pass
        costs.append(meter.calibrated / SPAN_COST_CALLS)
    return costs[1] - costs[0]


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


def git_commit(root: Path) -> str | None:
    """HEAD commit read from root/.git without running git, or None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    """Interpreter, cores, load average and code version, so that a run on a
    busy machine or on other code can be spotted."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(root),
    }
