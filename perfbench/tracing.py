"""The traced run's observers: spans, call counters and a self-time split.

Everything here wraps public entry points of the simulator from the
outside and restores them afterwards; no simulator code changes.  The
traced run must stay a pure observer, which ``run.py`` checks by
comparing its point digests with the untraced run's.

* :class:`Tracer` keeps spans (name, start, end, parent) in memory.
* :func:`observed` installs the wrappers: spans around
  ``Simulator.run_until_complete`` and ``MemoryRegion.__init__``, and
  counters on ``CowbirdInstance.poll_wait`` and ``PollGroup.completed``.
* :func:`self_time_by_layer` folds a ``cProfile`` run into self seconds
  per package, charging stdlib and builtin frames to the nearest
  simulator caller.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict
from typing import Iterator

import repro
from repro.cowbird.api import CowbirdInstance, PollGroup
from repro.memory.region import MemoryRegion
from repro.sim.engine import Simulator

__all__ = ["LAYERS", "Tracer", "observed", "self_time_by_layer"]

#: Layers that get a ``<layer>.self_s`` metric, in report order.
LAYERS = (
    "sim", "rdma", "cowbird.api", "cowbird.spot", "cowbird.p4", "memory",
    "faster", "baselines", "workloads", "telemetry", "other",
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_COWBIRD_FILES = {
    "api.py": "cowbird.api", "wire.py": "cowbird.api", "buffers.py": "cowbird.api",
    "spot_engine.py": "cowbird.spot",
    "p4_engine.py": "cowbird.p4", "p4_resources.py": "cowbird.p4",
}
_PACKAGES = {"sim", "rdma", "memory", "faster", "baselines", "workloads", "telemetry"}


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _end, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _p in self.spans if n == name)

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


@contextlib.contextmanager
def observed(tracer: Tracer) -> Iterator[Tracer]:
    """Install the span and counter wrappers for the duration."""
    run_until_complete = Simulator.run_until_complete
    region_init = MemoryRegion.__init__
    poll_wait = CowbirdInstance.poll_wait
    completed = PollGroup.completed
    counters = tracer.counters

    def traced_run(self, process, deadline=None):
        with tracer.span("sim.run"):
            return run_until_complete(self, process, deadline)

    def traced_region(self, base_addr, length, *args, **kwargs):
        counters["memory.region_bytes"] += length
        with tracer.span("memory.alloc"):
            region_init(self, base_addr, length, *args, **kwargs)

    def counted_poll_wait(self, *args, **kwargs):
        counters["cowbird.api.poll_calls"] += 1
        return (yield from poll_wait(self, *args, **kwargs))

    def counted_completed(self, red):
        done = completed(self, red)
        counters["cowbird.api.completed_calls"] += 1
        counters["cowbird.api.pending_scanned"] += len(self._pending)
        counters["cowbird.api.ids_returned"] += len(done)
        return done

    patches = (
        (Simulator, "run_until_complete", traced_run),
        (MemoryRegion, "__init__", traced_region),
        (CowbirdInstance, "poll_wait", counted_poll_wait),
        (PollGroup, "completed", counted_completed),
    )
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def _layer_of(filename: str) -> str:
    """Map a code object's file to a layer; '' for non-simulator code."""
    path = os.path.abspath(filename) if filename and filename[0] != "~" else ""
    if path.startswith(_BENCH_DIR):
        return "bench"
    if not path.startswith(_REPRO_DIR):
        return ""
    parts = path[len(_REPRO_DIR):].split(os.sep)
    if parts[0] == "cowbird":
        return _COWBIRD_FILES.get(parts[-1], "other")
    return parts[0] if parts[0] in _PACKAGES else "other"


def self_time_by_layer(stats: dict) -> dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(profile).stats``.

    Simulator functions keep their own self time.  Stdlib and builtin
    functions have no layer; their self time is split over their callers
    in proportion to the time each call edge accounts for, recursively,
    until it reaches simulator code.  Time that reaches only the
    benchmark's own wrappers is tracing overhead and is left out.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, depth: int = 0) -> dict[str, float]:
        """Fraction of ``func``'s self time owed to each layer."""
        layer = _layer_of(func[0])
        if layer:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if depth > 32 or not callers or total <= 0:
            return memo[func]
        split: dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for owner, share in shares(caller, depth + 1).items():
                split[owner] += share * edge[2] / total
        memo[func] = dict(split)
        return memo[func]

    seconds: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, share in shares(func).items():
            seconds[layer] += tottime * share
    return {layer: seconds.get(layer, 0.0) for layer in LAYERS}
