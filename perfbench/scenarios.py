"""The benchmark's three workloads, their output digests and checks.

Each workload runs in *passes*.  A pass is the smallest unit the
time-bounded loop in ``run.py`` repeats: one Figure 8 cell for
``spot-read``, one read/write point for ``p4-rw`` and a whole reduced
grid for ``fig-grid``.  Pass ``index`` of run seed ``seed`` always runs
the same simulated inputs, so its point digests can be pinned.

A pass returns :class:`PointRecord` entries, one per simulated point,
with the host seconds spent in set-up (``build_microbench`` and
``FasterKv.load``) and after it, the point's output digest, and the
counters the traced run turns into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.cowbird.p4_engine import CowbirdP4Engine
from repro.experiments import common, faster_bench, fig08
from repro.faster.store import FasterKv
from repro.sim.cpu import TAG_APP, CostModel
from repro.workloads.hashtable import HashTable, HashTableConfig

__all__ = [
    "DEFAULT_SEED",
    "Instruments",
    "PointRecord",
    "WORKLOADS",
    "check_against",
    "deployment_counters",
    "point_digest",
]

#: The seed whose point digests ``references.json`` pins.
DEFAULT_SEED = 0

#: Simulated-time deadline of every point (ns); a miss fails the point.
DEADLINE_NS = 60e9


@dataclass
class PointRecord:
    """One simulated point: its cost on the host and its outputs."""

    label: str
    attempted: int
    completed: int = 0
    setup_s: float = 0.0
    run_s: float = 0.0
    digest: str = ""
    #: Raw counters read from the deployment after the point ended.
    counters: dict = field(default_factory=dict)
    #: Empty when the point ran and passed its invariant checks.
    error: str = ""


def point_digest(result: Any, deployment: Any) -> str:
    """Hash a point's simulated outputs.

    Covers the result dataclass's fields, the engine's
    ``stats_snapshot()`` and ``events_dispatched``.  Host timings never
    enter it, so a host-speed change must leave it unchanged.
    """
    engine = deployment.engine
    payload = {
        "result": dataclasses.asdict(result),
        "engine": engine.stats_snapshot() if engine is not None else {},
        "events": deployment.sim.events_dispatched,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def deployment_counters(deployment: Any) -> dict:
    """Public counters of a finished deployment, for per-layer metrics."""
    bed = deployment.bed
    switch = bed.switch
    hosts = list(bed.hosts.values())
    links = [host.uplink for host in hosts]
    links += [switch.port_to(node) for node in switch.attached_nodes]
    engine = deployment.engine
    stats = engine.stats_snapshot() if engine is not None else {}
    kind = ""
    if engine is not None:
        kind = "p4" if isinstance(engine, CowbirdP4Engine) else "spot"
    return {
        "events": deployment.sim.events_dispatched,
        "packets": sum(h.nic.stats.packets_out for h in hosts)
        + switch.packets_generated,
        "wire_bytes": sum(link.stats.bytes_sent for link in links),
        "retries": sum(
            h.nic.stats.retransmit_timeouts + h.nic.stats.naks_sent for h in hosts
        ) + stats.get("go_back_n_events", 0),
        "engine_kind": kind,
        "engine": stats,
    }


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class Instruments:
    """Timed entry points into set-up, optionally reporting to a tracer.

    ``build`` and ``load`` time ``build_microbench`` and
    ``FasterKv.load``, the set-up the benchmark charges to ``setup_s``.
    ``patched()`` routes the experiment modules' own calls through them
    so the in-process figure harnesses can be measured unchanged.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        #: The deployment built last, until ``take()`` hands it over.
        self.deployment = None
        self._build = common.build_microbench
        self._load = FasterKv.load

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def build(self, *args, **kwargs):
        started = time.perf_counter()
        with self._span("cluster.build"):
            deployment = self._build(*args, **kwargs)
        self.setup_s += time.perf_counter() - started
        self.deployment = deployment
        return deployment

    def load(self, store, items):
        started = time.perf_counter()
        with self._span("faster.load"):
            self._load(store, items)
        self.setup_s += time.perf_counter() - started

    def take(self) -> tuple[float, Any]:
        """Return and reset the set-up seconds and the last deployment."""
        taken = (self.setup_s, self.deployment)
        self.setup_s, self.deployment = 0.0, None
        return taken

    @contextlib.contextmanager
    def patched(self, extra: tuple = ()):
        """Route the harnesses' set-up calls through this object.

        ``extra`` holds more ``(owner, attribute, replacement)`` triples.
        """
        instruments = self

        def load(store, items):
            instruments.load(store, items)

        patches = (
            (common, "build_microbench", self.build),
            (faster_bench, "build_microbench", self.build),
            (FasterKv, "load", load),
        ) + tuple(extra)
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, replacement in patches:
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


# ----------------------------------------------------------------------
# spot-read: the fig08 long pole
# ----------------------------------------------------------------------
SPOT_THREADS = 4
SPOT_OPS_PER_THREAD = 500


def spot_read_pass(seed: int, index: int, inst: Instruments) -> list[PointRecord]:
    """One ``examples/scenarios/fig08_point.toml`` cell at a derived seed.

    Mirrors ``run_microbench``: Cowbird-Spot, 4 threads, 256 B records,
    pipeline depth 512, 100k records with 5 % local.
    """
    point_seed = seed * 1000 + index
    record = PointRecord(
        label=f"cowbird/4t/256B/seed{point_seed}",
        attempted=SPOT_THREADS * SPOT_OPS_PER_THREAD,
    )
    try:
        cost = CostModel()
        table = HashTable(HashTableConfig(
            num_records=100_000, record_bytes=256, local_fraction=0.05,
            ops_per_thread=SPOT_OPS_PER_THREAD, pipeline_depth=512,
        ))
        deployment = inst.build(
            "cowbird", SPOT_THREADS,
            remote_bytes=max(table.remote_bytes_needed(), 1 << 16),
            cost=cost, seed=point_seed, pipeline_depth=512,
        )
        record.setup_s, _ = inst.take()
        started = time.perf_counter()
        result = common.drive_probe_workload(
            deployment, table, cost, seed=point_seed, deadline_ns=DEADLINE_NS
        )
        record.run_s = time.perf_counter() - started
        record.completed = result.total_ops
        record.digest = point_digest(result, deployment)
        record.counters = deployment_counters(deployment)
        if result.total_ops != record.attempted:
            record.error = f"completed {result.total_ops} of {record.attempted} ops"
    except Exception as exc:  # noqa: BLE001 - a failed point is reported, not fatal
        record.error = _failure(exc)
    return [record]


# ----------------------------------------------------------------------
# p4-rw: Cowbird-P4, small records, half writes
# ----------------------------------------------------------------------
RW_THREADS = 4
RW_OPS_PER_THREAD = 500
RW_RECORDS = 1024
RW_RECORD_BYTES = 64
RW_DEPTH = 512
RW_WRITE_FRACTION = 0.5


@dataclass
class RwThreadResult:
    """Per-thread outcome of the read/write loop."""

    ops: int = 0
    local_hits: int = 0
    reads: int = 0
    writes: int = 0
    completions: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    comm_cpu_ns: float = 0.0
    app_cpu_ns: float = 0.0
    blocked_ns: float = 0.0


@dataclass
class RwResult:
    """Aggregate of one p4-rw point; the digest hashes these fields."""

    threads: list[RwThreadResult]
    pool_bytes_digest: str


def rw_worker(
    thread, backend, table: HashTable, cost: CostModel, rng: random.Random,
    keys: range, last_write: dict,
) -> Generator[Any, Any, RwThreadResult]:
    """``probe_worker`` with half of the remote operations as writes.

    The thread draws keys from its own range only and records the bytes
    of its last write to each remote offset in ``last_write``.
    """
    record_bytes = table.config.record_bytes
    touch_ns = cost.record_touch_per_byte * record_bytes
    result = RwThreadResult(started_at=thread.sim.now)
    inflight = 0

    def reap(block: bool) -> Generator[Any, Any, None]:
        nonlocal inflight
        tokens = yield from backend.poll_completions(
            thread, max_ret=RW_DEPTH, block=block
        )
        for _token in tokens:
            yield from thread.compute(touch_ns, tag=TAG_APP)
        inflight -= len(tokens)
        result.completions += len(tokens)

    for _ in range(RW_OPS_PER_THREAD):
        key = rng.randrange(keys.start, keys.stop)
        yield from thread.compute(cost.hash_probe_compute, tag=TAG_APP)
        is_local, offset = table.locate(key)
        result.ops += 1
        if is_local:
            result.local_hits += 1
            yield from thread.compute(touch_ns, tag=TAG_APP)
            continue
        if rng.random() < RW_WRITE_FRACTION:
            data = rng.randbytes(record_bytes)
            last_write[offset] = data
            result.writes += 1
            yield from backend.issue_write(thread, offset, data)
        else:
            result.reads += 1
            yield from backend.issue_read(thread, offset, record_bytes)
        inflight += 1
        yield from reap(block=inflight >= RW_DEPTH)
    while inflight > 0:
        yield from reap(block=True)
    result.finished_at = thread.sim.now
    result.comm_cpu_ns = thread.stats.cpu_ns.get("comm", 0.0)
    result.app_cpu_ns = thread.stats.cpu_ns.get("app", 0.0)
    result.blocked_ns = thread.stats.blocked_ns
    thread.finish()
    return result


def p4_rw_pass(seed: int, index: int, inst: Instruments) -> list[PointRecord]:
    """One Cowbird-P4 read/write point at a derived seed."""
    point_seed = seed * 1000 + index
    record = PointRecord(
        label=f"cowbird-p4/4t/64B/rw50/seed{point_seed}",
        attempted=RW_THREADS * RW_OPS_PER_THREAD,
    )
    try:
        cost = CostModel()
        table = HashTable(HashTableConfig(
            num_records=RW_RECORDS, record_bytes=RW_RECORD_BYTES,
            local_fraction=0.05, ops_per_thread=RW_OPS_PER_THREAD,
            pipeline_depth=RW_DEPTH,
        ))
        deployment = inst.build(
            "cowbird-p4", RW_THREADS,
            remote_bytes=max(table.remote_bytes_needed(), 1 << 16),
            cost=cost, seed=point_seed, pipeline_depth=RW_DEPTH,
        )
        record.setup_s, _ = inst.take()
        started = time.perf_counter()
        sim = deployment.sim
        last_write: dict[int, bytes] = {}
        processes = []
        for i in range(RW_THREADS):
            keys = range(i * RW_RECORDS // RW_THREADS, (i + 1) * RW_RECORDS // RW_THREADS)
            worker = rw_worker(
                deployment.compute.cpu.thread(f"worker-{i}"), deployment.backends[i],
                table, cost, random.Random(point_seed * 1000 + i), keys, last_write,
            )
            processes.append(sim.spawn(worker, name=f"worker-{i}"))
        threads = [
            sim.run_until_complete(process, deadline=DEADLINE_NS)
            for process in processes
        ]
        deployment.close()
        record.run_s = time.perf_counter() - started
        handle = deployment.backends[0].instance.remote_regions[0]
        region = deployment.pool_host.registry.by_rkey(handle.rkey)
        pool_bytes = region.read(handle.translate(0, handle.length), handle.length)
        result = RwResult(
            threads=threads,
            pool_bytes_digest=hashlib.blake2b(pool_bytes, digest_size=16).hexdigest(),
        )
        record.completed = sum(t.ops for t in threads)
        record.digest = point_digest(result, deployment)
        record.counters = deployment_counters(deployment)
        record.error = _check_rw(record, threads, pool_bytes, last_write)
    except Exception as exc:  # noqa: BLE001 - a failed point is reported, not fatal
        record.error = _failure(exc)
    return [record]


def _check_rw(record, threads, pool_bytes: bytes, last_write: dict) -> str:
    """Invariants of one p4-rw point; empty when all hold."""
    if record.completed != record.attempted:
        return f"completed {record.completed} of {record.attempted} ops"
    for t in threads:
        if t.completions != t.reads + t.writes:
            return f"{t.completions} completions for {t.reads + t.writes} remote ops"
    stale = [
        offset for offset, data in last_write.items()
        if pool_bytes[offset:offset + len(data)] != data
    ]
    if stale:
        return f"{len(stale)} of {len(last_write)} keys lost their last write"
    return ""


# ----------------------------------------------------------------------
# fig-grid: many short points, set-up and baselines dominate
# ----------------------------------------------------------------------
GRID_RECORDS = (8, 512)
GRID_THREADS = (1, 16)
GRID_OPS_PER_THREAD = 100
FASTER_SYSTEMS = ("ssd", "one-sided", "cowbird-p4", "redy", "local")
FASTER_THREADS = 4
FASTER_RECORDS = 20_000
FASTER_OPS_PER_THREAD = 200


def fig_grid_pass(seed: int, index: int, inst: Instruments) -> list[PointRecord]:
    """A reduced in-process ``fig08.run(parallel=0)`` plus five FASTER runs.

    All six fig08 systems at records {8, 512} x threads {1, 16}, then
    ``run_faster_bench`` at 4 threads on five storage backends.  No
    ``gc.collect()`` runs between points, as in ``repro run``.
    """
    point_seed = seed * 100 + index
    plan = [
        (f"fig08/{system}/{threads}t/{record_bytes}B", threads * GRID_OPS_PER_THREAD)
        for record_bytes in GRID_RECORDS
        for system in fig08.SYSTEMS
        for threads in GRID_THREADS
    ] + [
        (f"faster/{system}/{FASTER_THREADS}t", FASTER_THREADS * FASTER_OPS_PER_THREAD)
        for system in FASTER_SYSTEMS
    ]
    records: list[PointRecord] = []
    run_microbench = common.run_microbench

    def timed_microbench(system, threads, **kwargs):
        records.append(PointRecord(*plan[len(records)]))
        started = time.perf_counter()
        result = run_microbench(system, threads, **kwargs)
        _finish(records[-1], result, result.total_ops, inst, started)
        return result

    try:
        with inst.patched(((fig08, "run_microbench", timed_microbench),)):
            fig08.run(
                record_sizes=GRID_RECORDS, thread_counts=GRID_THREADS,
                systems=fig08.SYSTEMS, ops_per_thread=GRID_OPS_PER_THREAD,
                seed=point_seed, parallel=0,
            )
            for system in FASTER_SYSTEMS:
                records.append(PointRecord(*plan[len(records)]))
                started = time.perf_counter()
                result = faster_bench.run_faster_bench(
                    system, FASTER_THREADS, record_count=FASTER_RECORDS,
                    ops_per_thread=FASTER_OPS_PER_THREAD, seed=point_seed,
                    deadline_ns=DEADLINE_NS,
                )
                _finish(records[-1], result, result.total_ops, inst, started)
                records[-1].counters["reads_device"] = result.reads_device
                records[-1].counters["reads_memory"] = result.reads_memory
    except Exception as exc:  # noqa: BLE001 - a failed point is reported, not fatal
        error = _failure(exc)
        inst.take()  # drop the failed point's set-up time and deployment
        if records and (not records[-1].digest or len(records) == len(plan)):
            records[-1].error = error
        else:
            records.append(PointRecord(*plan[len(records)], error=error))
    # Points a failure kept from running still count as attempted.
    records += [
        PointRecord(label, attempted, error="not run")
        for label, attempted in plan[len(records):]
    ]
    return records


def _finish(record: PointRecord, result, total_ops: int, inst: Instruments,
            started: float) -> None:
    """Split a harness call's wall time into set-up and run, then digest."""
    elapsed = time.perf_counter() - started
    record.setup_s, deployment = inst.take()
    record.run_s = elapsed - record.setup_s
    record.completed = total_ops
    record.digest = point_digest(result, deployment)
    record.counters = deployment_counters(deployment)
    if total_ops != record.attempted:
        record.error = f"completed {total_ops} of {record.attempted} ops"


#: Workload name -> pass function; ``run.py`` and ``pin.py`` share it.
WORKLOADS: dict[str, Callable[[int, int, Instruments], list[PointRecord]]] = {
    "spot-read": spot_read_pass,
    "p4-rw": p4_rw_pass,
    "fig-grid": fig_grid_pass,
}


def check_against(records: list[PointRecord], pinned: list[str]) -> int:
    """Mark digest mismatches as failures; return how many were compared."""
    compared = 0
    for record, reference in zip(records, pinned):
        if record.error:
            continue
        compared += 1
        if record.digest != reference:
            record.error = f"digest {record.digest} != pinned {reference}"
    return compared
