"""Host-speed benchmark of the Cowbird simulator.

Run from the repository root::

    python3 perfbench/run.py --workload spot-read --seed 0 --seconds 10 --trace 0

Each call is one fresh process that imports ``repro`` from ``src/`` and
repeats passes of one workload (see ``scenarios.py``) until ``--seconds``
have passed, with no sweep fan-out and no point cache.  Every point's
simulated outputs are hashed; for the default seed the hashes must equal
the ones pinned in ``references.json``, and on every seed each point must
complete all its operations before its deadline (``p4-rw`` also checks
the pool's final bytes).  A point that fails counts all of its
operations as failed.

``--trace 0`` reports the end-to-end metrics: ``sim_ops_per_s``,
``setup_s`` and ``peak_rss_mb``; the error rate is the result's
``failed / attempted``.  ``--trace 1`` first makes the same untraced run,
then re-runs its first passes with spans, counters and ``cProfile`` on,
checks that the traced digests equal the untraced ones, and reports the
per-layer metrics listed in ``layers.json``.  Spans and the run's stamp
(commit, dirty flag, Python, nproc, platform) go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")

#: Passes the traced run repeats under observation, per workload.
TRACED_PASSES = {"spot-read": 3, "p4-rw": 3, "fig-grid": 1}

#: ``peak_rss_mb`` is read after this many passes, so that it measures
#: a fixed amount of work however many passes fit in ``--seconds``
#: (garbage from earlier points is only freed by the cyclic collector,
#: so the peak would otherwise grow with the pass count).
RSS_PASSES = {"spot-read": 4, "p4-rw": 4, "fig-grid": 1}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACED_PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_repro():
    """Import the simulator from ``./src``; return (module, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    started = time.perf_counter()
    import repro
    import scenarios

    elapsed = time.perf_counter() - started
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return scenarios, elapsed


def stamp() -> dict:
    """Where a number came from, so one from another machine is visibly so."""
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run_passes(scenarios, workload: str, seed: int, seconds: float,
               inst, max_passes=None) -> tuple[list[list], float]:
    """Repeat passes until ``seconds`` have elapsed and the RSS probe ran.

    Returns the passes and the peak resident MB after the first
    ``RSS_PASSES[workload]`` of them.
    """
    run_pass = scenarios.WORKLOADS[workload]
    passes = []
    peak_mb = 0.0
    started = time.perf_counter()
    while len(passes) < RSS_PASSES[workload] or (
        time.perf_counter() - started < seconds
        and (max_passes is None or len(passes) < max_passes)
    ):
        passes.append(run_pass(seed, len(passes), inst))
        if len(passes) == RSS_PASSES[workload]:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, peak_mb


def load_references(workload: str, seed: int):
    """Pinned digests per pass, or None when ``seed`` has none."""
    with open(os.path.join(BENCH_DIR, "references.json")) as f:
        pinned = json.load(f)
    if seed != pinned["seed"]:
        return None
    return pinned["workloads"].get(workload)


def check_digests(scenarios, passes, references) -> int:
    """Compare each pass that has pinned digests; return points compared."""
    return sum(
        scenarios.check_against(records, pinned)
        for records, pinned in zip(passes, references or [])
    )


def median_pass(passes, key) -> float:
    return statistics.median(sum(key(r) for r in records) for records in passes)


def end_to_end(passes, import_s: float, peak_mb: float) -> dict:
    """``sim_ops_per_s``, ``setup_s`` and ``peak_rss_mb`` of a run.

    Host speed here drifts by about 10 % from one pass to the next, so
    rates and set-up times are medians over passes.
    """
    rates = [
        _ratio(sum(r.completed for r in records if not r.error),
               sum(r.run_s for r in records))
        for records in passes
    ]
    return {
        "sim_ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {
            "value": import_s + median_pass(passes, lambda r: r.setup_s),
            "unit": "s",
        },
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(passes, untraced, tracer, self_s: dict) -> dict:
    """Every per-layer metric of the traced passes (see ``layers.json``)."""
    records = [r for p in passes for r in p]
    ops = sum(r.completed for r in records)
    counters = [r.counters for r in records if r.counters]

    def total(key: str) -> int:
        return sum(c.get(key, 0) for c in counters)

    def engine(kind: str, key: str) -> int:
        return sum(c["engine"].get(key, 0) for c in counters if c["engine_kind"] == kind)

    def engine_ops(kind: str) -> int:
        return sum(r.completed for r in records
                   if r.counters and r.counters["engine_kind"] == kind)

    untraced_run_s = sum(r.run_s for p in untraced for r in p)
    untraced_all_s = sum(r.run_s + r.setup_s for p in untraced for r in p)
    traced_all_s = sum(r.run_s + r.setup_s for r in records)
    tc = tracer.counters
    device = total("reads_device")
    values = {f"{layer}.self_s": (seconds, "s") for layer, seconds in self_s.items()}
    values.update({
        "sim.events_per_op": (_ratio(total("events"), ops), "events/op"),
        "sim.ns_per_event": (_ratio(untraced_run_s * 1e9, total("events")), "ns/event"),
        "rdma.packets_per_op": (_ratio(total("packets"), ops), "packets/op"),
        "rdma.wire_bytes_per_op": (_ratio(total("wire_bytes"), ops), "B/op"),
        "rdma.retries": (total("retries"), "count"),
        "cowbird.api.poll_calls_per_op": (
            _ratio(tc["cowbird.api.poll_calls"], engine_ops("spot") + engine_ops("p4")),
            "calls/op"),
        "cowbird.api.pending_scanned_per_call": (
            _ratio(tc["cowbird.api.pending_scanned"], tc["cowbird.api.completed_calls"]),
            "ids/call"),
        "cowbird.api.poll_hit_ratio": (
            _ratio(tc["cowbird.api.ids_returned"], tc["cowbird.api.pending_scanned"]),
            "ratio"),
        "cowbird.spot.batch_mean": (
            _ratio(engine("spot", "batch_entries_total"),
                   engine("spot", "batches_flushed")), "entries"),
        "cowbird.spot.probe_yield": (
            _ratio(engine("spot", "metadata_fetches"), engine("spot", "probe_rounds")),
            "ratio"),
        "cowbird.spot.overlap_stalls": (engine("spot", "overlap_stalls"), "count"),
        "cowbird.p4.recycled_per_op": (
            _ratio(engine("p4", "recycled_packets"), engine_ops("p4")), "packets/op"),
        "cowbird.p4.reads_paused_per_op": (
            _ratio(engine("p4", "reads_paused"), engine_ops("p4")), "count/op"),
        "cowbird.p4.probe_yield": (
            _ratio(engine("p4", "metadata_fetches"), engine("p4", "probes_sent")),
            "ratio"),
        "memory.alloc_s": (tracer.total("memory.alloc"), "s"),
        "memory.region_mb_per_point": (
            _ratio(tc["memory.region_bytes"] / 2**20, len(records)), "MB/point"),
        "cluster.build_s": (tracer.total("cluster.build"), "s"),
        "faster.load_s": (tracer.total("faster.load"), "s"),
        "faster.device_read_frac": (
            _ratio(device, device + total("reads_memory")), "ratio"),
        "trace.overhead_pct": (
            (_ratio(traced_all_s, untraced_all_s) - 1.0) * 100.0, "%"),
    })
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def traced_run(scenarios, workload: str, seed: int, count: int):
    """Re-run the first ``count`` passes under spans, counters and cProfile."""
    import cProfile
    import pstats

    import tracing

    tracer = tracing.Tracer()
    inst = scenarios.Instruments(tracer)
    profile = cProfile.Profile()
    run_pass = scenarios.WORKLOADS[workload]
    passes = []
    with tracing.observed(tracer):
        for index in range(count):
            with tracer.span("bench.pass"):
                profile.enable()
                try:
                    passes.append(run_pass(seed, index, inst))
                finally:
                    profile.disable()
    self_s = tracing.self_time_by_layer(pstats.Stats(profile).stats)
    return passes, tracer, self_s


def write_out(name: str, payload: dict) -> str:
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    scenarios, import_s = import_repro()
    info = stamp()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("stamp " + json.dumps(info, sort_keys=True))

    inst = scenarios.Instruments()
    passes, peak_mb = run_passes(
        scenarios, args.workload, args.seed, args.seconds, inst
    )
    references = load_references(args.workload, args.seed)
    compared = check_digests(scenarios, passes, references)
    for index, records in enumerate(passes):
        for r in records:
            print(f"pass {index} {r.label}: ops={r.completed}/{r.attempted} "
                  f"setup={r.setup_s:.4f}s run={r.run_s:.4f}s digest={r.digest}"
                  + (f" FAILED {r.error}" if r.error else ""))
    if references is None:
        print(f"digest check skipped: seed {args.seed} has no pinned reference; "
              "invariant checks only")
    else:
        beyond = max(0, len(passes) - len(references))
        print(f"digest check: {compared} points compared with pinned references; "
              f"{beyond} passes beyond the pinned ones got invariant checks only")

    if args.trace:
        count = min(TRACED_PASSES[args.workload], len(passes))
        traced, tracer, self_s = traced_run(scenarios, args.workload, args.seed, count)
        mismatched = [
            r.label for untraced, seen in zip(passes, traced)
            for r, t in zip(untraced, seen) if r.digest != t.digest or t.error
        ]
        if mismatched:
            print(f"traced run rejected: digests differ from the untraced run "
                  f"on {len(mismatched)} points, first {mismatched[0]}")
            for records in traced:
                for r in records:
                    r.error = r.error or "traced digest differs from untraced"
        metrics = per_layer(traced, passes[:count], tracer, self_s)
        out = write_out(
            f"trace-{args.workload}-seed{args.seed}.json",
            {"stamp": info, "spans": tracer.to_json(),
             "counters": dict(tracer.counters), "metrics": metrics},
        )
        print(f"spans and counters written to {os.path.relpath(out, ROOT)}")
        passes = passes + traced
    else:
        metrics = end_to_end(passes, import_s, peak_mb)

    records = [r for p in passes for r in p]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.attempted for r in records if r.error)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':40s} {_ratio(failed, attempted):.6g} "
          f"({failed} of {attempted} ops failed)")
    write_out(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"stamp": info, "metrics": metrics, "attempted": attempted, "failed": failed,
         "points": [{"label": r.label, "digest": r.digest, "error": r.error,
                     "setup_s": r.setup_s, "run_s": r.run_s} for r in records]},
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
