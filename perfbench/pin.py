"""Regenerate ``references.json``: the point digests of the default seed.

Run from the repository root, only when a change is meant to alter
simulated outputs::

    python3 perfbench/pin.py

Pins enough passes per workload that a run several times faster than
today's still has every pass checked.  Refuses to pin a failing point.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, import_repro, run_passes

#: Passes pinned per workload.
PINNED_PASSES = {"spot-read": 24, "p4-rw": 24, "fig-grid": 3}


def main() -> int:
    scenarios, _ = import_repro()
    pinned = {}
    for workload, count in PINNED_PASSES.items():
        passes, _ = run_passes(
            scenarios, workload, scenarios.DEFAULT_SEED, float("inf"),
            scenarios.Instruments(), max_passes=count,
        )
        failed = [r for records in passes for r in records if r.error]
        if failed:
            print(f"{workload}: {failed[0].label} failed: {failed[0].error}")
            return 1
        pinned[workload] = [[r.digest for r in records] for records in passes]
        print(f"{workload}: pinned {count} passes")
    with open(os.path.join(BENCH_DIR, "references.json"), "w") as f:
        json.dump({"seed": scenarios.DEFAULT_SEED, "workloads": pinned}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
