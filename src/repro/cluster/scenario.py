"""Run deployments described by :class:`ScenarioSpec`.

The execution half of the declarative layer.  A scenario is
``run_microbench`` called with the spec's fields (compute shape, link
parameters, pool shards, engine-config overrides, workload), so it
builds through the same ``build_microbench`` the figures use, and a
scenario that mirrors a figure point reproduces its numbers exactly.

Kept out of ``repro.cluster.__init__``: this module imports the
experiment harness, which itself builds through the cluster registry.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.spec import ScenarioSpec
from repro.experiments.common import run_microbench
from repro.sim.cpu import CostModel

__all__ = ["run_scenario"]


def run_scenario(
    spec: ScenarioSpec,
    cost: Optional[CostModel] = None,
    deadline_ns: float = 60e9,
):
    """Validate and run a scenario end-to-end; returns a ``MicrobenchResult``."""
    spec.validate()
    wl = spec.workload
    return run_microbench(
        spec.system, wl.threads, record_bytes=wl.record_bytes,
        ops_per_thread=wl.ops_per_thread, num_records=wl.num_records,
        local_fraction=wl.local_fraction, pipeline_depth=wl.pipeline_depth,
        cost=cost, seed=spec.seed, deadline_ns=deadline_ns,
        pool_shards=spec.pool.shards, engine_config=dict(spec.engine.config),
        compute=spec.compute, link=spec.link,
    )
