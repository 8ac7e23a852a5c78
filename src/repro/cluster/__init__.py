"""The cluster layer: declarative deployments for every experiment.

Three pieces (DESIGN.md §4b):

* :class:`~repro.cluster.spec.ScenarioSpec` — dataclasses loadable from
  JSON/TOML describing hosts, links, memory pools (including
  :class:`~repro.memory.pool.ShardedPool` striping), engines, and the
  workload; ``validate()`` rejects bad input with a message naming the
  field; run them with ``repro run scenario <file>``;
* :class:`~repro.cluster.registry.SystemRegistry` — pluggable builders
  keyed by legend name; importing this package registers all ten
  evaluation systems (``repro.cluster.builders``), which
  ``repro.experiments.common.build_microbench`` — the one assembly
  path — dispatches to;
* :class:`~repro.cluster.engine.OffloadEngine` — the protocol both
  Cowbird engines implement so nothing outside the engine modules
  touches engine-specific wiring.

The scenario *runner* lives in :mod:`repro.cluster.scenario` (imported
lazily by the CLI): it calls ``run_microbench`` with a spec's fields,
and the experiment harness in turn builds through this package.
"""

from repro.cluster.engine import OffloadEngine
from repro.cluster.registry import (
    SYSTEMS,
    BuildContext,
    BuiltSystem,
    SystemRegistry,
    register_system,
)
from repro.cluster import builders as _builders  # populate SYSTEMS
from repro.cluster.spec import (
    EngineSpec,
    HostSpec,
    LinkSpec,
    PoolSpec,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
    load_scenario,
)

del _builders

__all__ = [
    "BuildContext",
    "BuiltSystem",
    "EngineSpec",
    "HostSpec",
    "LinkSpec",
    "OffloadEngine",
    "PoolSpec",
    "ScenarioError",
    "ScenarioSpec",
    "SYSTEMS",
    "SystemRegistry",
    "WorkloadSpec",
    "load_scenario",
    "register_system",
]
