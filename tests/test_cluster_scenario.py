"""End-to-end scenarios and the behavior-preservation golden check.

Two guarantees pinned here (ISSUE 4 acceptance criteria):

* the registry-driven ``build_microbench`` produces byte-identical
  results to the pre-refactor if/elif ladder for every system
  (``tests/golden/fig08_point.json`` was captured before the refactor);
* a checked-in scenario file reproduces a fig08 point end-to-end via
  the declarative path, including a 2-shard ``ShardedPool`` variant
  that completes the same workload.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cluster import OffloadEngine, load_scenario
from repro.cluster.scenario import run_scenario
from repro.experiments.common import (
    MICROBENCH_SYSTEMS,
    build_microbench,
    run_microbench,
)

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "fig08_point.json"
SCENARIO_DIR = REPO / "examples" / "scenarios"


class TestGoldenBehaviorPreservation:
    @pytest.mark.parametrize("system", MICROBENCH_SYSTEMS)
    def test_fig08_point_unchanged_by_refactor(self, system):
        golden = json.loads(GOLDEN.read_text())
        depth = 512 if system.startswith("cowbird") else 100
        result = run_microbench(
            system, threads=2, record_bytes=256, ops_per_thread=120,
            seed=8, pipeline_depth=depth,
        )
        assert dataclasses.asdict(result) == golden[system]


class TestScenarioReproducesFigure:
    def test_scenario_matches_fig08_cell_exactly(self):
        spec = load_scenario(SCENARIO_DIR / "fig08_point.toml")
        scenario_result = run_scenario(spec)
        direct_result = run_microbench(
            "cowbird", 4, record_bytes=256, ops_per_thread=500,
            seed=8, pipeline_depth=512,
        )
        assert dataclasses.asdict(scenario_result) == dataclasses.asdict(
            direct_result
        )

    def test_sharded_scenario_completes_same_workload(self):
        spec = load_scenario(SCENARIO_DIR / "fig08_point_sharded.toml")
        assert spec.pool.shards == 2
        sharded = run_scenario(spec)
        baseline = run_scenario(
            load_scenario(SCENARIO_DIR / "fig08_point.toml")
        )
        # Same workload completes over 2 shards; throughput stays in
        # the same regime (striping adds no protocol overhead beyond
        # per-node channels).
        assert sharded.total_ops == baseline.total_ops == 4 * 500
        assert sharded.threads == baseline.threads
        assert sharded.throughput_mops == pytest.approx(
            baseline.throughput_mops, rel=0.25
        )


class TestBuildScenario:
    def test_built_engine_satisfies_protocol_and_closes(self):
        spec = load_scenario(SCENARIO_DIR / "fig08_point_sharded.toml")
        deployment = build_microbench(
            spec.system, spec.workload.threads, pool_shards=spec.pool.shards
        )
        assert isinstance(deployment.engine, OffloadEngine)
        assert sorted(deployment.pool_hosts) == ["pool0", "pool1"]
        assert len(deployment.backends) == spec.workload.threads
        deployment.close()
        deployment.close()  # idempotent

    def test_engine_config_overrides_reach_the_engine(self):
        spec = load_scenario(SCENARIO_DIR / "fig08_point.toml")
        spec.engine.config = {"batch_size": 17}
        deployment = build_microbench(
            spec.system, spec.workload.threads, engine_config=spec.engine.config
        )
        assert deployment.engine.config.batch_size == 17
        deployment.close()

    def test_invalid_spec_refuses_to_build(self):
        spec = load_scenario(SCENARIO_DIR / "fig08_point.toml")
        spec.system = "nonexistent"
        with pytest.raises(Exception):
            run_scenario(spec)
