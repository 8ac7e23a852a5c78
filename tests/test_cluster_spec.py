"""ScenarioSpec loading/validation and the SystemRegistry contract."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    SYSTEMS,
    BuildContext,
    BuiltSystem,
    EngineSpec,
    PoolSpec,
    ScenarioError,
    ScenarioSpec,
    SystemRegistry,
    WorkloadSpec,
    load_scenario,
)
from repro.cluster.scenario import run_scenario
from repro.cluster.spec import _parse_toml_subset

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"

ALL_SYSTEMS = (
    "local", "two-sided", "one-sided", "async", "cowbird-nb", "cowbird",
    "cowbird-p4", "redy", "aifm", "ssd",
)


class TestSystemRegistry:
    def test_all_ten_systems_registered_in_legend_order(self):
        assert SYSTEMS.names() == ALL_SYSTEMS

    def test_only_cowbird_systems_support_sharding(self):
        sharded = {s for s in SYSTEMS.names() if SYSTEMS.supports_sharding(s)}
        assert sharded == {"cowbird", "cowbird-nb", "cowbird-p4"}

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError, match="unknown system"):
            SYSTEMS.build("no-such-system", None)

    def test_duplicate_registration_rejected(self):
        registry = SystemRegistry()

        @registry.register("thing")
        def build_thing(ctx):
            return BuiltSystem(backends=[])

        with pytest.raises(ValueError, match="already registered"):
            registry.register("thing")(build_thing)

    def test_third_party_registration_is_one_decorator(self):
        registry = SystemRegistry()

        @registry.register("mine", sharded=True)
        def build_mine(ctx):
            return BuiltSystem(backends=["b"] * ctx.threads)

        assert "mine" in registry
        assert registry.supports_sharding("mine")
        ctx = BuildContext(
            bed=None, compute=None, threads=3, remote_bytes=0, cost=None
        )
        assert registry.build("mine", ctx).backends == ["b", "b", "b"]


def _spec(**overrides) -> ScenarioSpec:
    base = dict(name="t", system="cowbird")
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_valid_default_spec_passes(self):
        _spec().validate()

    def test_unknown_system_rejected(self):
        with pytest.raises(ScenarioError, match="unknown system"):
            _spec(system="bogus").validate()

    def test_threads_capped_by_compute_capacity(self):
        with pytest.raises(ScenarioError, match="exceeds compute capacity"):
            _spec(workload=WorkloadSpec(threads=17)).validate()

    def test_sharding_limited_to_cowbird(self):
        _spec(pool=PoolSpec(shards=2)).validate()
        with pytest.raises(ScenarioError, match="sharded"):
            _spec(system="redy", pool=PoolSpec(shards=2)).validate()

    def test_engine_config_limited_to_cowbird(self):
        _spec(engine=EngineSpec(config={"batch_size": 8})).validate()
        with pytest.raises(ScenarioError, match="engine.config"):
            _spec(system="local",
                  engine=EngineSpec(config={"batch_size": 8})).validate()

    @pytest.mark.parametrize("workload", [
        WorkloadSpec(threads=0),
        WorkloadSpec(record_bytes=0),
        WorkloadSpec(ops_per_thread=0),
        WorkloadSpec(num_records=0),
        WorkloadSpec(local_fraction=1.5),
        WorkloadSpec(pipeline_depth=0),
    ])
    def test_bad_workloads_rejected(self, workload):
        with pytest.raises(ScenarioError):
            _spec(workload=workload).validate()

    def test_p4_records_limited_to_one_mtu(self):
        def p4_spec(record_bytes):
            return _spec(
                system="cowbird-p4",
                workload=WorkloadSpec(record_bytes=record_bytes),
            )

        p4_spec(1024).validate()
        with pytest.raises(ScenarioError, match="record_bytes.*MTU"):
            p4_spec(1025).validate()

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ScenarioError, match="shards"):
            _spec(pool=PoolSpec(shards=0)).validate()

    BAD_INPUTS = [
        ("workload", {"threads": "4"}, "workload.threads"),
        ("system", ["cowbird"], "system"),
        ("compute", {"cpu_cores": 2.5}, "compute.cpu_cores"),
        ("seed", "abc", "seed"),
        ("link", {"propagation_delay_ns": -5}, "link.propagation_delay_ns"),
        ("engine", {"config": {"nonexistent_field": 1}}, "nonexistent_field"),
        ("engine", {"config": "oops"}, "engine.config"),
        ("engine", {"config": {"poll_interval_ns": 0}}, "poll_interval_ns"),
        ("name", 5, "name"),
        ("pool", {"capacity_bytes": 10}, "capacity_bytes"),
    ]

    @pytest.mark.parametrize(
        "key, value, field", BAD_INPUTS, ids=[case[2] for case in BAD_INPUTS]
    )
    def test_bad_input_names_the_field(self, key, value, field):
        with pytest.raises(ScenarioError, match=re.escape(field)):
            ScenarioSpec.from_dict(
                {"name": "t", "system": "cowbird", key: value}
            ).validate()


class TestSerialization:
    def test_round_trip_is_lossless(self):
        spec = _spec(
            seed=7,
            pool=PoolSpec(shards=2),
            engine=EngineSpec(config={"batch_size": 25}),
            workload=WorkloadSpec(threads=4, record_bytes=64),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_json_is_stable(self):
        spec = _spec()
        assert spec.to_json() == spec.to_json()
        assert json.loads(spec.to_json())["system"] == "cowbird"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario key"):
            ScenarioSpec.from_dict({"name": "x", "system": "local", "oops": 1})
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_dict(
                {"name": "x", "system": "local", "workload": {"treads": 2}}
            )

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ScenarioError, match="missing"):
            ScenarioSpec.from_dict({"name": "x"})


class TestLoading:
    def test_load_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(
            {"name": "j", "system": "local", "workload": {"threads": 2}}
        ))
        spec = load_scenario(path)
        assert spec.system == "local"
        assert spec.workload.threads == 2

    def test_load_toml(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "t"\nsystem = "cowbird"\nseed = 8\n'
            "[pool]\nshards = 2\n"
            "[workload]\nthreads = 4\nlocal_fraction = 0.25\n"
        )
        spec = load_scenario(path)
        assert spec.pool.shards == 2
        assert spec.workload.local_fraction == 0.25
        spec.validate()

    def test_checked_in_examples_load_and_validate(self):
        for name in ("fig08_point.toml", "fig08_point_sharded.toml"):
            spec = load_scenario(SCENARIO_DIR / name)
            spec.validate()
            assert spec.system == "cowbird"

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("name: x")
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            load_scenario(path)

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="bad.json"):
            load_scenario(path)


class TestTomlFallbackParser:
    """The subset parser must agree with tomllib on scenario files."""

    def test_matches_tomllib_on_example_files(self):
        tomllib = pytest.importorskip("tomllib")
        for name in ("fig08_point.toml", "fig08_point_sharded.toml"):
            text = (SCENARIO_DIR / name).read_text()
            assert _parse_toml_subset(text, name) == tomllib.loads(text)

    def test_value_types_and_dotted_sections(self):
        parsed = _parse_toml_subset(
            's = "str"\nn = 42\nf = 2.5\nb = true\nb2 = false\n'
            "[a.b]\nk = 1\n",
            "inline",
        )
        assert parsed == {
            "s": "str", "n": 42, "f": 2.5, "b": True, "b2": False,
            "a": {"b": {"k": 1}},
        }

    def test_malformed_lines_rejected(self):
        with pytest.raises(ScenarioError, match="key = value"):
            _parse_toml_subset("just some words\n", "inline")
        with pytest.raises(ScenarioError, match="cannot parse value"):
            _parse_toml_subset("k = [1, 2]\n", "inline")


# Values of the wrong type for any field or section.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)

# Engine overrides: valid ones, ones for the other engine, bad values.
ENGINE_CONFIGS = (
    {"batch_size": 8}, {"probe_interval_ns": 4_000},
    {"probe_policy": "weighted"}, {"probe_policy": "zigzag"},
    {"poll_interval_ns": 0.0}, {"probe_interval_ns": 0},
    {"max_post_batch": 0}, {"batch_size": 8.0},
)

FIELD_PATHS = (
    ("name",), ("system",), ("seed",), ("compute",), ("link",), ("pool",),
    ("engine",), ("workload",), ("compute", "cpu_cores"), ("compute", "smt"),
    ("link", "bandwidth_gbps"), ("link", "propagation_delay_ns"),
    ("pool", "shards"), ("engine", "config"), ("workload", "threads"),
    ("workload", "record_bytes"), ("workload", "ops_per_thread"),
    ("workload", "num_records"), ("workload", "local_fraction"),
    ("workload", "pipeline_depth"), ("typo",), ("workload", "typo"),
)


@st.composite
def scenario_dicts(draw):
    """A small valid scenario, then up to two fields corrupted.

    A corrupted field gets a value of the wrong type or an edge value
    (zero, negative, fractional, or beyond the 16-thread compute host).
    """
    system = draw(st.sampled_from(ALL_SYSTEMS))
    engine_config = {}
    if system.startswith("cowbird") and draw(st.booleans()):
        engine_config = draw(st.sampled_from(ENGINE_CONFIGS))
    data = {
        "name": "fuzz",
        "system": system,
        "seed": draw(st.integers(-2, 5)),
        "compute": {
            "cpu_cores": draw(st.integers(2, 4)),
            "smt": draw(st.integers(1, 2)),
        },
        "link": {
            "bandwidth_gbps": draw(st.sampled_from([None, 25, 100.0])),
            "propagation_delay_ns": draw(st.sampled_from([None, 0, 500.0])),
        },
        "pool": {"shards": draw(st.sampled_from([1, 1, 1, 2]))},
        "engine": {"config": engine_config},
        "workload": {
            "threads": draw(st.integers(1, 4)),
            "record_bytes": draw(st.sampled_from([1, 8, 256, 4096, 1 << 16])),
            "ops_per_thread": draw(st.integers(1, 6)),
            "num_records": draw(st.integers(1, 64)),
            "local_fraction": draw(st.floats(0.0, 1.0)),
            "pipeline_depth": draw(st.integers(1, 8)),
        },
    }
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        *parents, leaf = draw(st.sampled_from(FIELD_PATHS))
        table = data
        for parent in parents:
            table = table[parent]
            if not isinstance(table, dict):
                break
        else:
            table[leaf] = draw(
                st.one_of(JUNK, st.sampled_from([0, -1, -5, 1.5, 17]))
            )
    return data


class TestScenarioFuzz:
    """Every input is rejected with ScenarioError, or runs to completion."""

    @settings(max_examples=600, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario_dicts())
    def test_rejects_or_runs(self, data):
        try:
            spec = ScenarioSpec.from_dict(data)
            spec.validate()
        except ScenarioError:
            return
        result = run_scenario(spec, deadline_ns=1e7)
        wl = spec.workload
        assert result.total_ops == wl.threads * wl.ops_per_thread
