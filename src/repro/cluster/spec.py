"""``ScenarioSpec``: declarative description of one deployment + workload.

A scenario file (JSON or TOML) names a system from the
:class:`~repro.cluster.registry.SystemRegistry` and describes the
topology around it — compute-host shape, link parameters, memory pool
(including striping over N shards), engine config overrides — plus the
hash-table workload to drive.  ``repro run scenario <file>`` loads,
validates, and runs it; ``--validate-only`` stops after validation.

Serialization is stable: ``to_dict`` emits every field in declaration
order and ``to_json`` sorts keys, so a round-tripped spec is
byte-identical and diffs are meaningful.

TOML loading uses :mod:`tomllib` where available (Python >= 3.11) and
falls back to a small parser covering the subset scenario files need
(``[section]`` tables including dotted names, string/int/float/bool
values, comments).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.cluster.registry import SYSTEMS
from repro.cowbird.p4_engine import P4EngineConfig
from repro.cowbird.spot_engine import SpotEngineConfig

__all__ = [
    "EngineSpec",
    "HostSpec",
    "LinkSpec",
    "PoolSpec",
    "ScenarioError",
    "ScenarioSpec",
    "WorkloadSpec",
    "load_scenario",
]


class ScenarioError(ValueError):
    """A scenario file is malformed or internally inconsistent."""


@dataclass
class HostSpec:
    """Shape of the compute host (Section 7: Xeon Silver 4110 default)."""

    cpu_cores: int = 8
    smt: int = 2


@dataclass
class LinkSpec:
    """Per-testbed link parameters; ``None`` defers to the cost model."""

    bandwidth_gbps: Optional[float] = None
    propagation_delay_ns: Optional[float] = None


@dataclass
class PoolSpec:
    """The memory pool: one host, or a region striped over N shards."""

    shards: int = 1


@dataclass
class EngineSpec:
    """Offload-engine tuning: field overrides for the engine config."""

    config: dict = field(default_factory=dict)


@dataclass
class WorkloadSpec:
    """The Section 8.1 hash-table probe loop parameters."""

    threads: int = 1
    record_bytes: int = 256
    ops_per_thread: int = 1_000
    num_records: int = 100_000
    local_fraction: float = 0.05
    pipeline_depth: int = 100


@dataclass
class ScenarioSpec:
    """One complete, runnable deployment description."""

    name: str
    system: str
    seed: int = 0
    compute: HostSpec = field(default_factory=HostSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` unless the spec is runnable.

        Each field's type is checked before its range (a ``bool`` is not
        a number here), so bad input fails before any simulation starts,
        with a message naming the field.
        """
        _check("name", self.name, str)
        if not self.name:
            raise ScenarioError("scenario needs a non-empty name")
        _check("system", self.system, str)
        if self.system not in SYSTEMS:
            raise ScenarioError(
                f"unknown system {self.system!r}; pick from {SYSTEMS.names()}"
            )
        _check("seed", self.seed, int)
        _check("compute.cpu_cores", self.compute.cpu_cores, int, low=1)
        _check("compute.smt", self.compute.smt, int, low=1)
        link = self.link
        if link.bandwidth_gbps is not None:
            _check("link.bandwidth_gbps", link.bandwidth_gbps, float)
            if link.bandwidth_gbps <= 0:
                raise ScenarioError("link.bandwidth_gbps must be > 0")
        if link.propagation_delay_ns is not None:
            _check("link.propagation_delay_ns", link.propagation_delay_ns,
                   float, low=0)
        _check("pool.shards", self.pool.shards, int, low=1)
        if self.pool.shards > 1 and not SYSTEMS.supports_sharding(self.system):
            raise ScenarioError(
                f"system {self.system!r} does not support sharded pools"
            )
        self._validate_engine_config()
        wl = self.workload
        _check("workload.threads", wl.threads, int, low=1)
        if wl.threads > self.compute.cpu_cores * self.compute.smt:
            raise ScenarioError(
                f"workload.threads={wl.threads} exceeds compute capacity "
                f"({self.compute.cpu_cores} cores x {self.compute.smt} SMT)"
            )
        _check("workload.record_bytes", wl.record_bytes, int, low=1)
        _check("workload.ops_per_thread", wl.ops_per_thread, int, low=1)
        _check("workload.num_records", wl.num_records, int, low=1)
        _check("workload.local_fraction", wl.local_fraction, float,
               low=0, high=1)
        _check("workload.pipeline_depth", wl.pipeline_depth, int, low=1)
        if self.system == "cowbird-p4":
            mtu = P4EngineConfig(**self.engine.config).mtu_bytes
            if wl.record_bytes > mtu:
                # Known engine defect (ROADMAP item 1): a write train that
                # spans packets can be overtaken on its channel, and the
                # Go-Back-N replay then stalls the run.
                raise ScenarioError(
                    f"workload.record_bytes={wl.record_bytes} exceeds the "
                    f"cowbird-p4 engine's {mtu}-byte MTU; multi-packet "
                    "records can stall the P4 engine"
                )

    def _validate_engine_config(self) -> None:
        """Check overrides against the engine config dataclass they patch."""
        config = self.engine.config
        if not isinstance(config, dict):
            raise ScenarioError(f"engine.config must be a table, got {config!r}")
        if not config:
            return
        if not self.system.startswith("cowbird"):
            raise ScenarioError(
                "engine.config overrides only apply to cowbird systems"
            )
        config_cls = (
            P4EngineConfig if self.system == "cowbird-p4" else SpotEngineConfig
        )
        defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
        for key, value in config.items():
            if key not in defaults:
                raise ScenarioError(
                    f"unknown engine.config key {key!r} for {self.system!r}; "
                    f"pick from {sorted(defaults)}"
                )
            _check(f"engine.config.{key}", value, type(defaults[key]))
        try:
            config_cls(**config)
        except ValueError as exc:
            raise ScenarioError(f"engine.config: {exc}") from exc

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Build a spec, rejecting unknown keys (typo protection)."""
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario must be a table, got {type(data).__name__}")
        sections = {
            "compute": HostSpec,
            "link": LinkSpec,
            "pool": PoolSpec,
            "engine": EngineSpec,
            "workload": WorkloadSpec,
        }
        kwargs = {}
        for key, value in data.items():
            if key in sections:
                kwargs[key] = _build_section(sections[key], key, value)
            elif key in ("name", "system", "seed"):
                kwargs[key] = value
            else:
                raise ScenarioError(f"unknown scenario key {key!r}")
        for required in ("name", "system"):
            if required not in kwargs:
                raise ScenarioError(f"scenario is missing {required!r}")
        return cls(**kwargs)


def _check(field_name: str, value, kind: type, low=None, high=None) -> None:
    """Raise :class:`ScenarioError` unless ``value`` is a ``kind`` in range.

    An ``int`` passes as a ``float``; a ``bool`` passes only as a
    ``bool``; a ``float`` must be finite.
    """
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
        raise ScenarioError(
            f"{field_name} must be {kind.__name__}, got {value!r}"
        )
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"{field_name} must be finite, got {value!r}")
    if low is not None and value < low:
        raise ScenarioError(f"{field_name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ScenarioError(f"{field_name} must be <= {high}, got {value!r}")


def _build_section(section_cls, section_name: str, value: dict):
    if not isinstance(value, dict):
        raise ScenarioError(f"[{section_name}] must be a table")
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(value) - known
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in [{section_name}]: {sorted(unknown)}"
        )
    return section_cls(**value)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_scenario(path) -> ScenarioSpec:
    """Load and parse a ``.json`` or ``.toml`` scenario file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    elif path.suffix == ".toml":
        data = _load_toml(text, str(path))
    else:
        raise ScenarioError(
            f"{path}: unsupported scenario format {path.suffix!r} "
            "(expected .json or .toml)"
        )
    try:
        return ScenarioSpec.from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _load_toml(text: str, origin: str) -> dict:
    try:
        import tomllib
    except ImportError:  # Python 3.10: use the fallback subset parser
        return _parse_toml_subset(text, origin)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{origin}: invalid TOML: {exc}") from exc


def _parse_toml_subset(text: str, origin: str) -> dict:
    """Parse the TOML subset scenario files use.

    Supports ``[section]`` / ``[dotted.section]`` tables, ``key = value``
    pairs with string/int/float/bool values, blank lines, and ``#``
    comments.  Deliberately tiny — real TOML is handled by tomllib.
    """
    root: dict = {}
    table = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for part in line[1:-1].strip().split("."):
                table = table.setdefault(part.strip(), {})
            continue
        if "=" not in line:
            raise ScenarioError(f"{origin}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        table[key.strip()] = _parse_toml_value(value.strip(), origin, lineno)
    return root


def _parse_toml_value(token: str, origin: str, lineno: int):
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token.replace("_", ""))
    except ValueError:
        pass
    try:
        return float(token.replace("_", ""))
    except ValueError:
        pass
    raise ScenarioError(f"{origin}:{lineno}: cannot parse value {token!r}")
