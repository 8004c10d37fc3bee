"""Parse YAML/JSON scenario files into frozen :class:`Scenario` objects.

The loader is strict: unknown keys, wrong types, bad units and unsupported
schema versions all raise :class:`ScenarioError` with the dotted path of
the offending key and a hint, never a bare stack trace.  Quantities accept
either canonical numbers (seconds, bytes, bytes/s) or human-readable
strings: ``"6 months"``, ``"7.7 TB"``, ``"160 MB/s"``, ``"1 ms"``.

YAML support comes from PyYAML and is imported lazily — JSON scenarios
work without it.
"""

from __future__ import annotations

import difflib
import json
import os
import re
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ScenarioError
from repro.ocean.driver import MPASOceanConfig
from repro.scenario.schema import (
    SCENARIO_SCHEMA_VERSION,
    ClusterConfig,
    ExecutionConfig,
    ExperimentConfig,
    FaultsCampaignConfig,
    PipelineConfig,
    PowerConfig,
    SamplingConfig,
    Scenario,
    StorageConfig,
    TelemetryConfig,
)
from repro.units import DAY, HOUR, MB, MINUTE, MONTH, YEAR
from repro.viz.render import ImageSpec

__all__ = [
    "load_scenario",
    "parse_scenario",
    "apply_overrides",
    "scenario_text",
    "write_scenario",
    "parse_duration",
    "parse_bytes",
    "parse_bandwidth",
]

_QUANTITY_RE = re.compile(
    r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z/]+)\s*$"
)

_DURATION_UNITS = {
    "ms": 1e-3,
    "s": 1.0,
    "sec": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "min": MINUTE,
    "minute": MINUTE,
    "minutes": MINUTE,
    "h": HOUR,
    "hr": HOUR,
    "hour": HOUR,
    "hours": HOUR,
    "d": DAY,
    "day": DAY,
    "days": DAY,
    "month": MONTH,
    "months": MONTH,
    "y": YEAR,
    "yr": YEAR,
    "year": YEAR,
    "years": YEAR,
}

_BYTE_UNITS = {
    "B": 1.0,
    "KB": 1e3,
    "MB": 1e6,
    "GB": 1e9,
    "TB": 1e12,
    "PB": 1e15,
}


def _yaml_module(path: str):
    try:
        import yaml
    except ImportError:  # pragma: no cover - pyyaml is in the dev image
        raise ScenarioError(
            "",
            f"cannot read {path!r}: PyYAML is not installed",
            "use a .json scenario file instead",
        )
    return yaml


def _safe_load(yaml, text: str):
    """``yaml.safe_load(text)``, parsed by libyaml where PyYAML has it.

    ``CSafeLoader`` and ``SafeLoader`` share ``SafeConstructor`` and the
    resolver, so they build the same objects; the C parser is several
    times faster.
    """
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _parse_quantity(
    value,
    path: str,
    units: Dict[str, float],
    what: str,
) -> float:
    if isinstance(value, bool):
        raise ScenarioError(path, f"expected a {what}, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        match = _QUANTITY_RE.match(value)
        if match:
            magnitude, unit = match.groups()
            if unit in units:
                return float(magnitude) * units[unit]
            raise ScenarioError(
                path,
                f"unknown {what} unit {unit!r} in {value!r}",
                f"expected one of {', '.join(sorted(units))}",
            )
        raise ScenarioError(
            path,
            f"cannot parse {what} {value!r}",
            'expected a number or "<magnitude> <unit>"',
        )
    raise ScenarioError(
        path, f"expected a {what}, got {type(value).__name__}"
    )


def parse_duration(value, path: str = "duration") -> float:
    """Parse a duration into seconds (numbers pass through as seconds)."""
    return _parse_quantity(value, path, _DURATION_UNITS, "duration")


def parse_bytes(value, path: str = "bytes") -> float:
    """Parse a size into bytes (numbers pass through as bytes)."""
    return _parse_quantity(value, path, _BYTE_UNITS, "size")


def parse_bandwidth(value, path: str = "bandwidth") -> float:
    """Parse a bandwidth into bytes/s (``"160 MB/s"`` or a raw number)."""
    if isinstance(value, str) and value.rstrip().endswith("/s"):
        return parse_bytes(value.rstrip()[: -len("/s")], path)
    return _parse_quantity(value, path, _BYTE_UNITS, "bandwidth")


# ---------------------------------------------------------- scalar converters


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(
            path, f"expected an integer, got {type(value).__name__}"
        )
    return value


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            path, f"expected a number, got {type(value).__name__}"
        )
    return float(value)


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(
            path, f"expected a string, got {type(value).__name__}"
        )
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(
            path, f"expected true/false, got {type(value).__name__}"
        )
    return value


def _optional(convert: Callable) -> Callable:
    def wrapped(value, path: str):
        if value is None:
            return None
        return convert(value, path)

    return wrapped


def _hours_list(value, path: str) -> Tuple[float, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(
            path,
            f"expected a list of cadences in hours, got {type(value).__name__}",
        )
    return tuple(
        _float(item, f"{path}[{i}]") for i, item in enumerate(value)
    )


# ----------------------------------------------------------- section walkers

#: yaml key -> (dataclass field, converter) per section.
_SECTION_SPECS: Dict[str, Dict[str, Tuple[str, Callable]]] = {
    "experiment": {
        "kind": ("kind", _str),
        "years": ("years", _float),
        "sweep_intervals_hours": ("sweep_intervals_hours", _hours_list),
        "mtbf_hours": ("mtbf_hours", _optional(_float)),
        "checkpoint_write_seconds": ("checkpoint_write_seconds", parse_duration),
        "restart_seconds": ("restart_seconds", parse_duration),
    },
    "sampling": {
        "intervals_hours": ("intervals_hours", _hours_list),
    },
    "cluster": {
        "name": ("name", _str),
        "nodes": ("nodes", _int),
        "cores_per_socket": ("cores_per_socket", _int),
        "nodes_per_cage": ("nodes_per_cage", _int),
    },
    "storage": {
        "capacity": ("capacity_bytes", parse_bytes),
        "write_bandwidth": ("write_bandwidth", parse_bandwidth),
        "read_bandwidth": ("read_bandwidth", parse_bandwidth),
        "mds": ("mds", _int),
        "ost": ("ost", _int),
        "metadata_latency": ("metadata_latency_seconds", parse_duration),
        "io_aggregators": ("io_aggregators", _int),
    },
    "ocean": {
        "resolution_km": ("resolution_km", _float),
        "vertical_levels": ("n_vertical_levels", _int),
        "timestep": ("timestep_seconds", parse_duration),
        "duration": ("duration_seconds", parse_duration),
        "bytes_per_value": ("bytes_per_value", _int),
    },
    "images": {
        "width": ("width", _int),
        "height": ("height", _int),
    },
    "faults": {
        "seed": ("seed", _int),
        "mtbf_hours": ("mtbf_hours", _optional(_float)),
        "checkpoint_every": ("checkpoint_every", _int),
        "restart_penalty": ("restart_penalty_seconds", parse_duration),
        "brownout_rate_per_hour": ("brownout_rate_per_hour", _float),
        "io_error_rate_per_hour": ("io_error_rate_per_hour", _float),
        "include_unprotected": ("include_unprotected", _bool),
    },
    "power": {
        "cap_watts": ("cap_watts", _optional(_float)),
    },
    "execution": {
        "workers": ("workers", _optional(_int)),
        "cache": ("cache", _optional(_str)),
        "deadline": ("deadline_seconds", _optional(parse_duration)),
        "task_retries": ("task_retries", _optional(_int)),
        "max_worker_crashes": ("max_worker_crashes", _optional(_int)),
        "fail_policy": ("fail_policy", _optional(_str)),
        "journal": ("journal", _optional(_str)),
        "resume": ("resume", _bool),
    },
    "telemetry": {
        "directory": ("directory", _optional(_str)),
        "timeline": ("timeline", _bool),
        "timeline_interval": ("interval_seconds", _optional(parse_duration)),
        "store": ("store", _optional(_str)),
    },
    "pipeline": {  # one entry of the pipelines list
        "kind": ("kind", _str),
        "staging_nodes": ("staging_nodes", _optional(_int)),
    },
}

_SECTION_TYPES = {
    "experiment": ExperimentConfig,
    "sampling": SamplingConfig,
    "cluster": ClusterConfig,
    "storage": StorageConfig,
    "ocean": MPASOceanConfig,
    "images": ImageSpec,
    "faults": FaultsCampaignConfig,
    "power": PowerConfig,
    "execution": ExecutionConfig,
    "telemetry": TelemetryConfig,
}

_TOP_LEVEL_KEYS = (
    "schema_version",
    "name",
    "description",
    "experiment",
    "sampling",
    "cluster",
    "storage",
    "ocean",
    "pipelines",
    "images",
    "faults",
    "power",
    "execution",
    "telemetry",
)

#: Keys of the experiment section that only the what-if analyzer reads.
_WHATIF_ONLY_KEYS = (
    "years",
    "sweep_intervals_hours",
    "mtbf_hours",
    "checkpoint_write_seconds",
    "restart_seconds",
)


def _unknown_key(key: str, path: str, known: Iterable[str]) -> ScenarioError:
    matches = difflib.get_close_matches(key, list(known), n=1)
    hint = f"did you mean {matches[0]!r}?" if matches else (
        f"known keys: {', '.join(sorted(known))}"
    )
    return ScenarioError(f"{path}.{key}" if path else key, "unknown key", hint)


def _walk_section(raw, path: str, spec: Dict[str, Tuple[str, Callable]]) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError(
            path, f"expected a mapping, got {type(raw).__name__}"
        )
    kwargs = {}
    for key, value in raw.items():
        if key not in spec:
            raise _unknown_key(str(key), path, spec)
        field_name, convert = spec[key]
        kwargs[field_name] = convert(value, f"{path}.{key}")
    return kwargs


def _parse_pipelines(raw, path: str) -> Optional[Tuple[PipelineConfig, ...]]:
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)):
        raise ScenarioError(
            path,
            f"expected a list of pipeline mappings, got {type(raw).__name__}",
        )
    entries = []
    for i, entry in enumerate(raw):
        entry_path = f"{path}[{i}]"
        if isinstance(entry, str):
            entry = {"kind": entry}
        kwargs = _walk_section(entry, entry_path, _SECTION_SPECS["pipeline"])
        entries.append(PipelineConfig(**kwargs))
    return tuple(entries)


def parse_scenario(data, default_name: str = "scenario") -> Scenario:
    """Validate a parsed YAML/JSON mapping into a frozen :class:`Scenario`."""
    if not isinstance(data, dict):
        raise ScenarioError(
            "", f"expected a mapping at top level, got {type(data).__name__}"
        )
    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            raise _unknown_key(str(key), "", _TOP_LEVEL_KEYS)
    if "schema_version" not in data:
        raise ScenarioError(
            "schema_version",
            "missing required key",
            f"add schema_version: {SCENARIO_SCHEMA_VERSION}",
        )
    version = data["schema_version"]
    if isinstance(version, bool) or not isinstance(version, int):
        raise ScenarioError(
            "schema_version",
            f"expected an integer, got {version!r}",
            f"this build reads version {SCENARIO_SCHEMA_VERSION}",
        )

    experiment_raw = data.get("experiment")
    experiment_kwargs = _walk_section(
        experiment_raw, "experiment", _SECTION_SPECS["experiment"]
    )
    kind = experiment_kwargs.get("kind", "characterize")
    if kind != "whatif" and isinstance(experiment_raw, dict):
        for key in _WHATIF_ONLY_KEYS:
            if key in experiment_raw:
                raise ScenarioError(
                    f"experiment.{key}",
                    f"only experiment.kind: whatif reads this key "
                    f"(this scenario is {kind!r})",
                )

    kwargs: dict = {
        "name": _str(data.get("name", default_name), "name"),
        "description": _str(data.get("description", ""), "description"),
        "schema_version": version,
        "experiment": ExperimentConfig(**experiment_kwargs),
        "pipelines": _parse_pipelines(data.get("pipelines"), "pipelines"),
    }
    for section in (
        "sampling",
        "cluster",
        "storage",
        "ocean",
        "images",
        "power",
        "execution",
        "telemetry",
    ):
        section_kwargs = _walk_section(
            data.get(section), section, _SECTION_SPECS[section]
        )
        kwargs[section] = _SECTION_TYPES[section](**section_kwargs)
    if data.get("faults") is not None:
        kwargs["faults"] = FaultsCampaignConfig(
            **_walk_section(data["faults"], "faults", _SECTION_SPECS["faults"])
        )
    return Scenario(**kwargs)


# -------------------------------------------------------------- --set overrides


def _parse_override_value(text: str):
    try:
        import yaml
    except ImportError:
        try:
            return json.loads(text)
        except ValueError:
            return text
    try:
        return _safe_load(yaml, text)
    except yaml.YAMLError:
        return text


def apply_overrides(data: dict, overrides: Sequence[str]) -> dict:
    """Apply ``--set key.path=value`` overrides to a raw scenario mapping."""
    for override in overrides:
        if "=" not in override:
            raise ScenarioError(
                "",
                f"malformed override {override!r}",
                "expected key.path=value",
            )
        dotted, text = override.split("=", 1)
        dotted = dotted.strip()
        if not dotted:
            raise ScenarioError(
                "", f"malformed override {override!r}", "empty key path"
            )
        segments = dotted.split(".")
        node = data
        for i, segment in enumerate(segments[:-1]):
            here = ".".join(segments[: i + 1])
            if isinstance(node, list):
                node = _index_into(node, segment, here)
                continue
            if not isinstance(node, dict):
                raise ScenarioError(
                    here,
                    f"cannot override below a {type(node).__name__}",
                )
            node = node.setdefault(segment, {})
        leaf = segments[-1]
        value = _parse_override_value(text)
        if isinstance(node, list):
            index = _index_check(node, leaf, dotted)
            node[index] = value
        elif isinstance(node, dict):
            node[leaf] = value
        else:
            raise ScenarioError(
                dotted, f"cannot override below a {type(node).__name__}"
            )
    return data


def _index_check(node: list, segment: str, path: str) -> int:
    try:
        index = int(segment)
    except ValueError:
        raise ScenarioError(
            path, f"expected a list index, got {segment!r}"
        )
    if not -len(node) <= index < len(node):
        raise ScenarioError(
            path, f"index {index} out of range (list has {len(node)} items)"
        )
    return index


def _index_into(node: list, segment: str, path: str):
    return node[_index_check(node, segment, path)]


# --------------------------------------------------------------- file loading


def load_scenario(
    path: str,
    overrides: Sequence[str] = (),
    name: Optional[str] = None,
) -> Scenario:
    """Load, override and validate a scenario file (YAML or JSON)."""
    if not os.path.exists(path):
        raise ScenarioError("", f"no such scenario file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ScenarioError("", f"invalid JSON in {path}: {exc}")
    else:
        yaml = _yaml_module(path)
        try:
            data = _safe_load(yaml, text)
        except yaml.YAMLError as exc:
            raise ScenarioError("", f"invalid YAML in {path}: {exc}")
    if data is None:
        data = {}
    if overrides:
        if not isinstance(data, dict):
            raise ScenarioError(
                "",
                f"expected a mapping at top level, got {type(data).__name__}",
            )
        data = apply_overrides(data, overrides)
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(data, default_name=name or stem)


def scenario_text(scenario: Scenario, fmt: str = "yaml") -> str:
    """Serialize a scenario's resolved canonical form to YAML or JSON text."""
    resolved = scenario.to_dict()
    if fmt == "json":
        return json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    yaml = _yaml_module("<scenario>")
    return yaml.safe_dump(resolved, sort_keys=False, default_flow_style=False)


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario's resolved form to ``path`` (format by extension)."""
    fmt = "json" if path.endswith(".json") else "yaml"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(scenario, fmt=fmt))
