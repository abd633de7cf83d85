"""Experiment configuration.

One flat record drives every scenario; unused fields are simply ignored
by scenarios that do not need them. ``make_config`` builds every config
in layers: the scenario's defaults (``SCENARIOS``), then a config file's
fields (``load_json``), then --set key=value (``parse_overrides``), so a
file or --set names only the fields it changes. The record round-trips
losslessly through JSON, so a recorded config.json reproduces its run
exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from math import inf
from typing import Any, Dict, List

from ..errors import ConfigError

@dataclass
class ExperimentConfig:
    scenario: str = "udpcc_basic"
    seed: int = 1
    duration: float = 30.0

    # forward link (the bottleneck under study)
    bandwidth_bps: int = 10_000_000
    delay: float = 0.03            # one-way propagation per direction
    queue_limit: int = 50          # packets, including the one in service
    loss_prob: float = 0.0
    ecn: bool = False
    mtu: int = 1500
    ack_bandwidth_bps: int = 100_000_000   # clean reverse path

    # workloads
    num_flows: int = 4
    transfer_size: int = 131072
    transfer_gap: float = 0.5
    num_transfers: int = 9
    packet_size: int = 1500

    # receiver feedback batching
    max_acks: int = 1
    max_delay: float = 0.0

    # layered sources
    layer_rates: List[int] = field(
        default_factory=lambda: [16384, 32768, 65536, 131072])
    safety: float = 0.9
    thresh_down: float = 0.7
    thresh_up: float = 1.4
    low_bandwidth_bps: int = 262_144
    step_down_t: float = 8.0
    step_up_t: float = 20.0

    # audio source
    frame_size: int = 160
    frame_interval: float = 0.02
    app_buf_limit: int = 4
    policer_depth_frames: int = 2

    # ensemble bookkeeping
    bulk: bool = False
    refill_interval: float = 0.02
    queue_target: int = 64
    sample_interval: float = 0.1


# Both layered scenarios meet the same bandwidth steps, since the
# layered_adaptation check compares them.
_LAYERED: Dict[str, Any] = dict(
    duration=30.0, bandwidth_bps=1_048_576, delay=0.125,
    queue_limit=5, low_bandwidth_bps=262_144,
    step_down_t=8.0, step_up_t=20.0)

# Per-scenario defaults layered over the dataclass defaults.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "tcp_compare": dict(
        duration=60.0, bandwidth_bps=10_000_000, delay=0.03,
        queue_limit=50, loss_prob=0.01),
    "sharing": dict(
        duration=20.0, bandwidth_bps=10_000_000, delay=0.035,
        queue_limit=50, transfer_size=131072, num_transfers=9,
        transfer_gap=0.5),
    "layered_alf": _LAYERED,
    "layered_rate": _LAYERED,
    "delayed_feedback": dict(
        duration=20.0, bandwidth_bps=2_000_000, delay=0.03,
        queue_limit=20, num_flows=1, max_acks=500, max_delay=2.0),
    "fairness_ensemble": dict(
        duration=30.0, bandwidth_bps=4_000_000, delay=0.03,
        queue_limit=32, num_flows=4, bulk=False),
    "udpcc_basic": dict(
        duration=30.0, bandwidth_bps=4_000_000, delay=0.03,
        queue_limit=32, num_flows=4),
    "audio_cbr": dict(
        duration=60.0, bandwidth_bps=32_000, delay=0.05,
        queue_limit=64, loss_prob=0.08, ecn=True, mtu=160,
        packet_size=160, frame_size=160, frame_interval=0.02,
        app_buf_limit=4, thresh_down=0.9, thresh_up=1.1),
}
SCENARIO_NAMES = tuple(SCENARIOS)
# Where packet_size must fit in one MTU: the scenarios that send it.
_SENDS_PACKET_SIZE = ("layered_alf", "layered_rate", "delayed_feedback",
                      "fairness_ensemble", "udpcc_basic")

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# Python types a JSON value may take for each field type of _FIELD_TYPES
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def make_config(scenario: str = ExperimentConfig.scenario,
                **fields: Any) -> ExperimentConfig:
    """The scenario's defaults with ``fields`` over them, each type-checked
    as a config file's values are (see _typed), then validated."""
    fields["scenario"] = scenario
    for key, value in fields.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"field '{key}': unknown config field")
        fields[key] = _typed(key, _FIELD_TYPES[key], value)
    cfg = ExperimentConfig(**{**SCENARIOS.get(fields["scenario"], {}),
                              **fields})
    validate(cfg)
    return cfg


def _int(name: str, raw: str) -> int:
    """An int literal, or an integral float one, as _typed takes 2.0."""
    try:
        return int(raw)
    except ValueError:
        return _typed(name, "int", float(raw))


def _coerce(name: str, raw: str) -> Any:
    typ = _FIELD_TYPES.get(name)  # make_config refuses an unknown name
    try:
        if typ == "int":
            return _int(name, raw)
        if typ == "float":
            return float(raw)
        if typ == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if typ == "List[int]":
            return [_int(name, x) for x in raw.split(",") if x.strip()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"field '{name}': {exc}") from None


def parse_overrides(assignments: List[str]) -> Dict[str, Any]:
    """The fields of --set key=value pairs; a later pair for a key wins."""
    out: Dict[str, Any] = {}
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"field '{item}': expected key=value")
        key = key.strip()
        out[key] = _coerce(key, raw)
    return out


def _typed(key: str, typ: str, value: Any) -> Any:
    """A config value for field key of type typ, from JSON or a keyword
    override, or ConfigError if its type is wrong. An int passes for a
    float and is stored as one; a bool passes only for a bool."""
    if typ == "List[int]":
        if not isinstance(value, list):
            raise ConfigError(f"field '{key}': expected a list")
        return [_typed(key, "int", v) for v in value]
    if typ == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    want = _JSON_TYPES[typ]
    if not isinstance(value, want) or \
            (isinstance(value, bool) and want is not bool):
        raise ConfigError(f"field '{key}': expected {typ}, got {value!r}")
    try:
        return float(value) if typ == "float" else value
    except OverflowError:
        raise ConfigError(f"field '{key}': int too large for a float") from None


def save_json(data: Any, path: str) -> None:
    """data as indented, key-sorted JSON: config.json (from ``asdict``)
    and summary.json."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    """The fields of a JSON config file, for make_config; ConfigError if
    the file holds anything but a JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"expected a JSON object, got {data!r}")
    return data


def _require(cond: bool, name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"field '{name}': {message}")


def validate(cfg: ExperimentConfig) -> None:
    _require(cfg.scenario in SCENARIO_NAMES, "scenario",
             f"unknown scenario {cfg.scenario!r}; "
             f"choices: {', '.join(SCENARIO_NAMES)}")
    _require(0 < cfg.duration < inf, "duration", "must be positive and finite")
    _require(cfg.bandwidth_bps > 0, "bandwidth_bps", "must be positive")
    _require(cfg.ack_bandwidth_bps > 0, "ack_bandwidth_bps",
             "must be positive")
    _require(cfg.low_bandwidth_bps > 0, "low_bandwidth_bps",
             "must be positive")
    _require(cfg.delay >= 0, "delay", "must be nonnegative")
    _require(cfg.queue_limit >= 1, "queue_limit", "must be at least 1")
    _require(0.0 <= cfg.loss_prob < 1.0, "loss_prob", "must be in [0, 1)")
    _require(cfg.mtu > 0, "mtu", "must be positive")
    _require(cfg.num_flows >= 1, "num_flows", "must be at least 1")
    _require(cfg.transfer_size > 0, "transfer_size", "must be positive")
    _require(cfg.transfer_gap >= 0, "transfer_gap", "must be nonnegative")
    _require(cfg.num_transfers >= 1, "num_transfers", "must be at least 1")
    _require(cfg.packet_size > 0, "packet_size", "must be positive")
    _require(cfg.scenario not in _SENDS_PACKET_SIZE
             or cfg.packet_size <= cfg.mtu, "packet_size",
             f"must be at most mtu={cfg.mtu}")
    _require(cfg.max_acks >= 1, "max_acks", "must be at least 1")
    _require(cfg.max_delay >= 0, "max_delay", "must be nonnegative")
    _require(cfg.max_acks == 1 or 0 < cfg.max_delay < inf, "max_delay",
             f"must be positive and finite when max_acks > 1 (here "
             f"{cfg.max_acks}): only the timer flushes a partial batch, so "
             "without one the sender stops once its window is unacked")
    _require(len(cfg.layer_rates) >= 1, "layer_rates", "needs at least one layer")
    rates = cfg.layer_rates
    _require(rates[0] > 0 and all(b > a for a, b in zip(rates, rates[1:])),
             "layer_rates", "must be positive and strictly increasing")
    _require(0.0 < cfg.safety <= 1.0, "safety", "must be in (0, 1]")
    _require(0.0 < cfg.thresh_down <= 1.0, "thresh_down", "must be in (0, 1]")
    _require(cfg.thresh_up >= 1.0, "thresh_up", "must be at least 1")
    _require(cfg.step_down_t >= 0, "step_down_t", "must be nonnegative")
    _require(cfg.step_up_t > cfg.step_down_t, "step_up_t",
             "must be after step_down_t")
    _require(cfg.frame_size > 0, "frame_size", "must be positive")
    _require(cfg.scenario != "audio_cbr" or cfg.frame_size <= cfg.mtu,
             "frame_size", f"must be at most mtu={cfg.mtu}")
    _require(cfg.frame_interval > 0, "frame_interval", "must be positive")
    _require(cfg.app_buf_limit >= 1, "app_buf_limit", "must be at least 1")
    _require(cfg.policer_depth_frames >= 1, "policer_depth_frames",
             "must be at least 1")
    _require(cfg.refill_interval > 0, "refill_interval", "must be positive")
    _require(cfg.queue_target >= 1, "queue_target", "must be at least 1")
    _require(cfg.sample_interval > 0, "sample_interval", "must be positive")
