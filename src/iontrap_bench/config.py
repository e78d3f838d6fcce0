"""Strict flat-key configuration.  _KEYS maps each key to the dataclass
field it feeds: SCHEMA takes each key's type and default from that field,
and one builder makes each section from the table.

File format: UTF-8 text, one `key = value` per line, '#' comments.
Unknown keys, a key set twice in one file, a NaN float and a fock cutoff
below 1 are rejected with their key path; an infinite float (a lifetime,
say) is valid.  A None default (the addressing waist and floor, which
then take their kind's value) is left out of a dump.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields
from typing import get_type_hints

from .addressing import AddressingUnit
from .chain import TrapConfig
from .compiler import MachineConfig
from .engine import DetectionModel, NoiseConfig
from .errors import SchemaError

_TWO_PI = 2.0 * math.pi

# key -> (dataclass, field[, scale]).  Only the Hz keys carry a scale: their
# value times 2 pi is the field's rad/s.  Every other value passes unchanged.
_KEYS = {
    "machine.n_qubits": (MachineConfig, "n_qubits"),
    "machine.t_half_pi_us": (MachineConfig, "t_half_pi_us"),
    "machine.t_ms_us": (MachineConfig, "t_ms_us"),
    "machine.timing_grid_ns": (MachineConfig, "timing_grid_ns"),
    "machine.branch_latency_us": (MachineConfig, "branch_latency_us"),
    "machine.t_measure_us": (MachineConfig, "t_measure_us"),
    "machine.rz_mode": (MachineConfig, "rz_mode"),
    "trap.f_ax_hz": (TrapConfig, "omega_ax", _TWO_PI),
    "trap.f_rad_hz": (TrapConfig, "omega_rad", _TWO_PI),
    "noise.t2_optical_s": (NoiseConfig, "t2_optical"),
    "noise.t2_ground_s": (NoiseConfig, "t2_ground"),
    "noise.t1_s": (NoiseConfig, "t1"),
    "noise.eps_1q": (NoiseConfig, "eps_1q"),
    "noise.eps_2q": (NoiseConfig, "eps_2q"),
    "noise.spam_prep": (NoiseConfig, "spam_prep"),
    "noise.heating_rate_ref": (NoiseConfig, "heating_rate_ref"),
    "noise.heating_f_ref_hz": (NoiseConfig, "heating_omega_ref", _TWO_PI),
    "noise.heating_alpha": (NoiseConfig, "heating_alpha"),
    "noise.collision_rate": (NoiseConfig, "collision_rate"),
    "noise.gradient_hz_per_um": (NoiseConfig, "gradient_hz_per_um"),
    "noise.gradient_compensated_hz_per_um": (NoiseConfig, "gradient_compensated_hz_per_um"),
    "noise.gradient_compensation": (NoiseConfig, "gradient_compensation"),
    "noise.detection_bright_rate": (DetectionModel, "bright_rate"),
    "noise.detection_window_s": (DetectionModel, "window"),
    "noise.detection_dark_mean": (DetectionModel, "dark_mean"),
    "addressing.kind": (AddressingUnit, "kind"),
    "addressing.w0_um": (AddressingUnit, "w0_um"),
    "addressing.floor": (AddressingUnit, "floor"),
    "addressing.slope_um_per_mhz": (AddressingUnit, "slope_um_per_mhz"),
}


def _schema_entry(cls, name, *scale):
    """A key's (type, default): its field's annotation and default, in the key's unit."""
    default = next(f.default for f in fields(cls) if f.name == name)
    return get_type_hints(cls)[name], default / scale[0] if scale else default


# key -> (type, default).  type is one of float, int, bool, str.  No
# dataclass holds engine.fock_cutoff, so it is the one literal entry.
SCHEMA = {key: _schema_entry(*entry) for key, entry in _KEYS.items()}
SCHEMA["engine.fock_cutoff"] = (int, 10)


def _parse_value(key: str, raw: str):
    typ, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            value = float(raw)
            if math.isnan(value):
                raise SchemaError(f"{key}: must be a number, got {raw!r}")
            return value
        return raw
    except ValueError:
        raise SchemaError(f"{key}: cannot parse {raw!r} as {typ.__name__}")


def default_config() -> dict:
    return {k: d for k, (_, d) in SCHEMA.items()}


def _parse_lines(text: str) -> dict:
    """The keys a config text sets explicitly, parsed against SCHEMA."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in SCHEMA:
            raise SchemaError(f"unknown key {key!r}")
        if key in lines:
            raise SchemaError(f"{key}: set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        out[key] = _parse_value(key, value)
    if out.get("engine.fock_cutoff", 1) < 1:
        raise SchemaError(f"engine.fock_cutoff: must be >= 1, got {out['engine.fock_cutoff']}")
    return out


def parse_config(text: str) -> dict:
    """All keys: the defaults, overlaid with the ones the text sets."""
    return {**default_config(), **_parse_lines(text)}


def load_config(*paths) -> dict:
    """Defaults overlaid with the keys each file sets, in order (None
    skipped), checked where they enter: each section is built once, and a
    value its dataclass rejects raises there, naming the field."""
    cfg = default_config()
    for path in paths:
        if path:
            with open(path, encoding="utf-8") as fh:
                cfg.update(_parse_lines(fh.read()))
    for build in (build_machine, build_trap, build_noise, build_addressing):
        build(cfg)
    return cfg


def dump_config(cfg: dict) -> str:
    """Canonical serialization: sorted keys, round-trip stable.  A None
    value (a field's own default) is left out, as a file leaves it unset."""
    lines = []
    for key in sorted(cfg):
        if key not in SCHEMA:
            raise SchemaError(f"unknown key {key!r}")
        v = cfg[key]
        if v is None:
            continue
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = format(v, ".17g")
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: dict) -> str:
    """Digest of the canonical serialization; stable under key reordering."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Builders: each section is its dataclass made from the keys _KEYS maps to it.
# ---------------------------------------------------------------------------

def _build(cls, cfg: dict, **nested):
    kwargs = {name: cfg[key] * scale[0] if scale else cfg[key]
              for key, (c, name, *scale) in _KEYS.items() if c is cls}
    return cls(**kwargs, **nested)


def build_machine(cfg: dict) -> MachineConfig:
    return _build(MachineConfig, cfg)


def build_trap(cfg: dict) -> TrapConfig:
    return _build(TrapConfig, cfg)


def build_noise(cfg: dict) -> NoiseConfig:
    return _build(NoiseConfig, cfg, detection=_build(DetectionModel, cfg))


def build_addressing(cfg: dict) -> AddressingUnit:
    return _build(AddressingUnit, cfg)
