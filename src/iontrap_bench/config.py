"""Strict flat-key configuration.  SCHEMA holds the same defaults as the
dataclasses the build_* functions make; a test keeps the two copies equal.

File format: UTF-8 text, one `key = value` per line, '#' comments.
Unknown keys, a NaN float and a fock cutoff below 1 are rejected with
their key path; an infinite float (a lifetime, say) is valid.
"""

from __future__ import annotations

import hashlib
import math

from .addressing import AddressingUnit
from .chain import TrapConfig
from .compiler import MachineConfig
from .engine import DetectionModel, NoiseConfig
from .errors import SchemaError

_TWO_PI = 2.0 * math.pi

# key -> (type, default).  type is one of float, int, bool, str.
SCHEMA = {
    "machine.n_qubits": (int, 2),
    "machine.t_half_pi_us": (float, 15.0),
    "machine.t_ms_us": (float, 200.0),
    "machine.timing_grid_ns": (int, 10),
    "machine.branch_latency_us": (float, 5.0),
    "machine.t_measure_us": (float, 300.0),
    "machine.rz_mode": (str, "virtual"),
    "trap.f_ax_hz": (float, 1.0e6),
    "trap.f_rad_hz": (float, 3.0e6),
    "noise.t2_optical_s": (float, 0.090),
    "noise.t2_ground_s": (float, 0.018),
    "noise.t1_s": (float, 1.168),
    "noise.eps_1q": (float, 0.0),
    "noise.eps_2q": (float, 0.0),
    "noise.spam_prep": (float, 0.0),
    "noise.heating_rate_ref": (float, 0.221),
    "noise.heating_f_ref_hz": (float, 1.05e6),
    "noise.heating_alpha": (float, 1.7),
    "noise.collision_rate": (float, 0.0025),
    "noise.gradient_hz_per_um": (float, 3.1),
    "noise.gradient_compensated_hz_per_um": (float, 0.2),
    "noise.gradient_compensation": (bool, True),
    "noise.detection_bright_rate": (float, 5.0e5),
    "noise.detection_window_s": (float, 3.0e-4),
    "noise.detection_dark_mean": (float, 2.0),
    "engine.fock_cutoff": (int, 10),
    "addressing.kind": (str, "microoptics"),
    "addressing.w0_um": (float, -1.0),  # -1 = kind default (0.81 / 1.09)
    "addressing.floor": (float, -1.0),  # -1 = kind default (0.024 / 0.005)
    "addressing.slope_um_per_mhz": (float, 4.9),
}


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
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in SCHEMA:
            raise SchemaError(f"unknown key {key!r}")
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
    """Canonical serialization: sorted keys, round-trip stable."""
    lines = []
    for key in sorted(cfg):
        if key not in SCHEMA:
            raise SchemaError(f"unknown key {key!r}")
        v = cfg[key]
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
# Builders
# ---------------------------------------------------------------------------

def build_machine(cfg: dict) -> MachineConfig:
    return MachineConfig(
        n_qubits=cfg["machine.n_qubits"],
        t_half_pi_us=cfg["machine.t_half_pi_us"],
        t_ms_us=cfg["machine.t_ms_us"],
        timing_grid_ns=cfg["machine.timing_grid_ns"],
        branch_latency_us=cfg["machine.branch_latency_us"],
        t_measure_us=cfg["machine.t_measure_us"],
        rz_mode=cfg["machine.rz_mode"],
    )


def build_trap(cfg: dict) -> TrapConfig:
    return TrapConfig(omega_ax=_TWO_PI * cfg["trap.f_ax_hz"],
                      omega_rad=_TWO_PI * cfg["trap.f_rad_hz"])


def build_noise(cfg: dict) -> NoiseConfig:
    return NoiseConfig(
        t2_optical=cfg["noise.t2_optical_s"],
        t2_ground=cfg["noise.t2_ground_s"],
        t1=cfg["noise.t1_s"],
        eps_1q=cfg["noise.eps_1q"],
        eps_2q=cfg["noise.eps_2q"],
        spam_prep=cfg["noise.spam_prep"],
        heating_rate_ref=cfg["noise.heating_rate_ref"],
        heating_omega_ref=_TWO_PI * cfg["noise.heating_f_ref_hz"],
        heating_alpha=cfg["noise.heating_alpha"],
        collision_rate=cfg["noise.collision_rate"],
        gradient_hz_per_um=cfg["noise.gradient_hz_per_um"],
        gradient_compensated_hz_per_um=cfg["noise.gradient_compensated_hz_per_um"],
        gradient_compensation=cfg["noise.gradient_compensation"],
        detection=DetectionModel(
            bright_rate=cfg["noise.detection_bright_rate"],
            window=cfg["noise.detection_window_s"],
            dark_mean=cfg["noise.detection_dark_mean"],
        ),
    )


def build_addressing(cfg: dict) -> AddressingUnit:
    w0 = cfg["addressing.w0_um"]
    floor = cfg["addressing.floor"]
    return AddressingUnit(
        kind=cfg["addressing.kind"],
        w0_um=None if w0 < 0 else w0,
        floor=None if floor < 0 else floor,
        slope_um_per_mhz=cfg["addressing.slope_um_per_mhz"],
    )
