"""Strict config parsing and deterministic result serialization."""

import json
import math
import os

import numpy as np
import pytest

from iontrap_bench.addressing import AddressingUnit
from iontrap_bench.chain import TrapConfig
from iontrap_bench.compiler import MachineConfig
from iontrap_bench.config import (SCHEMA, build_addressing, build_machine,
                                  build_noise, build_trap, config_digest,
                                  default_config, dump_config, load_config,
                                  parse_config, write_config)
from iontrap_bench.engine import NoiseConfig
from iontrap_bench.errors import SchemaError
from iontrap_bench.fitting import Dataset, fit_linear
from iontrap_bench.results import (RunManifest, write_points_csv,
                                   write_results, write_shot_records)


def test_defaults_complete_and_buildable():
    cfg = load_config(None)
    assert set(cfg) == set(SCHEMA)
    machine = build_machine(cfg)
    assert machine.n_qubits == 2 and machine.t_half_pi_us == 15.0
    noise = build_noise(cfg)
    assert noise.t2_ground == 0.018 and noise.heating_alpha == 1.7
    trap = build_trap(cfg)
    assert trap.omega_ax == pytest.approx(2 * math.pi * 1e6)
    unit = build_addressing(cfg)
    assert unit.kind == "microoptics" and unit.w0_um == 0.81


def _built(cfg):
    return (build_machine(cfg), build_trap(cfg), build_noise(cfg), build_addressing(cfg))


def test_schema_defaults_equal_dataclass_defaults():
    assert _built(default_config()) == (MachineConfig(), TrapConfig(), NoiseConfig(),
                                        AddressingUnit())


_CHANGED_STR = {"machine.rz_mode": "ac_stark", "addressing.kind": "aod"}


def _changed(key, value):
    """A valid value for key other than its default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return _CHANGED_STR[key]
    if isinstance(value, int):
        return 2 * value
    return 2.0 * value if value > 0 else 0.5


def test_every_key_feeds_a_built_object():
    base = _built(default_config())
    unread = set()
    for key, (_, default) in SCHEMA.items():
        cfg = default_config()
        cfg[key] = _changed(key, default)
        if _built(cfg) == base:
            unread.add(key)
    # experiment.shots is read by the CLI experiment command, and
    # engine.fock_cutoff by the benchmark's ms_gate workload and library
    # callers of the bichromatic gate.
    assert unread == {"experiment.shots", "engine.fock_cutoff"}


@pytest.mark.parametrize("value", ["0", "-5"])
def test_fock_cutoff_below_one_rejected(value):
    with pytest.raises(SchemaError, match="engine.fock_cutoff"):
        parse_config(f"engine.fock_cutoff = {value}")
    assert parse_config("engine.fock_cutoff = 1")["engine.fock_cutoff"] == 1


@pytest.mark.parametrize("key", [k for k, (typ, _) in SCHEMA.items() if typ is float])
def test_nan_float_rejected_and_inf_kept(key):
    for raw in ("nan", "-NaN"):
        with pytest.raises(SchemaError, match=f"^{key}: "):
            parse_config(f"{key} = {raw}")
    assert parse_config(f"{key} = inf")[key] == math.inf


def test_override_and_comments():
    cfg = parse_config("""
    # coherence overlay
    noise.t2_ground_s = 0.025   # seconds
    machine.n_qubits = 4
    noise.gradient_compensation = false
    """)
    assert cfg["noise.t2_ground_s"] == 0.025
    assert cfg["machine.n_qubits"] == 4
    assert cfg["noise.gradient_compensation"] is False
    assert build_noise(cfg).t2("ground") == 0.025


def test_unknown_key_rejected_with_path():
    with pytest.raises(SchemaError) as err:
        parse_config("noise.t2_grond_s = 0.02")
    assert "noise.t2_grond_s" in str(err.value)


def test_bad_value_and_bad_line_rejected():
    with pytest.raises(SchemaError):
        parse_config("machine.n_qubits = banana")
    with pytest.raises(SchemaError):
        parse_config("just some words")
    with pytest.raises(SchemaError):
        parse_config("noise.gradient_compensation = maybe")


def test_round_trip_identity(tmp_path):
    cfg = default_config()
    cfg["noise.t2_ground_s"] = 0.0213456789012345678
    cfg["experiment.shots"] = 777
    path = tmp_path / "cfg.txt"
    write_config(str(path), cfg)
    again = load_config(str(path))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def test_digest_stable_under_reordering():
    cfg = default_config()
    shuffled = dict(reversed(list(cfg.items())))
    assert config_digest(cfg) == config_digest(shuffled)
    changed = dict(cfg)
    changed["experiment.shots"] = 101
    assert config_digest(changed) != config_digest(cfg)


def test_dump_rejects_unknown_key():
    cfg = default_config()
    cfg["bogus.key"] = 1.0
    with pytest.raises(SchemaError):
        dump_config(cfg)


def test_points_csv_format(tmp_path):
    ds = Dataset(np.array([0.1, 0.2]), np.array([1.0 / 3.0, 0.5]),
                 np.array([0.01, 0.02]))
    path = tmp_path / "points.csv"
    write_points_csv(str(path), ds)
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF only
    lines = raw.decode().splitlines()
    assert lines[0] == "x,y,yerr"
    assert lines[1] == f"0.10000000000000001,{1.0 / 3.0:.17g},0.01"


def test_write_results_byte_identical(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    ds = Dataset(x, 2.0 * x + 0.1, np.full(5, 0.01))
    fit = fit_linear(ds)
    manifest = RunManifest(seed=3, config=default_config(), inputs=("a.cfg",))

    def render(d):
        write_results(str(d), {"points": ds}, {"linear": fit}, manifest,
                      extra={"slope": fit["slope"]})
        return {f: (d / f).read_bytes()
                for f in ("points.csv", "summary.json", "manifest.json")}

    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert render(d1) == render(d2)


def test_summary_and_manifest_contents(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    ds = Dataset(x, 2.0 * x, np.full(5, 0.01))
    fit = fit_linear(ds)
    cfg = default_config()
    manifest = RunManifest(seed=9, config=cfg)
    write_results(str(tmp_path), {"points": ds, "aux": ds}, {"linear": fit},
                  manifest)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fits"]["linear"]["params"]["slope"]["value"] == pytest.approx(2.0)
    assert summary["provenance"]["seed"] == 9
    assert summary["provenance"]["config_digest"] == config_digest(cfg)
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert set(man) == {"seed", "config_digest", "tool_version", "inputs", "outputs"}
    assert sorted(man["outputs"]) == ["aux.csv", "points.csv", "summary.json"]
    assert os.path.exists(tmp_path / "aux.csv")


def test_shot_record_csv(tmp_path):
    from iontrap_bench.engine import ShotRecord
    recs = [ShotRecord(0, (1, 0), (151, 3), True),
            ShotRecord(1, (0, 1), (1, 148), False)]
    path = tmp_path / "shots.csv"
    write_shot_records(str(path), recs)
    lines = path.read_text().splitlines()
    assert lines[0] == "shot,bits,counts_q0,counts_q1,valid"
    assert lines[1] == "0,10,151,3,1"
    assert lines[2] == "1,01,1,148,0"
    with pytest.raises(ValueError):
        write_shot_records(str(path), [])
