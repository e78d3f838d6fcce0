"""Strict config parsing and deterministic result serialization."""

import dataclasses
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
                                  parse_config)
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
    if value is None:  # the addressing waist and floor: the kind's own value
        return 0.5
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return _CHANGED_STR[key]
    if isinstance(value, int):
        return 2 * value
    return 2.0 * value if value > 0 else 0.5


def _leaves(obj, path):
    """Every leaf field under obj, a nested dataclass's too: path -> value."""
    if not dataclasses.is_dataclass(obj):
        return {path: obj}
    out = {}
    for f in dataclasses.fields(obj):
        out.update(_leaves(getattr(obj, f.name), f"{path}.{f.name}"))
    return out


def _built_leaves(cfg):
    return {k: v for obj in _built(cfg) for k, v in _leaves(obj, type(obj).__name__).items()}


def test_every_key_feeds_a_built_object():
    """Each key changes some built field, and each leaf field of the four
    built objects is changed by some key."""
    base = _built_leaves(default_config())
    unread, unset = set(), set(base)
    for key, (_, default) in SCHEMA.items():
        cfg = default_config()
        cfg[key] = _changed(key, default)
        moved = {name for name, value in _built_leaves(cfg).items() if value != base[name]}
        if not moved:
            unread.add(key)
        unset -= moved
    # engine.fock_cutoff is read by the benchmark's ms_gate workload and
    # library callers of the bichromatic gate.
    assert unread == {"engine.fock_cutoff"}
    assert unset == set()


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


def test_key_set_twice_in_one_file_rejected(tmp_path):
    text = "noise.eps_1q = 0.1\nmachine.n_qubits = 3\n\nnoise.eps_1q = 0.2\n"
    with pytest.raises(SchemaError, match=r"^noise\.eps_1q: set twice, on lines 1 and 4$"):
        parse_config(text)
    path = tmp_path / "twice.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match="lines 1 and 4"):
        load_config(str(path))


def test_default_dump_omits_the_kind_default_addressing_keys():
    text = dump_config(default_config())
    assert "addressing.w0_um" not in text and "addressing.floor" not in text
    assert parse_config(text) == default_config()


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
    cfg["engine.fock_cutoff"] = 777
    path = tmp_path / "cfg.txt"
    path.write_text(dump_config(cfg), encoding="utf-8")
    again = load_config(str(path))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def test_digest_stable_under_reordering():
    cfg = default_config()
    shuffled = dict(reversed(list(cfg.items())))
    assert config_digest(cfg) == config_digest(shuffled)
    changed = dict(cfg)
    changed["engine.fock_cutoff"] = 101
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
    manifest = RunManifest(seed=9, config=cfg, command="experiment rb")
    write_results(str(tmp_path), {"points": ds, "aux": ds}, {"linear": fit},
                  manifest)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fits"]["linear"]["params"]["slope"]["value"] == pytest.approx(2.0)
    assert summary["provenance"]["seed"] == 9
    assert summary["provenance"]["config_digest"] == config_digest(cfg)
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert set(man) == {"command", "seed", "config_digest", "tool_version", "inputs",
                        "outputs"}
    assert man["command"] == "experiment rb"
    assert sorted(man["outputs"]) == ["aux.csv", "points.csv", "summary.json"]
    assert os.path.exists(tmp_path / "aux.csv")


def test_shot_record_csv(tmp_path):
    from iontrap_bench.engine import Shots
    shots = Shots(np.array([[1, 0], [0, 1]], dtype=np.int8), np.array([[151, 3], [1, 148]]),
                  np.array([True, False]))
    path = tmp_path / "shots.csv"
    write_shot_records(str(path), shots)
    lines = path.read_text().splitlines()
    assert lines[0] == "shot,bits,counts_q0,counts_q1,valid"
    assert lines[1] == "0,10,151,3,1"
    assert lines[2] == "1,01,1,148,0"
    with pytest.raises(ValueError):
        write_shot_records(str(path), Shots(*(a[:0] for a in (shots.bits, shots.counts,
                                                                shots.valid))))


@pytest.mark.parametrize("n", [1, 6, 12])
def test_shot_record_csv_bytes_match_per_field_formatting(tmp_path, n):
    """The arrays write the bytes of formatting each field of their rows on
    its own, for a False valid."""
    from iontrap_bench.engine import Shots
    rng = np.random.default_rng(n)
    bits = rng.integers(2, size=(30, n)).astype(np.int8)
    counts = rng.poisson(20.0, size=(30, n))
    shots = Shots(bits, counts, np.arange(30) % 3 > 0)
    want = "shot,bits," + ",".join(f"counts_q{q}" for q in range(n)) + ",valid\n"
    for r in shots:
        want += (f"{r.shot},{''.join(str(b) for b in r.bits)},"
                 f"{','.join(str(c) for c in r.counts)},{int(r.valid)}\n")
    path = tmp_path / "shots.csv"
    write_shot_records(str(path), shots)
    assert path.read_bytes() == want.encode()
