"""End-to-end CLI: every subcommand, deterministic artifacts, error paths."""

import ast
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import iontrap_bench
from iontrap_bench import cli
from iontrap_bench import engine as eng
from iontrap_bench import experiments as exp
from iontrap_bench.cli import main
from iontrap_bench.config import SCHEMA, config_digest, load_config

CIRCUIT = """PREPARE
R 1.5707963267948966 0.0 all
MS 0.7853981633974483 0,1 axial
MEASURE m0
"""


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "bell.circ"
    path.write_text(CIRCUIT)
    return str(path)


def test_chain_csv_output(tmp_path, capsys):
    out, cfg = tmp_path / "chain.csv", tmp_path / "trap.cfg"
    cfg.write_text("trap.f_ax_hz = 450e3\n")
    assert main(["chain", "--n", "3", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ion_index,position_um"
    assert lines[4] == "mode_index,freq_hz,direction"
    # 3 positions + header, then 3 axial and 3 radial modes
    assert sum(l.endswith(",axial") for l in lines) == 3
    assert sum(l.endswith(",radial") for l in lines) == 3
    freq0 = float(lines[5].split(",")[1])
    assert freq0 == pytest.approx(450e3, rel=1e-9)


def test_chain_stdout(capsys):
    assert main(["chain", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("ion_index,position_um")


# Output of the Ca-40 chain at these arguments, pinned bitwise (SHA-256
# c594e5eebce950824b29bdb2b10e2d6c04db0ff2015199fd55d9e2f4b0979dc1).
CHAIN_11_ION_CSV = """\
ion_index,position_um
0,-23.105703333337374
1,-17.395818273522536
2,-12.606125035150365
3,-8.2319615614196913
4,-4.0697899736147409
5,8.7057468937823227e-16
6,4.0697899736147427
7,8.231961561419693
8,12.606125035150365
9,17.395818273522536
10,23.105703333337374
mode_index,freq_hz,direction
0,449999.99999999953,axial
1,779422.86340599461,axial
2,1087864.586054113,axial
3,1380985.2645291558,axial
4,1662445.5208083566,axial
5,1934842.7868173011,axial
6,2199993.1939444295,axial
7,2459181.1976340725,axial
8,2713343.0244672992,axial
9,2963184.3009467246,axial
10,3209252.8723691218,axial
0,1987862.6714628118,radial
1,2170488.2859189627,radial
2,2328118.2993540782,radial
3,2465251.2891390049,radial
4,2584814.3015116379,radial
5,2688762.1120416229,radial
6,2778378.5640499233,radial
7,2854415.8508487628,radial
8,2917109.0691307131,radial
9,2966057.9899927783,radial
10,3000000,radial
"""


def test_chain_stdout_is_pinned(tmp_path, capsys):
    cfg = tmp_path / "trap.cfg"
    cfg.write_text("trap.f_ax_hz = 450e3\ntrap.f_rad_hz = 3e6\n")
    assert main(["chain", "--n", "11", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == CHAIN_11_ION_CSV


def test_later_config_overrides_the_keys_it_sets(tmp_path, circuit_file, capsys):
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text("trap.f_ax_hz = 2e6\ntrap.f_rad_hz = 3e6\nnoise.spam_prep = 0.5\n")
    second.write_text("trap.f_ax_hz = 450e3\nnoise.spam_prep = 0.01\n")
    assert main(["chain", "--n", "11", "--config", str(first), "--config", str(second)]) == 0
    assert capsys.readouterr().out == CHAIN_11_ION_CSV
    out = tmp_path / "out"
    assert main(["simulate", "--circuit", circuit_file, "--config", str(first),
                 "--config", str(second), "--shots", "10", "--out", str(out)]) == 0
    cfg = load_config(str(first), str(second))
    assert cfg["noise.spam_prep"] == 0.01 and cfg["trap.f_rad_hz"] == 3e6
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provenance"]["config_digest"] == config_digest(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"] == config_digest(cfg)
    assert manifest["inputs"] == sorted([circuit_file, str(first), str(second)])


def test_compile_schedule_json(tmp_path, circuit_file):
    out = tmp_path / "schedule.json"
    assert main(["compile", "--circuit", circuit_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    kinds = [e["kind"] for e in data["events"]]
    assert kinds == ["carrier", "bichromatic", "measure"]
    assert data["n_qubits"] == 2


# Every event kind and optional field: global and addressed carriers, a
# frame_advance or ac_stark RZ, MS with nonzero frames, a branch body with
# RZ and MEASURE, an empty body and a zero-angle RZ.
COMPILE_CIRCUIT = """PREPARE
R 1.5707963267948966 0 all
RZ 1.047 0
R 0.3 0.2 all
MS 0.7853981633974483 0,1 radial
MS 0.5 all
DELAY 50
MEASURE m0
BRANCH m0 q0=bright q2=dark { R 3.141592653589793 0 0 ; RZ 0.5 1 ; MEASURE m1 }
BRANCH m0 q1=dark { }
RZ 0.0 2
MEASURE m2
"""


# SHA-256 of the schedule JSON, pinned bitwise in both RZ modes.
@pytest.mark.parametrize("rz_mode, digest", [
    ("virtual", "5c595a276bdcd8cfcefa9e49e6e8375ff958cc6e9f537458378b8468846d5fbf"),
    ("ac_stark", "0d626f605278c5625662b9b953820048fe432bfa4ce7edfa4895c92f6f3a137a"),
])
def test_compile_schedule_json_is_pinned(tmp_path, rz_mode, digest):
    circ, cfg, out = tmp_path / "c.circ", tmp_path / "m.cfg", tmp_path / "schedule.json"
    circ.write_text(COMPILE_CIRCUIT)
    cfg.write_text(f"machine.n_qubits = 3\nmachine.rz_mode = {rz_mode}\n")
    assert main(["compile", "--circuit", str(circ), "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_deterministic_across_threads(tmp_path, circuit_file):
    outs = {}
    for name, threads in (("t1", "1"), ("t4", "4"), ("t1b", "1")):
        d = tmp_path / name
        assert main(["simulate", "--circuit", circuit_file, "--shots", "50",
                     "--seed", "5", "--threads", threads, "--out", str(d)]) == 0
        outs[name] = (d / "shots.csv").read_bytes()
    assert outs["t1"] == outs["t4"] == outs["t1b"]
    summary = json.loads((tmp_path / "t1" / "summary.json").read_text())
    assert summary["shots"] == 50
    assert summary["provenance"]["seed"] == 5


GHZ_CIRCUIT = """PREPARE
MS 0.7853981633974483 all
R 1.5707963267948966 0.0 all
MEASURE m0
"""


# SHA-256 of shots.csv, pinned bitwise: a change to the engine's arithmetic
# must keep every bit and count of these runs (criterion 11's circuit, and
# a 12-ion GHZ state under the default noise).
@pytest.mark.parametrize("circuit, n, shots, seed, digest", [
    (CIRCUIT, 2, 100, 11, "0c79eb0f3fef1e75c3dbf007c90c84caa953f3cd7fc2723c3e650572d0a897b4"),
    (GHZ_CIRCUIT, 12, 200, 3,
     "2ea9e09737db24b197a1d2a77a59c3e0a74ee04bf6e63c1e2fb33b8fc2983386"),
], ids=["criterion_11", "ghz_12"])
def test_simulate_shots_are_pinned(tmp_path, circuit, n, shots, seed, digest):
    circ, cfg, out = tmp_path / "c.circ", tmp_path / "n.cfg", tmp_path / "out"
    circ.write_text(circuit)
    cfg.write_text(f"machine.n_qubits = {n}\n")
    assert main(["simulate", "--circuit", str(circ), "--config", str(cfg),
                 "--shots", str(shots), "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "shots.csv").read_bytes()).hexdigest() == digest


def test_simulate_seed_changes_shots(tmp_path, circuit_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--circuit", circuit_file, "--shots", "50",
          "--seed", "1", "--out", str(a)])
    main(["simulate", "--circuit", circuit_file, "--shots", "50",
          "--seed", "2", "--out", str(b)])
    assert (a / "shots.csv").read_bytes() != (b / "shots.csv").read_bytes()


def test_experiment_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        assert main(["experiment", "rb", "--shots", "200", "--seed", "7",
                     "--out", str(d)]) == 0
        outs.append({f.name: f.read_bytes() for f in d.iterdir()})
    assert outs[0] == outs[1]
    summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert "gate_fidelity" in summary
    assert "decay" in summary["fits"]


def test_experiment_respects_config(tmp_path):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("noise.t2_ground_s = 0.010\n")
    d = tmp_path / "out"
    assert main(["experiment", "ramsey", "--config", str(cfg), "--shots", "150",
                 "--qubit-kind", "ground", "--seed", "3", "--out", str(d)]) == 0
    summary = json.loads((d / "summary.json").read_text())
    t2 = summary["t2_s"]
    assert abs(t2 - 0.010) / 0.010 < 0.35


def test_experiment_shots_key_is_one_error_line(tmp_path, capsys):
    """Shots per point come from --shots alone."""
    cfg, out = tmp_path / "shots.cfg", tmp_path / "out"
    cfg.write_text("experiment.shots = 150\n")
    assert main(["experiment", "ramsey", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "experiment.shots" in err and err.count("\n") == 1
    assert not out.exists()


def test_manifest_names_its_command(tmp_path, circuit_file):
    runs = {"simulate": ["simulate", "--circuit", circuit_file, "--shots", "10"],
            "experiment rb": ["experiment", "rb"],
            "experiment gate_decay": ["experiment", "gate_decay"]}
    for command, argv in runs.items():
        out = tmp_path / command.replace(" ", "_")
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["command"] == command


def test_simulate_pi_pulse_at_large_eps_1q_runs(tmp_path, capsys):
    """eps_1q is charged once per pulse, so any value NoiseConfig accepts
    is a valid depolarizing probability for a pi pulse."""
    circ, cfg, out = tmp_path / "pi.circ", tmp_path / "eps.cfg", tmp_path / "out"
    circ.write_text("PREPARE\nR 3.14159 0 0\nMEASURE m0\n")
    cfg.write_text("noise.eps_1q = 0.6\n")
    assert main(["simulate", "--circuit", str(circ), "--config", str(cfg),
                 "--shots", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_fit_subcommand(tmp_path, capsys):
    data = tmp_path / "points.csv"
    rows = ["x,y,yerr,shots"]
    for x in range(9):
        rows.append(f"{x},{3.1 * x - 0.2},0.01,100")
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--model", "linear", "--data", str(data)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fit"]["params"]["slope"]["value"] == pytest.approx(3.1)


def test_fit_reproduces_addressing_scan_summary(tmp_path, capsys):
    out = tmp_path / "scan"
    assert main(["experiment", "addressing_scan", "--seed", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    capsys.readouterr()
    assert main(["fit", "--model", "gaussian", "--data", str(out / "points.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["fit"] == summary["fits"]["gaussian"]


@pytest.mark.parametrize("text", ["", "x,y,yerr\n",
                                  "x,y,yerr\n0,0.1,0.01\n1,nan,0.01\n2,6.0,0.01\n",
                                  "x,y,yerr\n0,0.1,0.01\ninf,3.0,0.01\n2,6.0,0.01\n",
                                  "x,y,yerr\n0,0.1,0.01\n2,3\n3,6.0,0.01\n"],
                         ids=["empty", "header_only", "nan_y", "inf_x", "short_row"])
def test_fit_rejects_empty_or_nonfinite_points(tmp_path, capsys, text):
    data = tmp_path / "points.csv"
    data.write_text(text)
    assert main(["fit", "--model", "linear", "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("model, text, message", [
    ("fringe", "x,y,yerr\n0,0.5,0.1\n1,0.7,0.1\n", "need >= 3 points"),
    ("linear", "x,y,yerr\n1,0.5,0.1\n1,0.7,0.1\n1,0.3,0.1\n", "need >= 2 distinct x values"),
    ("power_law", "x,y,yerr\n1,0.5,0.1\n1,0.7,0.1\n1,0.3,0.1\n",
     "need >= 2 distinct x values"),
], ids=["fringe_2_rows", "linear_one_x", "power_law_one_x"])
def test_underdetermined_fit_is_one_error_line(tmp_path, capsys, model, text, message):
    data = tmp_path / "points.csv"
    data.write_text(text)
    assert main(["fit", "--model", model, "--data", str(data), "--frequency", "1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("frequency", ["nan", "inf"])
def test_fit_fringe_nonfinite_frequency_is_one_error_line(tmp_path, capfd, frequency):
    data = tmp_path / "points.csv"
    data.write_text("x,y,yerr\n0,0.5,0.1\n1,0.7,0.1\n2,0.3,0.1\n3,0.5,0.1\n")
    assert main(["fit", "--model", "fringe", "--data", str(data),
                 "--frequency", frequency]) == 1
    captured = capfd.readouterr()  # file descriptors: LAPACK writes to the C stdout
    assert captured.out == ""
    assert captured.err == f"error: frequency must be finite, got {frequency}\n"


def test_cli_import_leaves_out_scipy_stats():
    """Importing the CLI loads none of the scipy modules that only a fit,
    a readout law or a test reads: scipy.stats, scipy.optimize and
    scipy.constants."""
    src = os.path.dirname(os.path.dirname(iontrap_bench.__file__))
    code = ("import sys, iontrap_bench.cli; print([m for m in ('scipy.stats', "
            "'scipy.optimize', 'scipy.constants') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "[]\n"


def test_cli_error_paths(tmp_path, capsys):
    assert main(["compile", "--circuit", str(tmp_path / "missing.circ")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.circ"
    bad.write_text("FOO 1 2\n")
    assert main(["compile", "--circuit", str(bad)]) == 1
    assert main(["chain", "--n", "0"]) == 1


def test_simulate_all_shots_invalid_is_one_error_line(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "collide.cfg"
    cfg.write_text("noise.collision_rate = 1e9\n")
    assert main(["simulate", "--circuit", circuit_file, "--config", str(cfg),
                 "--shots", "20", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no valid shots") and err.count("\n") == 1


def test_simulate_zero_shots_is_one_error_line(tmp_path, circuit_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--circuit", circuit_file, "--shots", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: shots must be >= 1, got 0\n"
    assert not out.exists()


def test_simulate_shots_over_the_ceiling_is_one_error_line(tmp_path, circuit_file, capsys,
                                                           monkeypatch):
    """The ceiling is checked before any chunk builds its state."""
    def no_state(*args, **kwargs):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(eng, "RegisterState", no_state)
    cap, out = eng.max_shots(2), tmp_path / "out"
    assert main(["simulate", "--circuit", circuit_file, "--shots", str(cap + 1),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: shots must be <= {cap} on 2 qubits (the results' memory cap), "
                   f"got {cap + 1}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("simulate --circuit {circuit}", "machine.n_qubits = 40\n",
     "n_qubits must be >= 1 and <= 26 (the memory cap on a state), got 40"),
    ("experiment ghz --ghz-n 31", "", "state exceeds the memory cap: need N <= 26, got 31"),
    ("experiment ghz --ghz-n 24", "", "a state was built")], ids=["n_qubits", "ghz_n", "ghz_24"])
def test_qubits_over_the_ceiling_are_one_error_line(tmp_path, circuit_file, capsys, monkeypatch,
                                                     command, config, message):
    """machine.n_qubits and --ghz-n are checked against the ceiling where
    they enter, before any state is built; --ghz-n 24 passes the check."""
    def no_state(*args, **kwargs):
        raise MemoryError("a state was built")

    monkeypatch.setattr(eng, "RegisterState", no_state)
    cfg, out = tmp_path / "big.cfg", tmp_path / "out"
    cfg.write_text(config)
    argv = command.format(circuit=circuit_file).split()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, nbar, name", [("thermometry", "-1", "nbar_true"),
                                              ("thermometry", "nan", "nbar_true"),
                                              ("heating", "-1", "nbar0"),
                                              ("heating", "nan", "nbar0"),
                                              ("heating", "inf", "nbar0")])
def test_unphysical_nbar_is_one_error_line(tmp_path, capsys, kind, nbar, name):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["experiment", kind, "--nbar", nbar, "--shots", "10", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must") and err.count("\n") == 1
    assert not out.exists()


# A NaN never reaches the trap: the config parser names its key.  A negative
# waist or floor is an error, not a request for the kind's default.
@pytest.mark.parametrize("argv, config, message", [
    (["chain", "--n", "3"], "trap.f_rad_hz = inf\n", "omega_rad must be finite and positive"),
    (["chain", "--n", "1"], "trap.f_ax_hz = nan\n", "trap.f_ax_hz: must be a number"),
    (["chain", "--n", "3"], "trap.f_ax_hz = inf\n", "omega_ax must be finite and positive"),
    (["experiment", "addressing_scan"], "addressing.w0_um = inf\n",
     "w0_um must be finite and positive"),
    (["experiment", "addressing_scan"], "addressing.w0_um = -1\n",
     "w0_um must be finite and positive"),
    (["experiment", "addressing_scan"], "addressing.floor = -0.5\n", "floor must lie in"),
], ids=["frad_inf", "fax_nan", "fax_inf", "w0_inf", "w0_negative", "floor_negative"])
def test_nonfinite_trap_or_beam_is_one_error_line(tmp_path, capfd, argv, config, message):
    out, cfg = tmp_path / "out", tmp_path / "beam.cfg"
    cfg.write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config", ["noise.heating_alpha = 1e300\n",
                                    "noise.heating_f_ref_hz = 1e300\n"],
                         ids=["alpha", "f_ref"])
def test_overflowing_heating_rate_is_one_error_line(tmp_path, capfd, config):
    """The rate at the scan's lowest frequency overflows: rejected before any draw."""
    out, cfg = tmp_path / "out", tmp_path / "heating.cfg"
    cfg.write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["experiment", "heating", "--config", str(cfg), "--shots", "10",
                     "--out", str(out)])
    assert code == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: heating rate at 700000 Hz is not finite: "
                                   "(heating_rate_ref, heating_omega_ref, heating_alpha) = ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e15", "1e18", "1e250"])
def test_heating_rate_past_the_thermal_ceiling_is_one_error_line(tmp_path, capfd, rate):
    """A finite rate whose thermal mean passes experiments.MAX_THERMAL_MEAN
    is rejected before any draw, naming the heating fields."""
    out, cfg = tmp_path / "out", tmp_path / "heating.cfg"
    cfg.write_text(f"noise.heating_rate_ref = {rate}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["experiment", "heating", "--config", str(cfg), "--shots", "10",
                     "--out", str(out)])
    assert code == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: thermal mean ")
    assert "heating_rate_ref" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


# Both ends of addressing.W0_RANGE_UM run; a waist past either end is one error.
@pytest.mark.parametrize("w0, code", [("1e300", 1), ("1e-300", 1), ("1e-3", 0), ("1e4", 0)])
def test_waist_outside_the_scans_range_is_one_error_line(tmp_path, capfd, w0, code):
    out, cfg = tmp_path / "out", tmp_path / "beam.cfg"
    cfg.write_text(f"addressing.w0_um = {w0}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "addressing_scan", "--config", str(cfg),
                     "--out", str(out)]) == code
    captured = capfd.readouterr()
    if code:
        assert captured.err.startswith("error: w0_um must lie in [0.001, 10000] um")
        assert captured.err.count("\n") == 1
        assert not out.exists()
    else:
        assert captured.err == ""


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--circuit", None], "trap.f_ax_hz = -5\n"),
    (["compile", "--circuit", None], "trap.f_ax_hz = -5\n"),
    (["experiment", "gate_decay"], "trap.f_ax_hz = 0\nengine.fock_cutoff = 100000\n"),
], ids=["simulate", "compile", "gate_decay"])
def test_config_is_checked_where_it_enters(tmp_path, circuit_file, capfd, argv, config):
    """Every section is built when the config loads, the trap too, which
    none of these commands reads."""
    cfg = tmp_path / "trap.cfg"
    cfg.write_text(config)
    argv = [circuit_file if a is None else a for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: omega_ax must be finite and positive")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n, config, name", [
    ("3", "trap.f_ax_hz = 1e300\n", "omega_ax must"),
    ("2", "trap.f_rad_hz = 1e300\n", "omega_rad must"),
    ("3", "trap.f_ax_hz = 1e-300\n", "omega_ax must"),
    ("2", "trap.f_ax_hz = 1e-150\ntrap.f_rad_hz = 1e150\n", "omega_rad / omega_ax must"),
], ids=["fax_square_overflows", "frad_square_overflows", "fax_square_underflows",
        "ratio_square_overflows"])
def test_chain_frequency_whose_square_is_not_a_float_is_one_error_line(tmp_path, capfd, n,
                                                                        config, name):
    cfg = tmp_path / "trap.cfg"
    cfg.write_text(config)
    assert main(["chain", "--n", n, "--config", str(cfg)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}") and captured.err.count("\n") == 1


def test_simulate_zero_qubit_register_is_one_error_line(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("machine.n_qubits = 0\n")
    assert main(["simulate", "--circuit", circuit_file, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_qubits must be >= 1") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["R 1.0", "MS 0.5", "DELAY",
                                  "BRANCH m0 q0 { R 1 0 0 }",
                                  "BRANCH m0 q0=grey { R 1 0 0 }",
                                  "BRANCH m0 q0=bright { R 1 }",
                                  "RZ nan 0", "DELAY inf", "R nan 0.0 0",
                                  "MS -inf 0,1", "BRANCH m0 q0=bright { R inf 0 0 }",
                                  "R 1e308 0.0 0", "DELAY 1e308", "R 1.57 0.0 0 1",
                                  "RZ 1 0 2", "MS 0.5 0,1 axial 1", "PREPARE all",
                                  "BRANCH m0 q0=bright { RZ 1 0 1 }"])
def test_malformed_circuit_line_is_one_error_line(tmp_path, capsys, line):
    bad = tmp_path / "bad.circ"
    bad.write_text(f"PREPARE\nMEASURE m0\n{line}\n")
    assert main(["compile", "--circuit", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "ramsey"])
@pytest.mark.parametrize("key", ["noise.t1_s", "noise.t2_optical_s", "noise.t2_ground_s"])
def test_zero_lifetime_is_one_error_line(tmp_path, circuit_file, capsys, command, key):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"{key} = 0\n")
    out = str(tmp_path / "out")
    if command == "simulate":
        argv = ["simulate", "--circuit", circuit_file, "--config", str(cfg), "--out", out]
    else:
        argv = ["experiment", "ramsey", "--config", str(cfg), "--shots", "10", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t") and "must be positive" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "1e308"])
def test_ramsey_without_finite_waits_is_one_error_line(tmp_path, capsys, value):
    cfg = tmp_path / "t2.cfg"
    cfg.write_text(f"noise.t2_ground_s = {value}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["experiment", "ramsey", "--config", str(cfg), "--shots", "10",
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ramsey waits span 0.1-2.2 T2 and need a finite T2")
    assert err.count("\n") == 1
    assert not out.exists()


def test_detection_window_overflow_is_one_error_line(tmp_path, circuit_file, capsys):
    cfg = tmp_path / "window.cfg"
    cfg.write_text("noise.detection_window_s = 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--circuit", circuit_file, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bright_rate * window + dark_mean must be finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, name", [("noise.detection_window_s", "window"),
                                       ("noise.detection_bright_rate", "bright_rate")])
def test_readout_without_signal_is_one_error_line(tmp_path, circuit_file, capsys, key, name):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text(f"{key} = 0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--circuit", circuit_file, "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be finite and positive") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value, name", [
    ("noise.detection_dark_mean", "1e19", "dark_mean"),
    ("noise.detection_bright_rate", "1e300", "bright_rate * window + dark_mean")])
def test_mean_past_numpy_poisson_limit_is_one_error_line(tmp_path, circuit_file, capsys,
                                                         key, value, name):
    # numpy's Poisson sampler takes means up to about 9.22e18.
    cfg = tmp_path / "mean.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--circuit", circuit_file, "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be at most 9.223e+18") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["experiment", "gradient"], "noise.gradient_compensated_hz_per_um"),
    (["experiment", "heating"], "noise.heating_rate_ref"),
    (["simulate"], "noise.collision_rate"),
    (["simulate"], "noise.detection_dark_mean")])
def test_nan_noise_value_is_one_error_line(tmp_path, circuit_file, capsys, argv, key):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"{key} = nan\n")
    out = str(tmp_path / "out")
    if argv[0] == "simulate":
        argv = argv + ["--circuit", circuit_file, "--config", str(cfg)]
    else:
        argv = argv + ["--config", str(cfg), "--shots", "10"]
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [["simulate"], ["experiment", "rb"],
                                  ["experiment", "ramsey"]], ids=["simulate", "rb", "ramsey"])
def test_negative_seed_is_one_error_line(tmp_path, circuit_file, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "simulate":
        argv = argv + ["--circuit", circuit_file]
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_rb_with_fewer_shots_than_sequences_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["experiment", "rb", "--shots", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rb needs shots >= 20") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n", range(2, 25))
def test_ghz_default_phases_resolve_the_fringe(n):
    phases = cli._ghz_phases(n)
    design = np.column_stack([np.ones_like(phases), np.cos(n * phases), np.sin(n * phases)])
    assert np.linalg.matrix_rank(design) == 3
    assert phases.max() - phases.min() == pytest.approx(2.0 * math.pi / n)


@pytest.mark.parametrize("n", [8, 16])
def test_experiment_ghz_at_default_phases_sees_the_fringe(tmp_path, n):
    # Over 2 pi the parity fit of these N has no sin quadrature: F near 0.5.
    out = tmp_path / "ghz"
    assert main(["experiment", "ghz", "--ghz-n", str(n), "--shots", "100",
                 "--seed", "0", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["F"] > 0.9 and summary["witness"]


def _args_read(name: str, defs: dict) -> set:
    """Attributes of `args` read by the module-level definition `name` of
    cli.py and by every module-level definition it names, transitively."""
    read, seen, todo = set(), set(), [name]
    while todo:
        node = defs.get(todo.pop())
        if node is None or node in seen:
            continue
        seen.add(node)
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"):
                read.add(sub.attr)
            elif isinstance(sub, ast.Name):
                todo.append(sub.id)
    return read


# Accepted and ignored: the determinism criterion passes --threads to simulate.
UNREAD_OPTIONS = {("simulate", "threads")}


def test_every_cli_option_has_a_reader():
    defs = {}
    for node in ast.parse(inspect.getsource(cli)).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    subparsers = next(a for a in cli._build_parser()._actions
                      if a.dest == "command").choices
    unread = set()
    for command, parser in subparsers.items():
        read = _args_read(f"cmd_{command}", defs)
        unread |= {(command, a.dest) for a in parser._actions
                   if a.dest != "help" and a.dest not in read}
    assert unread == UNREAD_OPTIONS


# No value here sizes an allocation before its check: 40 qubits is refused
# by the state cap before the state exists, and the circuit's one MS table
# spans its two targets only.
_EXTREMES = {float: ["inf", "-inf", "nan", "0", "-1", "1e300", "1e-300", "1e308", "1e-308"],
             int: ["0", "-1", "40"], bool: ["false", "bogus"], str: ["bogus"]}


@pytest.mark.parametrize("key", [k for k, (typ, _) in SCHEMA.items() if typ in _EXTREMES])
def test_extreme_config_value_exits_cleanly(tmp_path, circuit_file, capfd, key):
    """chain, compile, simulate and every experiment kind either succeed
    or print one `error:` line for every extreme value of every key, and
    print nothing else: capfd also catches what C code writes to the file
    descriptors, and a Python warning, which the CLI would print, fails."""
    cfg, out = tmp_path / "x.cfg", str(tmp_path / "out")
    runs = {"chain": ["chain", "--n", "3", "--config", str(cfg),
                      "--out", os.path.join(out, "chain.csv")],
            "compile": ["compile", "--circuit", circuit_file, "--config", str(cfg),
                        "--out", os.path.join(out, "schedule.json")],
            "simulate": ["simulate", "--circuit", circuit_file, "--config", str(cfg),
                         "--shots", "20", "--out", out]}
    runs.update((kind, ["experiment", kind, "--config", str(cfg), "--shots", "20",
                        "--out", out]) for kind in exp.EXPERIMENT_KINDS)
    for value in _EXTREMES[SCHEMA[key][0]]:
        cfg.write_text(f"{key} = {value}\n")
        for name, argv in runs.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            captured = capfd.readouterr()
            assert not caught, (name, value, [str(w.message) for w in caught])
            assert captured.out == "", (name, value, captured.out)
            assert code == 0 or (captured.err.startswith("error: ")
                                 and captured.err.count("\n") == 1), (name, value, captured.err)
            assert code == 1 or captured.err == "", (name, value, captured.err)


@pytest.mark.parametrize("key, value", [("machine.t_ms_us", "inf"),
                                        ("machine.t_measure_us", "1e300")])
def test_machine_duration_out_of_range_is_one_error_line(tmp_path, circuit_file, capsys,
                                                         key, value):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["compile", "--circuit", circuit_file, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key.split('.')[1]} must lie in (0, 1e+09] us")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n, message", [
    ("0", "need N >= 2"), ("1", "need N >= 2"),
    ("31", "state exceeds the memory cap: need N <= 26, got 31")])
def test_ghz_register_size_out_of_range_is_one_error_line(tmp_path, capsys, n, message):
    out = tmp_path / "out"
    assert main(["experiment", "ghz", "--ghz-n", n, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
