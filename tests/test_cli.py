"""End-to-end CLI: every subcommand, deterministic artifacts, error paths."""

import json
import os
import subprocess
import sys

import pytest

import iontrap_bench
from iontrap_bench.cli import main

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
    out = tmp_path / "chain.csv"
    assert main(["chain", "--n", "3", "--fax", "450e3", "--out", str(out)]) == 0
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


def test_compile_schedule_json(tmp_path, circuit_file):
    out = tmp_path / "schedule.json"
    assert main(["compile", "--circuit", circuit_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    kinds = [e["kind"] for e in data["events"]]
    assert kinds == ["carrier", "bichromatic", "measure"]
    assert data["n_qubits"] == 2


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
    cfg.write_text("noise.t2_ground_s = 0.010\nexperiment.shots = 150\n")
    d = tmp_path / "out"
    assert main(["experiment", "ramsey", "--noise", str(cfg),
                 "--qubit-kind", "ground", "--seed", "3", "--out", str(d)]) == 0
    summary = json.loads((d / "summary.json").read_text())
    t2 = summary["t2_s"]
    assert abs(t2 - 0.010) / 0.010 < 0.35


def test_fit_subcommand(tmp_path, capsys):
    data = tmp_path / "points.csv"
    rows = ["x,y,yerr,shots"]
    for x in range(9):
        rows.append(f"{x},{3.1 * x - 0.2},0.01,100")
    data.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--model", "linear", "--data", str(data)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fit"]["params"]["slope"]["value"] == pytest.approx(3.1)


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


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(iontrap_bench.__file__))
    code = "import sys, iontrap_bench.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "False\n"


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
                                  "MS -inf 0,1", "BRANCH m0 q0=bright { R inf 0 0 }"])
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
        argv = ["experiment", "ramsey", "--noise", str(cfg), "--shots", "10", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t") and "must be positive" in err
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
        argv = argv + ["--noise", str(cfg), "--shots", "10"]
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert not os.path.exists(out)
