"""SHA-256 of every file the CLI writes for a fixed set of runs, so a
byte-identity claim is one command run on two checkouts.

    python3 tools/output_digests.py > parent.json    # on one checkout
    python3 tools/output_digests.py --against parent.json    # on the other

Runs, each in a fresh Python process importing the package from this
checkout's src/, with one BLAS thread, inside one temporary directory;
a run that reads a config file names it with `--config`:

- `chain_10`: `chain --n 10` at `trap.f_ax_hz = 450e3` (the default
  1 MHz trap buckles 10 ions into a zigzag), and `chain_57`: `chain --n 57`
  at `trap.f_ax_hz = 1e5`, a chain long enough that the Newton solver stops
  at its roundoff floor, both at `trap.f_rad_hz = 3e6`;
- `compile` of COMPILE_CIRCUIT on 3 qubits, in both rz_modes;
- `simulate` of criterion 11's Bell circuit (2 qubits, 100 shots, seed 11)
  and of a 12-ion GHZ circuit (200 shots, seed 3), the runs that
  tests/test_cli.py pins;
- `simulate_noisy`: `simulate` of COMPILE_CIRCUIT on 3 qubits with SPAM,
  1-qubit and MS depolarizing on (400 shots, seed 4), so that the SPAM
  start, the depolarizing channel and a branch body run;
- `simulate_idle`: `simulate` of IDLE_CIRCUIT on 4 qubits (400 shots,
  seed 5), whose two 50 ms waits give a T1 jump probability of about
  0.042 a qubit, so that about 16% of the shots of each wait take the
  per-qubit jump rule on a multi-qubit register;
- every `experiment` kind at its CLI defaults, where every noise eps is 0;
- `experiment_rb_noisy` and `experiment_gate_decay_noisy`: `experiment rb`
  with a `--config` of `noise.eps_1q = 0.002` and `experiment
  gate_decay` with `noise.eps_2q = 0.01`, so that RB's inverse Clifford
  and pulse-slot count and the gate-decay weight reach the outputs;
- `experiment_gate_decay_dim` and `experiment_ghz_dim`: `experiment
  gate_decay` and `experiment ghz` with `noise.detection_bright_rate =
  2e4`, so that the bright-ion readout error, which underflows to 0 at the
  default rate, reaches the outputs;
- `experiment_ghz_noisy`: `experiment ghz` with `noise.eps_2q = 0.05`, so
  that the GHZ state's depolarizing weight reaches the outputs;
- `experiment_ghz_eps1q` and `experiment_gate_decay_eps1q`: `experiment
  ghz` and `experiment gate_decay` with `noise.eps_1q = 0.05`, so that the
  analysis pulses' depolarizing weight reaches the outputs;
- `experiment_rb_dim`, `experiment_addressing_scan_dim`,
  `experiment_thermometry_dim` and `experiment_heating_dim`: those kinds
  under DIM_READOUT, whose flip pair (e0, e1) is about (0.019, 0.082), RB
  also at `noise.eps_1q = 0.002`, so that the one-ion readout law they
  read their shots through reaches the outputs.

Paths passed to the CLI are relative to that directory, so manifests hold
no temporary name.  Prints one JSON line: "<run>/<file>" -> digest, and
the machine.  With --against FILE, a saved line of an earlier run, it also
names on stderr every file whose digest differs or that either run lacks,
and exits 1 if there is one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Global and addressed carriers, frame_advance or ac_stark, MS with nonzero
# frames, a branch body with RZ and MEASURE, an empty body, a zero-angle RZ.
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
BELL = """PREPARE
R 1.5707963267948966 0.0 all
MS 0.7853981633974483 0,1 axial
MEASURE m0
"""
GHZ = """PREPARE
MS 0.7853981633974483 all
R 1.5707963267948966 0.0 all
MEASURE m0
"""
# A Ramsey-like sequence on every ion around an MS gate, with two long waits.
IDLE_CIRCUIT = """PREPARE
R 1.5707963267948966 0 all
DELAY 50000
MS 0.7853981633974483 all
DELAY 50000
R 1.5707963267948966 0.5 all
MEASURE m0
"""
EXPERIMENT_KINDS = ("ramsey", "gradient", "rb", "thermometry", "heating",
                    "ghz", "gate_decay", "addressing_scan")
# A dim readout with no decay in the window.
DIM_READOUT = ("noise.detection_bright_rate = 2e4", "noise.detection_dark_mean = 1",
               "noise.t1_s = inf")


def _write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _cli(workdir: str, *argv: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "iontrap_bench.cli", *argv], cwd=workdir,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} failed: {proc.stderr.strip()}")


def runs(workdir: str) -> list:
    """(run name, argv) of every CLI run; writes the inputs they read."""
    out = []
    for n, f_ax in ((10, "450e3"), (57, "1e5")):
        trap = _write(workdir, f"chain_{n}.cfg", f"trap.f_ax_hz = {f_ax}\ntrap.f_rad_hz = 3e6\n")
        out.append((f"chain_{n}", ["chain", "--n", str(n), "--config", trap,
                                   "--out", f"chain_{n}/chain.csv"]))
    circuit = _write(workdir, "compile.circ", COMPILE_CIRCUIT)
    for mode in ("virtual", "ac_stark"):
        cfg = _write(workdir, f"{mode}.cfg", f"machine.n_qubits = 3\nmachine.rz_mode = {mode}\n")
        out.append((f"compile_{mode}", ["compile", "--circuit", circuit, "--config", cfg,
                                        "--out", f"compile_{mode}/schedule.json"]))
    for name, text, n, shots, seed in (("bell", BELL, 2, 100, 11), ("ghz_12", GHZ, 12, 200, 3),
                                       ("idle", IDLE_CIRCUIT, 4, 400, 5)):
        circ = _write(workdir, f"{name}.circ", text)
        cfg = _write(workdir, f"{name}.cfg", f"machine.n_qubits = {n}\n")
        out.append((f"simulate_{name}", ["simulate", "--circuit", circ, "--config", cfg,
                                         "--shots", str(shots), "--seed", str(seed),
                                         "--out", f"simulate_{name}"]))
    cfg = _write(workdir, "noisy.cfg", "machine.n_qubits = 3\nnoise.spam_prep = 0.05\n"
                 "noise.eps_1q = 0.02\nnoise.eps_2q = 0.05\n")
    out.append(("simulate_noisy", ["simulate", "--circuit", circuit, "--config", cfg,
                                   "--shots", "400", "--seed", "4", "--out", "simulate_noisy"]))
    out += [(f"experiment_{kind}", ["experiment", kind, "--out", f"experiment_{kind}"])
            for kind in EXPERIMENT_KINDS]
    for name, kind, *lines in (
            ("rb_noisy", "rb", "noise.eps_1q = 0.002"),
            ("gate_decay_noisy", "gate_decay", "noise.eps_2q = 0.01"),
            ("gate_decay_dim", "gate_decay", "noise.detection_bright_rate = 2e4"),
            ("ghz_dim", "ghz", "noise.detection_bright_rate = 2e4"),
            ("ghz_noisy", "ghz", "noise.eps_2q = 0.05"),
            ("ghz_eps1q", "ghz", "noise.eps_1q = 0.05"),
            ("gate_decay_eps1q", "gate_decay", "noise.eps_1q = 0.05"),
            ("rb_dim", "rb", "noise.eps_1q = 0.002", *DIM_READOUT),
            *((f"{kind}_dim", kind, *DIM_READOUT)
              for kind in ("addressing_scan", "thermometry", "heating"))):
        overlay = _write(workdir, f"{name}.cfg", "".join(line + "\n" for line in lines))
        out.append((f"experiment_{name}", ["experiment", kind, "--config", overlay,
                                           "--out", f"experiment_{name}"]))
    return out


def differences(digests: dict, saved: dict) -> list:
    """One line per file that differs between two runs or is in one only."""
    out = []
    for name in sorted(digests.keys() | saved.keys()):
        if name not in saved:
            out.append(f"{name}: not in the saved run")
        elif name not in digests:
            out.append(f"{name}: missing from this run")
        elif digests[name] != saved[name]:
            out.append(f"{name}: differs")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="FILE",
                    help="compare with the JSON line a saved run printed")
    args = ap.parse_args()
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            saved = json.load(fh)["digests"]
    os.environ.update(THREADS)  # for the runs, and before machine_info loads numpy
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from worker import machine_info

    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in runs(workdir):
            _cli(workdir, *argv)
            run_dir = os.path.join(workdir, name)
            for fname in sorted(os.listdir(run_dir)):
                with open(os.path.join(run_dir, fname), "rb") as fh:
                    digests[f"{name}/{fname}"] = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps({"digests": digests, "machine": machine_info()}, sort_keys=True))
    if saved is None:
        return 0
    diff = differences(digests, saved)
    for line in diff:
        print(line, file=sys.stderr)
    same = sum(saved.get(name) == digest for name, digest in digests.items())
    print(f"{same} of {len(digests)} digests equal the saved run's", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
