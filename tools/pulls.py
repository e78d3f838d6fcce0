"""Pulls of the RB gate error, the gate-decay per-gate fidelity and the
GHZ population P, contrast C and fidelity F over many seeds, at the
benchmark's `characterization` settings.

    python3 tools/pulls.py [K]

Runs K passes (default 100) of `run_rb`, `run_gate_decay` and `run_ghz`, at
seeds 0, 1000, ..., 1000 (K - 1), with the shots, noise, sequence lengths,
gate counts, GHZ size and analysis phases of bench/workloads.py; GHZ runs
with the gate-decay eps_2q and infinite t1 and t2.  The pull of a pass is
(recovered - injected) / reported error: the injected RB gate error is
eps_1q / 2, the injected per-gate fidelity 1 - 0.75 eps_2q, and with
w = 1 - eps_2q the injected GHZ P is w + (1 - w) 2/2**N, C is w and F is
their mean.  Honest 1-sigma errors give pulls of mean 0 and standard
deviation 1.  All passes share one fresh Python process with one BLAS
thread, importing the package from this checkout's src/.  Prints one JSON
line per quantity: K, the mean pull, its standard error, the standard
deviation, and the machine.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED_SPACING = 1000


def run_all(k_passes: int) -> None:
    """Run every pass in this process; print one line per quantity."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import numpy as np
    import workloads as w
    from worker import machine_info

    from iontrap_bench import engine as eng
    from iontrap_bench import experiments as exp

    def pulls(kind, noise, run, targets):
        """{name: pulls} of every (name, value, error key, injected) in
        targets, each read from the same K runs."""
        out = {name: [] for name, *_ in targets}
        for k in range(k_passes):
            spec = exp.ExperimentSpec(kind, noise=noise, shots=w.CHAR_SHOTS[kind],
                                      seed=SEED_SPACING * k)
            extra = run(spec).extra
            for name, value, error, injected in targets:
                out[name].append((value(extra) - injected) / extra[error])
        return {name: np.array(p) for name, p in out.items()}

    w_ghz = 1.0 - w.GATE_EPS_2Q
    p_ghz = w_ghz + (1.0 - w_ghz) * 2.0 / 2**w.GHZ_N
    quantities = {
        **pulls("rb", eng.NoiseConfig(eps_1q=w.RB_EPS), lambda s: exp.run_rb(s, w.RB_LENGTHS),
                [("rb gate error", lambda x: 1.0 - x["gate_fidelity"], "gate_fidelity_err",
                  w.RB_EPS / 2.0)]),
        **pulls("gate_decay", eng.NoiseConfig(eps_2q=w.GATE_EPS_2Q),
                lambda s: exp.run_gate_decay(s, w.GATE_COUNTS),
                [("gate_decay per-gate fidelity", lambda x: x["per_gate_fidelity"],
                  "per_gate_fidelity_err", 1.0 - 0.75 * w.GATE_EPS_2Q)]),
        **pulls("ghz", eng.NoiseConfig(eps_2q=w.GATE_EPS_2Q, t1=math.inf, t2_optical=math.inf,
                                       t2_ground=math.inf),
                lambda s: exp.run_ghz(s, w.GHZ_N, w.GHZ_PHASES),
                [(f"ghz {key}", lambda x, key=key: x[key], f"{key}_err", injected)
                 for key, injected in (("P", p_ghz), ("C", w_ghz),
                                       ("F", (p_ghz + w_ghz) / 2.0))])}
    machine = machine_info()
    for name, pulls in quantities.items():
        sd = float(np.std(pulls, ddof=1))
        print(json.dumps({"quantity": name, "passes": k_passes,
                          "mean_pull": round(float(np.mean(pulls)), 3),
                          "mean_pull_se": round(sd / math.sqrt(k_passes), 3),
                          "sd": round(sd, 3), "machine": machine}, sort_keys=True),
              flush=True)


def main() -> int:
    if sys.argv[1:2] == ["--run"]:
        run_all(int(sys.argv[2]))
        return 0
    k_passes = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    if k_passes < 2:
        raise SystemExit("error: need K >= 2 passes for a standard deviation")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREADS)
    return subprocess.run([sys.executable, os.path.abspath(__file__), "--run",
                           str(k_passes)], env=env, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
