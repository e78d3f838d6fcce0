"""Wall time of pulse-level MS gate design at a few detunings and gate
lengths.

    python3 tools/ms_scaling.py

On the benchmark's `ms_gate` trap (nu = 2 pi 1.05 MHz, eta 0.095, Fock
cutoff 10) and detunings delta = 2 nu / k for k = 70, 88 and 105, each run
is a cold `calibrate_ms_rabi` for a gate of 1, 4 or 16 closure times
(2 pi / delta each), then one `apply_ms_bichromatic` from Fock 0 at the
solved Rabi frequency.  All runs share one fresh Python process with one
BLAS thread, importing the package from this checkout's src/.  Prints one
JSON line per run: k, the closure times, the gate's step count, its whole
tone periods q and steps past them r (`engine.ms_steps`), the
calibration's gate evaluations (evals) and time (calib_s), the gate's
time (gate_s), their sum (wall_s) and the machine.  Each evaluation
builds the product of the gate's whole steps from half a tone period and
one power by repeated squaring, so calib_s / evals is the cost of one
such build.  The gate reuses the eigenbasis and whole-step product that
the calibration's last evaluation built at the same Rabi frequency, so
gate_s is the per-state work alone.
"""

import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

NU = 2 * math.pi * 1.05e6
ETA, N_MAX = 0.095, 10
KS, CLOSURES = (70, 88, 105), (1, 4, 16)


def run_all() -> None:
    """Time every (k, closures) run in this process; print a line each."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from worker import machine_info

    from iontrap_bench import engine as eng

    machine = machine_info()
    gate, evals = eng.apply_ms_bichromatic, []

    def counted(*args, **kw):
        evals.append(None)
        return gate(*args, **kw)

    eng.apply_ms_bichromatic = counted  # calibrate_ms_rabi looks it up per call
    for k in KS:
        delta = 2.0 * NU / k
        for closures in CLOSURES:
            t = closures * 2.0 * math.pi / delta
            evals.clear()
            t0 = time.perf_counter()
            omega = eng.calibrate_ms_rabi(ETA, delta, t, NU, n_max=N_MAX)
            t1 = time.perf_counter()
            n_evals = len(evals)
            params = eng.BichromaticParams(omega_rabi=omega, nu=NU, delta=delta,
                                           etas=(ETA, ETA), t=t)
            gate(eng.RegisterState(2, phonon=eng.PhononMode(NU, N_MAX)), params)
            t2 = time.perf_counter()
            n_steps, _, q, r = eng.ms_steps(params)
            print(json.dumps({"k": k, "closure_times": closures, "n_steps": n_steps,
                              "q": q, "r": r, "evals": n_evals,
                              "calib_s": round(t1 - t0, 4),
                              "gate_s": round(t2 - t1, 4), "wall_s": round(t2 - t0, 4),
                              "machine": machine}, sort_keys=True), flush=True)


def main() -> int:
    if sys.argv[1:] == ["--run"]:
        run_all()
        return 0
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREADS)
    return subprocess.run([sys.executable, os.path.abspath(__file__), "--run"],
                          env=env, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
