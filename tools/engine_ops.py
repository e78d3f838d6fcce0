"""Time of each engine operation of a `run_schedule` step, in process.

    python3 tools/engine_ops.py

Times, on a random normalized (shots, 2**n) state at n = 6 with 300 shots
and at n = 16 with 8 shots (one run_schedule chunk's sizes):

- `layer_1q`: one `apply_rotation` on every qubit;
- `ms_table`: `_ms_phase` of an all-qubit MS, built once per MS event and
  run_schedule call;
- `ms`: that MS from its table, the Hadamard layers and the phase;
- `noise_interval`: one `_noise_interval` of 10 us with the default T1 and
  optical T2 and a gradient detuning on every qubit (jump probability
  p = 9e-6 a qubit, so almost no shot draws a uniform below p);
- `noise_interval_long`: the same over 60 ms (p = 0.05), where 5 of the
  8 shots at n = 16 are candidates and take the per-qubit rule, and 2 jump;
- `depolarizing`: `apply_depolarizing` on every qubit at eps 0.05;
- `project_bits` and `detect`.

Each figure is the least of its repeats, in seconds, with one BLAS thread
and the package imported from this checkout's src/.  The state is copied
and the op's generator seeded afresh before each repeat, outside the
timed call, so every repeat, and every checkout, times the same draws.
Prints one JSON line: the figures per size and the machine.
"""

import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIZES = ((6, 300, 50), (16, 8, 10))  # (n, shots, repeats)


def main() -> int:
    os.environ.update(THREADS)  # before numpy loads
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import numpy as np
    from iontrap_bench import engine as eng
    from worker import machine_info

    noise = eng.NoiseConfig()
    sizes = {}
    for n, shots, repeats in SIZES:
        state_rng = np.random.default_rng(0)
        psi = state_rng.normal(size=(shots, 2**n)) + 1j * state_rng.normal(size=(shots, 2**n))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        table = eng._ms_phase(n, range(n), np.ones(n), math.pi / 4)
        detunings = np.linspace(-20.0, 20.0, n)
        ops = {
            "layer_1q": lambda st, rng: eng.apply_rotation(st, range(n), math.pi / 2, 0.3),
            "ms_table": lambda st, rng: eng._ms_phase(n, range(n), np.ones(n), math.pi / 4),
            "ms": lambda st, rng: eng._apply_ms_phase(st, range(n), table, None),
            "noise_interval": lambda st, rng: eng._noise_interval(
                st, 1e-5, rng, noise.t1, noise.t2_optical, detunings),
            "noise_interval_long": lambda st, rng: eng._noise_interval(
                st, 0.06, rng, noise.t1, noise.t2_optical, detunings),
            "depolarizing": lambda st, rng: eng.apply_depolarizing(st, range(n), 0.05, rng),
            "project_bits": lambda st, rng: eng.project_bits(st, rng),
            "detect": lambda st, rng: eng.detect(st, noise.detection, rng),
        }
        times = {}
        for name, op in ops.items():
            best = math.inf
            for _ in range(repeats):
                state = eng.RegisterState(n, shots=shots)
                state.psi = psi.copy()
                op_rng = np.random.default_rng(1)
                t0 = time.perf_counter()
                op(state, op_rng)
                best = min(best, time.perf_counter() - t0)
            times[name] = float(f"{best:.3g}")
        sizes[f"{n}/{shots}"] = times
    print(json.dumps({"sizes": sizes, "machine": machine_info()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
