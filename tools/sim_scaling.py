"""Wall time of the CLI `simulate` on an N-ion GHZ circuit at a few
register sizes.

    python3 tools/sim_scaling.py

Each run is `iontrap-bench simulate` of PREPARE, MS pi/4 on all ions,
R pi/2 0 on all ions and MEASURE, with 200 shots, seed 3 and the default
noise, in a fresh Python process with one BLAS thread, importing the
package from this checkout's src/.  Sizes are N = 8, 12, 16 and 18, three
runs each; a size's figure is the least wall time of its runs, process
start and imports included, with their largest peak RSS.  Prints one JSON
line: the figures per size and the machine.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

GHZ = """PREPARE
MS 0.7853981633974483 all
R 1.5707963267948966 0.0 all
MEASURE m0
"""
SHOTS, SEED = 200, 3
SIZES, REPEATS = (8, 12, 16, 18), 3


def run_once(n: int, workdir: str) -> tuple:
    """(wall s, peak RSS MB) of one `simulate` of the n-ion GHZ circuit."""
    circuit, config = os.path.join(workdir, "ghz.circ"), os.path.join(workdir, f"n{n}.cfg")
    with open(circuit, "w", encoding="utf-8") as fh:
        fh.write(GHZ)
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"machine.n_qubits = {n}\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "iontrap_bench.cli", "simulate", "--circuit", circuit,
           "--config", config, "--shots", str(SHOTS), "--seed", str(SEED),
           "--out", os.path.join(workdir, f"ghz{n}")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise SystemExit(f"error: simulate at n={n} failed")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    os.environ.update(THREADS)  # for the runs, and before machine_info loads numpy
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from worker import machine_info

    sizes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for n in SIZES:
            runs = [run_once(n, workdir) for _ in range(REPEATS)]
            sizes[str(n)] = {"wall_s": round(min(w for w, _ in runs), 3),
                             "peak_rss_mb": round(max(r for _, r in runs), 1)}
    print(json.dumps({"shots": SHOTS, "seed": SEED, "repeats": REPEATS,
                      "sizes": sizes, "machine": machine_info()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
