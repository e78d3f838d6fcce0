"""Wall time of the CLI `simulate` on an N-ion GHZ circuit at a few
register sizes.

    python3 tools/sim_scaling.py

Each run is `iontrap-bench simulate` of PREPARE, MS pi/4 on all ions,
R pi/2 0 on all ions and MEASURE, with 200 shots, seed 3 and the default
noise, in a fresh Python process with one BLAS thread, importing the
package from this checkout's src/.  Sizes are N = 8, 12, 16 and 18.  A
size's wall time is the least of three runs at the default allocator,
process start and imports included; its peak RSS is that of one more run
at MALLOC_MMAP_THRESHOLD_=131072.  Prints one JSON line: the figures per
size, the allocator setting of each figure ("env") and the machine.

The fixed threshold makes glibc serve every block of 128 KiB or more by
mmap and return it on free, where its default threshold moves up with the
blocks freed and keeps them in the heap.  Without it the peak RSS moved
by about 4 MB with allocator placement alone (54.3 -> 58.1 MB at n = 12
across a change that cut an 8 MB allocation to 0.4 MB); with it the two
trees agreed within 0.2 MB, so a change to this figure is the program's
own.  It costs wall time, since each such block is mapped and zeroed
afresh (one n = 18 run took 10.7-11.4 s with it against 7.4-9.0 s
without), so the timed runs leave it out and stay true to a default run.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": "131072"}  # the peak-RSS run's: see the docstring

GHZ = """PREPARE
MS 0.7853981633974483 all
R 1.5707963267948966 0.0 all
MEASURE m0
"""
SHOTS, SEED = 200, 3
SIZES, REPEATS = (8, 12, 16, 18), 3


def run_once(n: int, workdir: str, allocator: dict) -> tuple:
    """(wall s, peak RSS MB) of one `simulate` of the n-ion GHZ circuit, with
    the allocator settings given and no other MALLOC_MMAP_THRESHOLD_."""
    circuit, config = os.path.join(workdir, "ghz.circ"), os.path.join(workdir, f"n{n}.cfg")
    with open(circuit, "w", encoding="utf-8") as fh:
        fh.write(GHZ)
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"machine.n_qubits = {n}\n")
    env = {k: v for k, v in os.environ.items() if k not in ALLOCATOR}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), **allocator)
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
            wall = min(run_once(n, workdir, {})[0] for _ in range(REPEATS))
            sizes[str(n)] = {"wall_s": round(wall, 3),
                             "peak_rss_mb": round(run_once(n, workdir, ALLOCATOR)[1], 1)}
    print(json.dumps({"shots": SHOTS, "seed": SEED, "repeats": REPEATS,
                      "env": {"wall_s": {}, "peak_rss_mb": ALLOCATOR},
                      "sizes": sizes, "machine": machine_info()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
