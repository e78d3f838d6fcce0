"""Record this checkout's benchmark figures in BENCH_<short-sha>.json.

    python3 tools/bench_record.py [--seeds 1 2 3 4 5] [--seconds 22] [--out DIR]

For each workload of bench/run.py and each seed, one untraced run gives
setup_s, job_ref_p50 and peak_rss_mb, and one traced run gives the
per-layer metrics (calls and self_s of each span, layer totals).  Each
metric is summarized over the seeds by its median and quartiles, with
the per-seed values kept.  Then the Tier-1 suite (wall time and its
summary line), tools/sim_scaling.py, tools/engine_ops.py (each engine
operation's time: run_schedule's noise interval is one private pass, so
the traced apply_dephasing and apply_t1_decay spans no longer see it),
tools/ms_scaling.py and the source and test line counts.  Every run
uses this checkout's src/ with one BLAS thread.  The file goes to --out
(default: the checkout) and records the machine, the seeds and whether
the working tree had uncommitted changes.  Compare two records only if
they were made on one host in one session.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("sim_register", "ms_gate", "characterization")


def _run(argv, **kw) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREADS)
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, **kw)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _summary(values) -> dict:
    """Median and quartiles of values, which are kept in seed order."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one bench/run.py run: correct, attempted,
    failed and metrics."""
    out = _run([sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    return json.loads(out.strip().splitlines()[-1])


def record_workload(workload: str, seeds, seconds: float) -> dict:
    runs = {trace: [bench(workload, s, seconds, trace) for s in seeds] for trace in (0, 1)}
    out = {"failed": [r["failed"] for trace in (0, 1) for r in runs[trace]]}
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        names = runs[trace][0]["metrics"]
        out[key] = {name: _summary([r["metrics"][name]["value"] for r in runs[trace]])
                    for name in names}
    return out


def tier1() -> dict:
    t0 = time.perf_counter()
    out = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--continue-on-collection-errors"])
    return {"wall_s": round(time.perf_counter() - t0, 2),
            "summary": out.strip().splitlines()[-1]}


def loc(pattern: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--out", default=ROOT)
    args = p.parse_args()
    sha = _run(["git", "rev-parse", "--short", "HEAD"]).strip()
    dirty = bool(_run(["git", "status", "--porcelain", "--untracked-files=no"]).strip())
    os.environ.update(THREADS)  # before machine_info loads numpy
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from worker import machine_info

    record = {"sha": sha, "dirty": dirty, "machine": machine_info(), "seeds": args.seeds,
              "seconds": args.seconds,
              "workloads": {w: record_workload(w, args.seeds, args.seconds) for w in WORKLOADS},
              "tier1": tier1(),
              "sim_scaling": json.loads(_run([sys.executable, "tools/sim_scaling.py"])),
              "engine_ops": json.loads(_run([sys.executable, "tools/engine_ops.py"])),
              "ms_scaling": [json.loads(line) for line in
                             _run([sys.executable, "tools/ms_scaling.py"]).splitlines()],
              "loc": {"src": loc("src/iontrap_bench/*.py"), "tests": loc("tests/*.py")}}
    path = os.path.join(args.out, f"BENCH_{sha}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
