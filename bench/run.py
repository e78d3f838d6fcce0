"""iontrap-bench benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {sim_register,ms_gate,characterization} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Each worker is a fresh Python process with threads=1 and
one job at a time (closed loop).

--trace 0 prints the end-to-end metrics: setup_s (median over
SETUP_SAMPLES fresh processes, at a reference host speed), job_ref_p50
and peak_rss_mb.
Workers run with one BLAS thread (WORKER_THREADS).
--trace 1 prints the per-layer metrics of a traced run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it list every
metric with its unit, the other figures (job_s_p50, setup_s_raw,
shots_per_s, gate_infidelity, failed_frac, segment<i>_s_p50) and the
machine.  A detailed record of the run, with every job, goes to
.bench_out/ in the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sim_register", "ms_gate", "characterization")
SETUP_SAMPLES = 5  # set-up-only workers, each between two reference imports
# One BLAS thread per worker: with the default two threads on a shared
# 2-core machine, ms_gate's job_s_p50 spread over five seeds was 0.24 of
# its median; with one thread it was 0.04.  The setting is recorded with
# every result.
WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# setup_s is reported at a reference host speed: each set-up sample is
# divided by the mean time of the reference imports (probe.py) run just
# before and after it, and the median ratio is multiplied by this median of
# 30 reference imports measured on a 2-vCPU x86-64 host (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1).  Over 14 samples on that host, raw set-up
# time spread by 0.18 of its median and the ratio by 0.087.
REFERENCE_IMPORT_S = 0.83


def _env() -> dict:
    env = dict(os.environ, **WORKER_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, mode: str, deadline: float, extra=()) -> dict:
    result = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{mode}-{os.getpid()}.json")
    env = _env()
    src = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--result", result, *extra]
    try:
        # subprocess.run kills and reaps the worker if it overruns.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {mode} worker exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"error: {mode} worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(result)
    if os.path.realpath(data["package"]) != os.path.realpath(os.path.join(src, "iontrap_bench")):
        raise SystemExit(f"error: benchmarked {data['package']}, not this checkout")
    return data


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="iontrap-bench benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    # SystemExit inside subprocess.run makes it kill and reap the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "iontrap_bench", "__init__.py")):
        print(f"error: no iontrap_bench package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    if args.trace == 0:
        from probe import import_probe_s

        def ref():
            try:
                return import_probe_s(_env(), max(deadline - time.perf_counter(), 1.0))
            except subprocess.SubprocessError as exc:
                raise SystemExit(f"error: reference import failed: {exc}")

        refs, setups = [ref()], []
        for _ in range(SETUP_SAMPLES):
            setups.append(_worker(args, "setup", deadline)["setup_s"])
            refs.append(ref())
        ratios = [s / (0.5 * (a + b)) for s, a, b in zip(setups, refs, refs[1:])]
        data = _worker(args, "timed", deadline)
        jobs = data["jobs"]
        metrics = {
            "setup_s": _metric(REFERENCE_IMPORT_S * statistics.median(ratios), "s"),
            "job_ref_p50": _metric(statistics.median(r["job_ref"] for r in jobs), "ref"),
            "peak_rss_mb": _metric(data["peak_rss_mb"], "MB"),
        }
        detail["setup_s_samples"] = setups
        detail["reference_import_s_samples"] = refs
    else:
        import spans
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        data = _worker(args, "traced", deadline, ("--spans", spans_path))
        jobs = data["jobs"]
        units = {name: unit for name, unit, _ in spans.per_layer_metric_names()}
        metrics = {k: _metric(v, units[k]) for k, v in data["per_layer"].items()}
        detail["spans_file"] = spans_path

    failed = sum(1 for r in jobs if not r["ok"])
    figures = {"jobs": len(jobs), "failed_frac": failed / len(jobs),
               "job_s_p50": statistics.median(r["job_s"] for r in jobs)}
    if args.trace == 0:
        figures["setup_s_raw"] = statistics.median(setups)
    shots = sum(r.get("shots", 0) for r in jobs)
    if shots:
        figures["shots_per_s"] = shots / sum(r["job_s"] for r in jobs)
    segments = [r["segment_s"] for r in jobs if len(r["segment_s"]) > 1]
    for i, seg in enumerate(zip(*segments)):
        figures[f"segment{i}_s_p50"] = statistics.median(seg)
    fock0 = [r["infidelity_fock0"] for r in jobs if "infidelity_fock0" in r]
    if fock0:
        figures["gate_infidelity"] = statistics.fmean(fock0)
    detail.update(machine=data["machine"], metrics=metrics, figures=figures, jobs=jobs)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for name, v in figures.items():
        print(f"# {name} = {v:.6g}")
    for r in jobs:
        for problem in r["problems"]:
            print(f"# job {r['job']} failed: {problem}")
    print("# machine: " + json.dumps(data["machine"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
