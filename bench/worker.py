"""One benchmark worker: set up one workload in this fresh process, run its
jobs in a closed loop and write the measurements as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,timed,traced} --result PATH

setup   builds the first job's inputs and reports set-up time only.
timed   runs jobs until --seconds have passed, tracing off, with the
        workload's reference probe (probe.py) before the first job and
        after each.
traced  runs a fixed number of job pairs: each job's inputs once with
        tracing off and once with tracing on, so that call counts repeat
        exactly for a seed and the tracing overhead is measured on equal
        work.

The package must be importable (run.py puts the checkout's src/ first on
PYTHONPATH).
"""

import time

T_START = time.perf_counter()  # before numpy and iontrap_bench are imported

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

TRACED_JOBS = {"sim_register": 4, "ms_gate": 2, "characterization": 2}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


class JobClock:
    """Times one job.  `split` pauses the clock to run the reference probe,
    so a long job is compared with the host speed at several points; the
    workload calls it between library calls and the worker at the end."""

    def __init__(self, probe=None, ref: float = 0.0):
        self.probe, self.ref = probe, ref
        self.job_s = 0.0
        self.job_ref = 0.0  # sum over segments of seconds / probe seconds
        self.segments = []  # host seconds of each segment
        self.t0 = time.perf_counter()

    def split(self):
        seg = time.perf_counter() - self.t0
        self.job_s += seg
        self.segments.append(seg)
        if self.probe is not None:
            after = self.probe()
            self.job_ref += seg / (0.5 * (self.ref + after))
            self.ref = after
        self.t0 = time.perf_counter()


def _run_job(wl, j: int, inputs, clock: JobClock) -> dict:
    """Time one job and check its outputs; an exception fails the job."""
    out, problems = None, []
    try:
        out = wl.run(inputs, j, clock.split)
    except Exception as exc:  # a failed job is counted, the loop goes on
        problems = [f"raised {type(exc).__name__}: {exc}"]
    clock.split()
    rec = {"job": j, "job_s": clock.job_s, "segment_s": clock.segments}
    if clock.probe is not None:
        rec["job_ref"] = clock.job_ref
    if not problems:
        try:
            problems = wl.check(inputs, out)
            rec.update(wl.record(inputs, out))
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    rec.update(ok=not problems, problems=problems[:5])
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = p.parse_args(argv)

    import workloads  # imports numpy: counted in set-up
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(os.path.dirname(os.path.abspath(args.result)),
                           f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = None
        if args.mode == "traced":
            import spans
            tracer = spans.Tracer()
            tracer.install()  # set-up calls (config, chain, ...) are traced too
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        first = wl.inputs(0)
        setup_s = time.perf_counter() - T_START

        import iontrap_bench
        from probe import probe_s
        result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                  "setup_s": setup_s,
                  "package": os.path.dirname(iontrap_bench.__file__)}
        if args.mode == "timed":
            probe = functools.partial(probe_s, wl.probe)
            deadline = time.perf_counter() + args.seconds
            jobs, j, inputs = [], 0, first
            ref = probe()
            while True:
                clock = JobClock(probe, ref)
                jobs.append(_run_job(wl, j, inputs, clock))
                ref = clock.ref
                j += 1
                if time.perf_counter() >= deadline:
                    break
                inputs = wl.inputs(j)
            result["jobs"] = jobs
        elif args.mode == "traced":
            tracer.uninstall()
            untraced, traced = [], []
            for j in range(TRACED_JOBS[args.workload]):
                inputs = first if j == 0 else wl.inputs(j)
                untraced.append(_run_job(wl, j, inputs, JobClock()))
                tracer.install()
                traced.append(_run_job(wl, j, inputs, JobClock()))
                tracer.uninstall()
            summary = spans.summarize(tracer.spans, tracer.shots, tracer.valid_shots)
            med_u = statistics.median(r["job_s"] for r in untraced)
            med_t = statistics.median(r["job_s"] for r in traced)
            summary["trace_overhead_frac"] = (med_t - med_u) / med_u
            result["jobs"] = untraced + traced
            result["per_layer"] = summary
            if args.spans:
                tracer.write(args.spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.mode != "setup":
            result["machine"] = machine_info()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
