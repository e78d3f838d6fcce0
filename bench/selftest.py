"""Self-test of the benchmark's output checks and trace determinism.

    python3 bench/selftest.py [--skip-trace]

Every check must pass on a real job's output and fail on a deliberately
corrupted copy of it, so that no check is vacuous.  Then two traced runs
per workload with one seed must report identical `.calls` counts.
Prints one PASS/FAIL line per case; exits 1 if any case fails.
"""

import argparse
import copy
import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import JobClock, _run_job  # noqa: E402

RESULTS = []
# The population check must catch angles scaled by 1.1 in at least three
# jobs of four.  Where the scaled circuit moves the populations by less
# than about 0.1 in all, 300 shots cannot tell it apart at the check's
# false-failure rate; on seed 7 it was caught in 21 of the first 24 jobs.
POPULATION_JOBS = 12
MIN_SCALED_DETECTED = 9


def expect(name: str, problems: list, should_fail: bool):
    ok = bool(problems) == should_fail
    RESULTS.append(ok)
    detail = problems[0] if problems else "no problems"
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def expect_detected(name: str, failed: list, minimum: int):
    """A check must fail on at least `minimum` of the corrupted cases."""
    ok = sum(failed) >= minimum
    RESULTS.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: check failed on {sum(failed)} "
          f"of {len(failed)} jobs (at least {minimum} required)")


def _bright(wl, prefix) -> list:
    probs = np.abs(wl.eng.circuit_statevector(prefix, 6)) ** 2
    idx = np.arange(64)
    return [float(probs[(idx >> q) & 1 == 1].sum()) for q in range(6)]


def _theta_scaled(prefix, factor: float) -> tuple:
    """Every rotation angle (R and RZ theta, MS chi) scaled by factor."""
    out = []
    for ins in prefix:
        for key in ("theta", "chi"):
            if hasattr(ins, key):
                ins = dataclasses.replace(ins, **{key: factor * getattr(ins, key)})
        out.append(ins)
    return tuple(out)


def sim_register_cases(workdir: str):
    wl = workloads.SimRegister(7, workdir)
    job = wl.inputs(0)
    records, path = wl.run(job, 0, lambda: None)
    saved = path + ".orig"
    shutil.copy(path, saved)
    expect("sim_register: real job", wl.check(job, (records, path)), False)

    shutil.copy(saved, path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines[:-5])
    expect("sim_register: truncated shots file",
           checks.check_shot_file(path, records, 6), True)

    flipped = [r.__class__(r.shot, tuple(1 - b for b in r.bits), r.counts, r.valid)
               for r in records]
    expect("sim_register: bits inverted",
           checks.check_register_populations(flipped, _bright(wl, job.prefix),
                                             job.branch_qubit), True)

    # Real shots of the first POPULATION_JOBS jobs against populations
    # predicted from a defective circuit: every angle scaled by 1.1, or the
    # addressed R layer dropped.  All real jobs must pass.
    real, scaled, dropped = [], [], []
    for j in range(POPULATION_JOBS):
        job = wl.inputs(j)
        records, path = wl.run(job, j, lambda: None)
        os.remove(path)
        pop = functools.partial(checks.check_register_populations, records,
                                branch_qubit=job.branch_qubit)
        real.append(bool(pop(_bright(wl, job.prefix))))
        scaled.append(bool(pop(_bright(wl, _theta_scaled(job.prefix, 1.1)))))
        dropped.append(bool(pop(_bright(wl, job.prefix[:3 + 6]))))
    expect(f"sim_register: populations of {POPULATION_JOBS} real jobs",
           [f"{sum(real)} of {POPULATION_JOBS} failed"] if any(real) else [], False)
    expect_detected("sim_register: every angle scaled by 1.1", scaled,
                    MIN_SCALED_DETECTED)
    expect_detected("sim_register: addressed R layer dropped", dropped,
                    POPULATION_JOBS)


def ms_gate_cases(workdir: str):
    wl = workloads.MsGate(7, workdir)
    delta = wl.inputs(0)
    omega, gates = wl.run(delta, 0, lambda: None)
    expect("ms_gate: real job", wl.check(delta, (omega, gates)), False)

    eng = wl.eng
    params = eng.BichromaticParams(omega_rabi=1.1 * omega, nu=wl.nu, delta=delta,
                                   etas=(workloads.MS_ETA, workloads.MS_ETA),
                                   t=2.0 * np.pi / delta)
    st = eng.RegisterState(2, phonon=eng.PhononMode(wl.nu, n_max=wl.n_max))
    eng.apply_ms_bichromatic(st, params)
    expect("ms_gate: Omega scaled by 1.1", wl.check(delta, (omega, [(0, st)])), True)

    stuck = [(fock, f, back) for fock, f, back in wl.gate_figures(gates)]
    stuck[1] = (stuck[1][0], stuck[1][1], 0.99)
    expect("ms_gate: phonon not returned to its Fock state",
           checks.check_ms_gate(stuck), True)

    class Leaky:
        name = "leaky"

        def run(self, inputs, j, split):
            from iontrap_bench.errors import FockLeakage
            raise FockLeakage("Fock cutoff population 1e-3", leakage=1e-3)

    rec = _run_job(Leaky(), 0, None, JobClock())
    expect("ms_gate: FockLeakage counts as a failed job", rec["problems"], True)


def characterization_cases(workdir: str):
    wl = workloads.Characterization(7, workdir)
    seeds = wl.inputs(0)
    res, written = wl.run(seeds, 0, lambda: None)
    keep = os.path.join(workdir, "keep")
    shutil.copytree(os.path.join(workdir, "job-0"), keep)
    expect("characterization: real job", wl.check(seeds, (res, written)), False)

    # (kind, value key, error key): each recovered parameter moved by 10 sigma.
    params = [("rb", "gate_fidelity", "gate_fidelity_err"),
              ("ramsey", "t2_s", "t2_err_s"),
              ("gradient", "slope_hz_per_um", "slope_err"),
              ("thermometry", "nbar", "nbar_err"),
              ("heating", "alpha", "alpha_err"),
              ("ghz", "F", "F_err"),
              ("gate_decay", "per_gate_fidelity", "per_gate_fidelity_err"),
              ("addressing_scan", "w0_um", "w0_err_um"),
              ("addressing_scan", "slope_um_per_mhz", "slope_err")]
    for kind, key, err in params:
        shutil.copytree(keep, os.path.join(workdir, "job-0"))
        bad = copy.copy(res)
        bad[kind] = copy.copy(res[kind])
        bad[kind].extra = dict(res[kind].extra)
        bad[kind].extra[key] -= 10.0 * res[kind].extra[err]
        expect(f"characterization: wrong {kind} {key}",
               wl.check(seeds, (bad, written)), True)

    shutil.copytree(keep, os.path.join(workdir, "job-0"))
    out_dir, files = written["ramsey"]
    summary = os.path.join(out_dir, "summary.json")
    with open(summary, encoding="utf-8") as fh:
        data = json.load(fh)
    data["fits"]["decay"]["params"]["tau"]["value"] *= 1.5
    with open(summary, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    expect("characterization: summary.json with a wrong T2",
           checks.check_written_results(out_dir, res["ramsey"].fits, files), True)
    os.remove(os.path.join(out_dir, "points.csv"))
    expect("characterization: points.csv missing",
           checks.check_written_results(out_dir, res["ramsey"].fits, files), True)


def traced_calls(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--skip-trace", action="store_true",
                   help="skip the traced-run determinism check")
    args = p.parse_args(argv)
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        for cases in (sim_register_cases, ms_gate_cases, characterization_cases):
            sub = os.path.join(workdir, cases.__name__)
            os.makedirs(sub)
            cases(sub)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.skip_trace:
        for workload in workloads.WORKLOADS:
            a, b = traced_calls(workload, 11), traced_calls(workload, 11)
            same = a == b and "error" not in a
            expect(f"{workload}: .calls identical across two traced runs",
                   [] if same else [f"first {a} second {b}"], False)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test cases passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
