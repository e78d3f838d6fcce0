"""Output checks for the benchmark jobs.

Each check takes plain data and returns a list of problems; an empty list
means the job's outputs are correct.  The self-test feeds every check a
deliberately corrupted input to show that none of them is vacuous.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Five reported standard errors: a correct program practically never fails.
N_SIGMA = 5.0

# sim_register: population shift that the configured noise and crosstalk
# cause on top of shot noise.  Over 14 jobs of 3000 shots (seeds 7 and 21),
# the largest deviation of a qubit from the noise-free prediction was
# 0.035, with a binomial standard error of 0.009.
NOISE_ALLOWANCE = 0.04
# False-failure probability of the pooled population test: that of a
# two-sided N_SIGMA normal deviation.
P_FALSE = math.erfc(N_SIGMA / math.sqrt(2.0))

# ms_gate bounds.
MAX_INFIDELITY_FOCK0 = 1e-3
MIN_FOCK_RETURN = 1.0 - 1e-3


def check_shot_file(path: str, records, n_qubits: int) -> list:
    """shots.csv is well formed and holds exactly the returned records."""
    problems = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        return [f"shots file unreadable: {exc}"]
    header = ("shot,bits," + ",".join(f"counts_q{q}" for q in range(n_qubits))
              + ",valid")
    if not lines or lines[0] != header:
        problems.append("shots file header is wrong")
    if lines[-1] != "":
        problems.append("shots file does not end with a newline")
    rows = lines[1:-1]
    if len(rows) != len(records):
        problems.append(f"shots file has {len(rows)} rows, expected {len(records)}")
    for i, (row, rec) in enumerate(zip(rows, records)):
        fields = row.split(",")
        if len(fields) != n_qubits + 3:
            problems.append(f"row {i}: {len(fields)} fields")
            break
        bits = fields[1]
        ok = (fields[0] == str(i) and rec.shot == i
              and len(bits) == n_qubits and set(bits) <= {"0", "1"}
              and fields[-1] in ("0", "1")
              and all(f.isdigit() for f in fields[2:-1])
              and bits == "".join(str(b) for b in rec.bits)
              and tuple(int(c) for c in fields[2:-1]) == tuple(rec.counts)
              and int(fields[-1]) == int(rec.valid))
        if not ok:
            problems.append(f"row {i} is malformed or differs from its record: {row!r}")
            break
    return problems


def check_register_populations(records, expected_bright, branch_qubit: int) -> list:
    """Final bright populations against the state-vector prediction.

    After the first MEASURE the register is a basis state, so every qubit
    except the branch target keeps its first-measure population.  The
    branch flips its target whenever it was read bright, so the target
    ends dark.  The qubits are pooled: each deviation beyond
    NOISE_ALLOWANCE, in binomial standard errors, is squared and summed,
    and the sum must stay below the chi-square quantile of P_FALSE.
    """
    from scipy.stats import chi2  # imported here so it is not set-up time

    valid = np.array([r.bits for r in records if r.valid], dtype=float)
    if len(valid) == 0:
        return ["no valid shots"]
    n = len(valid)
    measured = valid.mean(axis=0)
    expected = np.array(expected_bright, dtype=float)
    expected[branch_qubit] = 0.0
    sigma = np.sqrt(np.maximum(expected * (1.0 - expected), 1.0 / n) / n)
    z = np.maximum(np.abs(measured - expected) - NOISE_ALLOWANCE, 0.0) / sigma
    stat, limit = float(np.sum(z**2)), float(chi2.isf(P_FALSE, len(z)))
    if stat > limit:
        return [f"bright populations {np.round(measured, 3).tolist()}, expected "
                f"{np.round(expected, 3).tolist()} (n={n}): chi-square "
                f"{stat:.1f} > {limit:.1f}"]
    return []


def check_ms_gate(gates) -> list:
    """gates: list of (fock_start, infidelity, initial_fock_population)."""
    problems = []
    for fock, infid, back in gates:
        if not math.isfinite(infid) or (fock == 0 and infid > MAX_INFIDELITY_FOCK0):
            problems.append(f"Fock {fock}: 1-F = {infid:.3e} > {MAX_INFIDELITY_FOCK0}")
        if not back >= MIN_FOCK_RETURN:
            problems.append(f"Fock {fock}: phonon returns with population {back:.6f}")
    if not any(f == 0 for f, _, _ in gates):
        problems.append("no Fock-0 gate")
    return problems


def check_recovered(kind: str, name: str, value: float, sigma: float,
                    injected: float) -> list:
    """One recovered parameter within N_SIGMA reported errors of its
    injected value."""
    if not (math.isfinite(value) and math.isfinite(sigma) and sigma > 0):
        return [f"{kind}: {name} = {value!r} with error {sigma!r}"]
    z = (value - injected) / sigma
    if abs(z) > N_SIGMA:
        return [f"{kind}: {name} = {value:.6g} +- {sigma:.2g}, injected "
                f"{injected:.6g} ({z:+.1f} sigma)"]
    return []


def check_written_results(out_dir: str, fits: dict, written) -> list:
    """write_results produced its files and summary.json holds the fits."""
    problems = []
    for fname in ("points.csv", "summary.json", "manifest.json"):
        if fname not in written or not os.path.isfile(os.path.join(out_dir, fname)):
            problems.append(f"{out_dir}: {fname} missing")
    if problems:
        return problems
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"{out_dir}: summary.json is not JSON ({exc})"]
    want = json.loads(json.dumps({k: f.as_dict() for k, f in fits.items()}))
    if summary.get("fits") != want:
        problems.append(f"{out_dir}: summary.json fits differ from the fit results")
    return problems
