"""Fixed reference computations that measure how fast the host runs now.

On a shared 2-vCPU host the per-core speed drifted by up to 2x within
fifteen minutes, with no steal time reported.  A job's host time divided
by the time of a probe run right before and after the job cancels most of
that drift.  The probes use no iontrap_bench code, so a change to the
program moves the ratio and a change in host load mostly does not.

Each workload uses the in-process probe whose work is most like its own:
`interp` (interpreted Python and many small numpy calls), `eigh` (small
dense Hermitian eigensolves) or `mixed` (both, plus large vector
products).  Set-up is compared with `import_probe_s`, a fresh process that
imports the third-party modules the package imports.  Medians of 30 of
each on a 2-vCPU x86-64 host (Python 3.11.7, numpy 2.4.6, scipy 1.17.1):
interp 0.080 s, eigh 0.114 s, mixed 0.169 s, reference import 0.83 s;
each moved by up to 2x with the load of the host.
"""

import math
import subprocess
import sys
import time

import numpy as np

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _interp(rng, scale: int) -> float:
    acc = 0.0
    table = {}
    for i in range(20000 * scale):
        table[i % 97] = acc
        acc += math.sqrt(i) * 1e-6 + table.get(i % 89, 0.0) * 1e-9
    psi = np.ones((4, 2, 2, 16), dtype=complex)
    for _ in range(2000 * scale):
        psi = np.einsum("ab,fxbq->fxaq", _FLIP, psi)
        acc += rng.random()
    return acc


def _eigh(rng, scale: int) -> float:
    h = rng.random((44, 44)) + 1j * rng.random((44, 44))
    h = h + h.conj().T
    psi = np.ones(44, dtype=complex)
    acc = 0.0
    for _ in range(60 * scale):
        w, v = np.linalg.eigh(h)
        psi = v @ (np.exp(-1e-3j * w) * (v.conj().T @ psi))
        acc += float(w[0]) * 1e-12
    return acc + float(np.abs(psi[0]))


def _vector(rng, scale: int) -> float:
    big = rng.random((20000, 2)) + 0j
    acc = 0.0
    for _ in range(120 * scale):
        big = big @ _FLIP.T
        acc += float(np.abs(big[:, 0]).sum()) * 1e-12
    return acc


_KINDS = {
    "interp": ((_interp, 4),),
    "eigh": ((_eigh, 6),),
    "mixed": ((_interp, 3), (_eigh, 3), (_vector, 3)),
}


def probe_s(kind: str) -> float:
    """Host seconds of the reference computation `kind`."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    acc = sum(fn(rng, scale) for fn, scale in _KINDS[kind])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("probe result is not finite")
    return elapsed


# Imports of numpy and of the scipy modules the package uses, timed inside
# a fresh interpreter the way the worker times its set-up.
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); "
                    "import numpy, scipy.constants, scipy.optimize, scipy.stats; "
                    "print(time.perf_counter() - t)")


def import_probe_s(env: dict, timeout: float) -> float:
    """Host seconds of the reference import in a fresh process."""
    # subprocess.run kills and reaps the process if it overruns.
    proc = subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(proc.stdout)
