"""Small-n density-matrix oracles used only by the test suite."""

import math

import numpy as np
from scipy import integrate
from scipy.linalg import expm
from scipy.special import pdtr, pdtrc
from scipy.stats import poisson


def dephasing_channel(rho: np.ndarray, dt: float, t2: float) -> np.ndarray:
    """Single-qubit pure dephasing: off-diagonals decay as exp(-dt/T2)."""
    out = rho.copy()
    decay = math.exp(-dt / t2)
    out[0, 1] *= decay
    out[1, 0] *= decay
    return out


def depolarizing_channel(rho: np.ndarray, eps: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - eps) * rho + eps * np.eye(d) / d


def t1_channel(rho: np.ndarray, dt: float, t1: float) -> np.ndarray:
    """Amplitude damping D (index 0) -> S (index 1) with p = 1-exp(-dt/t1)."""
    p = 1.0 - math.exp(-dt / t1)
    k0 = np.array([[math.sqrt(1.0 - p), 0.0], [0.0, 1.0]])
    k1 = np.array([[0.0, 0.0], [math.sqrt(p), 0.0]])
    return k0 @ rho @ k0.T + k1 @ rho @ k1.T


def heating_mean_n(n0: float, rate: float, dt: float) -> float:
    """Lindblad L_up = sqrt(rate) a†, L_dn = sqrt(rate) a: d<n>/dt = rate."""
    return n0 + rate * dt


def ensemble_density(states) -> np.ndarray:
    """Average projector over a trajectory ensemble of pure state vectors."""
    states = np.asarray(states)
    return np.einsum("si,sj->ij", states, states.conj()) / len(states)


def bichromatic_midpoint(psi, etas, omega, nu, delta, t, n_steps, n_max):
    """Per-step reference for the two-tone MS gate: the interaction-picture
    Hamiltonian H(t) = 2 omega cos((nu + delta) t) sum_j E_j(t) ⊗ sigma+_j + h.c.,
    E_j(t) = expm(i eta_j (a e^{i nu t} + a† e^{-i nu t})), built densely at
    each step midpoint and applied through scipy.linalg.expm.

    psi is fock-major, shape (n_max + 1, 2**n); qubit 0 is the least
    significant bit and sigma+ = |D><S| takes bit 1 (S) to bit 0 (D).
    """
    n = len(etas)
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    sps = [np.kron(np.kron(np.eye(2 ** (n - 1 - j)), sp), np.eye(2**j)) for j in range(n)]
    dt = t / n_steps
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    for k in range(n_steps):
        tm = (k + 0.5) * dt
        x = a * np.exp(1j * nu * tm) + a.T * np.exp(-1j * nu * tm)
        h = sum(np.kron(expm(1j * eta * x), s) for eta, s in zip(etas, sps))
        h = 2.0 * omega * math.cos((nu + delta) * tm) * (h + h.conj().T)
        psi = expm(-1j * dt * h) @ psi
    return psi.reshape(n_max + 1, 2**n)


def apply_1q_einsum(psi, n, q, m):
    """Reference for engine._apply_layer: the 2x2 matrix m on qubit q of every
    state in psi as one einsum over the qubit's axis."""
    v = psi.reshape(-1, 2 ** (n - q - 1), 2, 2**q)
    return np.einsum("ab,fxbq->fxaq", m, v).reshape(psi.shape)


def t1_decay_per_qubit(state, targets, dt, rng, t1):
    """Reference for engine.apply_t1_decay: one jump or no-jump step per
    target, each followed by a renormalization of the whole batch."""
    p = 1.0 - math.exp(-dt / t1)
    if p == 0.0:
        return state
    for q in targets:
        v = state.psi.reshape(len(state.psi), -1, 2, 2**q)  # (shots, high bits, 2, low bits)
        p_dark = np.sum(np.abs(v[:, :, 0]) ** 2, axis=(1, 2))
        jump = (rng.random(len(v)) < p * p_dark)[:, None, None]
        v[:, :, 1] = np.where(jump, v[:, :, 0], v[:, :, 1])
        v[:, :, 0] = np.where(jump, 0.0, v[:, :, 0] * math.sqrt(1.0 - p))
        state.renormalize()
    return state


def dephasing_per_qubit(state, targets, dt, t2, rng, detuning_hz=None):
    """Reference for engine.apply_dephasing: one normal draw per shot for
    each target in turn, plus its ramp, as a phase on the target's S half."""
    sigma, shots = math.sqrt(2.0 * dt / t2), len(state.psi)
    for i, q in enumerate(targets):
        phase = rng.normal(0.0, sigma, size=shots) if sigma > 0 else np.zeros(shots)
        if detuning_hz is not None:
            phase = phase + 2.0 * math.pi * detuning_hz[i] * dt
        v = state.psi.reshape(len(state.psi), -1, 2, 2**q)  # (shots, high bits, 2, low bits)
        v[:, :, 1] *= np.exp(1j * phase)[:, None, None]
    return state


def detection_threshold_scan(det):
    """Reference for DetectionModel.threshold: the first k in [1, bright
    mean] with the least dark-above plus bright-below error, by scanning."""
    best_k, best_err = 1, np.inf
    for k in range(1, int(det.bright_mean) + 1):
        err = pdtrc(k - 1, det.dark_mean) + pdtr(k - 1, det.bright_mean)
        if err < best_err:
            best_k, best_err = k, err
    return best_k


def readout_flip_oracle(det) -> tuple:
    """Reference for DetectionModel.flip_probs: e0 as criterion 10 computes
    it, integrate.quad of the decay-in-window term plus the dark tail, and
    e1 the bright counts' CDF below the threshold.  The quad breaks where
    the integrand changes on a scale short against the window: around the
    threshold crossing and at 1, 5 and 40 lifetimes."""
    k = det.threshold

    def integrand(t):
        mean = det.dark_mean + det.bright_rate * (det.window - t)
        return math.exp(-t / det.t1) / det.t1 * poisson.sf(k - 1, mean)

    crossing = det.window - (k - det.dark_mean) / det.bright_rate
    spread = 5.0 * math.sqrt(k) / det.bright_rate
    points = sorted({p for p in (crossing - spread, crossing, crossing + spread, det.t1,
                                 5.0 * det.t1, 40.0 * det.t1) if 0.0 < p < det.window})
    e0, _ = integrate.quad(integrand, 0.0, det.window, points=points or None,
                           epsabs=1e-300, epsrel=1e-13, limit=1000)
    e0 += math.exp(-det.window / det.t1) * poisson.sf(k - 1, det.dark_mean)
    return e0, float(poisson.cdf(k - 1, det.bright_mean))


def detected_count_oracle(probs, e0: float, e1: float) -> np.ndarray:
    """Reference for engine.detected_count_law of engine.bright_count_law:
    the 2x2 flip stochastic matrix of every ion (a dark ion reads bright
    with e0, a bright one dark with e1) applied to the law over the 2**n
    basis states, then the law of each detected state's bright ions
    summed by a popcount bincount."""
    n = len(probs).bit_length() - 1
    flip = np.array([[1.0 - e0, e0], [e1, 1.0 - e1]])  # row: true bit, column: read bit
    law = np.asarray(probs, dtype=float).reshape((2,) * n)
    for axis in range(n):
        law = np.moveaxis(np.tensordot(law, flip, axes=([axis], [0])), -1, axis)
    bright = [bin(i).count("1") for i in range(2**n)]
    return np.bincount(bright, weights=law.reshape(-1), minlength=n + 1)
