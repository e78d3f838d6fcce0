"""Small-n density-matrix oracles used only by the test suite."""

import math

import numpy as np
from scipy.linalg import expm


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
