"""State-vector dynamics with an optional truncated phonon mode.

Noise enters through Monte-Carlo wave-function trajectories (Dalibard,
Castin & Moelmer, PRL 68, 580 (1992)) on one state or on a batch of shots;
operators act on the last two axes and draw one random number per shot.
Basis convention: qubit 0 is the least significant bit of the amplitude
index; bit 1 is the bright S ground state, bit 0 the dark D excited state.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.special import pdtr, pdtrc

from .compiler import PulseSchedule, MachineConfig, predicate_matches
from .errors import FockLeakage, NoValidShots, StepTooCoarse

_MAX_STATE_BYTES = 1 << 30  # largest state array RegisterState allocates
_MAX_JUMP_PROB = 0.02  # largest jump probability of one heating step


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionModel:
    """Poisson photon-count readout with D-state decay during the window."""

    bright_rate: float = 5e5  # counts/s
    window: float = 3e-4  # s
    dark_mean: float = 2.0  # counts per window
    t1: float = 1.168  # s, D-state lifetime folded into the window

    def __post_init__(self):
        if not self.t1 > 0:
            raise ValueError(f"t1 must be positive, got {self.t1}")
        # A zero window or bright rate leaves the readout without signal.
        for name in ("bright_rate", "window"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.dark_mean < math.inf:
            raise ValueError(f"dark_mean must be finite and non-negative, got {self.dark_mean}")

    @property
    def bright_mean(self) -> float:
        return self.bright_rate * self.window + self.dark_mean

    @property
    def decay_prob(self) -> float:
        """Probability that a dark ion decays bright within the window."""
        return 1.0 - math.exp(-self.window / self.t1)

    @cached_property
    def threshold(self) -> int:
        """Count threshold minimizing total dark/bright misclassification."""
        best_k, best_err = 1, np.inf
        for k in range(1, int(self.bright_mean) + 1):
            # Dark counts reaching k, plus bright counts below k.
            err = pdtrc(k - 1, self.dark_mean) + pdtr(k - 1, self.bright_mean)
            if err < best_err:
                best_k, best_err = k, err
        return best_k

    def sample_counts(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Photon counts for an array of projected bits (1 = bright S)."""
        bits = np.asarray(bits)
        means = np.where(bits == 1, self.bright_mean, self.dark_mean).astype(float)
        dark = bits == 0
        if np.any(dark):
            decays = rng.random(bits.shape) < self.decay_prob
            decays &= dark
            if np.any(decays):
                # Decay time conditioned on decaying within the window.
                u = rng.random(np.count_nonzero(decays))
                t = -self.t1 * np.log1p(-u * self.decay_prob)
                means[decays] += self.bright_rate * (self.window - t)
        return rng.poisson(means)

    def classify(self, counts: np.ndarray) -> np.ndarray:
        return (np.asarray(counts) >= self.threshold).astype(np.int8)


# ---------------------------------------------------------------------------
# Noise configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseConfig:
    t2_optical: float = 0.090  # s
    t2_ground: float = 0.018  # s
    t1: float = 1.168  # s
    eps_1q: float = 0.0  # per-pi/2 depolarizing probability
    eps_2q: float = 0.0  # per-MS depolarizing probability
    spam_prep: float = 0.0  # probability of preparing D instead of S
    heating_rate_ref: float = 0.221  # quanta/s at omega_ref
    heating_omega_ref: float = 2 * math.pi * 1.05e6  # rad/s
    heating_alpha: float = 1.7
    collision_rate: float = 0.0025  # per ion per second
    gradient_hz_per_um: float = 3.1  # ground-state qubit, uncompensated
    gradient_compensated_hz_per_um: float = 0.2
    gradient_compensation: bool = True
    sensitivity_ratio: float = 5.6 / 28.0  # optical vs ground-state field sensitivity
    detection: DetectionModel = field(default_factory=DetectionModel)

    def __post_init__(self):
        for name in ("t2_optical", "t2_ground", "t1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("heating_rate_ref", "collision_rate"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if not 0.0 < self.heating_omega_ref < math.inf:
            raise ValueError(f"heating_omega_ref must be finite and positive, "
                             f"got {self.heating_omega_ref}")
        for name in ("heating_alpha", "gradient_hz_per_um", "gradient_compensated_hz_per_um"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for p in (self.eps_1q, self.eps_2q, self.spam_prep):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")

    def t2(self, qubit_kind: str) -> float:
        return self.t2_ground if qubit_kind == "ground" else self.t2_optical

    def gradient_for(self, qubit_kind: str) -> float:
        g = (self.gradient_compensated_hz_per_um if self.gradient_compensation
             else self.gradient_hz_per_um)
        return g if qubit_kind == "ground" else g * self.sensitivity_ratio

    def heating_rate(self, omega: float) -> float:
        return self.heating_rate_ref * (self.heating_omega_ref / omega) ** self.heating_alpha


# ---------------------------------------------------------------------------
# Register state
# ---------------------------------------------------------------------------

@dataclass
class PhononMode:
    frequency: float  # rad/s
    n_max: int = 10
    nbar: float = 0.0

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


class RegisterState:
    """N-qubit state vector with optional phonon mode attached.

    psi has shape (fock_dim, 2**n), or (shots, fock_dim, 2**n) when shots
    is given; fock_dim == 1 when no phonon.  fock_index may be per shot.
    The density-matrix helpers take a single state.
    """

    def __init__(self, n_qubits: int, phonon: PhononMode = None, fock_index=0,
                 shots: int = None):
        self.n = n_qubits
        self.phonon = phonon
        fock_dim = (phonon.n_max + 1) if phonon else 1
        shape = (() if shots is None else (shots,)) + (fock_dim, 2**n_qubits)
        if math.prod(shape) * 16 > _MAX_STATE_BYTES:
            raise MemoryError("state exceeds the memory cap")
        self.psi = np.zeros(shape, dtype=complex)
        flat = self.psi.reshape(-1, fock_dim, 2**n_qubits)
        flat[np.arange(len(flat)), fock_index, -1] = 1.0  # all-bright |S...S>

    @property
    def fock_dim(self) -> int:
        return self.psi.shape[-2]

    @property
    def batch_shape(self) -> tuple:
        """() for a single state, (shots,) for a batch."""
        return self.psi.shape[:-2]

    def norm(self):
        """Norm of the state; an array of per-shot norms for a batch."""
        if self.psi.ndim == 2:
            return float(np.linalg.norm(self.psi))
        return np.linalg.norm(self.psi.reshape(len(self.psi), -1).view(float), axis=1)

    def renormalize(self):
        self.psi /= np.expand_dims(self.norm(), (-2, -1))

    def subset(self, mask) -> "RegisterState":
        """A batched state holding a copy of the shots that mask selects."""
        sub = copy.copy(self)
        sub.psi = self.psi[mask]
        return sub

    def probabilities(self) -> np.ndarray:
        return (np.abs(self.psi) ** 2).sum(axis=-2)

    def qubit_view(self, q: int) -> np.ndarray:
        """View of psi with qubit q isolated on its own axis."""
        return self.psi.reshape(self.psi.shape[:-1] + (2 ** (self.n - q - 1), 2, 2**q))

    def spin_density(self) -> np.ndarray:
        """Reduced spin density matrix (traces out the phonon)."""
        return np.einsum("fi,fj->ij", self.psi, self.psi.conj())

    def phonon_density(self) -> np.ndarray:
        return np.einsum("fi,gi->fg", self.psi, self.psi.conj())

    def mean_phonon(self) -> float:
        p = (np.abs(self.psi) ** 2).sum(axis=1)
        return float(np.dot(np.arange(self.fock_dim), p))


def _flat(state: RegisterState) -> np.ndarray:
    """psi as (shots, fock_dim, 2**n); a single state is one shot."""
    return state.psi.reshape((-1,) + state.psi.shape[-2:])


def _apply_1q(psi: np.ndarray, n: int, q: int, m: np.ndarray) -> np.ndarray:
    """The 2x2 matrix m on qubit q of every state in psi."""
    v = psi.reshape(-1, 2 ** (n - q - 1), 2, 2**q)
    return np.einsum("ab,fxbq->fxaq", m, v).reshape(psi.shape)


_DENSE_QUBITS = 3


def _linear(psi: np.ndarray, n: int, op) -> np.ndarray:
    """op(psi) for a linear map op on the last axis.  A batch of states of
    at most _DENSE_QUBITS qubits, where numpy's per-qubit passes would run
    short inner loops, gets op's matrix (op of the basis) as one product."""
    if psi.ndim == 2 or n > _DENSE_QUBITS:
        return op(psi)
    u = op(np.eye(2**n, dtype=complex))
    return (psi.reshape(-1, 2**n) @ u).reshape(psi.shape)


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -1j * np.exp(-1j * phi) * s],
         [-1j * np.exp(1j * phi) * s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2.0), 0.0],
                     [0.0, np.exp(1j * theta / 2.0)]], dtype=complex)


def _checked_targets(state: RegisterState, targets, angle: float) -> list:
    targets = list(targets)
    if not math.isfinite(angle) or not all(0 <= q < state.n for q in targets):
        raise ValueError(f"need a finite angle and targets in [0, {state.n}): "
                         f"got {angle} on {targets}")
    return targets


def _apply_scaled(state, targets, theta, scale, matrix):
    """Apply matrix(theta * s) to each target; s = 0 skips the target."""
    targets = _checked_targets(state, targets, theta)
    for q, s in zip(targets, [1.0] * len(targets) if scale is None else scale):
        if s != 0.0:
            m = matrix(theta * s)
            state.psi = _linear(state.psi, state.n, lambda p: _apply_1q(p, state.n, q, m))
    return state


def apply_rotation(state: RegisterState, targets, theta: float, phi: float,
                   rabi_scale=None):
    """Resonant carrier rotation; rabi_scale rescales theta per target."""
    return _apply_scaled(state, targets, theta, rabi_scale,
                         lambda angle: rotation_matrix(angle, phi))


def apply_rz(state: RegisterState, targets, theta: float, scale=None):
    return _apply_scaled(state, targets, theta, scale, rz_matrix)


def apply_ms_ideal(state: RegisterState, targets, chi: float, weights=None):
    """Collective-spin entangling gate exp(-i chi/2 (Sx^2 - sum w^2)).

    With unit weights on two ions this is the standard 4x4 bichromatic-gate
    matrix (cos chi diagonal, -i sin chi anti-diagonal).  Weights model
    unequal illumination (crosstalk on spectators).
    """
    targets = _checked_targets(state, targets, chi)
    if len(set(targets)) != len(targets) or len(targets) < 2:
        raise ValueError("MS needs >= 2 distinct targets")
    weights = np.ones(len(targets)) if weights is None else np.asarray(weights, dtype=float)
    idx = np.arange(2**state.n)
    m = np.zeros(2**state.n)
    for q, w in zip(targets, weights):
        bit = (idx >> q) & 1
        m = m + w * np.where(bit == 0, 1.0, -1.0)
    phase = np.exp(-1j * (chi / 2.0) * (m**2 - float(np.sum(weights**2))))
    # Hadamards on the targets, as unnormalized butterflies: the two layers'
    # factor 2**-k scales the phase exactly.
    phase *= 2.0 ** -len(targets)

    def ms(p):
        p = _butterflies(p, state.n, targets)
        p *= phase
        return _butterflies(p, state.n, targets)

    state.psi = _linear(state.psi, state.n, ms)
    return state


def _butterflies(psi: np.ndarray, n: int, qubits) -> np.ndarray:
    """sqrt(2) H on each of the qubits of every state in psi, in place."""
    for q in qubits:
        v = psi.reshape(-1, 2 ** (n - q - 1), 2, 2**q)
        total = v[:, :, 0] + v[:, :, 1]
        np.subtract(v[:, :, 0], v[:, :, 1], out=v[:, :, 1])
        v[:, :, 0] = total
    return psi


def apply_dephasing(state: RegisterState, targets, dt: float, t2: float,
                    rng: np.random.Generator, detuning_hz=None):
    """Stochastic Z kick per shot; the shot ensemble dephases as exp(-dt/T2).

    detuning_hz adds a deterministic per-target phase ramp (field gradients).
    """
    if dt < 0 or not t2 > 0:
        raise ValueError(f"need dt >= 0 and t2 > 0, got dt={dt}, t2={t2}")
    if dt == 0:
        return state
    sigma = math.sqrt(2.0 * dt / t2)
    for i, q in enumerate(targets):
        phase = rng.normal(0.0, sigma, size=state.batch_shape) if sigma > 0 else 0.0
        if detuning_hz is not None:
            phase = phase + 2.0 * math.pi * detuning_hz[i] * dt
        if np.any(phase != 0.0):
            v = state.qubit_view(q)
            v[..., 1, :] *= np.expand_dims(np.exp(1j * phase), (-3, -2, -1))
    return state


_PAULIS = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]],
                    [[1.0, 0.0], [0.0, -1.0]]], dtype=complex)


def apply_depolarizing(state: RegisterState, targets, eps: float,
                       rng: np.random.Generator):
    """With probability eps per shot apply a uniformly random Pauli string
    (identity included): one uniform per shot, then one integer in
    [0, 4**k) per hit shot whose base-4 digit i picks the Pauli on targets[i]."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps == 0.0:
        return state
    targets = list(targets)
    hit = np.flatnonzero(rng.random(state.batch_shape) < eps)
    if hit.size:
        which = rng.integers(4 ** len(targets), size=hit.size)
        psi = _flat(state)
        sub = psi[hit]
        for i, q in enumerate(targets):
            v = sub.reshape(hit.size, -1, 2, 2**q)
            sub = np.einsum("sab,sxbq->sxaq", _PAULIS[which // 4**i % 4], v)
        psi[hit] = sub.reshape(-1, *psi.shape[1:])
        state.psi = psi.reshape(state.psi.shape)
    return state


def apply_t1_decay(state: RegisterState, targets, dt: float,
                   rng: np.random.Generator, t1: float = 1.168):
    """Amplitude damping D -> S unraveled as a quantum jump per shot;
    a zero jump probability (dt = 0 or t1 = inf) draws nothing."""
    if dt < 0 or not t1 > 0:
        raise ValueError(f"need dt >= 0 and t1 > 0, got dt={dt}, t1={t1}")
    p = 1.0 - math.exp(-dt / t1)
    if p == 0.0:
        return state
    for q in targets:
        v = state.qubit_view(q)
        p_dark = np.sum(np.abs(v[..., 0, :]) ** 2, axis=(-3, -2, -1))
        jump = rng.random(state.batch_shape) < p * p_dark
        if np.any(jump):  # jump: D collapses to S
            jump = np.expand_dims(jump, (-3, -2, -1))
            v[..., 1, :] = np.where(jump, v[..., 0, :], v[..., 1, :])
            v[..., 0, :] = np.where(jump, 0.0, v[..., 0, :] * math.sqrt(1.0 - p))
        else:
            v[..., 0, :] *= math.sqrt(1.0 - p)
        state.renormalize()
    return state


def evolve_phonon_heating(state: RegisterState, dt: float, rate: float,
                          rng: np.random.Generator):
    """Heating as a jump unraveling of L_up = sqrt(rate) a†, L_dn = sqrt(rate) a.

    The ensemble mean occupation grows linearly: d<n>/dt = rate.  All shots
    of a batch share the step, sized for the shot with the highest jump rate.
    """
    if state.phonon is None or rate <= 0.0 or dt <= 0.0:
        return state
    ns = np.arange(state.fock_dim, dtype=float)
    ladder = np.sqrt(ns[1:])[:, None]
    t = 0.0
    while t < dt:
        n_mean = np.dot((np.abs(state.psi) ** 2).sum(axis=-1), ns)
        total_rate = rate * (2.0 * n_mean + 1.0)
        step = min(dt - t, _MAX_JUMP_PROB / float(np.max(total_rate)))
        p_up = rate * step * (n_mean + 1.0)
        p_dn = rate * step * n_mean
        u = rng.random(state.batch_shape)
        up = np.flatnonzero(u < p_up)
        dn = np.flatnonzero((u >= p_up) & (u < p_up + p_dn))
        psi = _flat(state)
        # A shot held wholly in the top level has no level to jump up to.
        up = up[(np.abs(psi[up, :-1]) ** 2).sum(axis=(1, 2)) > 0.0]
        raised, lowered = psi[up, :-1] * ladder, psi[dn, 1:] * ladder
        # No-jump evolution under the effective non-Hermitian Hamiltonian.
        psi *= np.exp(-0.5 * rate * step * (2.0 * ns + 1.0))[:, None]
        psi[up] = 0.0
        psi[up, 1:] = raised
        psi[dn] = 0.0
        psi[dn, :-1] = lowered
        state.psi = psi.reshape(state.psi.shape)
        state.renormalize()
        t += step
    return state


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def project_bits(state: RegisterState, rng: np.random.Generator) -> np.ndarray:
    """Projective computational-basis measurement of every shot; collapses
    the state.  Returns bits of shape batch_shape + (n,)."""
    probs = state.probabilities()
    probs = probs / probs.sum(axis=-1, keepdims=True)
    # Inverse-CDF draw, as Generator.choice(p=probs) makes it.
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(state.batch_shape)
    idx = np.sum(cdf <= np.expand_dims(u, -1), axis=-1)
    psi = _flat(state)
    rows, cols = np.arange(len(psi)), idx.reshape(-1)
    keep = psi[rows, :, cols]
    fp = (np.abs(keep) ** 2).sum(axis=-1)
    psi[:] = 0.0
    psi[rows, :, cols] = keep / np.sqrt(fp)[:, None]
    state.psi = psi.reshape(state.psi.shape)
    return ((np.expand_dims(idx, -1) >> np.arange(state.n)) & 1).astype(np.int8)


def detect(state: RegisterState, detection: DetectionModel,
           rng: np.random.Generator):
    """Project every shot and read it out through the detection model;
    returns (detected_bits, counts), each of shape batch_shape + (n,)."""
    counts = detection.sample_counts(project_bits(state, rng), rng)
    return detection.classify(counts), counts


def measure(state: RegisterState, shots: int, detection: DetectionModel,
            rng: np.random.Generator):
    """Sample shots from a single state's basis distribution without
    collapsing it, then run each projected bit pattern through the
    Poisson-threshold detection model.

    Returns (detected_bits, counts), both of shape (shots, n).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    probs = probs / probs.sum()
    idx = rng.choice(len(probs), p=probs, size=shots)
    bits = ((idx[:, None] >> np.arange(state.n)[None, :]) & 1).astype(np.int8)
    counts = detection.sample_counts(bits, rng)
    return detection.classify(counts), counts


# ---------------------------------------------------------------------------
# Bichromatic Moelmer-Soerensen dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BichromaticParams:
    """Two symmetric tones at +-(nu + delta) around the carrier, near the
    red and blue sidebands of one bus mode."""

    omega_rabi: float  # rad/s, per ion per tone
    nu: float  # bus mode frequency, rad/s
    delta: float  # detuning from the sidebands, rad/s
    etas: tuple  # Lamb-Dicke parameter per addressed ion
    t: float  # s

    def __post_init__(self):
        fields = (self.omega_rabi, self.nu, self.delta, self.t, *self.etas)
        if not (all(map(math.isfinite, fields)) and self.nu > 0 and self.t > 0):
            raise ValueError(f"need finite parameters with nu > 0 and t > 0, got {self}")


def apply_ms_bichromatic(state: RegisterState, params: BichromaticParams,
                         leakage_threshold: float = 1e-6,
                         steps_per_period: int = 50):
    """Integrate the two-tone interaction Hamiltonian in the truncated
    Fock space with a fixed-step midpoint exponential propagator, for one
    state or every shot of a batch (each one leakage-checked).

    With P(t) = diag(exp(-i nu t n)) on the mode, H(t) = drive(t) P H0 P†,
    drive(t) = 2 Omega cos((nu + delta) t) and the fixed
    H0 = sum_j expm(i eta_j (a + a†)) ⊗ sigma+_j + h.c. = V diag(w) V†.
    Step k is P(t_k) V exp(-i drive(t_k) dt w) V† P(t_k)†, and
    P(t_{k+1})† P(t_k) = P(dt)†: one eigendecomposition serves the gate,
    and a step is a phase per eigenvector then a product with the
    constant W = V† P(dt)† V.
    """
    if state.phonon is None:
        raise ValueError("phonon mode must be attached")
    if steps_per_period < 50:
        raise StepTooCoarse("need >= 50 steps per fastest period")
    n = state.n
    fock_dim = state.fock_dim
    nmax = state.phonon.n_max
    if len(params.etas) != n:
        raise ValueError("one Lamb-Dicke parameter per addressed ion")
    tone = params.nu + params.delta
    dt = 2.0 * math.pi / (steps_per_period * max(abs(tone), params.nu))
    n_steps = max(1, int(math.ceil(params.t / dt)))
    dt = params.t / n_steps

    a = np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1)
    x = a + a.T  # a + a†
    ns = np.arange(fock_dim, dtype=float)

    # Ions sharing one eta share expm(i eta x), so their sigma+_j = |D><S|
    # add up: one entry per basis state whose qubit j is D (bit 0).
    idx = np.arange(2**n)
    sp_by_eta = {}
    for j, eta in enumerate(params.etas):
        sp = sp_by_eta.setdefault(eta, np.zeros((2**n, 2**n), dtype=complex))
        dark = idx[(idx >> j) & 1 == 0]
        sp[dark, dark | 1 << j] = 1.0
    h0 = np.zeros((fock_dim * 2**n, fock_dim * 2**n), dtype=complex)
    for eta, sp in sp_by_eta.items():
        w, v = np.linalg.eigh(eta * x)
        h0 += np.kron((v * np.exp(1j * w)) @ v.conj().T, sp)  # fock-major, as psi
    w, v = np.linalg.eigh(h0 + h0.conj().T)

    # Phase of mode level n in P(t), repeated over the 2**n spin states.
    def frame(t):
        return np.repeat(np.exp(-1j * params.nu * t * ns), 2**n)[:, None]

    step = v.conj().T @ (frame(-dt) * v)  # W
    drive = 2.0 * params.omega_rabi * np.cos(tone * (np.arange(n_steps) + 0.5) * dt)
    wdt = -1j * dt * w[:, None]
    psi = _flat(state).reshape(-1, fock_dim * 2**n).T  # one column per shot
    phi = v.conj().T @ (frame(-0.5 * dt) * psi)
    for d in drive[:-1]:
        phi = step @ (np.exp(d * wdt) * phi)
    psi = frame((n_steps - 0.5) * dt) * (v @ (np.exp(drive[-1] * wdt) * phi))

    state.psi = psi.T.reshape(state.psi.shape)
    leak = float(np.max(np.sum(np.abs(state.psi[..., nmax, :]) ** 2, axis=-1)))
    if leak > leakage_threshold:
        raise FockLeakage(f"Fock cutoff population {leak:.2e}", leakage=leak)
    return state


_MS_CHI = math.pi / 4  # MS(pi/4): the fully entangling two-ion gate
_CALIB_TOL = 1e-6  # rad, largest |chi - _MS_CHI| calibration accepts
_CALIB_MAX_EVALS = 8  # gate evaluations before calibration gives up


def calibrate_ms_rabi(eta: float, delta: float, t: float, nu: float,
                      n_max: int = 10) -> float:
    """Solve the tone Rabi frequency at which the two-ion bichromatic gate
    of duration t acquires the MS phase chi = pi/4 (|SS> -> cos chi |SS>
    - i sin chi |DD>).

    The start is the Lamb-Dicke closed form chi = 2 (eta Omega)^2 t / delta
    at closure (Soerensen & Moelmer, PRA 62, 022311 (2000); Roos, NJP 10,
    013002 (2008)).  Since chi grows as Omega^2, each gate evaluation
    rescales Omega by sqrt(pi/4 / chi) until chi is within _CALIB_TOL.
    """
    if not all(math.isfinite(v) and v > 0 for v in (eta, delta, t, nu)):
        raise ValueError(f"need finite eta, delta, t, nu > 0, got "
                         f"eta={eta}, delta={delta}, t={t}, nu={nu}")
    # The gate runs at the caller's cutoff: a lower one shifts chi by more
    # than _CALIB_TOL (1e-4 rad at cutoff 6 for eta 0.095).
    phonon = PhononMode(frequency=nu, n_max=n_max)
    omega = math.sqrt(_MS_CHI * delta / (2.0 * t)) / eta
    for _ in range(_CALIB_MAX_EVALS):
        st = apply_ms_bichromatic(RegisterState(2, phonon=phonon), BichromaticParams(
            omega_rabi=omega, nu=nu, delta=delta, etas=(eta, eta), t=t))
        probs = st.probabilities()
        chi = math.atan2(math.sqrt(probs[0]), math.sqrt(probs[3]))
        if not chi > 0:
            raise ValueError(f"MS calibration: no entangling phase at Omega = {omega}")
        if abs(chi - _MS_CHI) <= _CALIB_TOL:
            return omega
        omega *= math.sqrt(_MS_CHI / chi)
    raise ValueError(f"MS calibration: chi = {chi} after {_CALIB_MAX_EVALS} gate evaluations")


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShotRecord:
    shot: int
    bits: tuple
    counts: tuple
    valid: bool


def valid_bits(records) -> np.ndarray:
    """Bits of the shots no collision invalidated, shape (valid shots, n)."""
    bits = [r.bits for r in records if r.valid]
    if not bits:
        raise NoValidShots(f"no valid shots: collisions invalidated all {len(records)}")
    return np.array(bits)


def _apply_ms_event(state, e, targets, weights=None):
    """Ideal MS of a bichromatic event run in the virtual frames f of its
    qubits: RZ(-f) MS RZ(f), the rule that shifts carrier phases by -f."""
    if e.frames:
        apply_rz(state, range(len(e.frames)), 1.0, scale=e.frames)
    apply_ms_ideal(state, targets, e.angle, weights=weights)
    if e.frames:
        apply_rz(state, range(len(e.frames)), -1.0, scale=e.frames)


def _noise_interval(state, dt_s, noise, rng, qubit_kind, detunings_hz):
    if dt_s <= 0:
        return
    targets = range(state.n)
    apply_dephasing(state, targets, dt_s, noise.t2(qubit_kind), rng,
                    detuning_hz=detunings_hz)
    apply_t1_decay(state, targets, dt_s, rng, t1=noise.t1)


def _run_events(events, state, noise, rng, crosstalk, qubit_kind,
                detunings_hz, t_now, last):
    """Apply events in time order to every shot of the batched state;
    `last` holds the latest detected bits and counts per shot."""
    def idle(st, dt_s):
        _noise_interval(st, dt_s, noise, rng, qubit_kind, detunings_hz)

    for e in sorted(events, key=lambda ev: (ev.start, ev.kind != "frame_advance")):
        idle(state, (e.start - t_now) * 1e-9)
        half = e.duration * 1e-9 / 2
        if e.kind in ("carrier", "ac_stark", "bichromatic"):
            idle(state, half)
            if e.kind == "bichromatic":
                targets, weights = e.targets, None
                if crosstalk is not None and e.bus == "radial":
                    weights = np.max(crosstalk[:, list(e.targets)], axis=1)
                    weights[list(e.targets)] = 1.0
                    targets = range(state.n)
                _apply_ms_event(state, e, targets, weights)
                apply_depolarizing(state, e.targets, noise.eps_2q, rng)
            else:
                targets, scale = e.targets, None
                if e.channel != "g" and crosstalk is not None:
                    col = crosstalk[:, e.targets[0]]
                    targets, scale = range(state.n), (col if e.kind == "carrier" else col**2)
                if e.kind == "carrier":
                    apply_rotation(state, targets, e.angle, e.phase, rabi_scale=scale)
                else:
                    apply_rz(state, targets, e.angle, scale=scale)
                eps = noise.eps_1q * abs(e.angle) / (math.pi / 2)
                apply_depolarizing(state, e.targets, eps, rng)
            idle(state, half)
        elif e.kind == "measure":
            last["bits"], last["counts"] = detect(state, noise.detection, rng)
        elif e.kind == "branch_point":
            fire = predicate_matches(e.predicate, last["bits"])
            if fire.any():
                body = [replace(b, start=b.start + e.start) for b in e.body]
                sub = state.subset(fire)
                sub_last = {k: v[fire] for k, v in last.items()}
                t_end = _run_events(body, sub, noise, rng, crosstalk, qubit_kind,
                                    detunings_hz, e.start, sub_last)
                state.psi[fire] = sub.psi
                for k, v in sub_last.items():
                    last[k][fire] = v
                if not fire.all():
                    # The other shots idle through the slot the body takes.
                    rest = state.subset(~fire)
                    idle(rest, (t_end - e.start) * 1e-9)
                    state.psi[~fire] = rest.psi
                t_now = t_end
                continue
        t_now = max(t_now, e.end)
    return t_now


# State bytes of one batched pass; bounds memory whatever the shot count.
_CHUNK_BYTES = 8 << 20


def run_schedule(schedule: PulseSchedule, machine: MachineConfig,
                 noise: NoiseConfig, shots: int, seed: int,
                 crosstalk: np.ndarray = None, qubit_kind: str = "optical",
                 positions_um: np.ndarray = None, phonon: PhononMode = None,
                 threads: int = 1) -> list:
    """Execute a validated schedule on the spins, all shots as batched
    trajectories.

    Each chunk of at most _CHUNK_BYTES of state is one batched state with
    its own random stream keyed by (seed, chunk index).  A BRANCH runs its
    body on the shots whose detected bits match.  MS events are ideal gates
    plus depolarizing (see apply_ms_bichromatic).

    `phonon` and `threads` have no effect.  No operator of the interpreter
    couples spin and motion, and a jump channel on one tensor factor leaves
    the other factor's marginal unchanged, so a motional mode would never
    change a bit or a count.
    """
    n = machine.n_qubits
    detunings = (np.zeros(n) if positions_um is None else
                 np.asarray(positions_um, dtype=float) * noise.gradient_for(qubit_kind))
    lam = noise.collision_rate * n * (schedule.duration_ns * 1e-9)
    chunk = max(1, _CHUNK_BYTES // (2**n * 16))
    bits, counts, valid = [], [], []
    for c, start in enumerate(range(0, shots, chunk)):
        size, rng = min(chunk, shots - start), np.random.default_rng([seed, c])
        state = RegisterState(n, shots=size)
        if noise.spam_prep > 0:
            basis = np.where(rng.random((size, n)) < noise.spam_prep, 0, 1 << np.arange(n))
            state.psi[:] = 0.0
            state.psi[np.arange(size), 0, basis.sum(axis=1)] = 1.0
        last = {"bits": None, "counts": None}
        _run_events(schedule.events, state, noise, rng, crosstalk, qubit_kind,
                    detunings, 0, last)
        if last["bits"] is None:
            last["bits"], last["counts"] = detect(state, noise.detection, rng)
        bits += last["bits"].tolist()
        counts += last["counts"].tolist()
        valid += (rng.poisson(lam, size=size) == 0).tolist()
    return list(map(ShotRecord, range(len(valid)), map(tuple, bits), map(tuple, counts), valid))


# Noise that never acts: no dephasing, decay or depolarizing.
_QUIET = NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf)


def schedule_statevector(schedule: PulseSchedule, machine: MachineConfig) -> np.ndarray:
    """Noise-free state vector of a branch-free, measure-free schedule: the
    run_schedule interpreter on one state under quiet noise, then the
    residual virtual frames applied as trailing Z rotations."""
    if any(e.kind in ("measure", "branch_point") for e in schedule.events):
        raise ValueError("statevector mode supports branch-free, measure-free schedules")
    state = RegisterState(machine.n_qubits)
    _run_events(schedule.events, state, _QUIET, np.random.default_rng(0), None,
                "optical", None, 0, {})
    apply_rz(state, range(machine.n_qubits), 1.0, scale=schedule.frames)
    return state.psi[0]


def circuit_statevector(instructions, n_qubits: int) -> np.ndarray:
    """Gate-level reference unitary product on |S...S>."""
    from . import compiler as c
    state = RegisterState(n_qubits)
    for ins in instructions:
        if isinstance(ins, c.R):
            tg = range(n_qubits) if ins.targets == "all" else ins.targets
            apply_rotation(state, tg, ins.theta, ins.phi)
        elif isinstance(ins, c.RZ):
            tg = range(n_qubits) if ins.targets == "all" else ins.targets
            apply_rz(state, tg, ins.theta)
        elif isinstance(ins, c.MS):
            tg = range(n_qubits) if ins.targets == "all" else ins.targets
            apply_ms_ideal(state, tg, ins.chi)
        elif isinstance(ins, (c.PrepareAll, c.Delay)):
            pass
        else:
            raise ValueError(f"unsupported in statevector mode: {ins!r}")
    return state.psi[0]
