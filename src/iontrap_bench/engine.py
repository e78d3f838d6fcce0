"""State-vector dynamics of the spins and of the bichromatic gate.

Noise enters through Monte-Carlo wave-function trajectories (Dalibard,
Castin & Moelmer, PRL 68, 580 (1992)) on a spin register of shape
(shots, 2**n), a single state being one shot; the noise channels and the
readout act on that layout only and draw one random number per shot.
Only the bichromatic gate's state carries a truncated phonon (Fock) axis.
The bichromatic gate reuses what a call at the previous setting built:
its Omega-free eigenbasis, keyed on (etas, nu, dt, n, fock_dim), and its
drive and whole-step product, keyed on (params, n, fock_dim); each piece
keeps only the last key, so a calibration and the gates at its Omega
share them while a new detuning rebuilds both.
A layer of one-qubit gates is one dense pass per block of up to four
qubits (gate fusion: Haener & Steiger, SC'17, arXiv:1704.01127), and so
are the Hadamard layers of the ideal MS gate; run_schedule builds each
MS gate's phase table once per call.  The idle noise, dephasing then T1,
acts on every qubit of the register in one pass per interval.  T1
follows the unnormalized unraveling (Plenio & Knight, RMP 70, 101
(1998)) with all its draws at once: only shots with a uniform below the
jump probability p take the jump test, each other shot's no-jump norm is
one product with (1 - p) ** (dark bits), and one per-shot diagonal carries
the kicks, the no-jump scale and the renormalization; only shots that jump
take the per-qubit rule.  The
readout of a run (detect) draws photon counts and classifies them; the
experiments read out through the law of those counts, the threshold's
per-ion error probabilities (DetectionModel.flip_probs), and draw no
counts: measure convolves the law of the true number of bright ions with
it and draws the histogram of the detected count as one multinomial, and
DetectionModel.read_dark is its one-ion case in closed form.
Basis convention: qubit 0 is the least significant bit of the amplitude
index; bit 1 is the bright S ground state, bit 0 the dark D excited state.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .compiler import (GLOBAL_CHANNEL, Event, MachineConfig, PulseSchedule,
                       expand_targets, predicate_matches)
from .errors import FockLeakage, NoValidShots

_MAX_STATE_BYTES = 1 << 30  # largest state array RegisterState allocates
_JUMP_MARGIN = 1e-6  # on p of a T1 jump candidate; see apply_t1_decay
_MAX_JUMP_PROB = 0.02  # largest jump probability of one heating step
_SENSITIVITY_RATIO = 5.6 / 28.0  # optical vs ground-state field sensitivity
_STEPS_PER_PERIOD = 50  # MS integrator steps per period of the faster of tone and mode
# Largest mean numpy's Poisson sampler takes (its POISSON_LAM_MAX), about 9.22e18.
_POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))
# Readout integral: a decay after _DECAY_SPAN lifetimes weighs below e**-40;
# panels span at most _PANEL_SDS count standard deviations, at most
# _MAX_PANELS of them (reached past about 1e9 signal counts per window).
_DECAY_SPAN = 40.0
_PANEL_SDS = 8.0
_MAX_PANELS = 4096


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionModel:
    """Poisson photon-count readout with D-state decay during the window."""

    bright_rate: float = 5e5  # counts/s
    window: float = 3e-4  # s
    dark_mean: float = 2.0  # counts per window
    t1: float = 1.168  # s, D-state lifetime folded into the window (a NoiseConfig's t1)

    def __post_init__(self):
        if not self.t1 > 0:
            raise ValueError(f"t1 must be positive, got {self.t1}")
        # A zero window or bright rate leaves the readout without signal.
        for name in ("bright_rate", "window"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.dark_mean < math.inf:
            raise ValueError(f"dark_mean must be finite and non-negative, got {self.dark_mean}")
        if not math.isfinite(self.bright_mean):
            raise ValueError(f"bright_rate * window + dark_mean must be finite, got "
                             f"bright_rate={self.bright_rate}, window={self.window}, "
                             f"dark_mean={self.dark_mean}")
        # dark_mean first: a dark mean past the limit is the one named.
        for name, mean in (("dark_mean", self.dark_mean),
                           ("bright_rate * window + dark_mean", self.bright_mean)):
            if mean > _POISSON_MAX:
                raise ValueError(f"{name} must be at most {_POISSON_MAX:.4g}, the largest "
                                 f"Poisson mean numpy samples, got {mean:.4g}")

    @property
    def bright_mean(self) -> float:
        return self.bright_rate * self.window + self.dark_mean

    @property
    def decay_prob(self) -> float:
        """Probability that a dark ion decays bright within the window."""
        return 1.0 - math.exp(-self.window / self.t1)

    @cached_property
    def threshold(self) -> int:
        """Count threshold minimizing total dark/bright misclassification,
        P(dark >= k) + P(bright < k), over k in [1, bright_mean].

        Raising k by one changes the error by P(bright = k) - P(dark = k),
        which is negative below the logarithmic mean of the two means and
        non-negative from it on, so the minimizer is the first integer at
        or above that mean (the lowest k of a tie)."""
        if self.dark_mean == 0.0:
            return 1  # no dark counts: every raise of k only loses bright ones
        signal = self.bright_rate * self.window
        k = math.ceil(signal / math.log1p(signal / self.dark_mean))
        return max(1, min(k, int(self.bright_mean)))

    @cached_property
    def flip_probs(self) -> tuple:
        """(e0, e1): the probability that the threshold reads a dark ion
        bright and a bright ion dark, the law sample_counts and classify
        give without drawing a count.

        e1 = P(Poisson(bright_mean) < k).  A dark ion that stays dark over
        the window reads bright with P(Poisson(dark_mean) >= k); one that
        decays at t, with density exp(-t/t1)/t1, gains bright_rate
        (window - t) counts on average (Myerson et al., PRL 100, 200502
        (2008)).  That integral is a sum of 40-node Gauss-Legendre panels,
        none longer than t1 or than _PANEL_SDS standard deviations of the
        counts at the threshold, over the window or its first
        _DECAY_SPAN lifetimes."""
        from scipy.special import pdtr, pdtrc  # loaded on first use: only readout laws need it
        k = self.threshold - 1  # P(X >= threshold) = pdtrc(k, m), P(X < threshold) = pdtr(k, m)
        span = min(self.window, _DECAY_SPAN * self.t1)
        panels = min(_MAX_PANELS, max(
            math.ceil(span / self.t1),
            math.ceil(self.bright_rate * span / (_PANEL_SDS * math.sqrt(k + 1)))))
        x, weights = np.polynomial.legendre.leggauss(40)
        width = span / panels
        t = width * (np.arange(panels)[:, None] + 0.5 * (x + 1.0))
        decayed = (np.exp(-t / self.t1)
                   * pdtrc(k, self.dark_mean + self.bright_rate * (self.window - t)))
        # The density's 1/t1 joins the panel width, so a tiny t1 cannot overflow the sum.
        e0 = (math.exp(-self.window / self.t1) * float(pdtrc(k, self.dark_mean))
              + 0.5 * (width / self.t1) * float(np.sum(weights * decayed)))
        return min(e0, 1.0), float(pdtr(k, self.bright_mean))

    def read_dark(self, p_dark):
        """The probability that one ion reads dark when it is dark with
        probability p_dark (a float or an array of them): e1 + (1 - e0 -
        e1) p_dark over the flip pair, detected_count_law([p_dark, 1 -
        p_dark], e0, e1)[0] in closed form.  p_dark = 0 and 1 give e1 and
        1 - e0; at e0 = e1 = 0 it returns p_dark itself."""
        e0, e1 = self.flip_probs
        return e1 + (1.0 - e0 - e1) * p_dark

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
    eps_1q: float = 0.0  # depolarizing probability per single-qubit pulse
    eps_2q: float = 0.0  # per-MS depolarizing probability
    spam_prep: float = 0.0  # probability of preparing D instead of S
    heating_rate_ref: float = 0.221  # quanta/s at omega_ref
    heating_omega_ref: float = 2 * math.pi * 1.05e6  # rad/s
    heating_alpha: float = 1.7
    collision_rate: float = 0.0025  # per ion per second
    gradient_hz_per_um: float = 3.1  # ground-state qubit, uncompensated
    gradient_compensated_hz_per_um: float = 0.2
    gradient_compensation: bool = True
    detection: DetectionModel = field(default_factory=DetectionModel)  # takes t1 above

    def __post_init__(self):
        for name in ("t2_optical", "t2_ground", "t1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        object.__setattr__(self, "detection", replace(self.detection, t1=self.t1))
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

    @staticmethod
    def _is_ground(qubit_kind: str) -> bool:
        if qubit_kind not in ("ground", "optical"):
            raise ValueError(f"qubit_kind must be 'ground' or 'optical', got {qubit_kind!r}")
        return qubit_kind == "ground"

    def t2(self, qubit_kind: str) -> float:
        return self.t2_ground if self._is_ground(qubit_kind) else self.t2_optical

    def gradient_for(self, qubit_kind: str) -> float:
        g = (self.gradient_compensated_hz_per_um if self.gradient_compensation
             else self.gradient_hz_per_um)
        return g if self._is_ground(qubit_kind) else g * _SENSITIVITY_RATIO

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
    """N-qubit state vector: psi is (shots, 2**n) for a spin register, one
    shot when shots is None; with the bichromatic gate's phonon mode it is
    (fock_dim, 2**n), or (shots, fock_dim, 2**n) when shots is given, and
    fock_index may be per shot.  The density-matrix helpers take a single
    phonon state."""

    def __init__(self, n_qubits: int, phonon: PhononMode = None, fock_index=0,
                 shots: int = None):
        self.n = n_qubits
        self.phonon = phonon
        batch = () if shots is None else (shots,)
        shape = (batch + (self.fock_dim, 2**n_qubits) if phonon
                 else (batch or (1,)) + (2**n_qubits,))
        if math.prod(shape) * 16 > _MAX_STATE_BYTES:
            raise MemoryError("state exceeds the memory cap")
        self.psi = np.zeros(shape, dtype=complex)
        flat = self.psi.reshape(-1, self.fock_dim, 2**n_qubits)
        flat[np.arange(len(flat)), fock_index, -1] = 1.0  # all-bright |S...S>

    @property
    def fock_dim(self) -> int:
        return 1 if self.phonon is None else self.phonon.n_max + 1

    @property
    def batch_shape(self) -> tuple:
        """(shots,) of a spin register; () for a single phonon state."""
        return self.psi.shape[:-1] if self.phonon is None else self.psi.shape[:-2]

    def renormalize(self):
        """Each shot (a single state: the whole state) to norm 1, in place
        over one real row per shot, a float view of contiguous psi."""
        self.psi = np.ascontiguousarray(self.psi)
        rows = self.psi.reshape(self.batch_shape + (-1,)).view(float)
        rows *= (1.0 / np.sqrt(np.einsum("...i,...i->...", rows, rows)))[..., None]

    def subset(self, mask) -> "RegisterState":
        """A batched state holding a copy of the shots that mask selects."""
        sub = copy.copy(self)
        sub.psi = self.psi[mask]
        return sub

    def probabilities(self) -> np.ndarray:
        """A spin register's outcome law per shot; a phonon state's spin marginal."""
        probs = np.abs(self.psi)
        probs *= probs
        return probs if self.phonon is None else probs.sum(axis=-2)

    def spin_density(self) -> np.ndarray:
        """Reduced spin density matrix (traces out the phonon)."""
        return np.einsum("fi,fj->ij", self.psi, self.psi.conj())


def _spin_register(state: RegisterState):
    """The noise channels and the readout act on a spin register only."""
    if state.phonon is not None:
        raise ValueError("need a spin register (shots, 2**n), got a state with a phonon mode")


_BLOCK = 4  # qubits per dense pass of a 1-qubit layer: one 16 x 16 matrix
_EYE = np.eye(2, dtype=complex)
_SQRT2_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)  # unnormalized butterfly


def _apply_layer(state: RegisterState, mats) -> RegisterState:
    """The 2x2 matrix mats[q] on each qubit q of every state in state.psi
    (None: the identity), as one dense pass per block of _BLOCK qubits from
    q0, a multiple of _BLOCK, that holds a matrix: the Kronecker product of
    the block's k matrices, highest qubit first, times a (-1, 2**k, 2**q0)
    view of psi.  The lowest block is a single GEMM, and every other pass
    multiplies rows of at least 2**_BLOCK amplitudes.  Each pass replaces
    state.psi, so at most two copies are alive."""
    for q0 in range(0, state.n, _BLOCK):
        block = [_EYE if m is None else m for m in mats[q0:q0 + _BLOCK]]
        if all(m is _EYE for m in block):
            continue
        u = block[0]
        for m in block[1:]:
            u = (m[:, None, :, None] * u[None, :, None, :]).reshape(2 * len(u), -1)  # kron(m, u)
        psi = state.psi
        if q0 == 0:
            state.psi = (psi.reshape(-1, len(u)) @ u.T).reshape(psi.shape)
        else:
            state.psi = np.matmul(u, psi.reshape(-1, len(u), 2**q0)).reshape(psi.shape)
    return state


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -1j * np.exp(-1j * phi) * s],
         [-1j * np.exp(1j * phi) * s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2.0), 0.0],
                     [0.0, np.exp(1j * theta / 2.0)]], dtype=complex)


def _checked_targets(state: RegisterState, targets, angle: float = 0.0) -> list:
    targets = list(targets)
    if not math.isfinite(angle) or not all(0 <= q < state.n for q in targets):
        raise ValueError(f"need a finite angle and targets in [0, {state.n}): "
                         f"got {angle} on {targets}")
    return targets


def _apply_scaled(state, targets, theta, scale, matrix):
    """Apply matrix(theta * s) to each target; s = 0 skips the target."""
    targets = _checked_targets(state, targets, theta)
    mats = [None] * state.n
    for q, s in zip(targets, [1.0] * len(targets) if scale is None else scale):
        if s != 0.0:
            m = matrix(theta * s)
            mats[q] = m if mats[q] is None else m @ mats[q]  # repeats compose in order
    return _apply_layer(state, mats)


def apply_rotation(state: RegisterState, targets, theta: float, phi: float,
                   rabi_scale=None):
    """Resonant carrier rotation; rabi_scale rescales theta per target."""
    return _apply_scaled(state, targets, theta, rabi_scale,
                         lambda angle: rotation_matrix(angle, phi))


def apply_rz(state: RegisterState, targets, theta: float, scale=None):
    return _apply_scaled(state, targets, theta, scale, rz_matrix)


def apply_ms_ideal(state: RegisterState, targets, chi: float):
    """Collective-spin entangling gate exp(-i chi/2 (Sx^2 - k)) on k equally
    lit targets.

    On two ions this is the standard 4x4 bichromatic-gate matrix (cos chi
    diagonal, -i sin chi anti-diagonal).  Unequal illumination (crosstalk
    on spectators) enters through run_schedule's phase tables (_ms_tables).
    """
    targets = _checked_targets(state, targets, chi)
    if len(set(targets)) != len(targets) or len(targets) < 2:
        raise ValueError("MS needs >= 2 distinct targets")
    return _apply_ms_phase(state, targets, _ms_phase(state.n, targets, np.ones(len(targets)), chi))


def _apply_ms_phase(state: RegisterState, targets, phase: np.ndarray) -> RegisterState:
    """The MS gate whose Hadamard-frame phase table _ms_phase built, between
    Hadamards on the targets, as unnormalized butterflies sqrt(2) H: the
    two layers' factor 2**-k scales the phase exactly."""
    hadamards = [None] * state.n
    for q in targets:
        hadamards[q] = _SQRT2_H
    _apply_layer(state, hadamards)
    state.psi *= np.broadcast_to(phase, (2,) * state.n).reshape(-1)
    return _apply_layer(state, hadamards)


def _ms_phase(n: int, targets, weights, chi: float) -> np.ndarray:
    """exp(-i chi/2 (m**2 - sum w**2)) / 2**k in the Hadamard frame, m the
    weighted sum of +-1 per target (+1 for D), summed in target order: an
    n-axis array (axis n - 1 - q for qubit q) of 2**k entries, broadcast
    over the axes of the qubits that are no target."""
    m = 0.0
    for q, w in zip(targets, weights):
        axis = [1] * n
        axis[n - 1 - q] = 2
        m = m + w * np.array([1.0, -1.0]).reshape(axis)
    return np.exp(-1j * (chi / 2.0) * (m**2 - float(np.sum(weights**2)))) * 2.0 ** -len(targets)


def apply_dephasing(state: RegisterState, dt: float, t2: float,
                    rng: np.random.Generator, detuning_hz=None):
    """Stochastic Z kick per shot and qubit; the ensemble dephases as exp(-dt/T2).

    detuning_hz, one entry per qubit, adds a deterministic phase ramp
    (field gradients).  The kicks of all qubits are drawn at once, qubit 0
    first, and act through one per-shot diagonal: _noise_interval with no
    T1 decay.
    """
    _spin_register(state)
    if dt < 0 or not t2 > 0:
        raise ValueError(f"need dt >= 0 and t2 > 0, got dt={dt}, t2={t2}")
    if detuning_hz is not None and np.shape(detuning_hz) != (state.n,):
        raise ValueError(f"detuning_hz must hold one entry per qubit ({state.n}), "
                         f"got shape {np.shape(detuning_hz)}")
    return _noise_interval(state, dt, rng, math.inf, t2, detuning_hz)


def _noise_interval(state: RegisterState, dt: float, rng: np.random.Generator,
                    t1: float, t2: float, detuning_hz=None) -> RegisterState:
    """One idle interval of dt seconds (none if dt <= 0) on every qubit of a
    spin register: apply_dephasing's kicks then apply_t1_decay's jumps, with
    their draws in that order (normals if t2 < inf, then uniforms if
    p = 1 - exp(-dt/t1) > 0), in one pass.  The candidates of
    apply_t1_decay take the contraction of their populations, which the
    kicks keep, and it names the shots that jump.  Each other shot is
    multiplied once by one per-shot diagonal, kick_q on the set bits and
    sqrt(1 - p) on the clear bits of each qubit q, times 1/sqrt of its
    no-jump squared norm, one product with weights that factor over the low
    and high qubits.  A shot that jumps takes the kicks, then the per-qubit
    rule (_t1_in_turn), then renormalizes."""
    if dt <= 0:
        return state
    n, shots = state.n, len(state.psi)
    psi = state.psi = np.ascontiguousarray(state.psi)
    sigma = math.sqrt(2.0 * dt / t2)
    phase = rng.normal(0.0, sigma, size=(n, shots)) if sigma > 0 else np.zeros((n, shots))
    if detuning_hz is not None:
        phase += 2.0 * math.pi * np.asarray(detuning_hz, dtype=float)[:, None] * dt
    p = 1.0 - math.exp(-dt / t1)
    if p == 0.0 and not phase.any():
        return state
    kicks = np.empty(phase.shape, dtype=complex)  # exp(i phase), as cos and sin
    np.cos(phase, out=kicks.real)
    np.sin(phase, out=kicks.imag)
    if p == 0.0:
        _scale_diagonal(psi, kicks, 1.0, 1.0)
        return state
    u = rng.random((n, shots))
    k, weights = (n + 1) // 2, (1.0 - p) ** np.arange(n + 1)  # by number of dark bits
    norm2 = (np.square(psi.view(float)).reshape(shots, 2 ** (n - k), 2 ** (k + 1))
             @ weights[_dark_counts(k)]) @ weights[_dark_counts(n - k)[::2]]
    jumped = cand = np.logical_or.reduce(u < p * (1.0 + _JUMP_MARGIN)).nonzero()[0]
    if cand.size:
        cpsi = psi[cand]
        pops = np.square(cpsi.real) + np.square(cpsi.imag)
        dark2 = np.empty((n, cand.size))
        for q in range(n):
            halves = pops.reshape(cand.size, 2 ** (n - q - 1), 2)
            dark2[q] = np.add.reduce(halves[:, :, 0], axis=1)
            pops = halves[:, :, 0] * (1.0 - p) + halves[:, :, 1]
        loss = p * dark2
        # The squared norm before each qubit, as a loop of subtractions would give it.
        norms = np.subtract.accumulate(np.concatenate((np.ones((1, cand.size)), loss[:-1])))
        jumped = cand[np.logical_or.reduce(u[:, cand] * norms < loss)]  # no 0/0 at p = 1
        norm2[jumped] = 1.0
    sub = state.subset(jumped)  # a copy, taken before the scale
    _scale_diagonal(psi, kicks, math.sqrt(1.0 - p), 1.0 / np.sqrt(norm2))
    if jumped.size:
        _scale_diagonal(sub.psi, kicks[:, jumped], 1.0, 1.0)
        _t1_in_turn(sub.psi, p, u[:, jumped])
        sub.renormalize()
        psi[jumped] = sub.psi
    return state


def _scale_diagonal(psi: np.ndarray, kicks: np.ndarray, root: float, start):
    """Multiply psi, (shots, 2**n) and contiguous, in place by the per-shot
    diagonal whose entry [s, i] is start (a number, or an array of one per
    shot) times, for each qubit q, kicks[q, s] if bit q of i is set, else
    root (as root ** dark bits, so root = 0 needs no case of its own): by
    one _shot_table over the m lowest qubits (at least half of them, and
    each with 2**q < shots), then, if m < n, by one over the rest; a
    multiply by each table costs less than building their product."""
    n, shots = kicks.shape
    m = max(min(n, (shots - 1).bit_length()), (n + 1) // 2)
    v = psi.reshape(shots, 2 ** (n - m), 2**m)
    v *= _shot_table(kicks[:m], root, start).T[:, None, :]
    if m < n:
        v *= _shot_table(kicks[m:], root, 1.0).T[:, :, None]


def _shot_table(kicks: np.ndarray, root: float, start) -> np.ndarray:
    """The (2**k, shots) table, for kicks (k, shots), whose entry [i, s] is
    start (as in _scale_diagonal) times, for each j, kicks[j, s] if bit j
    of i is set, else root: the kicks by doubling along the shot axis, so
    that every pass multiplies rows of one entry per shot, then row i times
    root ** (dark bits of i)."""
    table = np.empty((2 ** len(kicks), kicks.shape[1]), dtype=complex)
    table[0] = start
    for j, kick in enumerate(kicks):
        np.multiply(table[:2**j], kick, out=table[2**j:2 ** (j + 1)])
    table *= (root ** np.arange(len(kicks) + 1))[_dark_counts(len(kicks))[::2], None]
    return table


@lru_cache(maxsize=8)
def _dark_counts(n: int) -> np.ndarray:
    """The dark (clear) bits of each basis index i < 2**n, twice: the real
    and imaginary slots of i in a float view of psi ([::2]: one per i)."""
    counts = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        counts = np.concatenate((counts + 1, counts))  # the next bit clear, then set
    return _read_only(np.repeat(counts, 2))[0]


_PAULIS = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]],
                    [[1.0, 0.0], [0.0, -1.0]]], dtype=complex)


def apply_depolarizing(state: RegisterState, targets, eps: float,
                       rng: np.random.Generator):
    """With probability eps per shot apply a uniformly random Pauli string
    (identity included): one uniform per shot, then one integer in
    [0, 4**k) per hit shot, whose base-4 digit i picks the Pauli on
    targets[i].  This is the channel rho -> (1 - eps) rho + eps I/d on the
    targets, which commutes with every unitary on them."""
    _spin_register(state)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    targets = _checked_targets(state, targets)
    if eps == 0.0:
        return state
    hit = np.flatnonzero(rng.random(len(state.psi)) < eps)
    if hit.size:
        which = rng.integers(4 ** len(targets), size=hit.size)
        sub = state.psi[hit]
        for i, q in enumerate(targets):
            v = sub.reshape(hit.size, -1, 2, 2**q)
            sub = np.einsum("sab,sxbq->sxaq", _PAULIS[which // 4**i % 4], v)
        state.psi[hit] = sub.reshape(hit.size, -1)
    return state


def apply_t1_decay(state: RegisterState, dt: float, rng: np.random.Generator,
                   t1: float):
    """Amplitude damping D -> S on every qubit, unraveled as a quantum jump
    per shot and qubit; a zero jump probability (dt = 0 or t1 = inf) draws
    nothing.

    The state enters normalized.  The qubits decay in index order without
    renormalizing in between (the unnormalized unraveling: Dalibard, Castin
    & Moelmer, PRL 68, 580 (1992); Plenio & Knight, RMP 70, 101 (1998)):
    norm2 tracks each shot's squared norm, qubit q jumps with probability
    p * dark2 / norm2 for dark2 its unnormalized D population, and the
    state is renormalized once at the end.  One uniform per qubit and shot
    is drawn at once, qubit 0 first.

    As dark2 <= norm2, only the candidates, the shots with a uniform below
    p * (1 + _JUMP_MARGIN), can jump: the float ratio exceeds 1 by a few
    ulps plus the norm's error over norm2 >= (1 - p) ** n, which passes
    1e-6 only where a shot avoids candidacy with chance (1 - p) ** n.
    Before any jump, qubit q's dark2 sums the populations with its bit
    dark, each weighted by (1 - p) ** (number of lower qubits dark in it);
    contracting one qubit axis at a time, lowest first, gives them all for
    the candidates: per qubit a sum of the dark half (dark2) and the dark
    half times (1 - p) plus the bright half.  Until a shot jumps its state
    is one real diagonal scale, sqrt(1 - p) per dark bit, with squared norm
    its populations times (1 - p) ** (dark bits); only a shot that jumps
    takes the per-qubit rule (_t1_in_turn).  This is the noise interval of
    _noise_interval with no dephasing.
    """
    _spin_register(state)
    if dt < 0 or not t1 > 0:
        raise ValueError(f"need dt >= 0 and t1 > 0, got dt={dt}, t1={t1}")
    return _noise_interval(state, dt, rng, t1, math.inf)


def _t1_in_turn(psi, p, u):
    """The per-qubit rule on psi, (shots, 2**n), in place, with
    uniforms u (n, shots): each qubit in turn jumps (its D amplitudes
    replace its S ones and leave D empty; norm2 becomes dark2) or is scaled
    by sqrt(1 - p) on D (norm2 loses p * dark2)."""
    norm2 = 1.0
    for q, uq in enumerate(u):
        v = psi.reshape(len(psi), -1, 2, 2**q)
        dark2 = np.sum(np.abs(v[:, :, 0]) ** 2, axis=(1, 2))
        jump = uq < p * dark2 / norm2
        mask = jump[:, None, None]
        v[:, :, 1] = np.where(mask, v[:, :, 0], v[:, :, 1])
        v[:, :, 0] = np.where(mask, 0.0, v[:, :, 0] * math.sqrt(1.0 - p))
        norm2 = np.where(jump, dark2, norm2 - p * dark2)


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
        psi = state.psi.reshape((-1,) + state.psi.shape[-2:])  # a single state is one shot
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
    the state.  Returns bits of shape (shots, n)."""
    _spin_register(state)
    # Inverse-CDF draw in place, as Generator.choice makes it; cdf[:, -1] normalizes.
    probs = state.probabilities()
    cdf = np.cumsum(probs, axis=-1, out=probs)
    cdf /= cdf[:, -1:]
    u = rng.random(len(cdf))
    idx = np.sum(cdf <= u[:, None], axis=-1)
    psi, rows = state.psi, np.arange(len(idx))
    keep = psi[rows, idx]
    psi[:] = 0.0
    psi[rows, idx] = keep / np.abs(keep)
    return ((idx[:, None] >> np.arange(state.n)) & 1).astype(np.int8)


def detect(state: RegisterState, detection: DetectionModel,
           rng: np.random.Generator):
    """Project every shot and read it out through the detection model;
    returns (detected_bits, counts), each of shape (shots, n)."""
    counts = detection.sample_counts(project_bits(state, rng), rng)
    return detection.classify(counts), counts


def bright_count_law(probs) -> np.ndarray:
    """P(k), k = 0..n: the law of the number of bright ions of an outcome
    law over the 2**n basis states, one bincount over the dark-bit table."""
    probs = np.asarray(probs, dtype=float)
    n = probs.size.bit_length() - 1
    if probs.shape != (2**n,):
        raise ValueError(f"need an outcome law over 2**n basis states, got shape {probs.shape}")
    return np.bincount(n - _dark_counts(n)[::2], weights=probs, minlength=n + 1)


def detected_count_law(count_law, e0: float, e1: float) -> np.ndarray:
    """The law of the detected bright count, given the law P(k) of the true
    one, k = 0..n, when each ion reads wrong on its own: a dark ion bright
    with probability e0, a bright one dark with e1.  Given k it is
    Binomial(k, 1 - e1) + Binomial(n - k, e0), the coefficients of
    u**k v**(n - k) in x, where u = e1 + (1 - e1) x and v = 1 - e0 + e0 x
    generate one bright and one dark ion's read count.  The sum over k is
    T_n of T_0 = P(0), T_j = v T_(j-1) + P(j) u**j: O(n**2) products and
    sums of non-negative terms.  Returned normalized."""
    law = np.asarray(count_law, dtype=float)
    if law.ndim != 1 or law.size < 2 or not (0.0 <= law.min() and 0.0 < law.max() < math.inf):
        raise ValueError("need a bright-count law of at least 2 finite, non-negative "
                         f"entries with a positive total, got count_law={law.tolist()}")
    law = law / law.max()  # no sum below can overflow
    dark, bright = np.array([1.0 - e0, e0]), np.array([e1, 1.0 - e1])
    total, bright_k = law[:1], np.ones(1)
    for p in law[1:]:
        bright_k = np.convolve(bright_k, bright)
        total = np.convolve(total, dark) + p * bright_k
    return total / total.sum()


def measure(count_law, shots: int, detection: DetectionModel, rng: np.random.Generator):
    """Sample shots from the law P(k), k = 0..n, of the true number of
    bright ions (bright_count_law of a state's probabilities(), or of a
    noisy law built from them), read out through the detection model's
    per-ion flip pair (e0, e1) = DetectionModel.flip_probs, the law of
    sample_counts then classify.  The shots are independent, so the
    histogram of the detected bright count is one multinomial draw of
    detected_count_law.

    Returns the histogram, shape (n + 1,): shots by detected bright count.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return rng.multinomial(shots, detected_count_law(count_law, *detection.flip_probs))


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
    etas: tuple  # Lamb-Dicke parameter per addressed ion, stored as a tuple of floats
    t: float  # s

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        fields = (self.omega_rabi, self.nu, self.delta, self.t, *self.etas)
        if not (all(map(math.isfinite, fields)) and self.nu > 0 and self.t > 0):
            raise ValueError(f"need finite parameters with nu > 0 and t > 0, got {self}")


def ms_steps(params: BichromaticParams) -> tuple:
    """(n_steps, m, q, r) of the bichromatic gate: n_steps midpoint steps of
    at most 1/_STEPS_PER_PERIOD of the faster of tone and mode period, m
    steps per tone period, and the n_steps - 1 whole steps before the
    closing half step as q whole periods and r steps more (q = 0 when a
    period is not a whole number of steps)."""
    tone = params.nu + params.delta
    dt = 2.0 * math.pi / (_STEPS_PER_PERIOD * max(abs(tone), params.nu))
    # The tolerance keeps a ratio that rounds just above an integer, such as
    # 1800.0000000000002, at that integer: one more step would break the period.
    n_steps = max(1, math.ceil(params.t / dt - 1e-9))
    period = 2.0 * math.pi * n_steps / (abs(tone) * params.t) if tone else 1.0
    m = round(period)
    q, r = divmod(n_steps - 1, m) if abs(period - m) <= 1e-9 else (0, n_steps - 1)
    return n_steps, m, q, r


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _frame(nu: float, t: float, ns: np.ndarray, n: int) -> np.ndarray:
    """Phase of mode level n in P(t), repeated over the 2**n spin states."""
    return np.repeat(np.exp(-1j * nu * t * ns), 2**n)[:, None]


@lru_cache(maxsize=1)
def _ms_basis(etas: tuple, nu: float, dt: float, n: int, fock_dim: int) -> tuple:
    """(V, -i dt w, W, Z', ns) of the bichromatic gate: H0 = V diag(w) V†,
    the one-step map W = V† P(dt)† V, the spin parity Z' = V† Z V and the
    mode levels ns, all read-only.  Omega-free, so every calibration
    evaluation and gate of one setting shares them; only the last key is
    kept."""
    a = np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1)
    x = a + a.T  # a + a†
    ns = np.arange(fock_dim, dtype=float)

    # Ions sharing one eta share expm(i eta x), so their sigma+_j = |D><S|
    # add up: one entry per basis state whose qubit j is D (bit 0).
    idx = np.arange(2**n)
    sp_by_eta = {}
    for j, eta in enumerate(etas):
        sp = sp_by_eta.setdefault(eta, np.zeros((2**n, 2**n), dtype=complex))
        dark = idx[(idx >> j) & 1 == 0]
        sp[dark, dark | 1 << j] = 1.0
    h0 = np.zeros((fock_dim * 2**n, fock_dim * 2**n), dtype=complex)
    for eta, sp in sp_by_eta.items():
        w, v = np.linalg.eigh(eta * x)
        h0 += np.kron((v * np.exp(1j * w)) @ v.conj().T, sp)  # fock-major, as psi
    w, v = np.linalg.eigh(h0 + h0.conj().T)
    step = v.conj().T @ (_frame(nu, -dt, ns, n) * v)  # W
    z = np.prod(1 - 2 * ((idx[:, None] >> np.arange(n)) & 1), axis=1)  # prod_j sigma_z^j
    parity = v.conj().T @ (np.tile(z, fock_dim)[:, None] * v)  # Z'
    return _read_only(v, -1j * dt * w[:, None], step, parity, ns)


@lru_cache(maxsize=1)
def _ms_drive(params: BichromaticParams, n: int, fock_dim: int) -> tuple:
    """(drive, M) of the bichromatic gate: the drive at every step's
    midpoint and the product M = S_(N-1)...S_0 of all N = n_steps - 1
    whole steps (None when q = 0), read-only.  M is built from half a
    tone period when the period is an even number m of steps, else from
    one period; see apply_ms_bichromatic.  Every call at one params, such
    as the gates at a calibrated Omega, shares them; only the last key is
    kept."""
    n_steps, m, q, _ = ms_steps(params)
    dt = params.t / n_steps
    _, wdt, step, parity, _ = _ms_basis(params.etas, params.nu, dt, n, fock_dim)
    tone = params.nu + params.delta
    drive = 2.0 * params.omega_rabi * np.cos(tone * (np.arange(n_steps) + 0.5) * dt)
    if not q:
        return _read_only(drive) + (None,)
    half, flip = (m // 2, parity) if m % 2 == 0 else (m, None)
    j, s = divmod(n_steps - 1, half)
    p = np.eye(len(wdt), dtype=complex)
    for k, d in enumerate(drive[:half]):
        if k == s:
            prefix = p  # P_s
        p = step @ (np.exp(d * wdt) * p)
    whole = prefix @ np.linalg.matrix_power(p if flip is None else flip @ p, j)
    return _read_only(drive, flip @ whole if flip is not None and j % 2 else whole)


def apply_ms_bichromatic(state: RegisterState, params: BichromaticParams,
                         leakage_threshold: float = 1e-6):
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

    In V's basis step k is S_k = S(drive_k) = W diag(exp(-i dt drive_k w)).
    The drive changes sign every half tone period (Soerensen & Moelmer,
    PRA 62, 022311 (2000)), and the spin parity Z = prod_j sigma_z^j
    anticommutes with H0 (sigma_z sigma+ sigma_z = -sigma+) and commutes
    with P(t); so Z' = V† Z V has Z' diag(w) Z' = -diag(w), Z' W Z' = W and
    S(-d) = Z' S(d) Z'.  When a period is a whole number m of steps, with
    h = m/2 and flip = Z' when m is even, h = m and flip = 1 when it is
    odd (m = 1 for the constant drive at tone 0), step i h + k is
    flip^i S_k flip^i.  With the prefixes P_k = S_(k-1)...S_0, C = flip P_h
    and N = n_steps - 1 = j h + s, the product of all N whole steps is
    M = flip^j P_s C^j: h steps and one power by repeated squaring take
    every shot through them.  A gate shorter than one period runs its
    steps one at a time.

    Two pieces are reused from the previous call and rebuilt when their
    key changes, only the last key of each being kept: V, w, W, Z' and the
    mode levels, keyed on (etas, nu, dt, n, fock_dim), and the drive and
    M, keyed on (params, n, fock_dim).  A call at a setting met just
    before does only the per-state work, in the same floating-point
    operations as a cold call, so its state is bitwise the same.

    leakage_threshold is the largest population at the Fock cutoff a shot
    may end with; a NaN or negative one is a ValueError.
    """
    if not leakage_threshold >= 0:
        raise ValueError(f"need leakage_threshold >= 0, got leakage_threshold={leakage_threshold}")
    if state.phonon is None:
        raise ValueError("phonon mode must be attached")
    n = state.n
    fock_dim = state.fock_dim
    nmax = state.phonon.n_max
    if len(params.etas) != n:
        raise ValueError("one Lamb-Dicke parameter per addressed ion")
    n_steps, _, q, _ = ms_steps(params)
    dt = params.t / n_steps
    v, wdt, step, _, ns = _ms_basis(params.etas, params.nu, dt, n, fock_dim)
    drive, whole = _ms_drive(params, n, fock_dim)

    psi = state.psi.reshape(-1, fock_dim * 2**n).T  # one column per shot
    phi = v.conj().T @ (_frame(params.nu, -0.5 * dt, ns, n) * psi)
    if q:
        phi = whole @ phi
    else:
        for d in drive[:-1]:
            phi = step @ (np.exp(d * wdt) * phi)
    psi = _frame(params.nu, (n_steps - 0.5) * dt, ns, n) * (v @ (np.exp(drive[-1] * wdt) * phi))

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
    Every evaluation is one apply_ms_bichromatic call; they share its
    eigenbasis (key (etas, nu, dt, n, fock_dim)), and the last one leaves
    the drive and whole-step product of the returned Omega (key (params,
    n, fock_dim)) for the gates that follow.  Only the last key of each is
    kept.
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
    """One row of a Shots: the shot's index, bits, counts and validity."""
    shot: int
    bits: tuple
    counts: tuple
    valid: bool


@dataclass(frozen=True, eq=False)
class Shots:
    """The shots of one run_schedule call: detected bits (int8) and photon
    counts (int64), each of shape (shots, n), and valid (bool, shape
    (shots,)), False where a collision invalidated the shot.  len() is the
    shot count; iterating yields one ShotRecord per shot, for callers that
    read rows (the benchmark's checks), and builds every row it yields."""
    bits: np.ndarray
    counts: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.valid)

    def __iter__(self):
        return map(ShotRecord, range(len(self)), map(tuple, self.bits.tolist()),
                   map(tuple, self.counts.tolist()), self.valid.tolist())


def valid_bits(shots: Shots) -> np.ndarray:
    """Bits of the shots no collision invalidated, shape (valid shots, n)."""
    bits = shots.bits[shots.valid]
    if not len(bits):
        raise NoValidShots(f"no valid shots: collisions invalidated all {len(shots)}")
    return bits


def max_shots(n_qubits: int) -> int:
    """The most shots run_schedule takes on n qubits: its Shots hold 9 n + 1
    bytes a shot (int8 bits and int64 counts per qubit, one bool), and stay
    within _MAX_STATE_BYTES, the cap on one state array."""
    return _MAX_STATE_BYTES // (9 * n_qubits + 1)


def _ms_tables(events, n: int, crosstalk) -> dict:
    """(targets, _ms_phase table) of the ideal MS of every bichromatic event
    of events and of their branch bodies, keyed by (event targets, bus,
    angle).  A radial gate under crosstalk acts on every ion, each weighted
    by its largest crosstalk from the event's targets (1 on the targets)."""
    tables = {}
    for e in events:
        if e.kind == "branch_point":
            tables.update(_ms_tables(e.body, n, crosstalk))
        elif e.kind == "bichromatic" and (e.targets, e.bus, e.angle) not in tables:
            targets, weights = e.targets, np.ones(len(e.targets))
            if crosstalk is not None and e.bus == "radial":
                weights = np.max(crosstalk[:, list(e.targets)], axis=1)
                weights[list(e.targets)] = 1.0
                targets = range(n)
            tables[e.targets, e.bus, e.angle] = targets, _ms_phase(n, targets, weights, e.angle)
    return tables


def _apply_ms_event(state, e, targets, phase):
    """Ideal MS of a bichromatic event run in the virtual frames f of its
    qubits: RZ(-f) MS RZ(f), the rule that shifts carrier phases by -f."""
    if e.frames:
        apply_rz(state, range(len(e.frames)), 1.0, scale=e.frames)
    _apply_ms_phase(state, targets, phase)
    if e.frames:
        apply_rz(state, range(len(e.frames)), -1.0, scale=e.frames)


def _run_events(events, state, noise, rng, crosstalk, tables, t2,
                detunings_hz, t_now, last, labels):
    """Apply events in time order to every shot of the batched state; return
    the time (ns) the state has idled to, from t_now.  A pulse acts at its
    centre, a MEASURE at its start, and one noise interval spans the time
    since the previous operation: dephasing, T1 decay and the gradient phase
    compose exactly over adjacent intervals, so the ensemble is that of
    idling through every gap and pulse.  An MS event reads its gate from
    tables (_ms_tables of the events).  `last` holds the latest detected
    bits and counts per shot, `labels` those of each measurement label."""
    def idle(st, t_ns):
        _noise_interval(st, (t_ns - t_now) * 1e-9, rng, noise.t1, t2, detunings_hz)

    for e in sorted(events, key=lambda ev: ev.start):
        if e.kind in ("carrier", "ac_stark", "bichromatic"):
            centre = e.start + e.duration / 2
            idle(state, centre)
            t_now = max(t_now, centre)
            if e.kind == "bichromatic":
                _apply_ms_event(state, e, *tables[e.targets, e.bus, e.angle])
                apply_depolarizing(state, e.targets, noise.eps_2q, rng)
            else:
                targets, scale = e.targets, None
                if e.channel != GLOBAL_CHANNEL and crosstalk is not None:
                    col = crosstalk[:, e.targets[0]]
                    targets, scale = range(state.n), (col if e.kind == "carrier" else col**2)
                if e.kind == "carrier":
                    apply_rotation(state, targets, e.angle, e.phase, rabi_scale=scale)
                else:
                    apply_rz(state, targets, e.angle, scale=scale)
                apply_depolarizing(state, e.targets, noise.eps_1q, rng)
        elif e.kind == "measure":
            idle(state, e.start)
            last["bits"], last["counts"] = detect(state, noise.detection, rng)
            # A copy: a branch body writes its own readout into last["bits"].
            labels[e.label] = last["bits"].copy()
            t_now = max(t_now, e.end)
        elif e.kind == "branch_point":
            fire = predicate_matches(e.predicate, labels[e.label])
            if fire.any():
                body = [replace(b, start=b.start + e.start) for b in e.body]
                sub = state.subset(fire)
                sub_last = {k: v[fire] for k, v in last.items()}
                t_end = _run_events(body, sub, noise, rng, crosstalk, tables, t2,
                                    detunings_hz, t_now, sub_last,
                                    {k: v[fire] for k, v in labels.items()})
                # The body's virtual RZs become real ones on the shots that fired.
                for b in body:
                    if b.kind == "frame_advance":
                        apply_rz(sub, b.targets, b.angle)
                state.psi[fire] = sub.psi
                for k, v in sub_last.items():
                    last[k][fire] = v
                if not fire.all():
                    # The other shots idle as long as the body's shots did.
                    rest = state.subset(~fire)
                    idle(rest, t_end)
                    state.psi[~fire] = rest.psi
                t_now = t_end
    return t_now


# State bytes of one batched pass; bounds memory whatever the shot count.
_CHUNK_BYTES = 8 << 20


def run_schedule(schedule: PulseSchedule, machine: MachineConfig,
                 noise: NoiseConfig, shots: int, seed: int,
                 crosstalk: np.ndarray = None, qubit_kind: str = "optical",
                 positions_um: np.ndarray = None, phonon: PhononMode = None,
                 threads: int = 1) -> Shots:
    """Execute a validated schedule on the spins, all shots as batched
    trajectories; return their Shots, in shot order: detected bits (int8)
    and photon counts (int64) of shape (shots, n), and valid (bool) of
    shape (shots,), False where a collision invalidated the shot.

    shots runs from 1 to max_shots(n), checked before any chunk runs.  Each
    chunk of at most _CHUNK_BYTES of state is one batched state with its own
    random stream keyed by (seed, chunk index), and each field of the Shots
    is the chunks' arrays joined in chunk order.  The phase table
    of each distinct MS gate (_ms_tables) is built once per call, before
    the first chunk, and every chunk and branch body reads it.  Between
    two operations every shot idles through one noise interval
    (_noise_interval): dephasing and T1 decay in one pass.  A BRANCH runs its
    body on the shots whose detected bits at the MEASURE it names match.
    MS events are ideal gates plus depolarizing (see apply_ms_bichromatic).
    A schedule without a top-level MEASURE is read out by one at its end.
    crosstalk is n x n and positions_um has one entry per qubit, for the
    machine's n qubits, which must be the schedule's; qubit_kind is
    "ground" or "optical".

    `phonon` and `threads` have no effect.  No operator of the interpreter
    couples spin and motion, and a jump channel on one tensor factor leaves
    the other factor's marginal unchanged, so a motional mode would never
    change a bit or a count.
    """
    n = machine.n_qubits
    t2 = noise.t2(qubit_kind)  # also checks qubit_kind
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > max_shots(n):
        raise ValueError(f"shots must be <= {max_shots(n)} on {n} qubits (the results' "
                         f"memory cap), got {shots}")
    if schedule.n_qubits != n:
        raise ValueError(f"schedule is compiled for {schedule.n_qubits} qubits, "
                         f"the machine has {n}")
    if crosstalk is not None and np.shape(crosstalk) != (n, n):
        raise ValueError(f"crosstalk must be {n} x {n}, got shape {np.shape(crosstalk)}")
    if positions_um is not None and np.shape(positions_um) != (n,):
        raise ValueError(f"positions_um must hold {n} positions, got shape "
                         f"{np.shape(positions_um)}")
    detunings = None
    if positions_um is not None:
        gradient = noise.gradient_for(qubit_kind)
        # Python floats: an overflow is inf (or nan at zero duration), with no warning.
        ramp = (2.0 * math.pi * float(np.max(np.abs(positions_um))) * gradient
                * (schedule.duration_ns * 1e-9))
        if not math.isfinite(ramp):
            raise ValueError(f"the gradient phase ramp over the schedule is not finite: "
                             f"positions_um {list(positions_um)} at {gradient:g} Hz/um")
        detunings = np.asarray(positions_um, dtype=float) * gradient
    lam = noise.collision_rate * n * (schedule.duration_ns * 1e-9)
    events = schedule.events
    if not any(e.kind == "measure" for e in events):
        events += (Event(GLOBAL_CHANNEL, schedule.duration_ns, 0, "measure"),)
    tables = _ms_tables(events, n, crosstalk)
    chunk = max(1, _CHUNK_BYTES // (2**n * 16))
    bits, counts, valid = [], [], []
    for c, start in enumerate(range(0, shots, chunk)):
        size, rng = min(chunk, shots - start), np.random.default_rng([seed, c])
        state = RegisterState(n, shots=size)
        if noise.spam_prep > 0:
            basis = np.where(rng.random((size, n)) < noise.spam_prep, 0, 1 << np.arange(n))
            state.psi[:] = 0.0
            state.psi[np.arange(size), basis.sum(axis=1)] = 1.0
        last = {}
        _run_events(events, state, noise, rng, crosstalk, tables, t2, detunings, 0, last, {})
        bits.append(last["bits"])
        counts.append(last["counts"])
        valid.append(rng.poisson(lam, size=size) == 0)
    return Shots(np.concatenate(bits), np.concatenate(counts), np.concatenate(valid))


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
                _ms_tables(schedule.events, machine.n_qubits, None), math.inf, None, 0, {}, {})
    apply_rz(state, range(machine.n_qubits), 1.0, scale=schedule.frames)
    return state.psi[0]


def circuit_statevector(instructions, n_qubits: int) -> np.ndarray:
    """Gate-level reference unitary product on |S...S>."""
    from . import compiler as c
    state = RegisterState(n_qubits)
    for ins in instructions:
        if isinstance(ins, c.R):
            apply_rotation(state, expand_targets(ins.targets, n_qubits), ins.theta, ins.phi)
        elif isinstance(ins, c.RZ):
            apply_rz(state, expand_targets(ins.targets, n_qubits), ins.theta)
        elif isinstance(ins, c.MS):
            apply_ms_ideal(state, expand_targets(ins.targets, n_qubits), ins.chi)
        elif isinstance(ins, (c.PrepareAll, c.Delay)):
            pass
        else:
            raise ValueError(f"unsupported in statevector mode: {ins!r}")
    return state.psi[0]
