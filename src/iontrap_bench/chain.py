"""Coulomb-crystal geometry, normal modes and Lamb-Dicke parameters.

All gate and noise physics downstream is parameterized by the spectra
computed here.  Lengths are handled in micrometers at the API surface and
in the natural Coulomb length scale internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ZigzagInstability

# CODATA 2022 values, in SI units, as scipy.constants gives them; written
# out so that importing the package does not load scipy.constants.
ATOMIC_MASS = 1.66053906892e-27  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EPSILON_0 = 8.8541878188e-12  # F/m
HBAR = 1.0545718176461565e-34  # J s

# Singly charged Ca-40, with its optical qubit on the 729 nm S-D line.
MASS_KG = 39.9625909 * ATOMIC_MASS
_K_729 = 2.0 * np.pi / (729.0 * 1e-9)  # qubit-laser wavevector, 1/m

# Natural length scale of the axial potential: l^3 = e^2/(4 pi eps0 M w_ax^2)
_COULOMB = ELEMENTARY_CHARGE**2 / (4.0 * np.pi * EPSILON_0)


@dataclass(frozen=True)
class TrapConfig:
    """Angular center-of-mass secular frequencies, rad/s."""

    omega_ax: float = 2 * np.pi * 1.0e6
    omega_rad: float = 2 * np.pi * 3.0e6

    def __post_init__(self):
        # The chain and its spectra divide by omega**2: its square must be a
        # finite, nonzero float too (1e300 overflows it, 1e-300 underflows).
        for name in ("omega_ax", "omega_rad"):
            omega = getattr(self, name)
            if not (0.0 < omega < np.inf and 0.0 < omega * omega < np.inf):
                raise ValueError(f"{name} must be finite and positive, with a finite "
                                 f"nonzero square, got {omega}")
        ratio = self.omega_rad / self.omega_ax  # the radial spectrum's scale
        if not ratio * ratio < np.inf:
            raise ValueError(f"omega_rad / omega_ax must have a finite square, got {ratio}")


def length_scale_um(omega_ax: float) -> float:
    """Coulomb length scale l = (e^2 / (4 pi eps0 M w^2))^(1/3), in um."""
    l_m = (_COULOMB / (MASS_KG * omega_ax**2)) ** (1.0 / 3.0)
    return l_m * 1e6


@dataclass(frozen=True)
class IonChain:
    """Equilibrium linear crystal: positions in um, sorted ascending."""

    positions: np.ndarray
    trap: TrapConfig

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        span = pos[-1] - pos[0] if len(pos) > 1 else 1.0
        if abs(pos.sum()) > 1e-9 * max(span, 1.0):
            raise ValueError("positions must be centered on the trap origin")

    @property
    def scaled_positions(self) -> np.ndarray:
        return self.positions / length_scale_um(self.trap.omega_ax)


@dataclass
class ModeSpectrum:
    """Normal modes of one direction: frequencies ascending, columns are modes."""

    frequencies: np.ndarray  # rad/s, ascending
    eigenvectors: np.ndarray  # n x n orthonormal, column j = mode j


def _scaled_gradient(u: np.ndarray) -> np.ndarray:
    """Gradient of V(u) = sum u^2/2 + sum_{i<j} 1/|u_i-u_j| (dimensionless)."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv2 = np.sign(d) / d**2
    return u - inv2.sum(axis=1)


def _inverse_cubed_distances(u: np.ndarray) -> np.ndarray:
    """The matrix 1/|u_i-u_j|^3, zero on the diagonal."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return 1.0 / np.abs(d) ** 3


def _scaled_hessian(u: np.ndarray) -> np.ndarray:
    """Hessian of the dimensionless axial potential."""
    inv3 = _inverse_cubed_distances(u)
    h = -2.0 * inv3
    np.fill_diagonal(h, 1.0 + 2.0 * inv3.sum(axis=1))
    return h


_FORCE_TOL = 1e-13  # scaled force residual that ends the Newton iteration
_NEWTON_STEPS = 200  # iterations before the solver gives up


def equilibrium_positions(n: int, trap: TrapConfig = TrapConfig()) -> IonChain:
    """Solve the harmonic-plus-Coulomb equilibrium for n ions.

    Damped Newton iteration on the dimensionless potential, initial guess
    from uniform spacing.  Converges to force residual < 1e-12 (scaled
    units) for n up to ~100.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return IonChain(np.zeros(1), trap)

    # Uniform spacing over an empirically adequate span.
    span = 2.018 * n**0.559
    u = np.linspace(-span / 2, span / 2, n)
    for _ in range(_NEWTON_STEPS):
        g = _scaled_gradient(u)
        if np.max(np.abs(g)) < _FORCE_TOL:
            break
        h = _scaled_hessian(u)
        step = np.linalg.solve(h, g)
        # Damping: never let an ion cross its neighbor.
        alpha = 1.0
        while alpha > 1e-6:
            trial = u - alpha * step
            if np.all(np.diff(trial) > 0):
                break
            alpha *= 0.5
        u = u - alpha * step
    else:
        raise SolverError(f"equilibrium solver did not converge for n={n}")
    u -= u.mean()
    return IonChain(u * length_scale_um(trap.omega_ax), trap)


def axial_mode_spectrum(chain: IonChain) -> ModeSpectrum:
    """Axial modes: lowest is the COM mode at omega_ax."""
    h = _scaled_hessian(chain.scaled_positions)
    evals, evecs = np.linalg.eigh(h)
    freqs = chain.trap.omega_ax * np.sqrt(evals)
    return ModeSpectrum(freqs, _fix_signs(evecs))


def radial_mode_spectrum(chain: IonChain) -> ModeSpectrum:
    """Radial modes of one transverse principal axis; highest is COM.

    Raises ZigzagInstability when the linear configuration is unstable.
    """
    h = _inverse_cubed_distances(chain.scaled_positions)
    a = (chain.trap.omega_rad / chain.trap.omega_ax) ** 2
    np.fill_diagonal(h, a - h.sum(axis=1))
    evals, evecs = np.linalg.eigh(h)
    if evals[0] <= 0:
        raise ZigzagInstability(
            f"linear chain of {len(h)} ions is unstable (zigzag)",
            min_sq_freq=float(evals[0]) * chain.trap.omega_ax**2,
        )
    freqs = chain.trap.omega_ax * np.sqrt(evals)
    return ModeSpectrum(freqs, _fix_signs(evecs))


def _fix_signs(evecs: np.ndarray) -> np.ndarray:
    """Deterministic output: largest-magnitude component of each mode positive."""
    out = evecs.copy()
    for j in range(out.shape[1]):
        k = np.argmax(np.abs(out[:, j]))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


def lamb_dicke_parameters(spectrum: ModeSpectrum) -> np.ndarray:
    """The n x n matrix eta[ion, mode].

    eta = k |b_{ion,mode}| sqrt(hbar / (2 M nu_mode)) with the 729 nm
    wavevector k along the axis, the single-ion mass M and the
    mode-normalized eigenvector b.  Magnitudes are returned; sign
    information stays in the eigenvectors.
    """
    zpf = np.sqrt(HBAR / (2.0 * MASS_KG * spectrum.frequencies))
    return _K_729 * np.abs(spectrum.eigenvectors) * zpf[None, :]


def single_ion_lamb_dicke(omega: float) -> float:
    """eta of a single ion at mode frequency omega (rad/s)."""
    return _K_729 * np.sqrt(HBAR / (2.0 * MASS_KG * omega))
