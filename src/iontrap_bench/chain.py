"""Coulomb-crystal geometry, normal modes and Lamb-Dicke parameters.

All gate and noise physics downstream is parameterized by the spectra
computed here.  Lengths are handled in micrometers at the API surface and
in the natural Coulomb length scale internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import constants as const

from .errors import SolverError, ZigzagInstability

# Natural length scale of the axial potential: l^3 = q^2/(4 pi eps0 M w_ax^2)
_COULOMB = const.e**2 / (4.0 * np.pi * const.epsilon_0)


@dataclass(frozen=True)
class IonSpecies:
    """Ion species constants. Defaults describe the Ca-40 optical qubit."""

    mass: float = 39.9625909  # atomic mass units
    charge: int = 1  # elementary charges
    qubit_wavelength: float = 729.0  # nm

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.charge < 1:
            raise ValueError("charge must be >= 1")

    @property
    def mass_kg(self) -> float:
        return self.mass * const.atomic_mass


CA40 = IonSpecies()


@dataclass(frozen=True)
class TrapConfig:
    """Angular center-of-mass secular frequencies, rad/s."""

    omega_ax: float = 2 * np.pi * 1.0e6
    omega_rad: float = 2 * np.pi * 3.0e6

    def __post_init__(self):
        if self.omega_ax <= 0 or self.omega_rad <= 0:
            raise ValueError("trap frequencies must be positive")


def length_scale_um(species: IonSpecies, omega_ax: float) -> float:
    """Coulomb length scale l = (q^2 / (4 pi eps0 M w^2))^(1/3), in um."""
    l_m = (_COULOMB * species.charge**2 / (species.mass_kg * omega_ax**2)) ** (1.0 / 3.0)
    return l_m * 1e6


@dataclass(frozen=True)
class IonChain:
    """Equilibrium linear crystal: positions in um, sorted ascending."""

    n: int
    positions: np.ndarray
    species: IonSpecies
    trap: TrapConfig

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if len(pos) != self.n:
            raise ValueError("positions length must equal n")
        if self.n > 1 and not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        span = pos[-1] - pos[0] if self.n > 1 else 1.0
        if abs(pos.sum()) > 1e-9 * max(span, 1.0):
            raise ValueError("positions must be centered on the trap origin")

    @property
    def scaled_positions(self) -> np.ndarray:
        return self.positions / length_scale_um(self.species, self.trap.omega_ax)

    def min_spacing_um(self) -> float:
        if self.n < 2:
            return np.inf
        return float(np.min(np.diff(self.positions)))


@dataclass
class ModeSpectrum:
    """Normal modes of one direction: frequencies ascending, columns are modes."""

    direction: str  # "axial" | "radial"
    frequencies: np.ndarray  # rad/s, ascending
    eigenvectors: np.ndarray  # n x n orthonormal, column j = mode j

    @property
    def n(self) -> int:
        return len(self.frequencies)


def _scaled_gradient(u: np.ndarray) -> np.ndarray:
    """Gradient of V(u) = sum u^2/2 + sum_{i<j} 1/|u_i-u_j| (dimensionless)."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv2 = np.sign(d) / d**2
    return u - inv2.sum(axis=1)


def _scaled_hessian(u: np.ndarray) -> np.ndarray:
    """Hessian of the dimensionless axial potential."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / np.abs(d) ** 3
    h = -2.0 * inv3
    np.fill_diagonal(h, 1.0 + 2.0 * inv3.sum(axis=1))
    return h


_FORCE_TOL = 1e-13  # scaled force residual that ends the Newton iteration
_NEWTON_STEPS = 200  # iterations before the solver gives up


def equilibrium_positions(
    n: int,
    species: IonSpecies = CA40,
    trap: TrapConfig = TrapConfig(),
) -> IonChain:
    """Solve the harmonic-plus-Coulomb equilibrium for n ions.

    Damped Newton iteration on the dimensionless potential, initial guess
    from uniform spacing.  Converges to force residual < 1e-12 (scaled
    units) for n up to ~100.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return IonChain(1, np.zeros(1), species, trap)

    # Uniform spacing over an empirically adequate span.
    span = 2.018 * n**0.559
    u = np.linspace(-span / 2, span / 2, n)
    residual = np.inf
    for _ in range(_NEWTON_STEPS):
        g = _scaled_gradient(u)
        residual = float(np.max(np.abs(g)))
        if residual < _FORCE_TOL:
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
        raise SolverError(
            f"equilibrium solver did not converge for n={n}", residual=residual
        )
    u -= u.mean()
    positions = u * length_scale_um(species, trap.omega_ax)
    return IonChain(n, positions, species, trap)


def axial_mode_spectrum(chain: IonChain) -> ModeSpectrum:
    """Axial modes: lowest is the COM mode at omega_ax."""
    h = _scaled_hessian(chain.scaled_positions)
    evals, evecs = np.linalg.eigh(h)
    freqs = chain.trap.omega_ax * np.sqrt(evals)
    return ModeSpectrum("axial", freqs, _fix_signs(evecs))


def radial_mode_spectrum(chain: IonChain) -> ModeSpectrum:
    """Radial modes of one transverse principal axis; highest is COM.

    Raises ZigzagInstability when the linear configuration is unstable.
    """
    u = chain.scaled_positions
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / np.abs(d) ** 3
    a = (chain.trap.omega_rad / chain.trap.omega_ax) ** 2
    h = inv3.copy()
    np.fill_diagonal(h, a - inv3.sum(axis=1))
    evals, evecs = np.linalg.eigh(h)
    if evals[0] <= 0:
        raise ZigzagInstability(
            f"linear chain of {chain.n} ions is unstable (zigzag)",
            min_sq_freq=float(evals[0]) * chain.trap.omega_ax**2,
        )
    freqs = chain.trap.omega_ax * np.sqrt(evals)
    return ModeSpectrum("radial", freqs, _fix_signs(evecs))


def _fix_signs(evecs: np.ndarray) -> np.ndarray:
    """Deterministic output: largest-magnitude component of each mode positive."""
    out = evecs.copy()
    for j in range(out.shape[1]):
        k = np.argmax(np.abs(out[:, j]))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


def lamb_dicke_parameters(
    spectrum: ModeSpectrum,
    species: IonSpecies = CA40,
    wavelength_nm: float = None,
    beam_angle: float = 0.0,
) -> np.ndarray:
    """The n x n matrix eta[ion, mode].

    eta = k cos(angle) |b_{ion,mode}| sqrt(hbar / (2 M nu_mode)) with the
    single-ion mass M and mode-normalized eigenvector b.  Magnitudes are
    returned; sign information stays in the eigenvectors.
    """
    if wavelength_nm is None:
        wavelength_nm = species.qubit_wavelength
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    k = 2.0 * np.pi / (wavelength_nm * 1e-9)
    zpf = np.sqrt(const.hbar / (2.0 * species.mass_kg * spectrum.frequencies))
    return k * abs(np.cos(beam_angle)) * np.abs(spectrum.eigenvectors) * zpf[None, :]


def single_ion_lamb_dicke(
    species: IonSpecies, omega: float, wavelength_nm: float = None, beam_angle: float = 0.0
) -> float:
    """eta of a single ion at mode frequency omega (rad/s)."""
    if wavelength_nm is None:
        wavelength_nm = species.qubit_wavelength
    k = 2.0 * np.pi / (wavelength_nm * 1e-9)
    return k * abs(np.cos(beam_angle)) * np.sqrt(const.hbar / (2.0 * species.mass_kg * omega))
