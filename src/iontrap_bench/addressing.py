"""Site-selective beam delivery: microoptics channels and crossed-AOD steering.

Produces per-ion Rabi scales and resonant crosstalk matrices, with each
beam centred on the ion it addresses.  The Gaussian convention is pinned
to the measured profile: the addressing scan plots the squared Rabi
frequency, and the stored waist w0 is the fitted waist of that Omega^2
profile.  The field/Rabi ratio at displacement d is therefore
exp(-d^2/w0^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MICROOPTICS = "microoptics"
AOD = "aod"


@dataclass(frozen=True)
class AddressingUnit:
    """One addressing subsystem with its beam geometry."""

    kind: str = MICROOPTICS
    w0_um: float = None  # defaults: 0.81 microoptics, 1.09 aod
    floor: float = None  # aberration-limited Rabi-ratio floor
    slope_um_per_mhz: float = 4.9  # aod only

    def __post_init__(self):
        if self.kind not in (MICROOPTICS, AOD):
            raise ValueError("kind must be 'microoptics' or 'aod'")
        if self.w0_um is None:
            object.__setattr__(self, "w0_um", 0.81 if self.kind == MICROOPTICS else 1.09)
        if self.floor is None:
            object.__setattr__(self, "floor", 0.024 if self.kind == MICROOPTICS else 0.005)
        for name in ("w0_um", "slope_um_per_mhz"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor must lie in [0, 1)")


def relative_rabi(unit: AddressingUnit, beam_center_um: float,
                  ion_position_um: float) -> float:
    """Rabi-frequency ratio seen by an ion at a given beam displacement.

    Gaussian tail with an aberration floor: measured crosstalk sits far
    above the diffraction-limited prediction, so the floor dominates at
    large displacements.
    """
    d = ion_position_um - beam_center_um
    return max(math.exp(-(d / unit.w0_um) ** 2), unit.floor)


def crosstalk_matrix(unit: AddressingUnit, positions_um) -> np.ndarray:
    """Resonant crosstalk: entry (i, j) = relative Rabi at ion i when the
    beam is centred on ion j; the diagonal is exactly 1."""
    pos = np.asarray(positions_um, dtype=float)
    n = len(pos)
    out = np.empty((n, n))
    for j in range(n):
        for i in range(n):
            out[i, j] = relative_rabi(unit, pos[j], pos[i])
        out[j, j] = 1.0
    return out


def u3_effective_ratio(epsilon: float) -> float:
    """Crosstalk of a U(3) composite pulse: AC-Stark shifts scale with
    intensity, so the ratio is exactly quadratic in the field ratio."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return epsilon**2
