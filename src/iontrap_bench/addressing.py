"""Site-selective beam delivery: microoptics channels and crossed-AOD steering.

Produces per-ion Rabi scales, resonant crosstalk matrices, and AOD tone
layouts.  The Gaussian convention is pinned to the measured profile: the
addressing scan plots the squared Rabi frequency, and the stored waist w0
is the fitted waist of that Omega^2 profile.  The field/Rabi ratio at
displacement d is therefore exp(-d^2/w0^2).
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
    channel_centers_um: tuple = ()  # microoptics only
    slope_um_per_mhz: float = 4.9  # aod only

    def __post_init__(self):
        if self.kind not in (MICROOPTICS, AOD):
            raise ValueError("kind must be 'microoptics' or 'aod'")
        if self.w0_um is None:
            object.__setattr__(self, "w0_um", 0.81 if self.kind == MICROOPTICS else 1.09)
        if self.floor is None:
            object.__setattr__(self, "floor", 0.024 if self.kind == MICROOPTICS else 0.005)
        if self.w0_um <= 0:
            raise ValueError("waist must be positive")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor must lie in [0, 1)")
        if self.slope_um_per_mhz <= 0:
            raise ValueError("deflection slope must be positive")

    def beam_center_for_ion(self, ion_position_um: float) -> float:
        """Microoptics snaps to the nearest fixed channel; the AOD steers
        exactly onto the ion."""
        if self.kind == AOD or not self.channel_centers_um:
            return ion_position_um
        centers = np.asarray(self.channel_centers_um, dtype=float)
        return float(centers[np.argmin(np.abs(centers - ion_position_um))])


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
    """Resonant crosstalk: entry (i, j) = relative Rabi at ion i when
    addressing ion j; the diagonal is exactly 1."""
    pos = np.asarray(positions_um, dtype=float)
    n = len(pos)
    out = np.empty((n, n))
    for j in range(n):
        c = unit.beam_center_for_ion(pos[j])
        for i in range(n):
            out[i, j] = relative_rabi(unit, c, pos[i])
        out[j, j] = 1.0
    return out


def u3_effective_ratio(epsilon: float) -> float:
    """Crosstalk of a U(3) composite pulse: AC-Stark shifts scale with
    intensity, so the ratio is exactly quadratic in the field ratio."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return epsilon**2


@dataclass(frozen=True)
class ToneLayout:
    """Spot pattern of a multi-tone AOD drive.

    primary_spots: (position_um, power_fraction) per tone, on-axis and
    frequency-shift-free (the two AOD passes cancel the shift).
    off_axis_spots: (position_um, frequency_shifted=True) mixed products.
    """

    primary_spots: tuple
    off_axis_spots: tuple

    def __post_init__(self):
        total = sum(p for _, p in self.primary_spots)
        if total > 1.0 + 1e-12:
            raise ValueError("power fractions exceed the budget")

    @property
    def total_power(self) -> float:
        return sum(p for _, p in self.primary_spots)


def aod_tone_layout(tones_mhz, slope_um_per_mhz: float = 4.9) -> ToneLayout:
    """Spot layout for k simultaneous tones.

    Each primary receives power 1/k^2 (amplitude splits as 1/k per AOD
    pass); mixed pairs (f_i, f_j), i != j, form frequency-shifted off-axis
    spots at the average deflection.
    """
    tones = list(tones_mhz)
    if len(tones) < 1:
        raise ValueError("need at least one tone")
    k = len(tones)
    primaries = tuple((slope_um_per_mhz * f, 1.0 / k**2) for f in tones)
    off_axis = tuple(
        (slope_um_per_mhz * (fi + fj) / 2.0, True)
        for a, fi in enumerate(tones) for b, fj in enumerate(tones) if a != b
    )
    return ToneLayout(primaries, off_axis)


def off_axis_hits(layout: ToneLayout, positions_um, w0_um: float) -> list:
    """Indices of ions within 3 w0 of a frequency-shifted off-axis spot.

    Off-axis spots are geometric bookkeeping; only landing near an ion
    makes them physically relevant.
    """
    pos = np.asarray(positions_um, dtype=float)
    hit = set()
    for x, _ in layout.off_axis_spots:
        for i, p in enumerate(pos):
            if abs(p - x) <= 3.0 * w0_um:
                hit.add(i)
    return sorted(hit)
