"""Addressing model: Gaussian beam profiles and crosstalk."""

import math

import numpy as np
import pytest

from iontrap_bench import addressing as adr
from iontrap_bench.chain import TrapConfig, equilibrium_positions

TWO_PI = 2.0 * math.pi


def test_defaults_per_kind():
    mo = adr.AddressingUnit(kind=adr.MICROOPTICS)
    assert mo.w0_um == 0.81 and mo.floor == 0.024
    ao = adr.AddressingUnit(kind=adr.AOD)
    assert ao.w0_um == 1.09 and ao.floor == 0.005


def test_on_target_ratio_is_one():
    unit = adr.AddressingUnit(kind=adr.MICROOPTICS)
    assert adr.relative_rabi(unit, 3.2, 3.2) == 1.0


def test_microoptics_neighbor_hits_floor():
    # at 3.4 um the Gaussian tail (~2.2e-8) is far below the 0.024 floor
    unit = adr.AddressingUnit(kind=adr.MICROOPTICS)
    assert math.exp(-(3.4 / unit.w0_um) ** 2) < 1e-7
    assert adr.relative_rabi(unit, 0.0, 3.4) == pytest.approx(0.024)


def test_aod_neighbor_hits_floor():
    unit = adr.AddressingUnit(kind=adr.AOD)
    assert adr.relative_rabi(unit, 0.0, 3.5) == pytest.approx(0.005)


def test_gaussian_region_above_floor():
    unit = adr.AddressingUnit(kind=adr.AOD)
    d = 1.0
    assert adr.relative_rabi(unit, 0.0, d) == pytest.approx(
        math.exp(-(d / 1.09) ** 2), rel=1e-12)


def test_crosstalk_matrix_diagonal_and_symmetry():
    unit = adr.AddressingUnit(kind=adr.AOD)
    pos = np.array([-6.0, -2.0, 1.5, 5.0])
    x = adr.crosstalk_matrix(unit, pos)
    assert np.all(np.diag(x) == 1.0)
    # beam centers equal ion positions for an AOD, so the matrix is symmetric
    assert np.allclose(x, x.T, atol=1e-15)
    assert np.all(x >= unit.floor)


def test_ten_ion_chain_crosstalk_below_one_percent():
    trap = TrapConfig(omega_ax=TWO_PI * 450e3)
    chain = equilibrium_positions(10, trap)
    unit = adr.AddressingUnit(kind=adr.AOD)
    x = adr.crosstalk_matrix(unit, chain.positions)
    off = x[~np.eye(10, dtype=bool)]
    assert np.max(off) <= 0.01


def test_u3_composite_suppression_exact():
    for eps in (0.0, 0.005, 0.024, 0.3, 1.0):
        assert adr.u3_effective_ratio(eps) == eps * eps
    with pytest.raises(ValueError):
        adr.u3_effective_ratio(1.5)


@pytest.mark.parametrize("name", ["w0_um", "slope_um_per_mhz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_beam_geometry_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        adr.AddressingUnit(kind=adr.AOD, **{name: value})


def test_invariant_violations():
    with pytest.raises(ValueError):
        adr.AddressingUnit(floor=1.5)
