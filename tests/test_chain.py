"""Chain mechanics: equilibrium geometry, mode spectra, Lamb-Dicke factors.

Frozen reference numbers were derived from independent closed-form oracles
(two-ion analytic spacing, COM/breathing eigenvalues, direct Lamb-Dicke
formula) before the implementation was written.
"""

import math

import numpy as np
import pytest
from scipy import constants as const

from iontrap_bench import chain as chain_mod
from iontrap_bench.chain import (MASS_KG, IonChain, TrapConfig, axial_mode_spectrum,
                                 equilibrium_positions, lamb_dicke_parameters,
                                 length_scale_um, radial_mode_spectrum,
                                 single_ion_lamb_dicke)
from iontrap_bench.errors import ZigzagInstability

TWO_PI = 2.0 * math.pi


def test_single_ion_at_origin():
    chain = equilibrium_positions(1)
    assert chain.positions == pytest.approx([0.0])


def test_two_ion_spacing_matches_analytic():
    # d = (2 l^3)^(1/3): closed-form solution of the two-ion equilibrium.
    trap = TrapConfig(omega_ax=TWO_PI * 1e6)
    chain = equilibrium_positions(2, trap)
    l_um = length_scale_um(trap.omega_ax)
    d_analytic = (2.0) ** (1.0 / 3.0) * l_um
    spacing = np.diff(chain.positions).min()
    assert spacing == pytest.approx(d_analytic, rel=1e-12)
    assert spacing == pytest.approx(5.605442547552987, rel=1e-12)


def test_positions_sorted_centered_symmetric():
    chain = equilibrium_positions(7)
    assert np.all(np.diff(chain.positions) > 0)
    assert abs(chain.positions.sum()) < 1e-9
    assert np.allclose(chain.positions, -chain.positions[::-1], atol=1e-9)


def test_force_residual_below_tolerance():
    for n in (3, 10, 30):
        chain = equilibrium_positions(n)
        u = chain.scaled_positions
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, np.inf)
        g = u - (np.sign(d) / d**2).sum(axis=1)
        assert np.max(np.abs(g)) < 1e-12


def test_spacing_scaling_law():
    # Minimum spacing scales as omega_ax^(-2/3) at fixed N.
    t1 = TrapConfig(omega_ax=TWO_PI * 0.5e6)
    t2 = TrapConfig(omega_ax=TWO_PI * 2.0e6)
    c1 = equilibrium_positions(5, t1)
    c2 = equilibrium_positions(5, t2)
    ratio = np.diff(c1.positions).min() / np.diff(c2.positions).min()
    assert ratio == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-10)


def test_eleven_ion_center_spacing_450khz():
    trap = TrapConfig(omega_ax=TWO_PI * 450e3)
    chain = equilibrium_positions(11, trap)
    gaps = np.diff(chain.positions)
    assert gaps[5] == pytest.approx(4.069789973614742, rel=1e-10)
    # center pair is within 2.5% of 4.0 um
    assert abs(gaps[5] - 4.0) / 4.0 < 0.025


def test_axial_com_and_breathing():
    trap = TrapConfig(omega_ax=TWO_PI * 450e3)
    chain = equilibrium_positions(2, trap)
    spec = axial_mode_spectrum(chain)
    assert spec.frequencies[0] == pytest.approx(trap.omega_ax, rel=1e-12)
    assert spec.frequencies[1] / spec.frequencies[0] == pytest.approx(
        math.sqrt(3.0), rel=1e-9)


def test_axial_com_for_any_n():
    for n in (3, 8, 15):
        chain = equilibrium_positions(n)
        spec = axial_mode_spectrum(chain)
        assert spec.frequencies[0] == pytest.approx(chain.trap.omega_ax, rel=1e-10)
        com = spec.eigenvectors[:, 0]
        assert np.allclose(com, com[0], atol=1e-9)  # uniform participation


def test_eigenvector_orthonormality_up_to_30():
    trap = TrapConfig(omega_ax=TWO_PI * 0.2e6, omega_rad=TWO_PI * 3e6)
    for n in (2, 12, 30):
        chain = equilibrium_positions(n, trap)
        for spec in (axial_mode_spectrum(chain), radial_mode_spectrum(chain)):
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_brute_force_hessian_agreement():
    # Independent finite-difference Hessian of the scaled potential.
    chain = equilibrium_positions(6)
    u = chain.scaled_positions
    n = len(u)

    def potential(v):
        pair = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                pair += 1.0 / abs(v[i] - v[j])
        return 0.5 * np.sum(v**2) + pair

    h_num = np.zeros((n, n))
    eps = 1e-5
    for i in range(n):
        for j in range(n):
            vpp = u.copy(); vpp[i] += eps; vpp[j] += eps
            vpm = u.copy(); vpm[i] += eps; vpm[j] -= eps
            vmp = u.copy(); vmp[i] -= eps; vmp[j] += eps
            vmm = u.copy(); vmm[i] -= eps; vmm[j] -= eps
            h_num[i, j] = (potential(vpp) - potential(vpm)
                           - potential(vmp) + potential(vmm)) / (4 * eps**2)
    evals_num = np.linalg.eigvalsh(h_num)
    spec = axial_mode_spectrum(chain)
    evals = (spec.frequencies / chain.trap.omega_ax) ** 2
    # finite differences limit the achievable agreement
    assert np.max(np.abs(np.sort(evals_num) - np.sort(evals))) < 1e-4

    # exact check: independently assembled analytic Hessian, dense eigensolve
    h_exact = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                h_exact[i, i] = 1.0 + 2.0 * sum(
                    1.0 / abs(u[i] - u[k]) ** 3 for k in range(n) if k != i)
            else:
                h_exact[i, j] = -2.0 / abs(u[i] - u[j]) ** 3
    evals_exact = np.linalg.eigvalsh(h_exact)
    assert np.max(np.abs(np.sort(evals_exact) - np.sort(evals))) < 1e-10


def test_radial_com_is_highest_and_rocking():
    trap = TrapConfig(omega_ax=TWO_PI * 1e6, omega_rad=TWO_PI * 3e6)
    chain = equilibrium_positions(2, trap)
    spec = radial_mode_spectrum(chain)
    assert spec.frequencies[-1] == pytest.approx(trap.omega_rad, rel=1e-12)
    # rocking mode: sqrt(omega_rad^2 - omega_ax^2)
    rocking = math.sqrt(trap.omega_rad**2 - trap.omega_ax**2)
    assert spec.frequencies[0] == pytest.approx(rocking, rel=1e-12)
    assert spec.frequencies[0] / TWO_PI == pytest.approx(2.828427124746184e6, rel=1e-9)


def test_zigzag_instability_raised():
    # Tight axial / weak radial confinement buckles a long chain.
    trap = TrapConfig(omega_ax=TWO_PI * 1.0e6, omega_rad=TWO_PI * 1.2e6)
    chain = equilibrium_positions(10, trap)
    with pytest.raises(ZigzagInstability) as err:
        radial_mode_spectrum(chain)
    assert err.value.min_sq_freq <= 0


def test_24_ion_reference_trap_is_linear():
    trap = TrapConfig(omega_ax=TWO_PI * 234e3, omega_rad=TWO_PI * 3e6)
    chain = equilibrium_positions(24, trap)
    spec = radial_mode_spectrum(chain)  # must not raise
    assert spec.frequencies[0] > 0


def test_codata_literals_equal_scipy_constants():
    """The constants chain.py writes out are scipy's, so a CODATA update shows."""
    assert chain_mod.ATOMIC_MASS == const.atomic_mass
    assert chain_mod.ELEMENTARY_CHARGE == const.e
    assert chain_mod.EPSILON_0 == const.epsilon_0
    assert chain_mod.HBAR == const.hbar


def test_lamb_dicke_single_ion_reference():
    eta = single_ion_lamb_dicke(TWO_PI * 1.05e6)
    # direct-formula oracle
    k = TWO_PI / 729e-9
    oracle = k * math.sqrt(const.hbar / (2 * MASS_KG * TWO_PI * 1.05e6))
    assert eta == pytest.approx(oracle, rel=1e-12)
    assert abs(eta - 0.0946) < 0.0005


def test_lamb_dicke_com_scaling():
    # COM eta per ion = single-ion eta / sqrt(N).
    for n in (2, 5, 9):
        chain = equilibrium_positions(n)
        spec = axial_mode_spectrum(chain)
        eta = lamb_dicke_parameters(spec)
        eta_single = single_ion_lamb_dicke(spec.frequencies[0])
        assert np.allclose(eta[:, 0], eta_single / math.sqrt(n), rtol=1e-12)


# Ca-40 values pinned bitwise: the single-ion eta at 1.05 MHz, and eta[ion, mode]
# of the 3-ion axial spectrum at the default trap (row-major).
ETA_SINGLE_1P05MHZ = float.fromhex("0x1.836f7d5f199fdp-4")
ETA_3_ION_AXIAL = [float.fromhex(h) for h in (
    "0x1.ca6b7cd8e5876p-5", "0x1.aa9b964afa3eep-5", "0x1.a1c139d19c92ep-6",
    "0x1.ca6b7cd8e5871p-5", "0x1.2da840f9a9267p-57", "0x1.a1c139d19c930p-5",
    "0x1.ca6b7cd8e5876p-5", "0x1.aa9b964afa3f0p-5", "0x1.a1c139d19c92bp-6")]


def test_lamb_dicke_values_are_pinned():
    assert single_ion_lamb_dicke(TWO_PI * 1.05e6) == ETA_SINGLE_1P05MHZ
    eta = lamb_dicke_parameters(axial_mode_spectrum(equilibrium_positions(3)))
    assert eta.ravel().tolist() == ETA_3_ION_AXIAL


def test_mode_sign_determinism():
    chain = equilibrium_positions(9)
    a = axial_mode_spectrum(chain).eigenvectors
    b = axial_mode_spectrum(chain).eigenvectors
    assert np.array_equal(a, b)
    for j in range(9):
        k = np.argmax(np.abs(a[:, j]))
        assert a[k, j] > 0


@pytest.mark.parametrize("name", ["omega_ax", "omega_rad"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_trap_frequency_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        TrapConfig(**{name: value})


def test_invalid_inputs():
    with pytest.raises(ValueError):
        equilibrium_positions(0)
    with pytest.raises(ValueError):
        IonChain(np.array([1.0, 0.0]), TrapConfig())


def test_chain_runtime_50_ions():
    chain = equilibrium_positions(50)
    assert len(chain.positions) == 50
    assert np.all(np.diff(chain.positions) > 0)
