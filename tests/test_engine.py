"""Dynamics engine: propagators, noise trajectories, detection, scheduling."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import poisson

from iontrap_bench import compiler as comp
from iontrap_bench import engine as eng
from oracles import (dephasing_channel, depolarizing_channel, detection_threshold_scan,
                     ensemble_density, readout_flip_oracle, t1_channel, t1_decay_per_qubit)

PI = math.pi


# ---------------------------------------------------------------------------
# Ideal propagators
# ---------------------------------------------------------------------------

def test_rotation_matrix_reference_form():
    t, p = 0.7, 1.3
    m = eng.rotation_matrix(t, p)
    assert m[0, 0] == pytest.approx(math.cos(t / 2))
    assert m[0, 1] == pytest.approx(-1j * np.exp(-1j * p) * math.sin(t / 2))
    assert m[1, 0] == pytest.approx(-1j * np.exp(1j * p) * math.sin(t / 2))


def test_rotation_theta_zero_identity():
    st = eng.RegisterState(2)
    psi0 = st.psi.copy()
    eng.apply_rotation(st, [0, 1], 0.0, 1.0)
    assert np.array_equal(st.psi, psi0)


def test_pi_pulse_example():
    # R(pi,0)|0> = -i|1> in the matrix index convention
    m = eng.rotation_matrix(PI, 0.0)
    out = m @ np.array([1.0, 0.0])
    assert np.allclose(out, [0.0, -1j], atol=1e-12)


def test_same_axis_additivity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        st1 = eng.RegisterState(1)
        st1.psi[0] = rng.normal(size=2) + 1j * rng.normal(size=2)
        st1.renormalize()
        st2 = eng.RegisterState(1)
        st2.psi = st1.psi.copy()
        eng.apply_rotation(st1, [0], PI / 2, 0.3)
        eng.apply_rotation(st1, [0], PI / 2, 0.3)
        eng.apply_rotation(st2, [0], PI, 0.3)
        assert np.max(np.abs(st1.psi - st2.psi)) < 1e-12


def test_unitarity_norm_preserved_n12():
    rng = np.random.default_rng(1)
    st = eng.RegisterState(12)
    st.psi[0] = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    st.renormalize()
    eng.apply_rotation(st, range(12), 1.1, 0.4)
    assert np.linalg.norm(st.psi) == pytest.approx(1.0, abs=1e-12)
    eng.apply_rz(st, range(12), 0.9)
    assert np.linalg.norm(st.psi) == pytest.approx(1.0, abs=1e-12)
    eng.apply_ms_ideal(st, range(12), PI / 4)
    assert np.linalg.norm(st.psi) == pytest.approx(1.0, abs=1e-12)


def test_rz_decomposition():
    for t in (0.3, 1.0, 2.7):
        lhs = eng.rz_matrix(t)
        rhs = (eng.rotation_matrix(PI / 2, -PI / 2)
               @ eng.rotation_matrix(t, 0.0)
               @ eng.rotation_matrix(PI / 2, PI / 2))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_rz_on_plus_state():
    st = eng.RegisterState(1)
    eng.apply_rotation(st, [0], PI / 2, 0.0)  # |+>-like
    plus = st.psi[0].copy()
    eng.apply_rz(st, [0], PI)
    # orthogonal up to global phase
    assert abs(np.vdot(plus, st.psi[0])) < 1e-12


def _ms_unitary(chi):
    u = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        st = eng.RegisterState(2)
        st.psi[0, :] = 0.0
        st.psi[0, b] = 1.0
        eng.apply_ms_ideal(st, [0, 1], chi)
        u[:, b] = st.psi[0]
    return u


def test_ms_matches_reference_4x4():
    for chi in (0.0, PI / 8, PI / 4):
        u = _ms_unitary(chi)
        expected = math.cos(chi) * np.eye(4) - 1j * math.sin(chi) * np.fliplr(np.eye(4))
        assert np.max(np.abs(u - expected)) < 1e-12


def test_ms_chi_pi4_on_ss():
    st = eng.RegisterState(2)
    eng.apply_ms_ideal(st, [0, 1], PI / 4)
    expected = np.zeros(4, dtype=complex)
    expected[3] = 1.0 / math.sqrt(2)       # |SS>
    expected[0] = -1j / math.sqrt(2)       # |DD>
    assert np.max(np.abs(st.psi[0] - expected)) < 1e-12


def test_ms_commutes_with_global_x_rotation():
    for n in (2, 4, 6):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        a = eng.RegisterState(n)
        a.psi[0] = psi.copy()
        b = eng.RegisterState(n)
        b.psi[0] = psi.copy()
        eng.apply_ms_ideal(a, range(n), PI / 4)
        eng.apply_rotation(a, range(n), 0.8, 0.0)
        eng.apply_rotation(b, range(n), 0.8, 0.0)
        eng.apply_ms_ideal(b, range(n), PI / 4)
        assert np.max(np.abs(a.psi - b.psi)) < 1e-10


def test_ms_rejects_bad_targets():
    st = eng.RegisterState(2)
    with pytest.raises(ValueError):
        eng.apply_ms_ideal(st, [0, 0], PI / 4)
    with pytest.raises(ValueError):
        eng.apply_ms_ideal(st, [0], PI / 4)


@pytest.mark.parametrize("shots", [None, 3], ids=["single", "batched"])
def test_rotation_and_rz_reject_bad_target_or_angle(shots):
    ops = (lambda st, tg, a: eng.apply_rotation(st, tg, a, 0.0),
           lambda st, tg, a: eng.apply_rz(st, tg, a))
    for op in ops:
        st = eng.RegisterState(2, shots=shots)
        for targets, angle in (([0], math.nan), ([1], math.inf), ([-1], 0.5),
                               ([2], 0.5), ([0, 5], 0.5)):
            with pytest.raises(ValueError):
                op(st, targets, angle)
        assert np.array_equal(st.psi, eng.RegisterState(2, shots=shots).psi)


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("shots", [None, 3], ids=["single", "batched"])
def test_depolarizing_rejects_a_target_outside_the_register(shots, eps):
    """The named error of the gates, also where eps = 0 would act on
    nothing; before any draw or change of the state."""
    for targets in ([1], [-1], [0, 5]):
        st, rng = eng.RegisterState(1, shots=shots), np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"targets in \[0, 1\)"):
            eng.apply_depolarizing(st, targets, eps, rng)
        assert rng.bit_generator.state == before
        assert np.array_equal(st.psi, eng.RegisterState(1, shots=shots).psi)


@pytest.mark.parametrize("detuning", [[40.0], [40.0, 0.0, 0.0], 40.0],
                         ids=["short", "long", "scalar"])
@pytest.mark.parametrize("shots", [None, 3], ids=["single", "batched"])
def test_dephasing_rejects_a_detuning_not_one_per_qubit(shots, detuning):
    """Before any draw or change of the state, also at dt = 0."""
    for dt in (1e-3, 0.0):
        st, rng = eng.RegisterState(2, shots=shots), np.random.default_rng(0)
        eng.apply_rotation(st, [0, 1], PI / 2, 0.0)
        psi0, before = st.psi.copy(), rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^detuning_hz must hold one entry per qubit \(2\)"):
            eng.apply_dephasing(st, dt, 0.018, rng, detuning_hz=detuning)
        assert rng.bit_generator.state == before
        assert np.array_equal(st.psi, psi0)


def test_register_state_memory_cap_checked_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            eng.RegisterState(30)  # 16 GiB of amplitudes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Noise channels vs density-matrix oracles
# ---------------------------------------------------------------------------

def _loop(prepare, channel_fn, shots, seed):
    """Final psi of `shots` one-shot trajectories, one stream each."""
    states = []
    for s in range(shots):
        st = prepare(1)
        channel_fn(st, np.random.default_rng([seed, s]))
        states.append(st.psi)
    return np.concatenate(states)


def _batched(prepare, channel_fn, shots, seed):
    """Final psi of one batched state holding `shots` trajectories."""
    st = prepare(shots)
    channel_fn(st, np.random.default_rng(seed))
    return st.psi


ENSEMBLES = pytest.mark.parametrize("ensemble", [_loop, _batched],
                                    ids=["loop", "batched"])


def _plus_state(shots):
    st = eng.RegisterState(1, shots=shots)
    eng.apply_rotation(st, [0], PI / 2, 0.0)
    return st


def _single_qubit_ensemble(channel_fn, shots, seed, ensemble=_loop):
    return ensemble_density(ensemble(_plus_state, channel_fn, shots, seed))


@ENSEMBLES
def test_dephasing_vs_oracle(ensemble):
    t2, dt, shots = 0.018, 0.009, 20000
    rho = _single_qubit_ensemble(
        lambda st, rng: eng.apply_dephasing(st, dt, t2, rng), shots, 11, ensemble)
    st0 = eng.RegisterState(1)
    eng.apply_rotation(st0, [0], PI / 2, 0.0)
    oracle = dephasing_channel(np.outer(st0.psi[0], st0.psi[0].conj()), dt, t2)
    se = 1.0 / math.sqrt(shots)
    assert abs(rho[0, 1] - oracle[0, 1]) < 3 * se
    assert rho[0, 0].real == pytest.approx(oracle[0, 0].real, abs=3 * se)


def test_dephasing_contrast_at_t2():
    shots, t2 = 20000, 0.05
    rho = _single_qubit_ensemble(
        lambda st, rng: eng.apply_dephasing(st, t2, t2, rng), shots, 12)
    contrast = 2.0 * abs(rho[0, 1])
    assert abs(contrast - math.exp(-1.0)) < 0.02


def test_dephasing_dt_zero_identity():
    st = eng.RegisterState(1)
    eng.apply_rotation(st, [0], PI / 2, 0.2)
    psi0 = st.psi.copy()
    eng.apply_dephasing(st, 0.0, 0.018, np.random.default_rng(0))
    assert np.array_equal(st.psi, psi0)


@ENSEMBLES
def test_depolarizing_vs_oracle(ensemble):
    eps, shots = 0.3, 20000
    rho = _single_qubit_ensemble(
        lambda st, rng: eng.apply_depolarizing(st, [0], eps, rng), shots, 13, ensemble)
    st0 = eng.RegisterState(1)
    eng.apply_rotation(st0, [0], PI / 2, 0.0)
    oracle = depolarizing_channel(np.outer(st0.psi[0], st0.psi[0].conj()), eps)
    assert np.max(np.abs(rho - oracle)) < 3.0 / math.sqrt(shots)


def test_depolarizing_eps_one_fully_mixed():
    rho = _single_qubit_ensemble(
        lambda st, rng: eng.apply_depolarizing(st, [0], 1.0, rng), 20000, 14)
    purity = float(np.real(np.trace(rho @ rho)))
    assert abs(purity - 0.5) < 0.01


@ENSEMBLES
def test_t1_decay_vs_oracle(ensemble):
    t1, dt, shots = 1.168, 0.4, 20000

    def dark(n_shots):  # start in D (dark, bit 0)
        st = eng.RegisterState(1, shots=n_shots)
        st.psi[:] = [1.0, 0.0]
        return st

    psi = ensemble(dark, lambda st, rng: eng.apply_t1_decay(st, dt, rng, t1=t1),
                   shots, 15)
    rho = ensemble_density(psi)
    oracle = t1_channel(np.diag([1.0, 0.0]).astype(complex), dt, t1)
    assert np.max(np.abs(rho - oracle)) < 3.0 / math.sqrt(shots)


def test_t1_examples():
    assert 1.0 - math.exp(-3e-4 / 1.168) == pytest.approx(2.568e-4, rel=1e-3)
    st = eng.RegisterState(1)
    psi0 = st.psi.copy()
    eng.apply_t1_decay(st, 0.0, np.random.default_rng(0), t1=1.168)
    assert np.array_equal(st.psi, psi0)


def test_t1_decay_at_infinite_lifetime_draws_nothing():
    st = eng.RegisterState(2, shots=3)
    eng.apply_rotation(st, [0, 1], PI / 3, 0.2)
    psi0 = st.psi.copy()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    eng.apply_t1_decay(st, 1e-3, rng, t1=math.inf)
    assert rng.bit_generator.state == before
    assert np.array_equal(st.psi, psi0)


@pytest.mark.parametrize("n, targets, t1, bright_first", [
    (3, [0, 1, 2], 1, False), (1, [0], 1, False), (5, [0, 1, 2, 3, 4], 1, False),
    (4, [0, 1, 2, 3], 0.25, False), (3, [0, 1, 2], 1, True), (6, [0, 1, 2, 3, 4, 5], 1, True)])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
def test_t1_matches_per_qubit_reference_over_many_shots(n, targets, t1, bright_first, p):
    """Enough shots that each qubit jumps on many of them, first or after
    another qubit's jump: same jumps, states and draws as the per-target
    reference over every qubit in order (targets), on registers of 1 to 6
    qubits, at two lifetimes t1 (s) with dt set for jump probability p,
    and with no D population on qubit 0, so that no shot's first jump is
    at qubit 0."""
    rng0 = np.random.default_rng(5)
    st = eng.RegisterState(n, shots=2000)
    st.psi = rng0.normal(size=st.psi.shape) + 1j * rng0.normal(size=st.psi.shape)
    if bright_first:
        st.psi[:, ::2] = 0.0  # qubit 0 dark: the even basis states
    st.renormalize()
    ref = eng.RegisterState(n, shots=2000)
    ref.psi = st.psi.copy()
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    dt = -t1 * math.log1p(-p)
    eng.apply_t1_decay(st, dt, rng, t1=t1)
    t1_decay_per_qubit(ref, targets, dt, ref_rng, t1=t1)
    np.testing.assert_allclose(st.psi, ref.psi, rtol=0.0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", ["t1", "t2_optical", "t2_ground"])
def test_noise_config_rejects_non_positive_lifetime(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        eng.NoiseConfig(**{name: value})


@pytest.mark.parametrize("cls, name, value", [
    *[(eng.NoiseConfig, name, value) for name, value in (
        ("heating_rate_ref", math.nan), ("collision_rate", math.nan), ("collision_rate", -1.0),
        ("collision_rate", math.inf), ("heating_omega_ref", math.nan),
        ("heating_omega_ref", -1.0), ("heating_alpha", math.inf),
        ("gradient_hz_per_um", math.nan), ("gradient_compensated_hz_per_um", -math.inf))],
    *[(eng.DetectionModel, name, value) for name, value in (
        ("bright_rate", math.nan), ("bright_rate", -5.0), ("bright_rate", 0.0),
        ("window", math.inf), ("window", 0.0), ("dark_mean", math.nan),
        ("dark_mean", 1e19))]])
def test_noise_models_reject_nan_rate_and_non_finite_field(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**{name: value})


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_lifetime_consumers_reject_non_positive_lifetime(value):
    st = eng.RegisterState(1, shots=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="t1 must be positive"):
        eng.DetectionModel(t1=value)
    with pytest.raises(ValueError, match="t1 > 0"):
        eng.apply_t1_decay(st, 1e-3, rng, t1=value)
    with pytest.raises(ValueError, match="t2 > 0"):
        eng.apply_dephasing(st, 1e-3, value, rng)


SPIN_ONLY = {
    "dephasing": lambda st, rng: eng.apply_dephasing(st, 1e-3, 0.018, rng),
    "depolarizing": lambda st, rng: eng.apply_depolarizing(st, [0, 1], 0.5, rng),
    "t1": lambda st, rng: eng.apply_t1_decay(st, 1e-3, rng, t1=1.168),
    "project_bits": eng.project_bits,
}


@pytest.mark.parametrize("channel", sorted(SPIN_ONLY))
@pytest.mark.parametrize("shots", [None, 3], ids=["single", "batched"])
def test_spin_channels_reject_a_phonon_state(channel, shots):
    """The noise channels and the readout act on a (shots, 2**n) spin
    register; a state with a Fock axis is an error before any draw or
    change of the state."""
    st = eng.RegisterState(2, phonon=eng.PhononMode(2 * PI * 1e6, n_max=3), shots=shots)
    eng.apply_rotation(st, [0, 1], PI / 2, 0.0)
    psi0, rng = st.psi.copy(), np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="spin register"):
        SPIN_ONLY[channel](st, rng)
    assert rng.bit_generator.state == before
    assert np.array_equal(st.psi, psi0)


@ENSEMBLES
def test_heating_mean_growth(ensemble):
    rate, dt, shots = 0.221, 1.0, 3000
    phonon = eng.PhononMode(2 * PI * 1.05e6, n_max=14)
    psi = ensemble(lambda n_shots: eng.RegisterState(1, phonon=phonon, shots=n_shots),
                   lambda st, rng: eng.evolve_phonon_heating(st, dt, rate, rng),
                   shots, 16)
    np.testing.assert_allclose(np.linalg.norm(psi, axis=(1, 2)), 1.0, rtol=0.0, atol=1e-12)
    ns = (np.abs(psi) ** 2).sum(axis=-1) @ np.arange(phonon.n_max + 1)
    grown = float(np.mean(ns))
    se = float(np.std(ns)) / math.sqrt(shots)
    assert abs(grown - rate * dt) < 3 * se + 0.005


def test_heating_rate_law():
    noise = eng.NoiseConfig()
    r1 = noise.heating_rate(noise.heating_omega_ref)
    r2 = noise.heating_rate(2.0 * noise.heating_omega_ref)
    assert r1 == pytest.approx(0.221)
    assert r2 / r1 == pytest.approx(2.0 ** -1.7, rel=1e-12)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def test_detection_means_and_threshold():
    det = eng.DetectionModel()
    assert det.bright_rate * det.window == pytest.approx(150.0)
    assert det.bright_mean == pytest.approx(152.0)
    # dark tail example: P(counts >= 20 | dark mean 2) < 1e-6
    assert poisson.sf(19, 2.0) < 1e-6
    assert det.threshold >= 20  # far from both means
    k = det.threshold
    err = poisson.sf(k - 1, det.dark_mean) + poisson.cdf(k - 1, det.bright_mean)
    for other in (k - 5, k + 5):
        alt = poisson.sf(other - 1, det.dark_mean) + poisson.cdf(other - 1, det.bright_mean)
        assert err <= alt


@pytest.mark.parametrize("dark_mean", [0.5, 1.0, 2.0, 3.3, 5.0])
def test_threshold_closed_form_matches_scan(dark_mean):
    for window in np.geomspace(1e-5, 1e-3, 41):
        for rate in (1e5, 5e5):
            det = eng.DetectionModel(bright_rate=rate, window=float(window),
                                     dark_mean=dark_mean)
            assert det.threshold == detection_threshold_scan(det), (window, rate)


def test_threshold_default_and_edges():
    assert eng.DetectionModel().threshold == 35
    assert eng.DetectionModel(dark_mean=0.0).threshold == 1
    # A bright mean below one count leaves only k = 1, as the scan does.
    det = eng.DetectionModel(bright_rate=1e3, window=1e-4, dark_mean=0.5)
    assert det.threshold == detection_threshold_scan(det) == 1


def test_threshold_of_a_long_window_is_immediate():
    det = eng.DetectionModel(window=100.0)
    t0 = time.perf_counter()
    k = det.threshold
    assert time.perf_counter() - t0 < 0.01
    assert det.dark_mean < k < det.bright_mean


def test_detection_rejects_an_overflowing_bright_mean():
    with pytest.raises(ValueError, match=r"bright_rate \* window \+ dark_mean must be finite"
                                         r".*bright_rate=500000.0, window=1e\+308"):
        eng.DetectionModel(window=1e308)


def test_d_decay_probability_analytic():
    det = eng.DetectionModel()
    assert abs(det.decay_prob - (1.0 - math.exp(-det.window / det.t1))) < 1e-6


def test_detection_readout_error_vs_exact_oracle():
    """Monte-Carlo misclassification of a dark ion vs the exact-sum oracle."""
    det = eng.DetectionModel()
    p_exact, _ = readout_flip_oracle(det)
    shots = 100_000
    rng = np.random.default_rng(2024)
    bits = np.zeros(shots, dtype=np.int8)
    counts = det.sample_counts(bits, rng)
    errors = int(np.sum(det.classify(counts) == 1))
    se = math.sqrt(p_exact * (1 - p_exact) * shots)
    assert abs(errors - p_exact * shots) <= 3 * se + 3


# Bright error resolvable in a test: e0 about 0.0191, e1 about 0.0818.
RESOLVABLE = eng.DetectionModel(bright_rate=2e4, dark_mean=1.0)


@pytest.mark.parametrize("det", [
    eng.DetectionModel(), RESOLVABLE,
    eng.DetectionModel(window=1e-2),  # threshold crossing narrow against the window
    eng.DetectionModel(t1=1e-4),  # lifetime of a third of the window
    eng.DetectionModel(t1=1e-8),  # every dark ion decays early: e0 near 1
    eng.DetectionModel(dark_mean=0.0, t1=math.inf)],
    ids=["default", "resolvable", "long_window", "short_t1", "tiny_t1", "perfect_dark"])
def test_flip_probs_match_the_quad_oracle(det):
    e0, e1 = det.flip_probs
    o0, o1 = readout_flip_oracle(det)
    assert e0 == pytest.approx(o0, rel=1e-10, abs=1e-300)
    assert e1 == pytest.approx(o1, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("bit", [0, 1])
def test_measure_flip_rate_matches_sampled_counts(bit):
    """measure's flips and sample_counts + classify read one ion state out
    with the same error rate: 2e5 ion-readouts each, |z| <= 5."""
    shots, n = 100_000, 2
    law = np.zeros(2**n)
    law[-bit] = 1.0  # all dark (index 0) or all bright (index 2**n - 1)
    flipped = eng.measure(law, shots, RESOLVABLE, np.random.default_rng(71)) != bit
    counts = RESOLVABLE.sample_counts(np.full((shots, n), bit, dtype=np.int8),
                                      np.random.default_rng(72))
    misread = RESOLVABLE.classify(counts) != bit
    p1, p2, m = flipped.mean(), misread.mean(), flipped.size
    pooled = (p1 + p2) / 2.0
    z = (p1 - p2) / math.sqrt(2.0 * pooled * (1.0 - pooled) / m)
    assert abs(z) <= 5.0


def test_measure_draws_the_outcome_then_one_uniform_per_ion():
    probs, shots = [0.1, 0.2, 0.3, 0.4], 1000
    bits = eng.measure(probs, shots, RESOLVABLE, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    true = (rng.choice(4, p=probs, size=shots)[:, None] >> np.arange(2)) & 1
    e0, e1 = RESOLVABLE.flip_probs
    assert np.array_equal(bits, true ^ (rng.random((shots, 2)) < np.where(true == 1, e1, e0)))


def test_flip_probs_of_a_mean_near_numpy_poisson_limit_are_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e0, e1 = eng.DetectionModel(dark_mean=9.22e18).flip_probs
    assert 0.0 <= e0 <= 1.0 and 0.0 <= e1 <= 1.0


@pytest.mark.parametrize("t1", [math.inf, 1e-3])
def test_noise_config_reads_out_with_its_own_t1(t1):
    assert eng.NoiseConfig(t1=t1).detection.flip_probs == eng.DetectionModel(t1=t1).flip_probs


def test_measure_shapes_and_bright_state():
    st = eng.RegisterState(2)  # all-bright
    det = eng.DetectionModel()
    bits = eng.measure(st.probabilities()[0], 500, det, np.random.default_rng(5))
    assert bits.shape == (500, 2) and bits.dtype == np.int8
    assert np.mean(bits) > 0.999


def test_measure_never_draws_a_zero_probability_outcome():
    # Outcome 2 (qubit 1 bright, qubit 0 dark) has no weight; a perfect
    # readout (no dark counts, no decay in the window) shows the true bits.
    det = eng.DetectionModel(dark_mean=0.0, t1=math.inf)
    bits = eng.measure([0.25, 0.5, 0.0, 0.25], 20000, det, np.random.default_rng(6))
    idx = bits[:, 0] + 2 * bits[:, 1]
    assert not np.any(idx == 2)
    assert set(np.unique(idx)) == {0, 1, 3}


@pytest.mark.parametrize("probs", [[0.5, 0.25, 0.25], [[0.5, 0.5]], 1.0, []])
def test_measure_rejects_a_law_not_over_basis_states(probs):
    with pytest.raises(ValueError, match=r"2\*\*n basis states"):
        eng.measure(probs, 10, eng.DetectionModel(), np.random.default_rng(0))


def test_detection_mean_just_below_numpy_poisson_limit_samples():
    # numpy samples a Poisson mean up to about 9.223e18; 1e19 is rejected above.
    det = eng.DetectionModel(dark_mean=9.22e18)
    assert det.sample_counts(np.array([0, 1]), np.random.default_rng(0)).min() > 9e18


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------

QUIET = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf,
                        collision_rate=0.0)


def _compile(instructions, machine):
    return comp.compile_circuit(instructions, machine)


def test_run_schedule_empty_measures_bright():
    machine = comp.MachineConfig()
    sched = _compile([comp.PrepareAll(), comp.MeasureAll("m0")], machine)
    recs = eng.run_schedule(sched, machine, QUIET, 200, seed=1)
    assert all(r.bits == (1, 1) for r in recs)
    assert all(r.valid for r in recs)


@pytest.mark.parametrize("kwargs, schedule_qubits, match", [
    ({"shots": 0}, 3, "shots must be >= 1"),
    ({"crosstalk": np.eye(2)}, 3, "crosstalk must be 3 x 3"),
    ({"positions_um": [0.0]}, 3, "positions_um must hold 3 positions"),
    ({"positions_um": [0.0, 1.0, 2.0, 3.0]}, 3, "positions_um must hold 3 positions"),
    ({}, 2, "schedule is compiled for 2 qubits, the machine has 3"),
], ids=["zero_shots", "small_crosstalk", "short_positions", "long_positions",
        "register_mismatch"])
def test_run_schedule_rejects_inputs_that_do_not_fit(kwargs, schedule_qubits, match):
    machine = comp.MachineConfig(n_qubits=3)
    sched = _compile([comp.R(PI / 2, 0.0, "all"), comp.MeasureAll("m0")],
                     comp.MachineConfig(n_qubits=schedule_qubits))
    with pytest.raises(ValueError, match=match):
        eng.run_schedule(sched, machine, QUIET, **{"shots": 10, "seed": 0, **kwargs})


def test_run_schedule_pi_pulse_all_dark():
    machine = comp.MachineConfig()
    sched = _compile([comp.R(PI, 0.0, "all"), comp.MeasureAll("m0")], machine)
    recs = eng.run_schedule(sched, machine, QUIET, 200, seed=2)
    dark = sum(r.bits == (0, 0) for r in recs)
    assert dark >= 198  # detection decay errors only


def test_run_schedule_branch_conditional_flip():
    # measure superposition; on bright outcome flip qubit 0 -> final dark
    machine = comp.MachineConfig(n_qubits=1)
    body = (comp.R(PI, 0.0, (0,)),)
    sched = _compile([comp.R(PI / 2, 0.0, "all"),
                      comp.MeasureAll("m0"),
                      comp.Branch("m0", ((0, "bright"),), body),
                      comp.MeasureAll("m1")], machine)
    recs = eng.run_schedule(sched, machine, QUIET, 400, seed=3)
    # final measurement should be dark regardless of the branch outcome
    dark = sum(r.bits == (0,) for r in recs)
    assert dark >= 392


FLIP = comp.R(PI, 0.0, (0,))


@pytest.mark.parametrize("middle", [
    # m1 reads q0 dark; the branch on m0 (bright) fires and flips q0 back.
    (comp.R(PI, 0.0, "all"), comp.MeasureAll("m1"), comp.Branch("m0", ((0, "bright"),), (FLIP,))),
    # A body flips q0 dark and reads it; the next branch still reads m0.
    (comp.Branch("m0", ((0, "bright"),), (FLIP, comp.MeasureAll("m1"))),
     comp.Branch("m0", ((0, "bright"),), (FLIP,)))])
def test_branch_reads_the_measurement_it_names(middle):
    machine = comp.MachineConfig(n_qubits=1)
    sched = _compile([comp.PrepareAll(), comp.MeasureAll("m0"), *middle,
                      comp.MeasureAll("m2")], machine)
    recs = eng.run_schedule(sched, machine, QUIET, 400, seed=5)
    assert sum(r.bits == (1,) for r in recs) >= 392


@pytest.mark.parametrize("rz_mode", ["virtual", "ac_stark"])
def test_rz_in_a_branch_body_acts_only_on_the_shots_that_fire(rz_mode):
    # q1 takes R(pi/2) twice: dark at the end, unless the branch fired and
    # put RZ(pi) between the pulses, which undoes the flip.
    machine = comp.MachineConfig(rz_mode=rz_mode)
    half = PI / 2
    sched = _compile([comp.PrepareAll(), comp.R(half, 0.0, (0,)), comp.MeasureAll("m0"),
                      comp.R(half, 0.0, (1,)),
                      comp.Branch("m0", ((0, "bright"),), (comp.RZ(PI, (1,)),)),
                      comp.R(half, 0.0, (1,)), comp.MeasureAll("m1")], machine)
    bits = np.array([r.bits for r in eng.run_schedule(sched, machine, QUIET, 1000, seed=7)])
    fired = bits[:, 0] == 1
    assert 400 < fired.sum() < 600
    assert bits[~fired, 1].mean() < 0.02
    assert bits[fired, 1].mean() > 0.98


def _noise_intervals(monkeypatch):
    """Record the length (s) of every noise interval _run_events idles."""
    seen, inner = [], eng._noise_interval

    def record(state, dt_s, *args):
        if dt_s > 0:
            seen.append(dt_s)
        return inner(state, dt_s, *args)

    monkeypatch.setattr(eng, "_noise_interval", record)
    return seen


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("measured", [True, False])
def test_back_to_back_pulses_idle_once_between_operations(monkeypatch, k, measured):
    # k pulses with no gap: one interval up to each pulse centre, then one up
    # to the MEASURE (or, without one, to the end of the last pulse).
    machine = comp.MachineConfig(n_qubits=1)
    tail = [comp.MeasureAll("m0")] if measured else []
    sched = _compile([comp.R(PI / 2, 0.0, (0,))] * k + tail, machine)
    seen = _noise_intervals(monkeypatch)
    eng.run_schedule(sched, machine, eng.NoiseConfig(), 10, seed=0)
    assert len(seen) == k + 1
    pulse_s = machine.t_half_pi_us * 1e-6
    assert seen == pytest.approx([pulse_s / 2] + [pulse_s] * (k - 1) + [pulse_s / 2])


def test_ramsey_noise_matches_the_density_matrix_oracle():
    # R(pi/2), wait, R(pi/2) under dephasing and T1, read out without error;
    # the oracle composes both channels over the pulse-centre intervals.
    t2, t1, wait_us, shots = 0.4e-3, 1.0e-3, 300.0, 4000
    perfect = eng.DetectionModel(bright_rate=1e12, window=1e-9, dark_mean=0.0)
    noise = eng.NoiseConfig(t2_optical=t2, t1=t1, collision_rate=0.0, detection=perfect)
    machine = comp.MachineConfig(n_qubits=1)
    sched = _compile([comp.R(PI / 2, 0.0, (0,)), comp.Delay(wait_us),
                      comp.R(PI / 2, 0.0, (0,)), comp.MeasureAll("m0")], machine)
    recs = eng.run_schedule(sched, machine, noise, shots, seed=12)
    p_dark = np.mean([r.bits[0] == 0 for r in recs])

    pulse = machine.t_half_pi_us * 1e-6
    u = eng.rotation_matrix(PI / 2, 0.0)
    rho = np.diag([0.0, 1.0]).astype(complex)  # |S>
    for dt, gate in ((pulse / 2, u), (pulse + wait_us * 1e-6, u), (pulse / 2, None)):
        rho = t1_channel(dephasing_channel(rho, dt, t2), dt, t1)
        if gate is not None:
            rho = gate @ rho @ gate.conj().T
    expected = float(np.real(rho[0, 0]))
    sigma = math.sqrt(expected * (1.0 - expected) / shots)
    assert abs(p_dark - expected) < 4.0 * sigma


def test_run_schedule_determinism_and_threads():
    machine = comp.MachineConfig()
    sched = _compile([comp.R(PI / 2, 0.0, "all"), comp.MS(PI / 4, (0, 1)),
                      comp.MeasureAll("m0")], machine)
    noise = eng.NoiseConfig(eps_1q=0.01, eps_2q=0.01)
    a = eng.run_schedule(sched, machine, noise, 100, seed=7, threads=1)
    b = eng.run_schedule(sched, machine, noise, 100, seed=7, threads=4)
    assert a == b
    c = eng.run_schedule(sched, machine, noise, 100, seed=8)
    assert a != c


def test_eps_1q_is_charged_once_per_pulse_whatever_its_angle(monkeypatch):
    """Every carrier and ac_stark pulse, a pi pulse and a zero-angle RZ
    alike, gets noise.eps_1q, as every pulse slot of experiment rb does."""
    machine = comp.MachineConfig(n_qubits=1, rz_mode="ac_stark")
    sched = _compile([comp.R(PI, 0.0, (0,)), comp.R(PI / 2, 0.0, (0,)),
                      comp.R(0.3, 0.0, (0,)), comp.RZ(0.0, (0,)),
                      comp.MeasureAll("m0")], machine)
    assert [e.kind for e in sched.events][:4] == ["carrier"] * 3 + ["ac_stark"]
    charged = []
    real = eng.apply_depolarizing

    def spy(state, targets, eps, rng):
        charged.append(eps)
        return real(state, targets, eps, rng)

    monkeypatch.setattr(eng, "apply_depolarizing", spy)
    eng.run_schedule(sched, machine, replace(QUIET, eps_1q=0.6), 10, seed=1)
    assert charged == [0.6] * 4


def test_run_schedule_chunks_keep_shot_order(monkeypatch):
    machine = comp.MachineConfig()
    sched = _compile([comp.R(PI, 0.0, (0,)), comp.MeasureAll("m0")], machine)
    whole = eng.run_schedule(sched, machine, QUIET, 95, seed=4)
    monkeypatch.setattr(eng, "_CHUNK_BYTES", 10 * 4 * 16)  # ten 2-qubit shots
    chunked = eng.run_schedule(sched, machine, QUIET, 95, seed=4)
    assert [r.shot for r in chunked] == list(range(95))
    assert chunked == eng.run_schedule(sched, machine, QUIET, 95, seed=4)
    assert chunked != whole  # each chunk draws from its own stream
    for recs in (whole, chunked):
        assert sum(r.bits == (0, 1) for r in recs) >= 93


def test_collision_rate_statistics():
    machine = comp.MachineConfig()
    # long wait to accumulate collision exposure
    sched = _compile([comp.Delay(500_000.0), comp.MeasureAll("m0")], machine)
    noise = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf)
    shots = 4000
    recs = eng.run_schedule(sched, machine, noise, shots, seed=9)
    t_total = sched.duration_ns * 1e-9
    lam = noise.collision_rate * machine.n_qubits * t_total
    expect_invalid = (1.0 - math.exp(-lam)) * shots
    invalid = sum(not r.valid for r in recs)
    sd = math.sqrt(expect_invalid)
    assert abs(invalid - expect_invalid) <= 3 * sd + 1


def test_spam_prep_flips():
    machine = comp.MachineConfig()
    sched = _compile([comp.MeasureAll("m0")], machine)
    noise = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf,
                            t1=math.inf, spam_prep=0.2, collision_rate=0.0)
    recs = eng.run_schedule(sched, machine, noise, 2000, seed=10)
    dark_frac = np.mean([1 - b for r in recs for b in r.bits])
    assert abs(dark_frac - 0.2) < 0.03


def test_crosstalk_scales_addressed_rotation():
    machine = comp.MachineConfig()
    sched = _compile([comp.R(PI, 0.0, (0,)), comp.MeasureAll("m0")], machine)
    x = np.array([[1.0, 0.1], [0.1, 1.0]])
    recs = eng.run_schedule(sched, machine, QUIET, 3000, seed=11, crosstalk=x)
    # spectator qubit 1 sees a pi*0.1 rotation: P_dark = sin^2(pi*0.1/2)
    dark1 = np.mean([1 - r.bits[1] for r in recs])
    assert abs(dark1 - math.sin(PI * 0.1 / 2) ** 2) < 0.03


def test_invalid_channel_args():
    st = eng.RegisterState(1)
    with pytest.raises(ValueError):
        eng.apply_rotation(st, [3], PI, 0.0)
    with pytest.raises(ValueError):
        eng.apply_depolarizing(st, [0], 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        eng.apply_dephasing(st, -1.0, 0.018, np.random.default_rng(0))
    with pytest.raises(ValueError):
        eng.NoiseConfig(eps_1q=2.0)
    with pytest.raises(ValueError):
        eng.NoiseConfig(t1=-1.0)
