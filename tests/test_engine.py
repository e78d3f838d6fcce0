"""Dynamics engine: propagators, noise trajectories, detection, scheduling."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

from iontrap_bench import compiler as comp
from iontrap_bench import engine as eng
from oracles import (dephasing_channel, depolarizing_channel,
                     ensemble_density, t1_channel)

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
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    eng.apply_rz(st, range(12), 0.9)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    eng.apply_ms_ideal(st, range(12), PI / 4)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


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
    """Final psi of `shots` single-state trajectories, one stream each."""
    states = []
    for s in range(shots):
        st = prepare(None)
        channel_fn(st, np.random.default_rng([seed, s]))
        states.append(st.psi)
    return np.array(states)


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
    return ensemble_density(ensemble(_plus_state, channel_fn, shots, seed)[:, 0])


@ENSEMBLES
def test_dephasing_vs_oracle(ensemble):
    t2, dt, shots = 0.018, 0.009, 20000
    rho = _single_qubit_ensemble(
        lambda st, rng: eng.apply_dephasing(st, [0], dt, t2, rng), shots, 11, ensemble)
    st0 = eng.RegisterState(1)
    eng.apply_rotation(st0, [0], PI / 2, 0.0)
    oracle = dephasing_channel(np.outer(st0.psi[0], st0.psi[0].conj()), dt, t2)
    se = 1.0 / math.sqrt(shots)
    assert abs(rho[0, 1] - oracle[0, 1]) < 3 * se
    assert rho[0, 0].real == pytest.approx(oracle[0, 0].real, abs=3 * se)


def test_dephasing_contrast_at_t2():
    shots, t2 = 20000, 0.05
    rho = _single_qubit_ensemble(
        lambda st, rng: eng.apply_dephasing(st, [0], t2, t2, rng), shots, 12)
    contrast = 2.0 * abs(rho[0, 1])
    assert abs(contrast - math.exp(-1.0)) < 0.02


def test_dephasing_dt_zero_identity():
    st = eng.RegisterState(1)
    eng.apply_rotation(st, [0], PI / 2, 0.2)
    psi0 = st.psi.copy()
    eng.apply_dephasing(st, [0], 0.0, 0.018, np.random.default_rng(0))
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
        st.psi[..., 0, :] = [1.0, 0.0]
        return st

    psi = ensemble(dark, lambda st, rng: eng.apply_t1_decay(st, [0], dt, rng, t1=t1),
                   shots, 15)
    rho = ensemble_density(psi[:, 0])
    oracle = t1_channel(np.diag([1.0, 0.0]).astype(complex), dt, t1)
    assert np.max(np.abs(rho - oracle)) < 3.0 / math.sqrt(shots)


def test_t1_examples():
    assert 1.0 - math.exp(-3e-4 / 1.168) == pytest.approx(2.568e-4, rel=1e-3)
    st = eng.RegisterState(1)
    psi0 = st.psi.copy()
    eng.apply_t1_decay(st, [0], 0.0, np.random.default_rng(0))
    assert np.array_equal(st.psi, psi0)


def test_t1_decay_at_infinite_lifetime_draws_nothing():
    st = eng.RegisterState(2, shots=3)
    eng.apply_rotation(st, [0, 1], PI / 3, 0.2)
    psi0 = st.psi.copy()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    eng.apply_t1_decay(st, [0, 1], 1e-3, rng, t1=math.inf)
    assert rng.bit_generator.state == before
    assert np.array_equal(st.psi, psi0)


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
        ("window", math.inf), ("window", 0.0), ("dark_mean", math.nan))]])
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
        eng.apply_t1_decay(st, [0], 1e-3, rng, t1=value)
    with pytest.raises(ValueError, match="t2 > 0"):
        eng.apply_dephasing(st, [0], 1e-3, value, rng)


@ENSEMBLES
def test_heating_mean_growth(ensemble):
    rate, dt, shots = 0.221, 1.0, 3000
    phonon = eng.PhononMode(2 * PI * 1.05e6, n_max=14)
    psi = ensemble(lambda n_shots: eng.RegisterState(1, phonon=phonon, shots=n_shots),
                   lambda st, rng: eng.evolve_phonon_heating(st, dt, rate, rng),
                   shots, 16)
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


def test_d_decay_probability_analytic():
    det = eng.DetectionModel()
    assert abs(det.decay_prob - (1.0 - math.exp(-det.window / det.t1))) < 1e-6


def test_detection_readout_error_vs_exact_oracle():
    """Monte-Carlo misclassification of a dark ion vs the exact-sum oracle."""
    from scipy import integrate
    det = eng.DetectionModel()
    k = det.threshold

    def integrand(t):
        mean = det.dark_mean + det.bright_rate * (det.window - t)
        return math.exp(-t / det.t1) / det.t1 * poisson.sf(k - 1, mean)

    p_exact, _ = integrate.quad(integrand, 0.0, det.window)
    p_exact += math.exp(-det.window / det.t1) * poisson.sf(k - 1, det.dark_mean)

    shots = 100_000
    rng = np.random.default_rng(2024)
    bits = np.zeros(shots, dtype=np.int8)
    counts = det.sample_counts(bits, rng)
    errors = int(np.sum(det.classify(counts) == 1))
    se = math.sqrt(p_exact * (1 - p_exact) * shots)
    assert abs(errors - p_exact * shots) <= 3 * se + 3


def test_measure_shapes_and_bright_state():
    st = eng.RegisterState(2)  # all-bright
    det = eng.DetectionModel()
    bits, counts = eng.measure(st, 500, det, np.random.default_rng(5))
    assert bits.shape == (500, 2) and counts.shape == (500, 2)
    assert np.mean(bits) > 0.999


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------

QUIET = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf,
                        collision_rate=0.0)


def _compile(instructions, machine):
    return comp.compile_circuit(comp.CircuitIR(tuple(instructions)), machine)


def test_run_schedule_empty_measures_bright():
    machine = comp.MachineConfig()
    sched = _compile([comp.PrepareAll(), comp.MeasureAll("m0")], machine)
    recs = eng.run_schedule(sched, machine, QUIET, 200, seed=1)
    assert all(r.bits == (1, 1) for r in recs)
    assert all(r.valid for r in recs)


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
        eng.apply_dephasing(st, [0], -1.0, 0.018, np.random.default_rng(0))
    with pytest.raises(ValueError):
        eng.NoiseConfig(eps_1q=2.0)
    with pytest.raises(ValueError):
        eng.NoiseConfig(t1=-1.0)
