"""Dynamics engine: propagators, noise trajectories, detection, scheduling."""

import copy
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
from oracles import (dephasing_channel, dephasing_per_qubit, depolarizing_channel,
                     detection_threshold_scan, ensemble_density, readout_flip_oracle,
                     t1_channel, t1_decay_per_qubit)

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


@pytest.mark.parametrize("n, targets", [(2, [0, 1]), (5, [3, 1]), (9, range(9)),
                                        (14, [13, 0, 6])])
def test_ms_phase_table_is_the_per_target_sum_bit_for_bit(n, targets):
    """The table, expanded to the 2**n basis states, equals the weighted sum
    m built over the basis one target at a time, in target order."""
    targets = list(targets)
    weights = np.random.default_rng(n).uniform(0.1, 1.0, len(targets))
    idx, m = np.arange(2**n), np.zeros(2**n)
    for q, w in zip(targets, weights):
        m = m + w * np.where((idx >> q) & 1 == 0, 1.0, -1.0)
    want = np.exp(-0.35j * (m**2 - float(np.sum(weights**2)))) * 2.0 ** -len(targets)
    table = eng._ms_phase(n, targets, weights, 0.7)
    assert table.size == 2 ** len(targets)
    assert np.array_equal(np.broadcast_to(table, (2,) * n).reshape(-1), want)


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


@pytest.mark.parametrize("ramp", [False, True], ids=["no_ramp", "ramp"])
@pytest.mark.parametrize("t2", [math.inf, 0.018], ids=["t2_inf", "t2"])
@pytest.mark.parametrize("t1", [math.inf, 1.168, 1e-4, 1e-308],
                         ids=["t1_inf", "t1", "jumps", "p_one"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12])
def test_noise_interval_is_dephasing_then_t1_decay(n, t1, t2, ramp):
    """One _noise_interval from one generator state gives the state (to
    1e-12) and the generator state of apply_dephasing then apply_t1_decay,
    and of the per-qubit references in the same order: at no decay, the
    default lifetime, one short enough (p = 0.26) that shots jump, and
    1e-308 (p = 1); without and with dephasing and a gradient ramp; and
    at dt = 0, which does nothing and draws nothing."""
    shots = 8 if n == 12 else 64
    rng0 = np.random.default_rng(n)
    start = eng.RegisterState(n, shots=shots)
    start.psi = rng0.normal(size=start.psi.shape) + 1j * rng0.normal(size=start.psi.shape)
    start.renormalize()
    detuning = np.linspace(-40.0, 60.0, n) if ramp else None
    for dt in (0.0, 3e-5):
        fused, parts, ref = (copy.deepcopy(start) for _ in range(3))
        rngs = [np.random.default_rng(17) for _ in range(3)]
        eng._noise_interval(fused, dt, rngs[0], t1, t2, detuning)
        eng.apply_dephasing(parts, dt, t2, rngs[1], detuning_hz=detuning)
        eng.apply_t1_decay(parts, dt, rngs[1], t1=t1)
        dephasing_per_qubit(ref, range(n), dt, t2, rngs[2], detuning_hz=detuning)
        t1_decay_per_qubit(ref, range(n), dt, rngs[2], t1=t1)
        for other, rng in zip((parts, ref), rngs[1:]):
            np.testing.assert_allclose(fused.psi, other.psi, rtol=0.0, atol=1e-12)
            assert rngs[0].bit_generator.state == rng.bit_generator.state
        if dt == 0.0:
            assert np.array_equal(fused.psi, start.psi)
            assert rngs[0].bit_generator.state == np.random.default_rng(17).bit_generator.state


def test_noise_interval_tests_jumps_on_candidate_shots_only(monkeypatch):
    """At p = 1e-3 over 20000 shots, the per-qubit rule receives exactly
    the candidates, the shots that draw a uniform below p: the state and
    generator state are those of the per-qubit reference, to 1e-12."""
    n, shots, t1 = 3, 20000, 1.0
    dt = -t1 * math.log1p(-1e-3)
    rng0, st = np.random.default_rng(4), eng.RegisterState(n, shots=shots)
    st.psi = rng0.normal(size=st.psi.shape) + 1j * rng0.normal(size=st.psi.shape)
    st.renormalize()
    ref = copy.deepcopy(st)
    jumpers, inner = [], eng._t1_in_turn
    monkeypatch.setattr(eng, "_t1_in_turn", lambda psi, p, u: (jumpers.append(len(psi)),
                                                               inner(psi, p, u)))
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    p = 1.0 - math.exp(-dt / t1)
    below = np.logical_or.reduce(
        copy.deepcopy(rng).random((n, shots)) < p).sum()
    eng._noise_interval(st, dt, rng, t1, math.inf)
    t1_decay_per_qubit(ref, range(n), dt, ref_rng, t1=t1)
    assert 0 < below < shots and jumpers == [below]
    np.testing.assert_allclose(st.psi, ref.psi, rtol=0.0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("t2", [math.inf, 0.018], ids=["t2_inf", "t2"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_all_dark_batch_at_p_one_jumps_without_a_warning(n, t2):
    """Every shot in |D...D> at t1 = 1e-308 (p = 1) jumps on every qubit:
    no 0/0 in the jump test or the no-jump norm, and the reference's state."""
    st = eng.RegisterState(n, shots=50)
    st.psi[:] = 0.0
    st.psi[:, 0] = 1.0
    ref = copy.deepcopy(st)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng._noise_interval(st, 3e-5, rng, 1e-308, t2)
    dephasing_per_qubit(ref, range(n), 3e-5, t2, ref_rng)
    t1_decay_per_qubit(ref, range(n), 3e-5, ref_rng, t1=1e-308)
    np.testing.assert_allclose(st.psi, ref.psi, rtol=0.0, atol=1e-12)
    assert np.allclose(np.abs(st.psi[:, -1]), 1.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("t1", [1.168, 1e-4, 1e-308], ids=["t1", "jumps", "p_one"])
def test_all_bright_batch_takes_only_the_kicks(t1):
    """|S...S> has no D population, so no shot jumps and T1 leaves it be:
    the interval is the dephasing kicks, with T1's uniforms still drawn."""
    n, shots = 4, 200
    st = eng.RegisterState(n, shots=shots)
    ref = copy.deepcopy(st)
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    eng._noise_interval(st, 3e-5, rng, t1, 0.018, np.linspace(-40.0, 60.0, n))
    dephasing_per_qubit(ref, range(n), 3e-5, 0.018, ref_rng, np.linspace(-40.0, 60.0, n))
    ref_rng.random((n, shots))
    np.testing.assert_allclose(st.psi, ref.psi, rtol=0.0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_dark_counts_count_the_clear_bits_of_each_slot(n):
    counts = eng._dark_counts(n)
    assert counts.tolist() == [n - bin(i).count("1") for i in range(2**n)]
    assert not counts.flags.writeable


def test_t1_rule_caps_a_dark_ratio_that_rounds_above_one():
    """One shot whose D population sums just above 1 by rounding, at
    p = 0.5 and a uniform equal to p: p * dark2 / norm2 rounds above p, the
    cap holds it at p, so the shot does not jump and D takes sqrt(1 - p)."""
    amp = np.nextafter(1.0, 2.0)
    psi = np.array([[amp, 0.0]], dtype=complex)  # index 0: qubit 0 dark
    assert 0.5 * abs(amp) ** 2 > 0.5
    eng._t1_in_turn(psi, 0.5, np.array([[0.5]]))
    assert psi.tolist() == [[amp * math.sqrt(0.5), 0.0]]


@pytest.mark.parametrize("shots", [1, 5, 300])
@pytest.mark.parametrize("n", [1, 3, 6, 7])
@pytest.mark.parametrize("root", [0.0, 0.37, 1.0])
def test_scale_diagonal_is_the_product_over_the_bits(root, n, shots):
    """Entry [s, i] is scaled by kicks[q, s] for each set bit q of i and by
    root for each clear one, over the one-table split (300 shots, or
    n = 1) and the two-table one (1 shot at n >= 3, 5 at n >= 6); root = 0
    leaves only the all-bright entry."""
    rng = np.random.default_rng(n * shots)
    kicks = np.exp(1j * rng.normal(size=(n, shots)))
    psi = rng.normal(size=(shots, 2**n)) + 1j * rng.normal(size=(shots, 2**n))
    want = psi.copy()
    for i in range(2**n):
        for q in range(n):
            want[:, i] *= kicks[q] if i >> q & 1 else root
    eng._scale_diagonal(psi, kicks, root)
    np.testing.assert_allclose(psi, want, rtol=0.0, atol=1e-13)
    if root == 0.0:
        assert not psi[:, :-1].any()


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
    with the same error rate: 2e5 ion-readouts each, |z| <= 5.  measure's
    flips are the detected counts' distances from the true count."""
    shots, n = 100_000, 2
    law = np.zeros(n + 1)
    law[-bit] = 1.0  # all dark (count 0) or all bright (count n)
    counts = eng.measure(law, shots, RESOLVABLE, np.random.default_rng(71))
    flips = int(counts @ np.abs(np.arange(n + 1) - bit * n))
    sampled = RESOLVABLE.sample_counts(np.full((shots, n), bit, dtype=np.int8),
                                       np.random.default_rng(72))
    misread = RESOLVABLE.classify(sampled) != bit
    p1, p2, m = flips / (shots * n), misread.mean(), misread.size
    pooled = (p1 + p2) / 2.0
    z = (p1 - p2) / math.sqrt(2.0 * pooled * (1.0 - pooled) / m)
    assert abs(z) <= 5.0


def test_measure_draws_one_multinomial_of_the_detected_law():
    law, shots = [0.1, 0.2, 0.3, 0.4], 1000
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    counts = eng.measure(law, shots, RESOLVABLE, rng)
    want = ref.multinomial(shots, eng.detected_count_law(law, *RESOLVABLE.flip_probs))
    assert np.array_equal(counts, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_read_dark_is_the_one_ion_detected_count_law():
    """read_dark(p) equals detected_count_law([p, 1 - p], e0, e1)[0] over
    11 dark probabilities and 18 models, whose flip pairs span e0 from 0 to
    0.42 and e1 from 6e-34 to 0.37; an array of p gives the same values."""
    p = np.linspace(0.0, 1.0, 11)
    for bright_rate in (5e5, 2e4, 5e3):
        for dark_mean in (0.0, 1.0, 5.0):
            for t1 in (math.inf, 1e-3):
                det = eng.DetectionModel(bright_rate=bright_rate, dark_mean=dark_mean, t1=t1)
                want = [eng.detected_count_law([q, 1.0 - q], *det.flip_probs)[0] for q in p]
                assert [det.read_dark(q) for q in p] == pytest.approx(want, rel=1e-13, abs=1e-15)
                assert np.array_equal(det.read_dark(p), [det.read_dark(q) for q in p])


def test_flip_probs_of_a_mean_near_numpy_poisson_limit_are_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e0, e1 = eng.DetectionModel(dark_mean=9.22e18).flip_probs
    assert 0.0 <= e0 <= 1.0 and 0.0 <= e1 <= 1.0


def test_flip_probs_of_a_tiny_t1_read_every_dark_ion_as_a_decayed_one():
    """At t1 = 1e-308 a dark ion decays at the window's start and counts
    like a bright one, so e0 = 1 - e1; the density's 1/t1 does not
    overflow the decay integral."""
    e0, e1 = replace(RESOLVABLE, t1=1e-308).flip_probs
    assert e0 == pytest.approx(1.0 - e1, rel=1e-9)


@pytest.mark.parametrize("t1", [math.inf, 1e-3])
def test_noise_config_reads_out_with_its_own_t1(t1):
    assert eng.NoiseConfig(t1=t1).detection.flip_probs == eng.DetectionModel(t1=t1).flip_probs


def test_measure_shapes_and_bright_state():
    st = eng.RegisterState(2)  # all-bright
    det = eng.DetectionModel()
    counts = eng.measure(eng.bright_count_law(st.probabilities()[0]), 500, det,
                         np.random.default_rng(5))
    assert counts.shape == (3,) and counts.sum() == 500
    assert counts @ np.arange(3) / (2 * 500) > 0.999


def test_measure_never_draws_a_zero_probability_outcome():
    # One ion bright has no weight; a perfect readout (no dark counts, no
    # decay in the window) shows the true counts.
    det = eng.DetectionModel(dark_mean=0.0, t1=math.inf)
    law = eng.bright_count_law([0.5, 0.0, 0.0, 0.5])
    counts = eng.measure(law, 20000, det, np.random.default_rng(6))
    assert counts[1] == 0 and counts[0] > 0 and counts[2] > 0


@pytest.mark.parametrize("probs", [[0.5, 0.25, 0.25], [[0.5, 0.5]], 1.0, []])
def test_bright_count_law_rejects_a_law_not_over_basis_states(probs):
    with pytest.raises(ValueError, match=r"2\*\*n basis states"):
        eng.bright_count_law(probs)


@pytest.mark.parametrize("law", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], [-0.1, 1.1],
                                 [1.0], [], [[0.5, 0.5]]],
                         ids=["zero_total", "nan", "inf", "negative", "one_entry", "empty",
                              "two_dim"])
def test_measure_rejects_a_malformed_law_before_any_draw(law):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"bright-count law .* got count_law="):
        eng.measure(law, 10, eng.DetectionModel(), rng)
    assert rng.bit_generator.state == state


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


def _no_chunk_state(*args, **kwargs):
    raise AssertionError("a chunk ran")


def _same_shots(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in
               ((a.bits, b.bits), (a.counts, b.counts), (a.valid, b.valid)))


def test_run_schedule_empty_measures_bright():
    machine = comp.MachineConfig()
    sched = _compile([comp.PrepareAll(), comp.MeasureAll("m0")], machine)
    shots = eng.run_schedule(sched, machine, QUIET, 200, seed=1)
    assert np.all(shots.bits == 1)
    assert np.all(shots.valid)


@pytest.mark.parametrize("kwargs, schedule_qubits, match", [
    ({"shots": 0}, 3, "shots must be >= 1"),
    ({"shots": eng.max_shots(3) + 1}, 3, f"shots must be <= {eng.max_shots(3)} on 3 qubits"),
    ({"crosstalk": np.eye(2)}, 3, "crosstalk must be 3 x 3"),
    ({"positions_um": [0.0]}, 3, "positions_um must hold 3 positions"),
    ({"positions_um": [0.0, 1.0, 2.0, 3.0]}, 3, "positions_um must hold 3 positions"),
    ({}, 2, "schedule is compiled for 2 qubits, the machine has 3"),
], ids=["zero_shots", "shots_over_ceiling", "small_crosstalk", "short_positions",
        "long_positions", "register_mismatch"])
def test_run_schedule_rejects_inputs_that_do_not_fit(monkeypatch, kwargs, schedule_qubits,
                                                     match):
    """Each is refused before any chunk builds its state."""
    monkeypatch.setattr(eng, "RegisterState", _no_chunk_state)
    machine = comp.MachineConfig(n_qubits=3)
    sched = _compile([comp.R(PI / 2, 0.0, "all"), comp.MeasureAll("m0")],
                     comp.MachineConfig(n_qubits=schedule_qubits))
    with pytest.raises(ValueError, match=match):
        eng.run_schedule(sched, machine, QUIET, **{"shots": 10, "seed": 0, **kwargs})


@pytest.mark.parametrize("gradient", [1e307, 1e306])
def test_run_schedule_rejects_a_gradient_phase_ramp_that_overflows(gradient):
    """40 um at 1e307 Hz/um is an infinite detuning, and at 1e306 Hz/um a
    finite one whose phase over the schedule is not; the run stops before
    any draw, naming the positions and the gradient."""
    machine = comp.MachineConfig(n_qubits=1)
    sched = _compile([comp.R(PI / 2, 0.0, "all"), comp.MeasureAll("m0")], machine)
    noise = replace(QUIET, gradient_compensated_hz_per_um=gradient)
    with pytest.raises(ValueError, match=r"gradient phase ramp .* positions_um \[40.0\]"):
        eng.run_schedule(sched, machine, noise, 10, seed=0, qubit_kind="ground",
                         positions_um=[40.0])


def test_run_schedule_pi_pulse_all_dark():
    machine = comp.MachineConfig()
    sched = _compile([comp.R(PI, 0.0, "all"), comp.MeasureAll("m0")], machine)
    bits = eng.run_schedule(sched, machine, QUIET, 200, seed=2).bits
    dark = np.sum(np.all(bits == 0, axis=1))
    assert dark >= 198  # detection decay errors only


def test_run_schedule_branch_conditional_flip():
    # measure superposition; on bright outcome flip qubit 0 -> final dark
    machine = comp.MachineConfig(n_qubits=1)
    body = (comp.R(PI, 0.0, (0,)),)
    sched = _compile([comp.R(PI / 2, 0.0, "all"),
                      comp.MeasureAll("m0"),
                      comp.Branch("m0", ((0, "bright"),), body),
                      comp.MeasureAll("m1")], machine)
    bits = eng.run_schedule(sched, machine, QUIET, 400, seed=3).bits
    # final measurement should be dark regardless of the branch outcome
    dark = np.sum(bits[:, 0] == 0)
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
    bits = eng.run_schedule(sched, machine, QUIET, 400, seed=5).bits
    assert np.sum(bits[:, 0] == 1) >= 392


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
    bits = eng.run_schedule(sched, machine, QUIET, 1000, seed=7).bits
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
    p_dark = np.mean(eng.run_schedule(sched, machine, noise, shots, seed=12).bits[:, 0] == 0)

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
    assert _same_shots(a, b)
    c = eng.run_schedule(sched, machine, noise, 100, seed=8)
    assert not _same_shots(a, c)


@pytest.mark.parametrize("n", [1, 3])
def test_shots_are_arrays_of_the_stated_dtypes_and_shapes(n):
    """bits int8 and counts int64 of shape (shots, n), valid bool of shape
    (shots,): the 9 n + 1 bytes a shot that max_shots counts."""
    machine = comp.MachineConfig(n_qubits=n)
    sched = _compile([comp.R(PI / 2, 0.0, "all"), comp.MeasureAll("m0")], machine)
    shots = eng.run_schedule(sched, machine, eng.NoiseConfig(), 30, seed=3)
    assert isinstance(shots, eng.Shots) and len(shots) == 30
    assert (shots.bits.dtype, shots.bits.shape) == (np.int8, (30, n))
    assert (shots.counts.dtype, shots.counts.shape) == (np.int64, (30, n))
    assert (shots.valid.dtype, shots.valid.shape) == (np.bool_, (30,))
    assert shots.bits.nbytes + shots.counts.nbytes + shots.valid.nbytes == 30 * (9 * n + 1)
    assert eng.max_shots(n) == eng._MAX_STATE_BYTES // (9 * n + 1)


def test_shots_iterate_as_the_rows_their_arrays_describe():
    machine = comp.MachineConfig(n_qubits=3)
    sched = _compile([comp.R(PI / 2, 0.0, "all"), comp.Delay(1000.0),
                      comp.MeasureAll("m0")], machine)
    noise = eng.NoiseConfig(collision_rate=100.0)  # about a quarter of the shots invalid
    shots = eng.run_schedule(sched, machine, noise, 40, seed=6)
    assert 0 < np.sum(shots.valid) < 40
    rows = [eng.ShotRecord(i, tuple(int(b) for b in shots.bits[i]),
                           tuple(int(c) for c in shots.counts[i]), bool(shots.valid[i]))
            for i in range(40)]
    assert list(shots) == rows
    assert all(type(v) is int for r in shots for v in (r.shot, *r.bits, *r.counts))
    assert np.array_equal(eng.valid_bits(shots), [r.bits for r in rows if r.valid])


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
    readouts, detect = [], eng.detect

    def recorded(*args):
        readouts.append(detect(*args))
        return readouts[-1]

    monkeypatch.setattr(eng, "detect", recorded)
    chunked = eng.run_schedule(sched, machine, QUIET, 95, seed=4)
    monkeypatch.setattr(eng, "detect", detect)
    # One readout per chunk, joined in chunk order.
    assert [len(bits) for bits, _ in readouts] == [10] * 9 + [5]
    assert np.array_equal(chunked.bits, np.concatenate([bits for bits, _ in readouts]))
    assert np.array_equal(chunked.counts, np.concatenate([counts for _, counts in readouts]))
    assert [r.shot for r in chunked] == list(range(95))
    assert _same_shots(chunked, eng.run_schedule(sched, machine, QUIET, 95, seed=4))
    assert not _same_shots(chunked, whole)  # each chunk draws from its own stream
    for shots in (whole, chunked):
        assert np.sum(np.all(shots.bits == (0, 1), axis=1)) >= 93


def test_ms_tables_are_built_once_per_run_and_shared_by_every_chunk(monkeypatch):
    """With at least four chunks, _ms_phase runs once per distinct MS event
    (a repeated gate and a branch body's gate included) per run_schedule
    call, and the records equal those of a run that builds every table
    anew at each gate, as each chunk did before the tables were shared."""
    machine = comp.MachineConfig(n_qubits=3)
    ms = comp.MS(PI / 4, (0, 1), "radial")
    sched = _compile([comp.R(PI / 2, 0.3, "all"), ms, comp.MS(0.5, "all"), ms,
                      comp.MeasureAll("m0"),
                      comp.Branch("m0", ((0, "bright"),), (comp.MS(PI / 4, (1, 2)),)),
                      comp.MeasureAll("m1")], machine)
    crosstalk = np.array([[1.0, 0.05, 0.0], [0.05, 1.0, 0.05], [0.0, 0.05, 1.0]])
    noise = eng.NoiseConfig(eps_2q=0.05)
    monkeypatch.setattr(eng, "_CHUNK_BYTES", 10 * 8 * 16)  # ten 3-qubit shots
    calls, build = [], eng._ms_phase

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(eng, "_ms_phase", counted)
    shared = eng.run_schedule(sched, machine, noise, 45, seed=2, crosstalk=crosstalk)
    assert len(calls) == 3

    gates = [e for e in sched.events if e.kind == "bichromatic"]
    gates += [b for e in sched.events if e.kind == "branch_point" for b in e.body]
    by_key, tables = {(e.targets, e.bus, e.angle): e for e in gates}, eng._ms_tables

    class Anew(dict):
        """Builds a gate's table at each use."""
        def __getitem__(self, key):
            return tables([by_key[key]], machine.n_qubits, crosstalk)[key]

    monkeypatch.setattr(eng, "_ms_tables", lambda *args: Anew())
    calls.clear()
    anew = eng.run_schedule(sched, machine, noise, 45, seed=2, crosstalk=crosstalk)
    assert len(calls) >= 3 * 5  # five chunks, three top-level gates each
    assert _same_shots(anew, shared)


def test_collision_rate_statistics():
    machine = comp.MachineConfig()
    # long wait to accumulate collision exposure
    sched = _compile([comp.Delay(500_000.0), comp.MeasureAll("m0")], machine)
    noise = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf)
    shots = 4000
    valid = eng.run_schedule(sched, machine, noise, shots, seed=9).valid
    t_total = sched.duration_ns * 1e-9
    lam = noise.collision_rate * machine.n_qubits * t_total
    expect_invalid = (1.0 - math.exp(-lam)) * shots
    invalid = np.sum(~valid)
    sd = math.sqrt(expect_invalid)
    assert abs(invalid - expect_invalid) <= 3 * sd + 1


def test_spam_prep_flips():
    machine = comp.MachineConfig()
    sched = _compile([comp.MeasureAll("m0")], machine)
    noise = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf,
                            t1=math.inf, spam_prep=0.2, collision_rate=0.0)
    dark_frac = np.mean(eng.run_schedule(sched, machine, noise, 2000, seed=10).bits == 0)
    assert abs(dark_frac - 0.2) < 0.03


def test_crosstalk_scales_addressed_rotation():
    machine = comp.MachineConfig()
    sched = _compile([comp.R(PI, 0.0, (0,)), comp.MeasureAll("m0")], machine)
    x = np.array([[1.0, 0.1], [0.1, 1.0]])
    bits = eng.run_schedule(sched, machine, QUIET, 3000, seed=11, crosstalk=x).bits
    # spectator qubit 1 sees a pi*0.1 rotation: P_dark = sin^2(pi*0.1/2)
    dark1 = np.mean(bits[:, 1] == 0)
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
