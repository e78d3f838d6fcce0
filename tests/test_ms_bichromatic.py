"""Pulse-level bichromatic Moelmer-Soerensen gate: calibration and closure."""

import math

import numpy as np
import pytest

from iontrap_bench import engine as eng
from iontrap_bench.errors import FockLeakage
from oracles import bichromatic_midpoint

PI = math.pi

ETA = 0.095
NU = 2 * PI * 1.05e6
DELTA = 2 * PI * 5e3
T_GATE = 200e-6  # closure: t = 2*pi/delta
DT_MIN = 2 * PI / (50 * (NU + DELTA))  # the gate's step bound: 50 per tone period


@pytest.fixture(scope="module")
def omega_cal():
    return eng.calibrate_ms_rabi(ETA, DELTA, T_GATE, NU)


def _params(omega, t=T_GATE, etas=(ETA, ETA)):
    return eng.BichromaticParams(omega_rabi=omega, nu=NU, delta=DELTA,
                                 etas=etas, t=t)


def _run(omega, fock_index=0, t=T_GATE, etas=(ETA, ETA), n_max=10, **kw):
    st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=n_max),
                           fock_index=fock_index)
    eng.apply_ms_bichromatic(st, _params(omega, t=t, etas=etas), **kw)
    return st


def test_calibrated_gate_closure(omega_cal):
    st = _run(omega_cal)
    rho = st.spin_density()
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity > 0.999  # spin disentangles from the motion at closure

    ideal = eng.RegisterState(2)
    eng.apply_ms_ideal(ideal, [0, 1], PI / 4)
    tv = ideal.psi[0]
    fidelity = float(np.real(tv.conj() @ rho @ tv))
    assert fidelity > 0.999

    leak = float(np.sum(np.abs(st.psi[10, :]) ** 2))
    assert leak < 1e-6


def test_phonon_returns_to_initial_fock(omega_cal):
    for n0 in (0, 1):
        st = _run(omega_cal, fock_index=n0, n_max=12)
        pn = np.sum(np.abs(st.psi) ** 2, axis=1)  # Fock populations
        assert pn[n0] > 0.99
        assert abs(np.dot(np.arange(len(pn)), pn) - n0) < 0.01


def test_half_time_leaves_spin_motion_entangled(omega_cal):
    st = _run(omega_cal, t=PI / DELTA)  # half the closure time
    rho = st.spin_density()
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity < 0.99  # loop is open: spin-motion entanglement


def test_eta_zero_leaves_state_unchanged(omega_cal):
    st = _run(omega_cal, etas=(0.0, 0.0))
    p = st.probabilities()
    assert p[3] == pytest.approx(1.0, abs=1e-9)  # still |SS>
    assert np.sum(np.abs(st.psi[0]) ** 2) == pytest.approx(1.0, abs=1e-9)  # Fock 0


def test_calibrated_rabi_in_expected_range(omega_cal):
    # The Lamb-Dicke closed form chi = 2 (eta*Omega)^2 t / delta puts
    # chi = pi/4 at Omega = delta / (4 eta), about 13 kHz.
    assert 2 * PI * 10e3 < omega_cal < 2 * PI * 17e3
    # The solve is deterministic: a second call returns the identical value.
    assert eng.calibrate_ms_rabi(ETA, DELTA, T_GATE, NU) == omega_cal


def test_calibration_solves_chi_in_few_gate_evaluations(monkeypatch):
    # The benchmark's middle detuning: 2 pi / delta is 88 half trap periods.
    delta = 2 * NU / 88
    t = 2 * PI / delta
    gate, omegas = eng.apply_ms_bichromatic, []

    def counted(st, params, **kw):
        omegas.append(params.omega_rabi)
        return gate(st, params, **kw)

    monkeypatch.setattr(eng, "apply_ms_bichromatic", counted)
    omega = eng.calibrate_ms_rabi(ETA, delta, t, NU)
    assert len(omegas) <= 5 and omegas[-1] == omega
    # chi of the returned Omega at the calibration cutoff, the default 10
    st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=10))
    gate(st, eng.BichromaticParams(omega_rabi=omega, nu=NU, delta=delta,
                                   etas=(ETA, ETA), t=t))
    p = st.probabilities()
    assert abs(math.atan2(math.sqrt(p[0]), math.sqrt(p[3])) - PI / 4) <= 1e-6


@pytest.mark.parametrize("target, bad", [
    ("calibrate", {"eta": 0.0}), ("calibrate", {"delta": 0.0}),
    ("calibrate", {"t": -T_GATE}), ("calibrate", {"nu": math.nan}),
    ("calibrate", {"eta": math.inf}), ("params", {"omega_rabi": math.nan}),
    ("params", {"etas": (ETA, math.nan)}), ("params", {"delta": math.inf}),
    ("params", {"nu": 0.0}), ("params", {"t": 0.0})])
def test_ms_inputs_checked_where_they_enter(target, bad):
    if target == "calibrate":
        func, args = eng.calibrate_ms_rabi, {"eta": ETA, "delta": DELTA, "t": T_GATE, "nu": NU}
    else:
        func, args = eng.BichromaticParams, {"omega_rabi": 1e4, "nu": NU, "delta": DELTA,
                                             "etas": (ETA, ETA), "t": T_GATE}
    with pytest.raises(ValueError, match="need finite"):
        func(**{**args, **bad})


def test_fock_leakage_detected(omega_cal):
    # A tiny cutoff cannot contain the displacement loop.
    st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=1))
    with pytest.raises(FockLeakage) as err:
        eng.apply_ms_bichromatic(st, _params(5.0 * omega_cal))
    assert err.value.leakage > 1e-6


def test_requires_phonon_mode():
    st = eng.RegisterState(2)
    with pytest.raises(ValueError):
        eng.apply_ms_bichromatic(st, _params(1e4))


def test_batched_fock_starts_match_single_runs(omega_cal):
    st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=10), fock_index=[0, 1, 2],
                           shots=3)
    eng.apply_ms_bichromatic(st, _params(omega_cal))
    for n0 in (0, 1, 2):
        assert np.max(np.abs(st.psi[n0] - _run(omega_cal, fock_index=n0).psi)) <= 1e-12


def test_leakage_checked_on_every_shot(omega_cal):
    # Shot 0 starts in Fock 0 and stays clear of the cutoff; shot 1 starts on it.
    st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=6), fock_index=[0, 6], shots=2)
    with pytest.raises(FockLeakage) as err:
        eng.apply_ms_bichromatic(st, _params(omega_cal))
    assert err.value.leakage > 0.5


# Unequal etas from Fock 1, and three ions sharing one eta from Fock 0.
ORACLE_CASES = [((0.095, 0.07), 1), ((ETA, ETA, ETA), 0)]


def _matches_oracle(etas, n0, t, n_steps, delta=DELTA, omega=2 * PI * 200e3, n_max=4):
    """The gate against the per-step oracle run at n_steps, to 1e-10; the
    state must move, so every term of the Hamiltonian acts."""
    st = eng.RegisterState(len(etas), phonon=eng.PhononMode(NU, n_max=n_max), fock_index=n0)
    start = st.psi.copy()
    eng.apply_ms_bichromatic(st, eng.BichromaticParams(
        omega_rabi=omega, nu=NU, delta=delta, etas=etas, t=t), leakage_threshold=1.0)
    ref = bichromatic_midpoint(start, etas, omega, NU, delta, t, n_steps, n_max)
    assert abs(np.vdot(start, ref)) ** 2 < 0.9
    assert np.max(np.abs(st.psi - ref)) <= 1e-10
    return st


@pytest.mark.parametrize("etas, n0", ORACLE_CASES)
def test_gate_matches_per_step_expm_oracle(etas, n0):
    # About 300 steps with strong tones: the state leaves its start and
    # reaches the Fock cutoff.  No tone period ends on a step boundary of
    # 301 steps, so every step runs one at a time.
    _matches_oracle(etas, n0, 300.5 * DT_MIN, 301)


# 300 steps: five whole tone periods by the period map's power, then 49
# single steps; 325 steps: six periods, then half a period.
@pytest.mark.parametrize("steps", [300, 325])
@pytest.mark.parametrize("etas, n0", ORACLE_CASES)
def test_whole_tone_periods_match_per_step_expm_oracle(etas, n0, steps):
    _matches_oracle(etas, n0, steps * DT_MIN, steps)


def test_zero_tone_stays_normalized_and_matches_oracle():
    # delta = -nu puts both tones on the carrier: the drive is constant, so
    # its period is one step.  The step bound is then the mode period's.
    dt = 2 * PI / (50 * NU)
    st = _matches_oracle((ETA, 0.07), 1, 40.5 * dt, 41, delta=-NU, omega=2 * PI * 400e3)
    assert abs(np.linalg.norm(st.psi) - 1.0) <= 1e-12


def test_duration_just_above_a_whole_step_count_runs_that_count():
    # t = N dt in floats can give t / dt = N + 1 ulp; the gate still runs N steps.
    n_steps = next(n for n in range(200, 400) if (n * DT_MIN) / DT_MIN > n)  # 213
    _matches_oracle((0.095, 0.07), 1, n_steps * DT_MIN, n_steps)


def test_eigendecompositions_per_gate_do_not_grow_with_duration(monkeypatch):
    eigh, calls = np.linalg.eigh, []

    def counted(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = []
    for steps in (100.5, 1000.5):
        _run(2 * PI * 50e3, t=steps * DT_MIN, etas=(ETA, 0.07), n_max=4,
             leakage_threshold=1.0)
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] > 0


def test_thermal_start_still_closes(omega_cal):
    # average over a small thermal ensemble: closure holds per Fock state
    fids = []
    ideal = eng.RegisterState(2)
    eng.apply_ms_ideal(ideal, [0, 1], PI / 4)
    tv = ideal.psi[0]
    for n0, w in ((0, 0.9), (1, 0.09), (2, 0.009)):
        st = _run(omega_cal, fock_index=n0, n_max=12)
        rho = st.spin_density()
        fids.append(w * float(np.real(tv.conj() @ rho @ tv)))
    assert sum(fids) / (0.9 + 0.09 + 0.009) > 0.998
