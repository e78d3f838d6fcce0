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


@pytest.mark.parametrize("threshold", [math.nan, -1e-6])
def test_nan_or_negative_leakage_threshold_rejected(omega_cal, threshold):
    # A NaN threshold would pass every leak (leak > nan is False) and a
    # negative one would fail a state with none; both are refused up front.
    st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=1))
    start = st.psi.copy()
    with pytest.raises(ValueError, match="leakage_threshold"):
        eng.apply_ms_bichromatic(st, _params(5.0 * omega_cal), leakage_threshold=threshold)
    assert st.psi.tobytes() == start.tobytes()


def test_requires_phonon_mode():
    st = eng.RegisterState(2)
    with pytest.raises(ValueError):
        eng.apply_ms_bichromatic(st, _params(1e4))


def test_leakage_checked_from_the_top_fock_level(omega_cal):
    # A state that starts on the cutoff keeps most of its population there.
    with pytest.raises(FockLeakage) as err:
        _run(omega_cal, fock_index=6, n_max=6)
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
    # 301 steps, so the gate matrix is built one step at a time.
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


def _clear_gate_caches():
    eng._ms_basis.cache_clear()
    eng._ms_gate.cache_clear()


def test_etas_as_list_array_or_tuple_give_bitwise_equal_states():
    states = [_run(2 * PI * 50e3, t=100.5 * DT_MIN, etas=etas, n_max=4,
                   leakage_threshold=1.0).psi
              for etas in ([ETA, 0.07], np.array([ETA, 0.07]), (ETA, 0.07))]
    assert _params(1e4, etas=np.array([ETA, 0.07])).etas == (ETA, 0.07)
    assert all(s.tobytes() == states[0].tobytes() for s in states[1:])


# Fock 0/1/2 at closure (q > 0), a gate shorter than one tone period
# (q = 0), and the constant drive at tone 0.
WARM_CASES = [
    dict(fock_index=0), dict(fock_index=1), dict(fock_index=2),
    dict(fock_index=1, t=40.5 * DT_MIN, omega=2 * PI * 200e3, n_max=4),
    dict(fock_index=1, t=40.5 * 2 * PI / (50 * NU), omega=2 * PI * 400e3, n_max=4,
         delta=-NU, etas=(ETA, 0.07)),
]


@pytest.mark.parametrize("case", WARM_CASES)
def test_warm_gate_is_bitwise_equal_to_cold(omega_cal, case):
    case = dict(case)
    fock, n_max = case.pop("fock_index"), case.pop("n_max", 10)
    params = eng.BichromaticParams(
        omega_rabi=case.pop("omega", omega_cal), nu=NU, delta=case.pop("delta", DELTA),
        etas=case.pop("etas", (ETA, ETA)), t=case.pop("t", T_GATE))
    _clear_gate_caches()
    runs = []
    for _ in range(2):
        st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=n_max), fock_index=fock)
        runs.append(eng.apply_ms_bichromatic(st, params, leakage_threshold=1.0).psi)
    assert eng._ms_gate.cache_info().hits == 1
    assert runs[0].tobytes() == runs[1].tobytes()


def _counted_linalg(monkeypatch):
    """Patch eigh and matrix_power to count their calls: {name: count}."""
    counts = {"eigh": 0, "matrix_power": 0}
    for name in counts:
        func = getattr(np.linalg, name)

        def counted(*args, _func=func, _name=name):
            counts[_name] += 1
            return _func(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_gates_after_calibration_reuse_its_basis_and_period_power(monkeypatch):
    delta = 2 * NU / 88  # the benchmark's middle detuning
    t = 2 * PI / delta
    _clear_gate_caches()
    counts = _counted_linalg(monkeypatch)
    gate, evals = eng.apply_ms_bichromatic, []

    def counted(st, params, **kw):
        evals.append(params)
        return gate(st, params, **kw)

    monkeypatch.setattr(eng, "apply_ms_bichromatic", counted)
    omega = eng.calibrate_ms_rabi(ETA, delta, t, NU)
    params = eng.BichromaticParams(omega_rabi=omega, nu=NU, delta=delta, etas=(ETA, ETA), t=t)
    assert eng.ms_steps(params)[2] > 0
    # One basis for the detuning: eta x once (the ions share eta), then H0.
    assert counts == {"eigh": 2, "matrix_power": len(evals)}
    for fock in (0, 1, 2):
        gate(eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=10), fock_index=fock), params)
    assert counts == {"eigh": 2, "matrix_power": len(evals)}


def test_gate_at_another_detuning_in_between_rebuilds(monkeypatch):
    _clear_gate_caches()
    counts = _counted_linalg(monkeypatch)

    def gate(delta):
        st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=10))
        return eng.apply_ms_bichromatic(st, eng.BichromaticParams(
            omega_rabi=2 * PI * 12e3, nu=NU, delta=delta, etas=(ETA, ETA),
            t=2 * PI / delta)).psi

    first = gate(DELTA)
    gate(2 * NU / 70)
    assert counts == {"eigh": 4, "matrix_power": 2}
    again = gate(DELTA)
    assert counts == {"eigh": 6, "matrix_power": 3}
    assert again.tobytes() == first.tobytes()


def test_reused_gate_pieces_are_read_only(omega_cal):
    params = _params(omega_cal)
    n_steps = eng.ms_steps(params)[0]
    pieces = (eng._ms_basis(params.etas, NU, T_GATE / n_steps, 2, 11)
              + (eng._ms_gate(params, 2, 11),))
    assert len(pieces) == 6 and all(p is not None for p in pieces)
    for p in pieces:
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 0.0


def test_fock_leakage_raised_from_a_warm_map(omega_cal):
    _clear_gate_caches()
    leaks = []
    for _ in range(2):
        st = eng.RegisterState(2, phonon=eng.PhononMode(NU, n_max=1))
        with pytest.raises(FockLeakage) as err:
            eng.apply_ms_bichromatic(st, _params(5.0 * omega_cal))
        leaks.append(err.value.leakage)
    assert eng._ms_gate.cache_info().hits == 1
    assert leaks[0] == leaks[1] > 1e-6


@pytest.mark.parametrize("etas, n_max", [((0.095, 0.07), 4), ((0.095, 0.07, 0.05), 3)])
def test_spin_parity_flips_h0_and_keeps_the_step_map(etas, n_max):
    # Z' = V† Z V: Z' diag(w) Z' = -diag(w) and Z' W Z' = W, the two facts
    # behind S(-d) = Z' S(d) Z'.
    _, wdt, step, parity, _ = eng._ms_basis(etas, NU, DT_MIN, len(etas), n_max + 1)
    w = np.diag((wdt[:, 0] / (-1j * DT_MIN)).real)
    assert np.max(np.abs(parity @ w @ parity + w)) <= 1e-12
    assert np.max(np.abs(parity @ step @ parity - step)) <= 1e-12
    assert np.max(np.abs(parity @ parity - np.eye(len(w)))) <= 1e-12


# (delta, steps per tone period m, n_steps): m = 50 with N = n_steps - 1
# whole steps = j 25 + s for j even and odd, s = 0 and s > 0; m = 51, an
# odd period built whole; the constant drive at tone 0 (m = 1); and a
# detuning whose period is no whole number of steps (q = 0), the
# benchmark's middle one moved by 1.3% over its closure time.
WHOLE_STEP_CASES = [
    (DELTA, 50, 301), (DELTA, 50, 326), (DELTA, 50, 300), (DELTA, 50, 325),
    (NU * 50 / 51 - NU, 51, 160), (-NU, 1, 41),
    (1.013 * 2 * NU / 88, None, 2251)]


@pytest.mark.parametrize("delta, m, n_steps", WHOLE_STEP_CASES)
def test_whole_step_product_matches_the_step_loop(delta, m, n_steps):
    # The gate matrix against every step run one at a time, the closing
    # half step and the frames P((N + 1/2) dt) and P(-dt/2) included.
    etas = (0.095, 0.07)
    t = (2 * PI / (2 * NU / 88) if m is None
         else n_steps * 2 * PI / (50 * max(abs(NU + delta), NU)))
    params = eng.BichromaticParams(omega_rabi=2 * PI * 200e3, nu=NU, delta=delta,
                                   etas=etas, t=t)
    steps, period, q, _ = eng.ms_steps(params)
    assert steps == n_steps and (q > 0 and period == m if m else q == 0)
    dt = t / n_steps
    v, wdt, step, _, ns = eng._ms_basis(etas, NU, dt, 2, 5)
    drive = 2 * params.omega_rabi * np.cos((NU + delta) * (np.arange(n_steps) + 0.5) * dt)
    ref = np.eye(len(wdt), dtype=complex)
    for d in drive[:-1]:  # every whole step, one at a time
        ref = step @ (np.exp(d * wdt) * ref)
    ref = v @ (np.exp(drive[-1] * wdt) * ref) @ v.conj().T
    levels = np.repeat(ns, 4)  # mode level of each row, fock-major as psi
    ref = (np.exp(-1j * NU * (n_steps - 0.5) * dt * levels)[:, None] * ref
           * np.exp(0.5j * NU * dt * levels))
    assert np.max(np.abs(eng._ms_gate(params, 2, 5) - ref)) <= 1e-12
