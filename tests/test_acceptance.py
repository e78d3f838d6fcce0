"""Acceptance gate: twelve criteria, one pass/fail line each.

Every criterion prints exactly one line `[PASS|FAIL] criterion N: ...`
and fails the suite if the condition is not met.
"""

import math
import time

import numpy as np
import pytest
from scipy import constants as const
from scipy import integrate
from scipy.stats import poisson

from iontrap_bench import addressing as adr
from iontrap_bench import engine as eng
from iontrap_bench import experiments as exp
from iontrap_bench.chain import (MASS_KG, TrapConfig, axial_mode_spectrum,
                                 equilibrium_positions, lamb_dicke_parameters,
                                 single_ion_lamb_dicke)
from iontrap_bench.cli import main as cli_main
from iontrap_bench.fitting import fit_fringe, Dataset

PI = math.pi
TWO_PI = 2.0 * PI

QUIET = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf,
                        collision_rate=0.0)


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_chain_geometry(capsys):
    t0 = time.perf_counter()
    chain = equilibrium_positions(11, TrapConfig(omega_ax=TWO_PI * 450e3))
    gap = float(np.diff(chain.positions)[5])
    elapsed = time.perf_counter() - t0
    ok = abs(gap - 4.0) / 4.0 < 0.025 and elapsed < 1.0
    _report(capsys, 1, f"11-ion center spacing {gap:.4f} um (4.0 +- 2.5%), "
                       f"{elapsed * 1e3:.0f} ms", ok)


def test_criterion_02_mode_spectra(capsys):
    trap = TrapConfig(omega_ax=TWO_PI * 450e3)
    spec2 = axial_mode_spectrum(equilibrium_positions(2, trap))
    breathing_err = abs(spec2.frequencies[1] / spec2.frequencies[0]
                        - math.sqrt(3.0)) / math.sqrt(3.0)
    gram_err = 0.0
    trap30 = TrapConfig(omega_ax=TWO_PI * 0.2e6, omega_rad=TWO_PI * 3e6)
    for n in (2, 12, 30):
        s = axial_mode_spectrum(equilibrium_positions(n, trap30))
        gram_err = max(gram_err, float(np.max(np.abs(
            s.eigenvectors.T @ s.eigenvectors - np.eye(n)))))
    # independent brute-force Hessian eigensolve
    chain = equilibrium_positions(6)
    u = chain.scaled_positions
    n = len(u)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                h[i, i] = 1.0 + 2.0 * sum(1.0 / abs(u[i] - u[k]) ** 3
                                          for k in range(n) if k != i)
            else:
                h[i, j] = -2.0 / abs(u[i] - u[j]) ** 3
    evals = np.sort(np.linalg.eigvalsh(h))
    spec = axial_mode_spectrum(chain)
    hess_err = float(np.max(np.abs(
        evals - np.sort((spec.frequencies / chain.trap.omega_ax) ** 2))))
    ok = breathing_err < 1e-9 and gram_err < 1e-10 and hess_err < 1e-10
    _report(capsys, 2, f"breathing sqrt(3) err {breathing_err:.1e}, "
                       f"orthonormality {gram_err:.1e}, Hessian {hess_err:.1e}", ok)


def test_criterion_03_lamb_dicke(capsys):
    eta = single_ion_lamb_dicke(TWO_PI * 1.05e6)
    k = TWO_PI / 729e-9
    oracle = k * math.sqrt(const.hbar / (2 * MASS_KG * TWO_PI * 1.05e6))
    com_err = 0.0
    for n in (2, 5, 9, 12):
        spec = axial_mode_spectrum(equilibrium_positions(n))
        etas = lamb_dicke_parameters(spec)
        single = single_ion_lamb_dicke(spec.frequencies[0])
        com_err = max(com_err, float(np.max(np.abs(
            etas[:, 0] * math.sqrt(n) / single - 1.0))))
    ok = abs(eta - 0.0946) < 0.0005 and abs(eta - oracle) < 1e-12 and com_err < 1e-12
    _report(capsys, 3, f"eta = {eta:.5f} (0.0946 +- 0.0005), "
                       f"COM 1/sqrt(N) err {com_err:.1e}", ok)


def test_criterion_04_ms_and_ghz(capsys):
    t0 = time.perf_counter()
    ms_err = 0.0
    for chi in (0.0, PI / 8, PI / 4):
        u = np.zeros((4, 4), dtype=complex)
        for b in range(4):
            st = eng.RegisterState(2)
            st.psi[0, :] = 0.0
            st.psi[0, b] = 1.0
            eng.apply_ms_ideal(st, [0, 1], chi)
            u[:, b] = st.psi[0]
        expected = (math.cos(chi) * np.eye(4)
                    - 1j * math.sin(chi) * np.fliplr(np.eye(4)))
        ms_err = max(ms_err, float(np.max(np.abs(u - expected))))
    ghz_min = min(exp.ghz_state_fidelity(n) for n in range(2, 13))
    # parity frequency = N exactly: the analysis-phase spectrum of the ideal
    # GHZ parity has support only at frequency N
    freq_ok = True
    phases = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for n in (3, 4, 5):
        par = []
        for phi in phases:
            st = eng.RegisterState(n)
            exp.ghz_prepare(st)
            eng.apply_rotation(st, range(n), PI / 2, phi)
            probs = st.probabilities()[0]
            signs = 1.0 - 2.0 * (np.array(
                [bin(i).count("1") for i in range(2**n)]) % 2)
            par.append(float(np.dot(signs * (-1.0) ** n, probs)))
        spectrum = np.abs(np.fft.rfft(par)) / len(phases)
        on = spectrum[n]
        off = max(np.delete(spectrum, n))
        freq_ok &= on > 0.4 and off < 1e-9
    elapsed = time.perf_counter() - t0
    ok = ms_err < 1e-12 and ghz_min >= 1.0 - 1e-9 and freq_ok and elapsed < 60.0
    _report(capsys, 4, f"MS entrywise err {ms_err:.1e}, GHZ(N<=12) min fidelity "
                       f"{ghz_min:.10f}, parity freq = N, {elapsed:.1f} s", ok)


def test_criterion_05_bichromatic_closure(capsys):
    eta, nu, delta = 0.095, TWO_PI * 1.05e6, TWO_PI * 5e3
    t_gate = TWO_PI / delta
    omega = eng.calibrate_ms_rabi(eta, delta, t_gate, nu)
    st = eng.RegisterState(2, phonon=eng.PhononMode(nu, n_max=10))
    eng.apply_ms_bichromatic(st, eng.BichromaticParams(
        omega_rabi=omega, nu=nu, delta=delta, etas=(eta, eta), t=t_gate))
    rho = st.spin_density()
    purity = float(np.real(np.trace(rho @ rho)))
    ideal = eng.RegisterState(2)
    eng.apply_ms_ideal(ideal, [0, 1], PI / 4)
    tv = ideal.psi[0]
    fidelity = float(np.real(tv.conj() @ rho @ tv))
    leak = float(np.sum(np.abs(st.psi[10, :]) ** 2))
    ok = purity >= 0.999 and fidelity >= 0.999 and leak < 1e-6
    _report(capsys, 5, f"closure purity {purity:.5f}, fidelity {fidelity:.5f}, "
                       f"leakage {leak:.1e}", ok)


def test_criterion_06_rb_pipeline(capsys):
    t0 = time.perf_counter()
    within = []
    for i, eps in enumerate((1e-4, 1.4e-3, 1e-2)):
        spec = exp.ExperimentSpec("rb", noise=eng.NoiseConfig(eps_1q=eps),
                                  shots=10000, seed=20 + i)
        res = exp.run_rb(spec, [2, 10, 25, 50, 100])
        recovered = 1.0 - res.extra["gate_fidelity"]
        within.append(abs(recovered - eps / 2.0)
                      <= 2.0 * res.extra["gate_fidelity_err"])
    spec = exp.ExperimentSpec("rb", noise=eng.NoiseConfig(eps_1q=0.0028),
                              shots=10000, seed=30)
    res = exp.run_rb(spec, [2, 10, 25, 50, 100])
    f_gate = res.extra["gate_fidelity"]
    elapsed = time.perf_counter() - t0
    ok = (all(within) and abs(f_gate - 0.9986) <= 3e-4
          and exp.CLIFFORD_AVG_COST == 1.875 and elapsed < 300.0)
    _report(capsys, 6, f"eps recovered within 2 sigma {within}, tuned F_gate "
                       f"{f_gate:.5f} (0.9986 +- 0.0003), cost 1.875, "
                       f"{elapsed:.1f} s", ok)


def test_criterion_07_coherence(capsys):
    noise = eng.NoiseConfig(collision_rate=0.0)
    res_g = exp.run_ramsey(
        exp.ExperimentSpec("ramsey", noise=noise, shots=800, seed=40),
        "ground", np.linspace(0.002, 0.040, 8))
    res_o = exp.run_ramsey(
        exp.ExperimentSpec("ramsey", noise=noise, shots=800, seed=41),
        "optical", np.linspace(0.01, 0.20, 8))
    t2g, t2o = res_g.extra["t2_s"], res_o.extra["t2_s"]
    base = dict(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf,
                collision_rate=0.0)
    raw = exp.run_gradient_scan(
        exp.ExperimentSpec("gradient", noise=eng.NoiseConfig(
            gradient_compensation=False, **base), shots=800, seed=42),
        np.linspace(-40.0, 40.0, 9))
    comp = exp.run_gradient_scan(
        exp.ExperimentSpec("gradient", noise=eng.NoiseConfig(
            gradient_compensation=True, **base), shots=800, seed=42),
        np.linspace(-40.0, 40.0, 9))
    slope = raw.extra["slope_hz_per_um"]
    slope_c = comp.extra["slope_hz_per_um"]
    ok = (abs(t2g - 0.018) / 0.018 < 0.10 and abs(t2o - 0.090) / 0.090 < 0.15
          and abs(slope - 3.1) <= 0.1 and abs(slope_c) <= 0.3)
    _report(capsys, 7, f"T2 ground {t2g * 1e3:.2f} ms (18 +- 10%), optical "
                       f"{t2o * 1e3:.1f} ms (90 +- 15%), gradient {slope:.3f} "
                       f"(3.1 +- 0.1), compensated {slope_c:.3f} (<= 0.3)", ok)


def test_criterion_08_thermometry_heating(capsys):
    nbar_ok = []
    for i, nbar in enumerate((0.02, 0.1, 1.0)):
        spec = exp.ExperimentSpec("thermometry", noise=QUIET, shots=20000,
                                  seed=50 + i)
        res = exp.run_sideband_thermometry(spec, nbar)
        nbar_ok.append(not res.extra["flagged"] and
                       abs(res.extra["nbar"] - nbar) <= 2.0 * res.extra["nbar_err"])
    spec = exp.ExperimentSpec("heating", noise=QUIET, shots=2000, seed=53)
    res = exp.run_heating_scan(spec, np.linspace(0.2, 2.0, 5),
                               [0.7e6, 1.05e6, 1.6e6, 2.4e6, 3.2e6])
    rate = res.extra["rates_per_s"][1]
    alpha = res.extra["alpha"]
    ok = (all(nbar_ok) and abs(rate - 0.221) / 0.221 < 0.10
          and abs(alpha - 1.7) <= 0.15)
    _report(capsys, 8, f"nbar within CI {nbar_ok}, rate@1.05MHz {rate:.3f} "
                       f"(0.221 +- 10%), alpha {alpha:.2f} (1.7 +- 0.15)", ok)


def test_criterion_09_addressing(capsys):
    waists = {}
    for kind in (adr.MICROOPTICS, adr.AOD):
        unit = adr.AddressingUnit(kind=kind)
        spec = exp.ExperimentSpec("addressing_scan", noise=QUIET, shots=4000,
                                  seed=60)
        waists[kind] = exp.run_addressing_scan(spec, unit).extra["w0_um"]
    unit = adr.AddressingUnit(kind=adr.AOD)
    spec = exp.ExperimentSpec("addressing_scan", noise=QUIET, shots=4000, seed=61)
    res = exp.run_addressing_scan(spec, unit,
                                  calibration_tones_mhz=[1.0, 2.0, 3.0, 4.0, 5.0])
    slope = res.extra["slope_um_per_mhz"]
    chain = equilibrium_positions(10, TrapConfig(omega_ax=TWO_PI * 450e3))
    x = adr.crosstalk_matrix(unit, chain.positions)
    max_off = float(np.max(x[~np.eye(10, dtype=bool)]))
    u3_exact = all(adr.u3_effective_ratio(e) == e * e
                   for e in (0.0, 0.005, 0.024, 0.5, 1.0))
    ok = (abs(waists[adr.MICROOPTICS] - 0.81) <= 0.02
          and abs(waists[adr.AOD] - 1.09) <= 0.03
          and abs(slope - 4.9) <= 0.1 and max_off <= 0.01 and u3_exact)
    _report(capsys, 9, f"waists {waists[adr.MICROOPTICS]:.3f}/"
                       f"{waists[adr.AOD]:.3f} um, slope {slope:.3f} um/MHz, "
                       f"crosstalk max {max_off:.4f}, U(3) = eps^2 exact", ok)


def test_criterion_10_detection(capsys):
    det = eng.DetectionModel()
    k = det.threshold

    def integrand(t):
        mean = det.dark_mean + det.bright_rate * (det.window - t)
        return math.exp(-t / det.t1) / det.t1 * poisson.sf(k - 1, mean)

    p_exact, _ = integrate.quad(integrand, 0.0, det.window)
    p_exact += math.exp(-det.window / det.t1) * poisson.sf(k - 1, det.dark_mean)
    shots = 100_000
    rng = np.random.default_rng(70)
    counts = det.sample_counts(np.zeros(shots, dtype=np.int8), rng)
    errors = int(np.sum(det.classify(counts) == 1))
    sd = math.sqrt(p_exact * (1.0 - p_exact) * shots)
    z = abs(errors - p_exact * shots) / sd
    decay_err = abs(det.decay_prob - (1.0 - math.exp(-det.window / det.t1)))
    ok = z <= 3.0 and decay_err < 1e-6
    _report(capsys, 10, f"readout error {errors}/{shots} vs oracle "
                        f"{p_exact * shots:.1f} ({z:.2f} sigma), decay analytic "
                        f"err {decay_err:.1e}", ok)


def test_criterion_11_determinism(capsys, tmp_path):
    circ = tmp_path / "bell.circ"
    circ.write_text("PREPARE\nR 1.5707963267948966 0.0 all\n"
                    "MS 0.7853981633974483 0,1 axial\nMEASURE m0\n")
    blobs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        d = tmp_path / name
        cli_main(["simulate", "--circuit", str(circ), "--shots", "100",
                  "--seed", "11", "--threads", threads, "--out", str(d)])
        blobs.append({f: (d / f).read_bytes()
                      for f in ("shots.csv", "summary.json", "manifest.json")})
    sim_ok = blobs[0] == blobs[1] == blobs[2]
    outs = []
    for name in ("e1", "e2"):
        d = tmp_path / name
        cli_main(["experiment", "rb", "--shots", "300", "--seed", "5",
                  "--out", str(d)])
        outs.append({f.name: f.read_bytes() for f in d.iterdir()})
    exp_ok = outs[0] == outs[1]
    ok = sim_ok and exp_ok
    _report(capsys, 11, f"simulate byte-identical across reruns/threads: "
                        f"{sim_ok}, experiment rerun: {exp_ok}", ok)


def test_criterion_12_witness_soundness(capsys):
    rng = np.random.default_rng(12)
    phases = np.linspace(0.0, TWO_PI, 12, endpoint=False)
    sound = True
    worst = -np.inf
    for trial in range(20):
        n = int(rng.integers(2, 7))
        product = tuple((float(rng.uniform(0, PI)), float(rng.uniform(-PI, PI)))
                        for _ in range(n))
        spec = exp.ExperimentSpec("ghz", noise=QUIET, shots=400,
                                  seed=200 + trial)
        res = exp.run_ghz(spec, n, phases, product_state=product)
        margin = res.extra["F"] - (0.5 + 3.0 * res.extra["F_err"])
        worst = max(worst, margin)
        sound &= margin <= 0.0
    _report(capsys, 12, f"20 product states all F <= 0.5 + 3 SE "
                        f"(worst margin {worst:+.4f})", sound)
