"""Characterization experiments: coherence, gradients, randomized
benchmarking, sideband thermometry, heating, GHZ witnesses, gate decay,
and addressing scans.

Simulated shots run on the engine: ramsey and gradient through
run_schedule.  RB, GHZ and gate decay sample their exact outcome law: as
in simulate, each pulse is followed by the depolarizing channel
(1 - eps) rho + eps I/d on every ion, eps = noise.eps_1q for a one-qubit
pulse and noise.eps_2q for an MS, which commutes with every unitary; so
the law is w |<b|U|S...S>|^2 + (1 - w)/d, w the product of the 1 - eps.
An RB sequence is one binomial draw (Magesan, Gambetta & Emerson, PRL
106, 180504 (2011)).  The parity witness of GHZ and gate decay reads
only how many ions each shot detects bright, so each setting of the
parity scan they share reduces that law to its bright count and draws
the detected-count histogram with one engine.measure.  Heating samples
its closed-form law: jump rates up r(n+1) and down r n keep a thermal
ensemble thermal with mean nbar0 + r t, so each point draws Fock numbers
from that thermal law.  One readout rule holds for every kind: a shot
reads out through the detection model's flip pair (e0, e1), in
run_schedule's photon counts (ramsey, gradient), in engine.measure (GHZ,
gate decay) or, for one ion, in DetectionModel.read_dark of the
probability that RB, thermometry, heating and the addressing scan draw
with.  Every run_* function is deterministic given
(spec, seed): each point draws from its own stream keyed by the seed and
the point index, and aggregation is ordered.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import compiler as comp
from . import engine as eng
from .addressing import AddressingUnit, crosstalk_matrix, relative_rabi
from .errors import FitFailure
from .fitting import (Dataset, binomial_se, fit_decay, fit_fringe, fit_gaussian,
                      fit_linear, fit_power_law, gaussian)

EXPERIMENT_KINDS = ("ramsey", "gradient", "rb", "thermometry", "heating",
                    "ghz", "gate_decay", "addressing_scan")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    machine: comp.MachineConfig = field(default_factory=comp.MachineConfig)
    noise: eng.NoiseConfig = field(default_factory=eng.NoiseConfig)
    addressing: AddressingUnit = None
    shots: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentResult:
    datasets: dict
    fits: dict
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Ramsey coherence and field-gradient scans
# ---------------------------------------------------------------------------

def _ramsey_circuit(wait_us: float, second_phase: float) -> tuple:
    return (
        comp.PrepareAll(),
        comp.R(math.pi / 2, 0.0, "all"),
        comp.Delay(wait_us),
        comp.R(math.pi / 2, second_phase, "all"),
        comp.MeasureAll("m0"),
    )


def _contrast(shots) -> tuple:
    """Contrast 2 P_dark - 1 of qubit 0 over valid shots, and its error."""
    bits = eng.valid_bits(shots)[:, 0]
    k = int(np.sum(bits == 0))
    n = len(bits)
    return 2.0 * (k / n) - 1.0, 2.0 * float(binomial_se(k, n))


def run_ramsey(spec: ExperimentSpec, qubit_kind: str, wait_times_s) -> ExperimentResult:
    """Two-pulse Ramsey; contrast vs wait fitted to A exp(-t/T2)."""
    waits = np.asarray(wait_times_s, dtype=float)
    if np.any(np.diff(waits) <= 0):
        raise ValueError("wait times must be ascending")
    machine = replace(spec.machine, n_qubits=1)
    y, yerr = [], []
    for i, w in enumerate(waits):
        sched = comp.compile_circuit(_ramsey_circuit(w * 1e6, 0.0), machine)
        c, se = _contrast(eng.run_schedule(sched, machine, spec.noise, spec.shots,
                                           seed=spec.seed + i, qubit_kind=qubit_kind))
        y.append(c)
        yerr.append(se)
    ds = Dataset(waits, np.array(y), np.array(yerr))
    fit = fit_decay(ds, form="exp")
    return ExperimentResult({"points": ds}, {"decay": fit},
                            {"t2_s": fit["tau"], "t2_err_s": fit.error("tau")})


GRADIENT_WAIT_S = 1e-3  # Ramsey wait of each gradient-scan point


def run_gradient_scan(spec: ExperimentSpec, positions_um) -> ExperimentResult:
    """Ramsey fringe frequency vs ion displacement; linear fit gives the
    field gradient in Hz/um (ground-state qubit).  The fringe phase accrues
    between the centres of the two pi/2 pulses, GRADIENT_WAIT_S plus one
    pulse length apart, and is divided by that spacing."""
    positions = np.asarray(positions_um, dtype=float)
    if np.any(np.abs(positions) > 100.0):
        raise ValueError("positions must lie within +-100 um")
    machine = replace(spec.machine, n_qubits=1)
    schedules = [comp.compile_circuit(_ramsey_circuit(GRADIENT_WAIT_S * 1e6, phi), machine)
                 for phi in (0.0, math.pi / 2)]
    first, second = (e for e in schedules[0].events if e.kind == "carrier")
    spacing_s = (second.start + second.end - first.start - first.end) / 2 * 1e-9
    freqs, ferr = [], []
    for i, z in enumerate(positions):
        quadratures = []
        for j, sched in enumerate(schedules):
            quadratures.append(_contrast(eng.run_schedule(
                sched, machine, spec.noise, spec.shots, seed=spec.seed + 2 * i + j,
                qubit_kind="ground", positions_um=[z])))
        (c, se_c), (s, se_s) = quadratures
        f = math.atan2(s, c) / (2.0 * math.pi * spacing_s)
        r2 = max(c**2 + s**2, 1e-6)
        var_f = (c**2 * se_s**2 + s**2 * se_c**2) / (r2**2 * (2 * math.pi * spacing_s) ** 2)
        freqs.append(f)
        ferr.append(max(math.sqrt(var_f), 1e-9))
    ds = Dataset(positions, np.array(freqs), np.array(ferr))
    fit = fit_linear(ds)
    return ExperimentResult({"points": ds}, {"linear": fit},
                            {"slope_hz_per_um": fit["slope"],
                             "slope_err": fit.error("slope")})


# ---------------------------------------------------------------------------
# Randomized benchmarking
# ---------------------------------------------------------------------------

def _x_pulse(theta):
    return (abs(theta), 0.0) if theta > 0 else (abs(theta), math.pi)


def _y_pulse(theta):
    return (abs(theta), math.pi / 2) if theta > 0 else (abs(theta), -math.pi / 2)


def _clifford_table():
    """24 single-qubit Cliffords as physical (theta, phi) pulse lists;
    identity costs one slot; total cost is exactly 45 slots (1.875 avg)."""
    h = math.pi / 2
    x, y = _x_pulse, _y_pulse
    return [
        [(0.0, 0.0)],                       # identity (one slot)
        [x(math.pi)], [y(math.pi)], [y(math.pi), x(math.pi)],
        # 2pi/3 rotations
        [x(h), y(h)], [x(h), y(-h)], [x(-h), y(h)], [x(-h), y(-h)],
        [y(h), x(h)], [y(h), x(-h)], [y(-h), x(h)], [y(-h), x(-h)],
        # pi/2 rotations
        [x(h)], [x(-h)], [y(h)], [y(-h)],
        [x(-h), y(h), x(h)], [x(-h), y(-h), x(h)],
        # Hadamard-like
        [x(math.pi), y(h)], [x(math.pi), y(-h)],
        [y(math.pi), x(h)], [y(math.pi), x(-h)],
        [x(h), y(h), x(h)], [x(-h), y(h), x(-h)],
    ]


CLIFFORD_PULSES = _clifford_table()
CLIFFORD_AVG_COST = sum(len(s) for s in CLIFFORD_PULSES) / len(CLIFFORD_PULSES)


# Each Clifford's unitary in the row convention psi @ u of a state's
# amplitudes: the product of its pulses' transposed rotation matrices, in order.
_CLIFFORD_PRODUCTS = np.array([functools.reduce(np.matmul, (eng.rotation_matrix(*p).T for p in s))
                               for s in CLIFFORD_PULSES])
# The group table, from one overlap: _CLIFFORD_TABLE[a, b] is the c with
# |tr(u_c^H u_a u_b)| = 2, the Clifford equal to u_a @ u_b up to a global phase.
_CLIFFORD_TABLE = np.abs(np.einsum("aij,bjk,cik->abc", _CLIFFORD_PRODUCTS, _CLIFFORD_PRODUCTS,
                                   _CLIFFORD_PRODUCTS.conj())).argmax(axis=2)
_CLIFFORD_INVERSE = (_CLIFFORD_TABLE == 0).argmax(axis=1)  # k then its inverse is Clifford 0
_CLIFFORD_SLOTS = np.array([len(s) for s in CLIFFORD_PULSES])


def _rb_survival(cliffords, eps) -> float:
    """Survival probability of one sequence closed by its inverse Clifford.
    Depolarizing after each of its G pulse slots (the identity's and the
    inverse's included) commutes with the gates, whose product is the
    identity, so a shot survives with probability 1/2 + (1 - eps)**G / 2."""
    k = functools.reduce(lambda a, b: _CLIFFORD_TABLE[a, b], cliffords, 0)
    slots = int(_CLIFFORD_SLOTS[cliffords].sum() + _CLIFFORD_SLOTS[_CLIFFORD_INVERSE[k]])
    return 0.5 + 0.5 * (1.0 - eps) ** slots


def _rb_dark_shots(cliffords, shots: int, noise: eng.NoiseConfig, rng) -> int:
    """Shots of one sequence that read dark: one binomial draw of the
    readout law (DetectionModel.read_dark) of its dark probability, one
    minus its survival."""
    p_dark = 1.0 - _rb_survival(cliffords, noise.eps_1q)
    return int(rng.binomial(shots, noise.detection.read_dark(p_dark)))


RB_SEQUENCES = 20  # random sequences per length; each gets shots // 20


def run_rb(spec: ExperimentSpec, sequence_lengths) -> ExperimentResult:
    """Single-qubit RB: survival vs sequence length fitted to A p^n + 0.5.

    Each length runs RB_SEQUENCES random sequences of shots // RB_SEQUENCES
    shots, so the shots round down to a multiple of RB_SEQUENCES; fewer
    than RB_SEQUENCES shots raise ValueError.  R_Clif = (1-p)/2; the
    per-pulse fidelity follows from the 1.875 average Clifford cost.
    Every pulse slot, a pi pulse and the zero-angle identity slot alike,
    costs one noise.eps_1q, as every single-qubit pulse does in
    run_schedule (simulate).  A shot survives when it reads bright, through
    the readout's flip pair (e0, e1), so survival decays to 0.5 + (e0 -
    e1)/2, not to the fitted 0.5.
    """
    lengths = [int(n) for n in sequence_lengths]
    if len(set(lengths)) < 4 or max(lengths) > 100:
        raise ValueError("need >= 4 distinct lengths, all <= 100")
    if spec.shots < RB_SEQUENCES:
        raise ValueError(f"rb needs shots >= {RB_SEQUENCES} (one per sequence), "
                         f"got {spec.shots}")
    shots_per_seq = spec.shots // RB_SEQUENCES
    survived = []
    for i, n in enumerate(lengths):
        k_total = 0
        for s in range(RB_SEQUENCES):
            rng = np.random.default_rng([spec.seed, i, s])
            cliffords = rng.integers(24, size=n)
            k_total += shots_per_seq - _rb_dark_shots(cliffords, shots_per_seq, spec.noise, rng)
        survived.append(k_total)
    n_total = shots_per_seq * RB_SEQUENCES
    ds = Dataset(np.array(lengths, dtype=float), np.array(survived) / n_total,
                 binomial_se(survived, n_total))
    fit = fit_decay(ds, form="power", fixed_offset=0.5)
    p = fit["p"]
    r_clif = (1.0 - p) * (1.0 - 0.5)
    f_gate = 1.0 - r_clif / CLIFFORD_AVG_COST
    f_gate_err = fit.error("p") * 0.5 / CLIFFORD_AVG_COST
    return ExperimentResult({"points": ds}, {"decay": fit},
                            {"p": p, "r_clifford": r_clif,
                             "gate_fidelity": f_gate,
                             "gate_fidelity_err": f_gate_err,
                             "clifford_avg_cost": CLIFFORD_AVG_COST})


# ---------------------------------------------------------------------------
# Thermometry and heating
# ---------------------------------------------------------------------------

# Largest thermal mean a heating point may reach.  Generator.geometric
# saturates at int64's maximum, about 9.2e18, once the mean passes about
# 1e18; at a mean of 1e15 a draw passes even 1e17 with probability e**-100.
MAX_THERMAL_MEAN = 1e15


def _sample_thermal_n(nbar: float, size, rng) -> np.ndarray:
    if nbar <= 0:
        return np.zeros(size, dtype=int)
    return rng.geometric(1.0 / (1.0 + nbar), size=size) - 1


def estimate_nbar(ns: np.ndarray, rng, detection: eng.DetectionModel) -> tuple:
    """Sideband-ratio thermometry on a sampled phonon ensemble.

    A pi pulse on the red (blue) sideband excites Fock n to the dark D
    state with probability sin^2(pi/2 sqrt(n)) (sin^2(pi/2 sqrt(n+1))),
    and the shot reads dark with detection.read_dark of it; the red trials
    draw first.  r = P_red/P_blue = nbar/(1+nbar) for a thermal state, for
    any pulse area.  Under readout error the ratio is (e1 + c P_red) / (e1
    + c P_blue), c = 1 - e0 - e1: e0 cancels and e1 biases it.  Returns
    (nbar_hat, stderr, flagged) where flagged marks an undefined estimator
    (ratio >= 1).
    """
    shots, read = len(ns), detection.read_dark
    k_red = int(np.sum(rng.random(shots) < read(np.sin(math.pi / 2 * np.sqrt(ns)) ** 2)))
    k_blue = int(np.sum(rng.random(shots) < read(np.sin(math.pi / 2 * np.sqrt(ns + 1.0)) ** 2)))
    if k_blue == 0:
        return 0.0, 1.0 / shots, k_red > 0
    p_r, p_b = k_red / shots, k_blue / shots
    r = p_r / p_b
    if r >= 1.0:
        return math.inf, math.inf, True
    nbar = r / (1.0 - r)
    se_r = float(binomial_se(k_red, shots))
    se_b = float(binomial_se(k_blue, shots))
    var_r = (se_r / p_b) ** 2 + (p_r * se_b / p_b**2) ** 2
    se_nbar = math.sqrt(var_r) / (1.0 - r) ** 2
    return nbar, se_nbar, False


def run_sideband_thermometry(spec: ExperimentSpec, nbar_true: float) -> ExperimentResult:
    if not 0.0 <= nbar_true <= 2.0:
        raise ValueError(f"nbar_true must lie in [0, 2] for estimator validity, got {nbar_true}")
    rng = np.random.default_rng([spec.seed, 0])
    ns = _sample_thermal_n(nbar_true, spec.shots, rng)
    nbar, se, flagged = estimate_nbar(ns, rng, spec.noise.detection)
    ds = Dataset(np.array([0.0]), np.array([nbar]), np.array([max(se, 1e-12)]))
    return ExperimentResult({"points": ds}, {},
                            {"nbar": nbar, "nbar_err": se, "flagged": flagged,
                             "nbar_true": nbar_true})


def run_heating_scan(spec: ExperimentSpec, wait_times_s, frequencies_hz,
                     nbar0: float = 0.02) -> ExperimentResult:
    """nbar vs wait per mode frequency -> linear rate fits; rates vs
    frequency -> power-law exponent alpha.  Each point samples the
    thermal law at nbar0 + rate t (see the module docstring)."""
    freqs = np.asarray(frequencies_hz, dtype=float)
    waits = np.asarray(wait_times_s, dtype=float)
    if len(freqs) < 3:
        raise ValueError("need >= 3 frequencies")
    if not np.all((freqs > 0) & np.isfinite(freqs)):
        raise ValueError(f"frequencies_hz must be finite and positive, got {freqs.tolist()}")
    if not 0.0 <= nbar0 < math.inf:
        raise ValueError(f"nbar0 must be finite and non-negative, got {nbar0}")
    noise = spec.noise
    keys = (f"(heating_rate_ref, heating_omega_ref, heating_alpha) = ({noise.heating_rate_ref:g}, "
            f"{noise.heating_omega_ref:g}, {noise.heating_alpha:g})")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        rates_true = [float(noise.heating_rate(2.0 * math.pi * f)) for f in freqs]
    t_max = float(np.max(waits, initial=0.0))
    for f, rate in zip(freqs, rates_true):
        if not math.isfinite(rate):
            raise ValueError(f"heating rate at {f:g} Hz is not finite: {keys}")
        if not nbar0 + rate * t_max <= MAX_THERMAL_MEAN:  # a Python float overflows to inf
            raise ValueError(f"thermal mean {nbar0 + rate * t_max:g} at {f:g} Hz after "
                             f"{t_max:g} s is above {MAX_THERMAL_MEAN:g}, the largest "
                             f"the thermal draws represent: {keys}")
    rates, rate_errs = [], []
    point_sets = {}
    for i, (f, rate_true) in enumerate(zip(freqs, rates_true)):
        ys, es = [], []
        for j, t in enumerate(waits):
            rng = np.random.default_rng([spec.seed, i, j])
            ns = _sample_thermal_n(nbar0 + rate_true * t, spec.shots, rng)
            nbar, se, flagged = estimate_nbar(ns, rng, noise.detection)
            if flagged:
                raise FitFailure(f"thermometry undefined at f={f}, t={t}: {keys}")
            ys.append(nbar)
            es.append(max(se, 1e-9))
        ds = Dataset(waits, np.array(ys), np.array(es))
        lin = fit_linear(ds)
        point_sets[f"nbar_vs_wait_{i}"] = ds
        rates.append(lin["slope"])
        rate_errs.append(max(lin.error("slope"), 1e-9))
    rate_ds = Dataset(freqs, np.array(rates), np.array(rate_errs))
    plaw = fit_power_law(rate_ds)
    point_sets["points"] = rate_ds
    return ExperimentResult(point_sets, {"power_law": plaw},
                            {"rates_per_s": list(map(float, rates)),
                             "alpha": plaw["alpha"],
                             "alpha_err": plaw.error("alpha")})


# ---------------------------------------------------------------------------
# GHZ and gate decay
# ---------------------------------------------------------------------------

def ghz_prepare(state: eng.RegisterState):
    """Single collective MS(pi/4) on every qubit; odd register sizes need a
    trailing collective R(pi/2, 0) to rotate onto the GHZ axis (verified
    against the state-vector oracle)."""
    targets = range(state.n)
    eng.apply_ms_ideal(state, targets, math.pi / 4)
    if state.n % 2 == 1:
        eng.apply_rotation(state, targets, math.pi / 2, 0.0)
    return state


def ghz_state_fidelity(n: int) -> float:
    """Oracle: overlap of the prepared state with the ideal GHZ manifold,
    maximized over the relative phase."""
    st = eng.RegisterState(n)
    ghz_prepare(st)
    a, b = st.psi[0, 2**n - 1], st.psi[0, 0]
    return float((abs(a) + abs(b)) ** 2 / 2.0)


def _parity_scan_laws(prepared: eng.RegisterState, w: float, phases, eps_1q: float):
    """The bright-count law (engine.bright_count_law) of prepared, then for
    each phase that of a copy after R(pi/2, phi) on every ion, each outcome
    law mixed in place as w P + (1 - w)/2**n before it is reduced; an
    analysis law's w gains a factor 1 - eps_1q, its pulse's depolarizing
    over every ion.  The rotation replaces the copy's psi, so prepared is
    left as it is, and a rotated copy is dropped once its law is taken."""
    n = prepared.n
    for phi in (None, *phases):
        law = (prepared if phi is None else eng.apply_rotation(
            copy.copy(prepared), range(n), math.pi / 2, phi)).probabilities()[0]
        w_law = w if phi is None else w * (1.0 - eps_1q)
        law *= w_law
        law += (1.0 - w_law) / 2**n
        yield eng.bright_count_law(law)


def _parity_witness(spec: ExperimentSpec, prepared: eng.RegisterState, w: float,
                    phases, streams) -> tuple:
    """(witness, parity dataset, fringe fit at frequency n) of the parity
    scan of prepared, law j read out by engine.measure from streams[j] as
    a histogram of the detected bright count.  Both statistics are read
    from the histograms: P from the shots with 0 or n bright, each phase's
    parity from the shots with an even number of dark ions.  The witness
    holds P, C = min(fringe amplitude, 1), F = (P+C)/2 and, under
    <name>_err, the error of each."""
    n, shots = prepared.n, spec.shots
    pop, *scans = [
        eng.measure(law, shots, spec.noise.detection, np.random.default_rng(key))
        for law, key in zip(_parity_scan_laws(prepared, w, phases, spec.noise.eps_1q),
                            streams)]
    even_dark = (n - np.arange(n + 1)) % 2 == 0
    k_even = np.array([counts[even_dark].sum() for counts in scans])
    ds = Dataset(phases, (2 * k_even - shots) / shots,
                 np.maximum(2.0 * binomial_se(k_even, shots), 1e-9))
    fringe = fit_fringe(ds, float(n))
    k_pop = int(pop[0] + pop[n])
    p, se_p = k_pop / shots, float(binomial_se(k_pop, shots))
    c, se_c = min(fringe["amplitude"], 1.0), fringe.error("amplitude")
    return ({"P": p, "C": c, "F": (p + c) / 2.0, "P_err": se_p, "C_err": se_c,
             "F_err": 0.5 * math.hypot(se_p, se_c)}, ds, fringe)


def run_ghz(spec: ExperimentSpec, n: int, analysis_phases,
            product_state: tuple = None) -> ExperimentResult:
    """GHZ witness: P from populations, C from a fixed-frequency parity
    fit over the analysis-phase scan, F = (P+C)/2, witness F > 0.5.

    The register is prepared once, by ghz_prepare or, with product_state,
    by per-qubit rotations (theta, phi) for witness-soundness studies; the
    populations sample it, each analysis phase a copy after R(pi/2, phi).
    Every global pulse costs one depolarizing over every ion, as in
    simulate: eps_2q for the MS, eps_1q for the odd-n R(pi/2, 0) and for
    each analysis pulse, so P tends to w + (1 - w) 2/2**n and C to
    w (1 - eps_1q).  A product state's addressed pulses are ideal.  Of the
    rest of spec.noise only the detection model acts.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    if n > comp.MAX_QUBITS:
        raise ValueError(f"state exceeds the memory cap: need N <= {comp.MAX_QUBITS}, got {n}")
    phases = np.asarray(analysis_phases, dtype=float)
    if phases.max() - phases.min() < 2.0 * math.pi / n * (1.0 - 1e-9):
        raise ValueError("phases must span at least one parity period")
    prepared, w = eng.RegisterState(n), 1.0  # a product state has no gate to charge
    if product_state is None:
        ghz_prepare(prepared)
        w = (1.0 - spec.noise.eps_2q) * (1.0 - spec.noise.eps_1q) ** (n % 2)
    else:
        for q, (theta, phi_q) in enumerate(product_state):
            eng.apply_rotation(prepared, [q], theta, phi_q)
    streams = [[spec.seed, 0]] + [[spec.seed, 1, i] for i in range(len(phases))]
    witness, ds, fringe = _parity_witness(spec, prepared, w, phases, streams)
    return ExperimentResult({"points": ds}, {"fringe": fringe},
                            {"N": n, **witness, "witness": bool(witness["F"] > 0.5)})


GATE_DECAY_PHASES = np.linspace(0.0, math.pi, 8, endpoint=False)  # parity analysis


def run_gate_decay(spec: ExperimentSpec, gate_counts, bus: str = "axial") -> ExperimentResult:
    """Repeated two-ion MS gates; F(k) = (P+C)/2 fitted to A p^k + 0.25.

    Each gate is followed by depolarizing on both ions with probability
    eps_2q, so k gates scan MS(k pi/4)|SS> with w = (1 - eps)**k; each
    analysis R(pi/2, phi) is charged noise.eps_1q on both ions, as simulate
    charges a global pulse.  On the radial bus, which needs an addressing
    unit in spec.addressing, eps also gains 2 floor**2, the crosstalk-floor
    spillover of the two addressed beams; no spectator ion or chain
    position enters.
    """
    counts = [int(k) for k in gate_counts]
    if any(k % 2 == 0 for k in counts) or sorted(counts) != counts:
        raise ValueError("gate counts must be odd and ascending")
    if bus not in ("axial", "radial"):
        raise ValueError(f"bus must be 'axial' or 'radial', got {bus!r}")
    eps = spec.noise.eps_2q
    if bus == "radial":
        if spec.addressing is None:
            raise ValueError("the radial bus needs an addressing unit in spec.addressing")
        eps = min(eps + 2.0 * spec.addressing.floor**2, 1.0)

    ys, es = [], []
    for i, k in enumerate(counts):
        gate = eng.apply_ms_ideal(eng.RegisterState(2), [0, 1], k * math.pi / 4)
        streams = [[spec.seed, i, j] for j in range(1 + len(GATE_DECAY_PHASES))]
        w, _, _ = _parity_witness(spec, gate, (1.0 - eps) ** k, GATE_DECAY_PHASES, streams)
        ys.append(w["F"])
        es.append(max(w["F_err"], 1e-9))
    ds = Dataset(np.array(counts, dtype=float), np.array(ys), np.array(es))
    fit = fit_decay(ds, form="power", fixed_offset=0.25)
    p = fit["p"]
    per_gate = 1.0 - 0.75 * (1.0 - p)
    per_gate_err = 0.75 * fit.error("p")
    return ExperimentResult({"points": ds}, {"decay": fit},
                            {"bus": bus, "per_gate_fidelity": per_gate,
                             "per_gate_fidelity_err": per_gate_err})


# ---------------------------------------------------------------------------
# Addressing scan
# ---------------------------------------------------------------------------

SCAN_HALF_WIDTH_WAISTS = 2.5  # profile and calibration scans span +-2.5 w0
_SCAN_PULSE_AREA = math.pi / 2  # below pi, so excitation grows with Omega


def _excited_counts(unit, center_um, positions_um, shots, stream,
                    detection: eng.DetectionModel) -> list:
    """Shots per ion position under the beam centered at center_um that
    read excited (dark), one binomial of detection.read_dark of the
    excitation probability; the shots at position i draw from the stream
    (*stream, i)."""
    counts = []
    for i, x in enumerate(positions_um):
        rng = np.random.default_rng([*stream, i])
        g = relative_rabi(unit, center_um, float(x))
        p = math.sin(_SCAN_PULSE_AREA * g / 2.0) ** 2
        counts.append(int(rng.binomial(shots, detection.read_dark(p))))
    return counts


def _proxy_error(p: float, k: float, shots: int) -> float:
    """Binomial error of the Omega^2 proxy at excited fraction p (k of shots
    excited), propagated through a numeric derivative."""
    area, dp = _SCAN_PULSE_AREA, 1e-6
    theta = 2.0 * math.asin(math.sqrt(p))
    t2 = 2.0 * math.asin(math.sqrt(min(p + dp, 1.0)))
    deriv = ((t2 / area) ** 2 - (theta / area) ** 2) / dp
    return max(abs(deriv) * float(binomial_se(k, shots)), 1e-6)


def _fit_rabi_profile(offsets_um, counts, shots) -> tuple:
    """Omega^2 proxy (theta / pulse area)^2 of the excited fractions and its
    Gaussian fit, as (dataset, fit).  Errors of the observed fractions are
    small where a point fluctuates low, which pulls the fit low, so the fit
    is redone once with the errors taken at the first fit's curve."""
    p_hat = [min(max(k / shots, 0.0), 1.0) for k in counts]
    ds = Dataset(offsets_um, [(2.0 * math.asin(math.sqrt(p)) / _SCAN_PULSE_AREA) ** 2
                              for p in p_hat],
                 [_proxy_error(p, k, shots) for p, k in zip(p_hat, counts)])
    y_fit = np.maximum(gaussian(ds.x, *fit_gaussian(ds).values), 0.0)
    p_fit = [math.sin(_SCAN_PULSE_AREA * math.sqrt(y) / 2.0) ** 2 for y in y_fit]
    ds = Dataset(ds.x, ds.y, [_proxy_error(p, p * shots, shots) for p in p_fit])
    return ds, fit_gaussian(ds)


def run_addressing_scan(spec: ExperimentSpec, unit: AddressingUnit,
                        n_points: int = 41, chain_positions_um=None,
                        calibration_tones_mhz=None) -> ExperimentResult:
    """Beam-profile scan (Omega^2 proxy vs displacement), Gaussian waist
    fit, crosstalk matrix, and optional AOD deflection-slope calibration."""
    half_width = SCAN_HALF_WIDTH_WAISTS * unit.w0_um
    offsets = np.linspace(-half_width, half_width, n_points)
    ds, gauss = _fit_rabi_profile(
        offsets, _excited_counts(unit, 0.0, offsets, spec.shots, [spec.seed],
                                 spec.noise.detection), spec.shots)
    fits = {"gaussian": gauss}
    extra = {"w0_um": abs(gauss["waist"]), "w0_err_um": gauss.error("waist"),
             "kind": unit.kind}
    datasets = {"points": ds}

    if chain_positions_um is not None:
        extra["crosstalk_matrix"] = crosstalk_matrix(unit, chain_positions_um).tolist()

    if calibration_tones_mhz is not None:
        centers, cerrs = [], []
        for i, f_mhz in enumerate(calibration_tones_mhz):
            true_center = unit.slope_um_per_mhz * f_mhz
            scan = true_center + offsets
            k = np.array(_excited_counts(unit, true_center, scan, spec.shots,
                                         [spec.seed, 100 + i], spec.noise.detection))
            cal = fit_gaussian(Dataset(scan, k / spec.shots,
                                       np.maximum(binomial_se(k, spec.shots), 1e-6)))
            centers.append(cal["center"])
            cerrs.append(max(cal.error("center"), 1e-6))
        cal_ds = Dataset(np.asarray(calibration_tones_mhz, dtype=float),
                         np.array(centers), np.array(cerrs))
        lin = fit_linear(cal_ds)
        datasets["aod_calibration"] = cal_ds
        fits["slope"] = lin
        extra["slope_um_per_mhz"] = lin["slope"]
        extra["slope_err"] = lin.error("slope")
    return ExperimentResult(datasets, fits, extra)
