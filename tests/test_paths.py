"""Two paths, one law.  GHZ, gate decay, RB and the addressing scan sample
a closed-form outcome law and never run engine.run_schedule.  Each case
here writes one of their settings as a circuit, runs it through
run_schedule as simulate does, and sets the two bit histograms against
each other with a chi-squared contingency test at a fixed seed."""

import functools
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from iontrap_bench import compiler as comp
from iontrap_bench import engine as eng
from iontrap_bench import experiments as exp
from iontrap_bench.addressing import AddressingUnit, crosstalk_matrix

PI = math.pi
SHOTS = 40000  # per path
P_MIN = 6e-7  # two-sided 5 sigma: a true law fails about once in 2 million seeds
# Depolarizing on every pulse and no other noise: no idle decay or
# dephasing, no collisions.  At t1 = inf the readout errs on about 5e-31 of
# the ions, on both paths.
NOISE = eng.NoiseConfig(eps_1q=0.05, eps_2q=0.1, t1=math.inf, t2_optical=math.inf,
                        t2_ground=math.inf, collision_rate=0.0)
SEED = 0  # the experiment's; run_schedule's streams take SEED + 1


def _circuit_bits(lines, n, crosstalk=None, **machine):
    """Detected bits of SHOTS runs of PREPARE, lines, MEASURE through run_schedule."""
    machine = comp.MachineConfig(n_qubits=n, **machine)
    schedule = comp.compile_circuit(
        comp.parse_circuit("\n".join(["PREPARE", *lines, "MEASURE m0"])), machine)
    return eng.valid_bits(eng.run_schedule(schedule, machine, NOISE, SHOTS, seed=SEED + 1,
                                           crosstalk=crosstalk))


def _histogram(bits):
    """Shots per basis state, qubit 0 the least significant bit."""
    n = bits.shape[1]
    return np.bincount(bits @ (1 << np.arange(n)), minlength=2**n)


def _assert_one_law(experiment_counts, circuit_counts):
    table = np.array([experiment_counts, circuit_counts])
    table = table[:, table.sum(axis=0) > 0]  # an outcome neither path drew
    p = chi2_contingency(table).pvalue
    assert p > P_MIN, (p, table)


# Each first analysis phase has ideal parity -1 (GHZ at n = 4 and 5; gate
# decay at k = 1) or +1 (gate decay at k = 3), so that a weight missing
# from either path shows.  GATE_DECAY_PHASES[2] is pi/4.
GHZ_PHASE = {4: PI / 8, 5: 0.0}
GATE_COUNTS = [1, 3, 5, 7]
GATE_PHASE = 2


@functools.cache
def _experiment_bits(kind, n=None):
    """The detected bits of every engine.measure call of one run, in call
    order: GHZ on n ions, its phases over one parity period from
    GHZ_PHASE[n], or gate decay at GATE_COUNTS."""
    drawn, inner = [], eng.measure

    def spy(*args):
        drawn.append(inner(*args))
        return drawn[-1]

    spec = exp.ExperimentSpec(kind, noise=NOISE, shots=SHOTS, seed=SEED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "measure", spy)
        if kind == "ghz":
            exp.run_ghz(spec, n, GHZ_PHASE[n] + np.linspace(0.0, 2.0 * PI / n, 5))
        else:
            exp.run_gate_decay(spec, GATE_COUNTS)
    return drawn


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("law", ["population", "phase"])
def test_ghz_law_is_run_schedules(n, law):
    """PREPARE, MS pi/4 all, R pi/2 0 all at odd n, for the phase law
    R pi/2 GHZ_PHASE[n] all, MEASURE."""
    lines = [f"MS {PI / 4!r} all"] + [f"R {PI / 2!r} 0 all"] * (n % 2)
    if law == "phase":
        lines.append(f"R {PI / 2!r} {GHZ_PHASE[n]!r} all")
    _assert_one_law(_histogram(_experiment_bits("ghz", n)[law == "phase"]),
                    _histogram(_circuit_bits(lines, n)))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("law", ["population", "phase"])
def test_gate_decay_law_is_run_schedules(k, law):
    """PREPARE, k lines of MS pi/4 0,1, for the phase law
    R pi/2 GATE_DECAY_PHASES[GATE_PHASE] all, MEASURE, on 2 ions."""
    lines = [f"MS {PI / 4!r} 0,1"] * k
    index = GATE_COUNTS.index(k) * (1 + len(exp.GATE_DECAY_PHASES))
    if law == "phase":
        lines.append(f"R {PI / 2!r} {float(exp.GATE_DECAY_PHASES[GATE_PHASE])!r} all")
        index += 1 + GATE_PHASE
    _assert_one_law(_histogram(_experiment_bits("gate_decay")[index]),
                    _histogram(_circuit_bits(lines, 2)))


def test_rb_sequence_law_is_run_schedules():
    """One sequence and its inverse, written out as pulses.  The identity's
    slot is RZ 0 under ac_stark RZ, a real pulse that run_schedule charges
    one eps_1q, as RB charges the slot."""
    cliffords = [0, 13, 5, 22, 0, 17, 9, 3]
    u = functools.reduce(np.matmul, (exp._CLIFFORD_PRODUCTS[c] for c in cliffords))
    inverse, = [c for c, v in enumerate(exp._CLIFFORD_PRODUCTS)
                if abs(np.trace(u @ v)) > 2.0 - 1e-9]  # trace search, not the group table
    lines = ["RZ 0 0" if theta == 0.0 else f"R {theta!r} {phi!r} 0"
             for c in [*cliffords, inverse] for theta, phi in exp.CLIFFORD_PULSES[c]]
    survived = np.random.default_rng(SEED).binomial(
        SHOTS, exp._rb_survival(cliffords, NOISE.eps_1q))
    _assert_one_law([SHOTS - survived, survived],
                    _histogram(_circuit_bits(lines, 1, rz_mode="ac_stark")))


def test_addressing_scan_point_law_is_run_schedules():
    """The scan's ion at offset x from the beam against the spectator of
    R(area, 0) on ion 0 of a 2-ion register, with x's crosstalk column.
    Depolarizing acts on the target only, so eps_1q leaves the spectator alone."""
    unit = AddressingUnit()
    x = 0.5 * unit.w0_um
    excited, = exp._excited_counts(unit, 0.0, [x], SHOTS, [SEED])
    bits = _circuit_bits([f"R {exp._SCAN_PULSE_AREA!r} 0 0"], 2,
                         crosstalk=crosstalk_matrix(unit, [0.0, x]))
    dark = int(np.sum(bits[:, 1] == 0))
    _assert_one_law([excited, SHOTS - excited], [dark, SHOTS - dark])
