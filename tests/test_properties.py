"""Property-based tests: batched noise operators, batched against single
states, the outcome laws RB, gate decay and GHZ sample against per-gate
density matrices, the 1-qubit layer kernel, T1 decay and dephasing
against their per-qubit references, the compiled schedule against the
gate-level reference, config round-trips, circuit parsing and compiling,
and virtual against ac_stark RZ in branching circuits.  Examples are
derandomized so that every run checks the same cases."""

import copy
import functools
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from iontrap_bench import compiler as comp
from iontrap_bench import engine as eng
from iontrap_bench import experiments as exp
from iontrap_bench.config import SCHEMA, dump_config, parse_config
from iontrap_bench.errors import IonTrapBenchError
from oracles import (apply_1q_einsum, dephasing_per_qubit, depolarizing_channel,
                     t1_decay_per_qubit)

PI = math.pi
ANGLES = st.floats(-2 * PI, 2 * PI)


@st.composite
def batched_states(draw, max_qubits=4):
    """A spin register whose shots are arbitrary normalized states."""
    n = draw(st.integers(1, max_qubits))
    state = eng.RegisterState(n, shots=draw(st.integers(1, 5)))
    parts = draw(arrays(np.float64, (2,) + state.psi.shape, elements=st.floats(-1, 1)))
    psi = parts[0] + 1j * parts[1]
    norms = np.linalg.norm(psi, axis=1)
    assume(np.all(norms > 1e-3))
    state.psi = psi / norms[:, None]
    return state


NOISE = {
    "dephasing": lambda s, x, rng: eng.apply_dephasing(
        s, 0.01 * x, 0.018, rng, detuning_hz=[40.0] * s.n),
    "depolarizing": lambda s, x, rng: eng.apply_depolarizing(s, range(s.n), x, rng),
    "t1": lambda s, x, rng: eng.apply_t1_decay(s, x, rng, t1=0.5),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(), op=st.sampled_from(sorted(NOISE)),
       x=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_batched_noise_keeps_every_shot_normalized(state, op, x, seed):
    NOISE[op](state, x, np.random.default_rng(seed))
    np.testing.assert_allclose(np.linalg.norm(state.psi, axis=1), 1.0, rtol=0.0, atol=1e-12)


QUIET = {  # every channel with its rate at zero
    "dephasing": lambda s, rng: eng.apply_dephasing(s, 1e-3, math.inf, rng),
    "depolarizing": lambda s, rng: eng.apply_depolarizing(s, range(s.n), 0.0, rng),
    "t1": lambda s, rng: eng.apply_t1_decay(s, 1e-3, rng, t1=math.inf),
}
GATES = st.one_of(
    st.tuples(st.just("R"), st.integers(0, 2), ANGLES, ANGLES),
    st.tuples(st.just("RZ"), st.integers(0, 2), ANGLES, ANGLES),
    st.tuples(st.just("MS"), st.integers(0, 2), ANGLES, ANGLES),
    st.tuples(st.sampled_from(sorted(QUIET)), st.integers(0, 2), ANGLES, ANGLES))


def _apply(state, op, q, a, b, rng):
    q %= state.n
    if op == "R":
        eng.apply_rotation(state, [q], a, b)
    elif op == "RZ":
        eng.apply_rz(state, [q], a)
    elif op == "MS":
        if state.n > 1:
            eng.apply_ms_ideal(state, [q, (q + 1) % state.n], a)
    else:
        QUIET[op](state, rng)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(), ops=st.lists(GATES, max_size=10),
       seed=st.integers(0, 2**32 - 1))
def test_noise_free_batch_matches_single_states(state, ops, seed):
    singles = [state.subset([s]) for s in range(len(state.psi))]
    for target in [state] + singles:
        rng = np.random.default_rng(seed)
        for op in ops:
            _apply(target, *op, rng)
    single_psi = np.concatenate([s.psi for s in singles])
    np.testing.assert_allclose(state.psi, single_psi, rtol=0.0, atol=1e-12)


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1j], [1j, 0.0]])
EPS = st.sampled_from([0.0, 0.05, 1.0])


def _pulse(theta, phi):
    """exp(-i theta/2 (cos phi X + sin phi Y)) in the column convention."""
    return expm(-0.5j * theta * (math.cos(phi) * _X + math.sin(phi) * _Y))


def _noisy(rho, unitaries, eps):
    """rho through each unitary in turn, each followed by the depolarizing
    channel of the whole register."""
    for u in unitaries:
        rho = depolarizing_channel(u @ rho @ u.conj().T, eps)
    return rho


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cliffords=st.lists(st.integers(0, 23), max_size=6), eps=EPS)
def test_rb_survival_matches_per_gate_density_matrix(cliffords, eps):
    u = functools.reduce(np.matmul, (exp._CLIFFORD_PRODUCTS[k] for k in cliffords), np.eye(2))
    inverse, = [k for k, c in enumerate(exp._CLIFFORD_PRODUCTS)
                if abs(np.trace(u @ c)) > 2.0 - 1e-9]  # trace search, not the group table
    pulses = [p for k in [*cliffords, inverse] for p in exp.CLIFFORD_PULSES[k]]
    rho = _noisy(np.diag([0.0, 1.0]), [_pulse(*p) for p in pulses], eps)  # from |S>
    survival = exp._rb_survival(cliffords, eps)
    np.testing.assert_allclose([1.0 - survival, survival], np.diag(rho).real,
                               rtol=0.0, atol=1e-12)


def _all_bright(n):
    """|S...S><S...S| of n ions: every bit 1, the last basis state."""
    rho = np.zeros((2**n, 2**n))
    rho[-1, -1] = 1.0
    return rho


def _on_every_ion(u, n):
    return functools.reduce(np.kron, [u] * n)


def _ms(n, chi):
    """MS(chi) on every one of n ions: exp(-i chi/2 (Sx**2 - n))."""
    sx = sum(np.kron(np.kron(np.eye(2 ** (n - 1 - q)), _X), np.eye(2**q)) for q in range(n))
    return expm(-0.5j * chi * (sx @ sx - n * np.eye(2**n)))


def _scan_laws(rho, n, phases, eps_1q):
    """Diagonals of rho, then of rho after R(pi/2, phi) on every ion and
    its depolarizing eps_1q, per phase."""
    rhos = [rho] + [_noisy(rho, [_on_every_ion(_pulse(PI / 2, phi), n)], eps_1q)
                    for phi in phases]
    return [np.diag(r).real for r in rhos]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.integers(0, 9), j=st.integers(0, len(exp.GATE_DECAY_PHASES)), eps=EPS,
       eps_1q=EPS)
def test_gate_decay_law_matches_per_gate_density_matrix(k, j, eps, eps_1q):
    """Law j has no analysis pulse at j = 0, else R(pi/2, GATE_DECAY_PHASES[j - 1])."""
    rho = _noisy(_all_bright(2), [_ms(2, PI / 4)] * k, eps)
    gate = eng.apply_ms_ideal(eng.RegisterState(2), [0, 1], k * PI / 4)
    laws = list(exp._parity_scan_laws(gate, (1.0 - eps) ** k, exp.GATE_DECAY_PHASES, eps_1q))
    np.testing.assert_allclose(laws[j], _scan_laws(rho, 2, exp.GATE_DECAY_PHASES, eps_1q)[j],
                               rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), phases=st.lists(ANGLES, max_size=3), eps=EPS, eps_1q=EPS)
def test_ghz_laws_match_per_gate_density_matrix(n, phases, eps, eps_1q):
    """ghz_prepare's MS(pi/4), depolarizing eps on every ion, its trailing
    R(pi/2, 0) at odd n, then each analysis pulse; each R is followed by
    depolarizing eps_1q on every ion."""
    rho = _noisy(_all_bright(n), [_ms(n, PI / 4)], eps)
    if n % 2 == 1:
        rho = _noisy(rho, [_on_every_ion(_pulse(PI / 2, 0.0), n)], eps_1q)
    w = (1.0 - eps) * (1.0 - eps_1q) ** (n % 2)
    laws = exp._parity_scan_laws(exp.ghz_prepare(eng.RegisterState(n)), w, phases, eps_1q)
    np.testing.assert_allclose(list(laws), _scan_laws(rho, n, phases, eps_1q),
                               rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(max_qubits=7),
       entries=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=4, max_size=4),
       data=st.data())
def test_elementwise_1q_update_matches_einsum(state, entries, data):
    q = data.draw(st.integers(0, state.n - 1))
    m = np.array(entries).reshape(2, 2)
    mats = [None] * state.n
    mats[q] = m
    want = apply_1q_einsum(state.psi, state.n, q, m)
    np.testing.assert_allclose(eng._apply_layer(state, mats).psi, want, rtol=0.0, atol=1e-14)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(max_qubits=9), gate=st.sampled_from(["R", "RZ"]),
       theta=ANGLES, phi=ANGLES, data=st.data())
def test_layer_matches_sequential_einsum(state, gate, theta, phi, data):
    """A layer on up to 9 qubits, so blocks of four qubits and a partial
    top block, with skipped qubits, zero scales and repeated targets,
    against one einsum per target in order."""
    targets = data.draw(st.lists(st.integers(0, state.n - 1), max_size=2 * state.n))
    scale = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0),
                               min_size=len(targets), max_size=len(targets)))
    want = state.psi
    for q, s in zip(targets, scale):
        if s != 0.0:
            m = eng.rotation_matrix(theta * s, phi) if gate == "R" else eng.rz_matrix(theta * s)
            want = apply_1q_einsum(want, state.n, q, m)
    if gate == "R":
        eng.apply_rotation(state, targets, theta, phi, rabi_scale=scale)
    else:
        eng.apply_rz(state, targets, theta, scale=scale)
    np.testing.assert_allclose(state.psi, want, rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(max_qubits=9), p=st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_t1_on_up_to_9_qubits_matches_per_qubit_reference(state, p, seed):
    """Same draws, same jumps: a qubit that jumped holds no D population
    after the call, one that did not keeps its D population."""
    dt = -math.log1p(-p)  # jump probability p at t1 = 1
    ref = copy.deepcopy(state)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    eng.apply_t1_decay(state, dt, rng, t1=1.0)
    t1_decay_per_qubit(ref, range(state.n), dt, ref_rng, t1=1.0)

    def undecayed(s):
        dark = [s.psi.reshape(len(s.psi), -1, 2, 2**q)[:, :, 0] for q in range(s.n)]
        return np.array([np.abs(d).sum(axis=(1, 2)) > 0 for d in dark])
    np.testing.assert_array_equal(undecayed(state), undecayed(ref))
    np.testing.assert_allclose(state.psi, ref.psi, rtol=0.0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(max_qubits=9), dt=st.floats(0.0, 0.02),
       t2=st.sampled_from([0.018, 0.09, math.inf]), ramp=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_dephasing_diagonal_matches_per_qubit_kicks(state, dt, t2, ramp, seed, data):
    detuning = (data.draw(st.lists(st.floats(-200.0, 200.0), min_size=state.n,
                                   max_size=state.n)) if ramp else None)
    ref = copy.deepcopy(state)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    eng.apply_dephasing(state, dt, t2, rng, detuning_hz=detuning)
    dephasing_per_qubit(ref, range(state.n), dt, t2, ref_rng, detuning_hz=detuning)
    np.testing.assert_allclose(state.psi, ref.psi, rtol=0.0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def circuits(draw):
    """A branch-free, measure-free circuit and the machine to compile it for."""
    n = draw(st.integers(1, 4))
    targets = st.one_of(st.just("all"),
                        st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                 unique=True).map(tuple))
    kinds = [st.builds(comp.R, ANGLES, ANGLES, targets),
             st.builds(comp.RZ, ANGLES, targets),
             st.builds(comp.Delay, st.floats(0.0, 50.0))]
    if n > 1:
        pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
        kinds.append(st.builds(comp.MS, ANGLES, st.one_of(st.just("all"), pairs.map(tuple)),
                               st.sampled_from(["axial", "radial"])))
    body = draw(st.lists(st.one_of(kinds), max_size=8))
    machine = comp.MachineConfig(n_qubits=n,
                                 rz_mode=draw(st.sampled_from(["virtual", "ac_stark"])))
    return (comp.PrepareAll(), *body), machine


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circuits())
def test_compiled_schedule_matches_gate_level_statevector(case):
    instructions, machine = case
    schedule = comp.compile_circuit(instructions, machine)
    got = eng.schedule_statevector(schedule, machine)
    want = eng.circuit_statevector(instructions, machine.n_qubits)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def _schema_value(key, typ):
    if key == "machine.rz_mode":
        return st.sampled_from(["virtual", "ac_stark"])
    if key == "addressing.kind":
        return st.sampled_from(["microoptics", "aod"])
    if typ is bool:
        return st.booleans()
    if typ is int:
        return st.integers(1, 10**9)
    return st.floats(allow_nan=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({k: _schema_value(k, typ) for k, (typ, _) in SCHEMA.items()}))
def test_dumped_config_parses_back_unchanged(cfg):
    text = dump_config(cfg)
    assert parse_config(text) == cfg
    assert dump_config(parse_config(text)) == text


TOKENS = st.sampled_from(
    ["PREPARE", "R", "RZ", "MS", "DELAY", "MEASURE", "BRANCH", "prepare", "m0", "m1",
     "q0=bright", "q1=dark", "q0=grey", "3=bright", "{", "}", ";", "#", "=", "all",
     "0", "1", "2", "0,1", "1,,2", "-1", "1.5", "-0.25", "1e999", "nan", "inf",
     "axial", "radial", "{ R 1 0 0 }", "{ R 1 0 0 ; MEASURE m2 }", "1e308", "{ RZ 1 0 }"])
CIRCUIT_TEXT = st.one_of(
    st.lists(st.lists(st.one_of(TOKENS, st.text(max_size=4)), max_size=7).map(" ".join),
             max_size=6).map("\n".join),
    st.text())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(CIRCUIT_TEXT)
@example("PREPARE\nR 1e308 0.0 0")
@example("PREPARE\nMEASURE m0\nBRANCH m0 q0=bright { RZ 1 0 ; DELAY 1e308 }")
def test_parse_circuit_returns_ir_or_raises_a_reported_error(text):
    """Parsing, then compiling on a 3-qubit machine, gives a schedule that
    passes the schedule check, or a ValueError or package error."""
    machine = comp.MachineConfig(n_qubits=3)
    try:
        circuit = comp.parse_circuit(text)
        assert isinstance(circuit, tuple)
        schedule = comp.compile_circuit(circuit, machine)
    except (ValueError, IonTrapBenchError):
        return
    assert comp.validate(schedule, machine) == []


@st.composite
def branching_circuits(draw):
    """Gates, MEASURE m0, gates, a BRANCH on m0 whose body mixes R and RZ,
    gates and a final MEASURE, on 1 to 3 qubits."""
    n = draw(st.integers(1, 3))
    qubits = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(tuple)
    one_qubit = [st.builds(comp.R, ANGLES, ANGLES, st.one_of(st.just("all"), qubits)),
                 st.builds(comp.RZ, ANGLES, st.one_of(st.just("all"), qubits))]
    kinds = one_qubit + ([st.builds(comp.MS, ANGLES, st.permutations(range(n)).map(
        lambda p: tuple(p[:2])))] if n > 1 else [])
    gates = st.lists(st.one_of(kinds), max_size=4)
    predicate = st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(["bright", "dark"])),
                         min_size=1, max_size=n, unique_by=lambda p: p[0]).map(tuple)
    body = st.lists(st.one_of(one_qubit), min_size=1, max_size=4).map(tuple)
    return n, (comp.PrepareAll(), *draw(gates), comp.MeasureAll("m0"), *draw(gates),
               comp.Branch("m0", draw(predicate), draw(body)), *draw(gates),
               comp.MeasureAll("m1"))


NO_NOISE = eng.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf, t1=math.inf,
                           collision_rate=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=branching_circuits(), seed=st.integers(0, 2**32 - 1))
@example(case=(2, (comp.PrepareAll(), comp.R(PI / 2, 0.0, (0,)), comp.MeasureAll("m0"),
                   comp.R(PI / 2, 0.0, (1,)), comp.Branch("m0", ((0, "bright"),),
                                                         (comp.RZ(PI, (1,)),)),
                   comp.R(PI / 2, 0.0, (1,)), comp.MeasureAll("m1"))), seed=0)
def test_virtual_and_ac_stark_rz_give_the_same_bits(case, seed):
    """A virtual RZ moves a phase frame, an ac_stark RZ is a pulse; without
    noise both run the same unitaries, so a seed gives the same bits, also
    where a branch body holds the RZ."""
    n, instructions = case
    bits = []
    for rz_mode in ("virtual", "ac_stark"):
        machine = comp.MachineConfig(n_qubits=n, rz_mode=rz_mode)
        schedule = comp.compile_circuit(instructions, machine)
        bits.append([r.bits for r in eng.run_schedule(schedule, machine, NO_NOISE, 40, seed)])
    assert bits[0] == bits[1]
