"""Property-based tests: batched noise operators, batched against single
states, and the compiled schedule against the gate-level reference.
Examples are derandomized so that every run checks the same cases."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iontrap_bench import compiler as comp
from iontrap_bench import engine as eng

PI = math.pi
ANGLES = st.floats(-2 * PI, 2 * PI)


@st.composite
def batched_states(draw):
    """A batched RegisterState whose shots are arbitrary normalized states."""
    n = draw(st.integers(1, 4))
    n_max = draw(st.sampled_from([0, 1, 3]))
    phonon = eng.PhononMode(2 * PI * 1e6, n_max=n_max) if n_max else None
    state = eng.RegisterState(n, phonon=phonon, shots=draw(st.integers(1, 5)))
    parts = draw(arrays(np.float64, (2,) + state.psi.shape, elements=st.floats(-1, 1)))
    psi = parts[0] + 1j * parts[1]
    norms = np.linalg.norm(psi.reshape(len(psi), -1), axis=1)
    assume(np.all(norms > 1e-3))
    state.psi = psi / norms[:, None, None]
    return state


NOISE = {
    "dephasing": lambda s, x, rng: eng.apply_dephasing(
        s, range(s.n), 0.01 * x, 0.018, rng, detuning_hz=[40.0] * s.n),
    "depolarizing": lambda s, x, rng: eng.apply_depolarizing(s, range(s.n), x, rng),
    "t1": lambda s, x, rng: eng.apply_t1_decay(s, range(s.n), x, rng, t1=0.5),
    "heating": lambda s, x, rng: eng.evolve_phonon_heating(s, 0.2 * x, 5.0, rng),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(state=batched_states(), op=st.sampled_from(sorted(NOISE)),
       x=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_batched_noise_keeps_every_shot_normalized(state, op, x, seed):
    NOISE[op](state, x, np.random.default_rng(seed))
    np.testing.assert_allclose(state.norm(), 1.0, rtol=0.0, atol=1e-12)


QUIET = {  # every channel with its rate at zero
    "dephasing": lambda s, rng: eng.apply_dephasing(s, range(s.n), 1e-3, math.inf, rng),
    "depolarizing": lambda s, rng: eng.apply_depolarizing(s, range(s.n), 0.0, rng),
    "t1": lambda s, rng: eng.apply_t1_decay(s, range(s.n), 1e-3, rng, t1=math.inf),
    "heating": lambda s, rng: eng.evolve_phonon_heating(s, 1e-3, 0.0, rng),
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
    # Small batches take each gate as one dense product, and T1 renormalizes
    # even at zero rate, so batch and single states agree to rounding.
    singles = []
    for psi in state.psi:
        single = eng.RegisterState(state.n, phonon=state.phonon)
        single.psi = psi.copy()
        singles.append(single)
    for target in [state] + singles:
        rng = np.random.default_rng(seed)
        for op in ops:
            _apply(target, *op, rng)
    single_psi = np.array([s.psi for s in singles])
    np.testing.assert_allclose(state.psi, single_psi, rtol=0.0, atol=1e-12)


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
    schedule = comp.compile_circuit(comp.CircuitIR(instructions), machine)
    got = eng.schedule_statevector(schedule, machine)
    want = eng.circuit_statevector(instructions, machine.n_qubits)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
