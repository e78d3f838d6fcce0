"""Compiler: instruction checks, scheduling, phase frames, branches, text format."""

import json
import math

import numpy as np
import pytest

from iontrap_bench import compiler as comp
from iontrap_bench import engine as eng
from iontrap_bench.errors import GridViolation, UnknownLabel, UnsupportedTarget

PI = math.pi
M = comp.MachineConfig()


def compile_(instructions, machine=M):
    return comp.compile_circuit(instructions, machine)


def test_global_half_pi_pulse():
    sched = compile_([comp.R(PI / 2, 0.0, "all")])
    (ev,) = sched.events
    assert ev.channel == "g"
    assert ev.kind == "carrier"
    assert ev.duration == 15_000  # 15 us on the 10 ns grid
    assert ev.amplitude == 1.0
    assert sched.duration_ns == 15_000


def test_rotation_duration_scales_with_theta():
    sched = compile_([comp.R(PI, 0.0, (0,))])
    (ev,) = sched.events
    assert ev.duration == 30_000
    assert ev.channel == "a0"


def test_grid_rounding_preserves_exact_angle():
    # theta chosen so the nominal duration is off-grid; amplitude compensates.
    theta = 1.0e-3
    sched = compile_([comp.R(theta, 0.0, (0,))])
    (ev,) = sched.events
    assert ev.start % 10 == 0 and ev.duration % 10 == 0
    nominal_ns = theta / (PI / 2) * 15_000
    assert ev.duration * ev.amplitude == pytest.approx(nominal_ns, rel=1e-12)
    assert ev.angle == theta


def test_zero_rotation_emits_nothing():
    sched = compile_([comp.R(0.0, 0.0, "all")])
    assert sched.events == ()


def test_virtual_rz_phase_frame():
    # R(pi/2) ... RZ(pi/3) ... R(pi/2): second pulse carries phase -pi/3
    # frame advance by RZ(pi/3) puts the second pulse at carrier phase -pi/3.
    sched = compile_([comp.R(PI / 2, 0.0, (0,)),
                      comp.RZ(PI / 3, (0,)),
                      comp.R(PI / 2, 0.0, (0,))])
    carriers = [e for e in sched.events if e.kind == "carrier"]
    assert carriers[0].phase == 0.0
    assert carriers[1].phase == pytest.approx(-PI / 3, abs=1e-15)
    frames = [e for e in sched.events if e.kind == "frame_advance"]
    assert len(frames) == 1 and frames[0].duration == 0
    assert sched.frames[0] == pytest.approx(PI / 3)


def test_virtual_rz_equivalence_1e12():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ins = [comp.R(rng.uniform(0, PI), rng.uniform(-PI, PI), (0,)),
               comp.RZ(rng.uniform(-2 * PI, 2 * PI), (0,)),
               comp.R(rng.uniform(0, PI), rng.uniform(-PI, PI), (0,)),
               comp.RZ(rng.uniform(-2 * PI, 2 * PI), (1,)),
               comp.R(rng.uniform(0, PI), rng.uniform(-PI, PI), (1,)),
               comp.MS(rng.uniform(-PI, PI), (0, 1)),
               comp.R(rng.uniform(0, PI), rng.uniform(-PI, PI), "all")]
        sched = compile_(ins)
        psi_sched = eng.schedule_statevector(sched, M)
        psi_gate = eng.circuit_statevector(ins, M.n_qubits)
        assert np.max(np.abs(psi_sched - psi_gate)) < 1e-12


def test_schedule_statevector_rejects_measure():
    sched = compile_([comp.R(PI / 2, 0.0, "all"), comp.MeasureAll("m0")])
    with pytest.raises(ValueError, match="measure-free"):
        eng.schedule_statevector(sched, M)


def test_ac_stark_mode_emits_physical_pulses():
    machine = comp.MachineConfig(rz_mode="ac_stark")
    sched = compile_([comp.RZ(PI / 2, (0,))], machine)
    (ev,) = sched.events
    assert ev.kind == "ac_stark"
    assert ev.duration == 15_000


def test_global_pulse_splits_when_frames_diverge():
    sched = compile_([comp.RZ(PI / 4, (0,)), comp.R(PI / 2, 0.0, "all")])
    carriers = [e for e in sched.events if e.kind == "carrier"]
    assert len(carriers) == 2  # unequal frames force addressed pulses
    assert {c.channel for c in carriers} == {"a0", "a1"}
    assert carriers[0].phase != carriers[1].phase


def test_ms_event():
    sched = compile_([comp.MS(PI / 4, (0, 1), "axial")])
    (ev,) = sched.events
    assert ev.kind == "bichromatic"
    assert ev.duration == 200_000
    assert ev.tones == (+1.0, -1.0)
    assert ev.angle == pytest.approx(PI / 4)
    assert ev.bus == "axial"


def test_sequential_scheduling_no_overlap():
    sched = compile_([comp.R(PI / 2, 0.0, (0,)),
                      comp.R(PI / 2, 0.0, (1,)),
                      comp.MS(PI / 4, (0, 1))])
    starts = [e.start for e in sched.events]
    assert starts == sorted(starts)
    assert sched.events[1].start >= sched.events[0].end
    assert comp.validate(sched, M) == []


def test_delay_advances_cursor():
    sched = compile_([comp.R(PI / 2, 0.0, (0,)), comp.Delay(100.0),
                      comp.R(PI / 2, 0.0, (0,))])
    carriers = [e for e in sched.events if e.kind == "carrier"]
    assert carriers[1].start == carriers[0].end + 100_000


def test_measure_and_branch_latency():
    body = (comp.R(PI, 0.0, (0,)),)
    sched = compile_([comp.R(PI / 2, 0.0, "all"),
                      comp.MeasureAll("m0"),
                      comp.Branch("m0", ((0, "bright"),), body)])
    meas = next(e for e in sched.events if e.kind == "measure")
    bp = next(e for e in sched.events if e.kind == "branch_point")
    assert bp.start >= meas.end + 5_000  # 5 us latency
    assert comp.validate(sched, M) == []
    # slot reserved: a following pulse starts after the branch body would end
    sched2 = compile_([comp.R(PI / 2, 0.0, "all"),
                       comp.MeasureAll("m0"),
                       comp.Branch("m0", ((0, "bright"),), body),
                       comp.R(PI / 2, 0.0, (1,))])
    tail = [e for e in sched2.events if e.kind == "carrier"][-1]
    bp2 = next(e for e in sched2.events if e.kind == "branch_point")
    assert tail.start >= bp2.start + bp2.body[-1].end


def test_rz_in_a_branch_body_leaves_the_frames_outside_it():
    sched = compile_([comp.MeasureAll("m0"),
                      comp.Branch("m0", ((0, "bright"),),
                                  (comp.RZ(1.0, (1,)), comp.R(PI, 0.0, (1,)))),
                      comp.R(PI / 2, 0.0, (1,))])
    bp = next(e for e in sched.events if e.kind == "branch_point")
    assert [e.phase for e in bp.body if e.kind == "carrier"] == [-1.0]
    assert [e.phase for e in sched.events if e.kind == "carrier"] == [0.0]
    assert sched.frames == (0.0, 0.0)


def test_branch_unknown_label_rejected():
    with pytest.raises(UnknownLabel):
        compile_([comp.Branch("m9", ((0, "bright"),), (comp.R(PI, 0.0, (0,)),))])


def test_branch_nesting_cap():
    inner = comp.Branch("m1", ((0, "dark"),), (comp.R(PI, 0.0, (0,)),))
    outer = comp.Branch("m0", ((0, "bright"),), (comp.MeasureAll("m1"), inner))
    with pytest.raises(ValueError):
        compile_([comp.MeasureAll("m0"), outer])


def test_branch_predicate_checked():
    for predicate in (((2, "bright"),), ((0, "grey"),)):
        with pytest.raises(ValueError):
            compile_([comp.MeasureAll("m0"), comp.Branch("m0", predicate, ())])


def test_target_out_of_range():
    with pytest.raises(UnsupportedTarget):
        compile_([comp.R(PI, 0.0, (5,))])


@pytest.mark.parametrize("instruction, machine", [
    (comp.R(1e308, 0.0, (0,)), M), (comp.Delay(1e308), M),
    (comp.R(1e300, 0.0, (0,)), comp.MachineConfig(t_half_pi_us=1e9))])
def test_non_finite_duration_is_a_grid_violation(instruction, machine):
    with pytest.raises(GridViolation, match="not finite"):
        compile_([instruction], machine)


def test_machine_grid_representability():
    with pytest.raises(GridViolation):
        comp.MachineConfig(t_half_pi_us=15.0000031)


def test_qubit_ceiling_is_the_largest_register_one_state_array_holds():
    assert 16 * 2**comp.MAX_QUBITS == eng._MAX_STATE_BYTES
    assert comp.MachineConfig(n_qubits=comp.MAX_QUBITS).n_qubits == 26
    with pytest.raises(ValueError, match=r"n_qubits must be >= 1 and <= 26 .*, got 27"):
        comp.MachineConfig(n_qubits=comp.MAX_QUBITS + 1)


def test_validate_detects_violations():
    ev_off = comp.Event("a0", 7, 15000, "carrier", 1.0, 0.0, (), (0,), PI / 2)
    ev_bad = comp.Event("zz", 0, 100, "carrier", 1.0, 0.0, (), (0,), PI / 2)
    a = comp.Event("a0", 0, 15000, "carrier", 1.0, 0.0, (), (0,), PI / 2)
    b = comp.Event("a0", 10000, 15000, "carrier", 1.0, 0.0, (), (0,), PI / 2)
    sched = comp.PulseSchedule((ev_off, ev_bad, a, b), (0.0, 0.0), 10, 2)
    problems = comp.validate(sched, M)
    assert any("grid" in p for p in problems)
    assert any("unknown channel" in p for p in problems)
    assert any("overlap" in p for p in problems)


def test_schedule_json_roundtrip_keys():
    sched = compile_([comp.R(PI / 2, 0.0, "all"), comp.MS(PI / 4, (0, 1))])
    data = json.loads(sched.to_json())
    assert set(data) == {"events", "frames", "grid_ns", "n_qubits"}
    assert data["grid_ns"] == 10
    assert data["events"][0]["channel"] == "g"


def test_parse_circuit_roundtrip():
    text = """
    # a conditional example
    PREPARE
    R 1.5707963267948966 0.0 all
    RZ 1.0471975511965976 0
    MS 0.7853981633974483 0,1 radial
    DELAY 50.0
    MEASURE m0
    BRANCH m0 q0=bright { R 3.141592653589793 0.0 0 ; RZ 0.5 1 }
    """
    circuit = comp.parse_circuit(text)
    kinds = [type(i).__name__ for i in circuit]
    assert kinds == ["PrepareAll", "R", "RZ", "MS", "Delay", "MeasureAll", "Branch"]
    br = circuit[-1]
    assert br.predicate == ((0, "bright"),)
    assert len(br.body) == 2
    sched = compile_(circuit)
    assert comp.validate(sched, M) == []


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        comp.parse_circuit("FOO 1 2 3")
