"""Circuit instructions, machine description and the circuit-to-pulse compiler.

The compiler translates a circuit, a sequence of instructions, into a timed,
channel-resolved schedule, checking each instruction as it goes.
Scheduling is strictly sequential; per-qubit phase frames implement
virtual Z rotations; branches reserve a time slot for their conditional
continuation, whose virtual Z rotations move no frame outside it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import GridViolation, UnknownLabel, UnsupportedTarget

GLOBAL_CHANNEL = "g"
_MAX_BRANCH_DEPTH = 1  # branch bodies may not branch again
# Largest angle (rad), delay or machine duration (us): far past any run
# (1e9 us is over 1000 s), yet a duration in ns stays far from float overflow.
_MAX_OPERAND = 1e9
MAX_QUBITS = 26  # the most whose one-shot state, 16 * 2**n bytes, fits engine's 1 GiB cap


def addressed_channel(q: int) -> str:
    return f"a{q}"


# ---------------------------------------------------------------------------
# Circuit IR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrepareAll:
    pass


@dataclass(frozen=True)
class R:
    theta: float
    phi: float
    targets: tuple  # tuple of ints, or "all"


@dataclass(frozen=True)
class RZ:
    theta: float
    targets: tuple


@dataclass(frozen=True)
class MS:
    chi: float
    targets: tuple
    bus: str = "axial"  # axial | radial


@dataclass(frozen=True)
class Delay:
    duration_us: float


@dataclass(frozen=True)
class MeasureAll:
    label: str


@dataclass(frozen=True)
class Branch:
    label: str  # label of an earlier MeasureAll
    predicate: tuple  # ((qubit, "bright"|"dark"), ...) conjunction
    body: tuple  # sub-circuit instructions


# ---------------------------------------------------------------------------
# Machine configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MachineConfig:
    n_qubits: int = 2
    t_half_pi_us: float = 15.0
    t_ms_us: float = 200.0
    timing_grid_ns: int = 10
    branch_latency_us: float = 5.0
    t_measure_us: float = 300.0
    rz_mode: str = "virtual"  # virtual | ac_stark

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be >= 1 and <= {MAX_QUBITS} (the memory cap "
                             f"on a state), got {self.n_qubits}")
        if self.timing_grid_ns <= 0:
            raise ValueError("timing grid must be positive")
        if self.rz_mode not in ("virtual", "ac_stark"):
            raise ValueError("rz_mode must be 'virtual' or 'ac_stark'")
        for name in ("t_half_pi_us", "t_ms_us", "branch_latency_us", "t_measure_us"):
            us = getattr(self, name)
            if not 0 < us <= _MAX_OPERAND:
                raise ValueError(f"{name} must lie in (0, {_MAX_OPERAND:g}] us, got {us}")
            ns = us * 1000.0
            if abs(ns / self.timing_grid_ns - round(ns / self.timing_grid_ns)) > 1e-9:
                raise GridViolation(f"duration {us} us not representable on {self.timing_grid_ns} ns grid")

    @property
    def channels(self) -> tuple:
        return (GLOBAL_CHANNEL,) + tuple(addressed_channel(q) for q in range(self.n_qubits))

    def grid_ns(self, value_ns: float) -> int:
        """Round a duration to the timing grid."""
        if not math.isfinite(value_ns):
            raise GridViolation(f"duration {value_ns} ns is not finite")
        return int(round(value_ns / self.timing_grid_ns)) * self.timing_grid_ns


# ---------------------------------------------------------------------------
# Pulse schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """One pulse, frame advance, readout or branch point.  The fields from
    `targets` on are None where an event's kind does not set them."""

    channel: str
    start: int  # ns
    duration: int  # ns
    kind: str
    amplitude: float = 0.0  # dimensionless Rabi scale
    phase: float = 0.0  # rad
    tones: tuple = ()  # frequency offsets, rad/s; (+1.0, -1.0) = symbolic sidebands
    targets: tuple = None
    angle: float = None  # exact rotation/gate angle carried for the dynamics engine
    bus: str = None
    label: str = None
    predicate: tuple = None  # None: the branch fires on every shot
    body: tuple = None  # compiled continuation events (start-relative), branch_point only
    frames: tuple = None  # per-qubit virtual frames a bichromatic gate runs in, if any is nonzero

    @property
    def end(self) -> int:
        return self.start + self.duration

    def to_dict(self) -> dict:
        """Every field that is set, the body's events as dicts."""
        d = {name: value for name, value in vars(self).items() if value is not None}
        if self.body is not None:
            d["body"] = [e.to_dict() for e in self.body]
        return d


@dataclass(frozen=True)
class PulseSchedule:
    events: tuple
    frames: tuple  # per-qubit accumulated virtual phase at end of schedule
    grid_ns: int
    n_qubits: int

    @property
    def duration_ns(self) -> int:
        return max((e.end for e in self.events), default=0)

    def to_dict(self) -> dict:
        return {"events": [e.to_dict() for e in self.events], "frames": list(self.frames),
                "grid_ns": self.grid_ns, "n_qubits": self.n_qubits}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def expand_targets(targets, n):
    """Target qubits of an instruction on an n-qubit register ("all" is
    every qubit); raises UnsupportedTarget for a qubit out of range and
    ValueError for a qubit named twice."""
    if targets == "all":
        return tuple(range(n))
    for i, t in enumerate(targets):
        if not 0 <= t < n:
            raise UnsupportedTarget(f"target {t} out of range")
        if t in targets[:i]:
            raise ValueError(f"target {t} repeated in {tuple(targets)}")
    return tuple(targets)


def _rotation_event(machine, channel, start_ns, theta, phase, targets, kind="carrier"):
    """Carrier/ac_stark pulse.  Duration is grid-rounded; the amplitude is
    adjusted so duration * amplitude encodes the exact angle."""
    nominal_ns = abs(theta) / (math.pi / 2) * machine.t_half_pi_us * 1000.0
    dur = machine.grid_ns(nominal_ns)
    if dur == 0:
        dur = machine.timing_grid_ns
    amp = nominal_ns / dur
    return Event(
        channel=channel, start=start_ns, duration=dur, kind=kind,
        amplitude=amp, phase=phase, targets=targets, angle=theta,
    )


class _Compiler:
    def __init__(self, machine: MachineConfig, frames=None, depth: int = 0):
        self.m = machine
        self.frames = [0.0] * machine.n_qubits if frames is None else list(frames)
        self.depth = depth  # branch bodies enclosing this walk
        self.cursor = 0
        self.events = []
        self.measure_ends = {}

    def emit(self, ev: Event):
        self.events.append(ev)
        self.cursor = max(self.cursor, ev.end)

    def compile_instruction(self, ins):
        m = self.m
        if isinstance(ins, PrepareAll):
            return  # state preparation is implicit at schedule start
        if isinstance(ins, R):
            targets = expand_targets(ins.targets, m.n_qubits)
            if ins.theta == 0.0:
                return
            if len(targets) == m.n_qubits:
                # All frames must agree for a single global pulse.
                f0 = self.frames[0]
                if all(abs(f - f0) < 1e-15 for f in self.frames):
                    self.emit(_rotation_event(m, GLOBAL_CHANNEL, self.cursor,
                                              ins.theta, ins.phi - f0, targets))
                    return
            for q in targets:
                self.emit(_rotation_event(m, addressed_channel(q), self.cursor,
                                          ins.theta, ins.phi - self.frames[q], (q,)))
            return
        if isinstance(ins, RZ):
            targets = expand_targets(ins.targets, m.n_qubits)
            if m.rz_mode == "virtual":
                for q in targets:
                    self.frames[q] += ins.theta
                    self.events.append(Event(
                        channel=addressed_channel(q), start=self.cursor, duration=0,
                        kind="frame_advance", targets=(q,), angle=ins.theta,
                    ))
                return
            for q in targets:
                self.emit(_rotation_event(m, addressed_channel(q), self.cursor,
                                          ins.theta, 0.0, (q,), kind="ac_stark"))
            return
        if isinstance(ins, MS):
            targets = expand_targets(ins.targets, m.n_qubits)
            if len(targets) < 2:
                raise ValueError("MS needs >= 2 targets")
            if ins.bus not in ("axial", "radial"):
                raise ValueError("MS bus must be axial or radial")
            dur = m.grid_ns(m.t_ms_us * 1000.0)
            # Tones are symbolic sideband offsets +-(nu + delta); the dynamics
            # engine resolves them against its calibration.  MS does not
            # commute with Z, so the gate carries the frames it runs in.
            self.emit(Event(
                channel=GLOBAL_CHANNEL, start=self.cursor, duration=dur,
                kind="bichromatic", amplitude=1.0, tones=(+1.0, -1.0),
                targets=targets, angle=ins.chi, bus=ins.bus,
                frames=tuple(self.frames) if any(self.frames) else None,
            ))
            return
        if isinstance(ins, Delay):
            if ins.duration_us < 0:
                raise ValueError("delay must be non-negative")
            self.cursor += m.grid_ns(ins.duration_us * 1000.0)
            return
        if isinstance(ins, MeasureAll):
            dur = m.grid_ns(m.t_measure_us * 1000.0)
            ev = Event(channel=GLOBAL_CHANNEL, start=self.cursor, duration=dur,
                       kind="measure", targets=tuple(range(m.n_qubits)), label=ins.label)
            self.emit(ev)
            self.measure_ends[ins.label] = ev.end
            return
        if isinstance(ins, Branch):
            if ins.label not in self.measure_ends:
                raise UnknownLabel(f"branch references unknown label {ins.label!r}")
            if self.depth >= _MAX_BRANCH_DEPTH:
                raise ValueError(f"branches nest deeper than {_MAX_BRANCH_DEPTH}")
            for q, want in ins.predicate:
                if not 0 <= q < m.n_qubits or want not in ("bright", "dark"):
                    raise ValueError(f"bad branch predicate q{q}={want}")
            latency = m.grid_ns(m.branch_latency_us * 1000.0)
            start = max(self.cursor, self.measure_ends[ins.label] + latency)
            # The body compiles in a copy of the frames: its virtual RZs act
            # only on the shots that fire, as real Z rotations at its end.
            sub = _Compiler(m, self.frames, self.depth + 1)
            for sub_ins in ins.body:
                sub.compile_instruction(sub_ins)
            self.events.append(Event(
                channel=GLOBAL_CHANNEL, start=start, duration=0, kind="branch_point",
                label=ins.label, predicate=tuple(ins.predicate) or None,
                body=tuple(sub.events),
            ))
            # Reserve the slot whether or not the branch fires.
            self.cursor = start + sub.cursor
            return
        raise TypeError(f"unknown instruction {ins!r}")


def compile_circuit(instructions, machine: MachineConfig) -> PulseSchedule:
    """Translate a sequence of instructions into a validated pulse schedule,
    checking each one's targets, MS bus, and branch label, predicate and depth."""
    c = _Compiler(machine)
    for ins in instructions:
        c.compile_instruction(ins)
    schedule = PulseSchedule(tuple(c.events), tuple(c.frames),
                             machine.timing_grid_ns, machine.n_qubits)
    violations = validate(schedule, machine)
    if violations:
        raise GridViolation("; ".join(violations))
    return schedule


def validate(schedule: PulseSchedule, machine: MachineConfig) -> list:
    """Return all violations (grid alignment, channel overlap, branch latency)."""
    out = []
    grid = machine.timing_grid_ns
    by_channel = {}
    measure_ends = {}
    for i, e in enumerate(schedule.events):
        if e.start % grid or e.duration % grid:
            out.append(f"event {i} ({e.kind}) off the {grid} ns grid")
        if e.channel not in machine.channels:
            out.append(f"event {i} uses unknown channel {e.channel!r}")
        if e.duration > 0:
            by_channel.setdefault(e.channel, []).append((e.start, e.end, i))
        if e.kind == "measure":
            measure_ends[e.label] = e.end
    for ch, spans in by_channel.items():
        spans.sort()
        for (s1, e1, i1), (s2, e2, i2) in zip(spans, spans[1:]):
            if s2 < e1:
                out.append(f"events {i1} and {i2} overlap on channel {ch}")
    latency = machine.grid_ns(machine.branch_latency_us * 1000.0)
    for i, e in enumerate(schedule.events):
        if e.kind == "branch_point":
            if e.label not in measure_ends:
                out.append(f"branch event {i} references unknown label {e.label!r}")
            elif e.start < measure_ends[e.label] + latency:
                out.append(f"branch event {i} starts before the {latency} ns branch latency")
    return out


def predicate_matches(predicate, outcome_bits):
    """Per-qubit bright/dark conjunction, per shot if bits have a shot axis;
    a None predicate matches every shot."""
    bits = np.asarray(outcome_bits)
    ok = np.ones(bits.shape[:-1], dtype=bool)
    for q, want in predicate or ():
        ok &= bits[..., q] == (1 if want == "bright" else 0)
    return ok


# ---------------------------------------------------------------------------
# Circuit text format
# ---------------------------------------------------------------------------
#
#   PREPARE
#   R 1.5707963 0.0 all
#   RZ 1.0471976 0
#   MS 0.7853982 0,1 axial
#   MEASURE m0
#   BRANCH m0 q0=bright { R 3.1415927 0.0 0 }

_BRANCH_RE = re.compile(r"^BRANCH\s+(\S+)\s+(.*?)\s*\{(.*)\}\s*$")
_PREDICATE_RE = re.compile(r"^q?(\d+)=(bright|dark)$")
_OPERANDS = {"PREPARE": 0, "R": 3, "RZ": 2, "MS": 2, "DELAY": 1, "MEASURE": 1}


def _number(tok: str) -> float:
    if not abs(value := float(tok)) <= _MAX_OPERAND:
        raise ValueError(f"operand {tok!r} is not a finite number within +-{_MAX_OPERAND:g}")
    return value


def _parse_targets(tok: str):
    if tok == "all":
        return "all"
    return tuple(int(t) for t in tok.split(","))


def _parse_line(line: str):
    m = _BRANCH_RE.match(line)
    if m:
        label, preds, body = m.groups()
        predicate = [_PREDICATE_RE.match(p) for p in preds.split()]
        if not all(predicate):
            raise ValueError(f"bad BRANCH predicate in {preds!r}, expected q<i>=bright|dark")
        return Branch(label, tuple((int(p[1]), p[2]) for p in predicate),
                      tuple(_parse_line(s.strip()) for s in body.split(";") if s.strip()))
    parts = line.split()
    op = parts[0].upper()
    if op not in _OPERANDS:
        raise ValueError(f"unknown instruction line: {line!r}")
    # MS alone takes an optional last operand, its bus.
    if not _OPERANDS[op] < len(parts) <= _OPERANDS[op] + 1 + (op == "MS"):
        raise ValueError(f"{op} takes {_OPERANDS[op]} operands: {line!r}")
    if op == "PREPARE":
        return PrepareAll()
    if op == "R":
        return R(_number(parts[1]), _number(parts[2]), _parse_targets(parts[3]))
    if op == "RZ":
        return RZ(_number(parts[1]), _parse_targets(parts[2]))
    if op == "MS":
        bus = parts[3] if len(parts) > 3 else "axial"
        return MS(_number(parts[1]), _parse_targets(parts[2]), bus)
    if op == "DELAY":
        return Delay(_number(parts[1]))
    return MeasureAll(parts[1])


def parse_circuit(text: str) -> tuple:
    """Parse the line-oriented circuit format into a tuple of instructions;
    errors name the 1-based line."""
    instructions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                instructions.append(_parse_line(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return tuple(instructions)
