"""The three benchmark workloads.

Each workload class does its set-up in __init__ (config, builders and,
for sim_register, the chain solve and crosstalk), makes the inputs of job
j from (seed, j) in `inputs`, runs one job through the library's public
API in `run`, checks the outputs in `check` and returns the job's figures
(shots, gate infidelity) from `record`.  Only `run` is timed as job time;
it may call `split()` between library calls to have the host speed
probed there.  `probe` names the reference computation in probe.py whose
work is most like the workload's.  The package is imported inside
__init__ so that its import counts as set-up.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

import checks

PI = math.pi
TWO_PI = 2.0 * PI


def _job_rng(seed: int, j: int, *tag) -> np.random.Generator:
    return np.random.default_rng([seed, j, *tag])


# ---------------------------------------------------------------------------
# sim_register: the `simulate` path on a 6-ion register
# ---------------------------------------------------------------------------

SIM_CONFIG = """\
machine.n_qubits = 6
trap.f_ax_hz = 1.05e6
trap.f_rad_hz = 4.0e6
noise.eps_1q = 0.002
noise.eps_2q = 0.01
noise.spam_prep = 0.003
addressing.kind = aod
"""
SIM_SHOTS = 300
SIM_N_MAX = 3
SIM_NBAR = 0.05


@dataclass(frozen=True)
class SimJob:
    text: str
    prefix: tuple  # instructions before the first MEASURE
    branch_qubit: int
    run_seed: int


class SimRegister:
    name = "sim_register"
    probe = "interp"

    def __init__(self, seed: int, workdir: str):
        from iontrap_bench import addressing, chain, compiler, config, engine, results
        self.comp, self.eng, self.results = compiler, engine, results
        self.seed, self.workdir = seed, workdir
        cfg = config.parse_config(SIM_CONFIG)
        self.machine = config.build_machine(cfg)
        self.noise = config.build_noise(cfg)
        unit = config.build_addressing(cfg)
        ions = chain.equilibrium_positions(self.machine.n_qubits,
                                           trap=config.build_trap(cfg))
        axial = chain.axial_mode_spectrum(ions)
        chain.radial_mode_spectrum(ions)
        chain.lamb_dicke_parameters(axial)
        self.positions = ions.positions
        self.crosstalk = addressing.crosstalk_matrix(unit, ions.positions)
        self.phonon = engine.PhononMode(float(axial.frequencies[0]),
                                        n_max=SIM_N_MAX, nbar=SIM_NBAR)

    def inputs(self, j: int) -> SimJob:
        c, n = self.comp, self.machine.n_qubits
        rng = _job_rng(self.seed, j)
        # MS near pi/2 is close to a collective flip, so per-qubit populations
        # stay spread over [0, 1] and the population check is sensitive.
        prefix = [c.PrepareAll(),
                  c.R(rng.uniform(0.2, 0.8) * PI / 2, rng.uniform(-PI, PI), "all"),
                  c.MS(PI / 2 + rng.uniform(-0.15, 0.15), "all")]
        prefix += [c.RZ(rng.uniform(-PI, PI), (q,)) for q in range(n)]
        prefix += [c.R(rng.uniform(0.0, PI), rng.uniform(-PI, PI), (q,))
                   for q in range(n)]
        delay_us = round(float(rng.uniform(5.0, 50.0)), 2)
        b = int(rng.integers(n))
        lines = ["PREPARE",
                 f"R {prefix[1].theta!r} {prefix[1].phi!r} all",
                 f"MS {prefix[2].chi!r} all"]
        lines += [f"RZ {ins.theta!r} {ins.targets[0]}" for ins in prefix[3:3 + n]]
        lines += [f"R {ins.theta!r} {ins.phi!r} {ins.targets[0]}"
                  for ins in prefix[3 + n:]]
        lines += [f"DELAY {delay_us!r}", "MEASURE m0",
                  f"BRANCH m0 q{b}=bright {{ R {PI!r} 0.0 {b} }}", "MEASURE m1"]
        return SimJob("\n".join(lines) + "\n", tuple(prefix), b,
                      int(rng.integers(2**31)))

    def record(self, job: SimJob, out) -> dict:
        return {"shots": SIM_SHOTS}

    def run(self, job: SimJob, j: int, split):
        circuit = self.comp.parse_circuit(job.text)
        schedule = self.comp.compile_circuit(circuit, self.machine)
        records = self.eng.run_schedule(
            schedule, self.machine, self.noise, SIM_SHOTS, seed=job.run_seed,
            crosstalk=self.crosstalk, positions_um=self.positions,
            phonon=self.phonon, threads=1)
        path = os.path.join(self.workdir, f"shots-{j}.csv")
        self.results.write_shot_records(path, records)
        return records, path

    def check(self, job: SimJob, out) -> list:
        records, path = out
        n = self.machine.n_qubits
        problems = checks.check_shot_file(path, records, n)
        os.remove(path)
        psi = self.eng.circuit_statevector(job.prefix, n)
        probs = np.abs(psi) ** 2
        idx = np.arange(2**n)
        bright = [float(probs[(idx >> q) & 1 == 1].sum()) for q in range(n)]
        return problems + checks.check_register_populations(
            records, bright, job.branch_qubit)


# ---------------------------------------------------------------------------
# ms_gate: pulse-level MS gate design on the criterion-5 trap
# ---------------------------------------------------------------------------

MS_CONFIG = """\
trap.f_ax_hz = 1.05e6
engine.fock_cutoff = 10
"""
MS_ETA = 0.095
MS_FOCK_STARTS = (0, 1, 2)
# The gate closes onto MS(pi/4) when its duration 2 pi/delta is a whole
# number of half trap periods: delta = 2 nu / k.  k = 70..105 spans
# delta = 30..20 kHz.  Jobs walk out from the centre k in symmetric pairs,
# the first pair adjacent to it, so the median job of a run sits at the
# centre whatever the number of jobs; the seed orders each pair and the
# pairs after the first.
MS_K_CENTRE = 88
MS_K_HALF_RANGE = 17


class MsGate:
    name = "ms_gate"
    probe = "eigh"

    def __init__(self, seed: int, workdir: str):
        from iontrap_bench import config, engine
        self.eng = engine
        cfg = config.parse_config(MS_CONFIG)
        self.nu = TWO_PI * cfg["trap.f_ax_hz"]
        self.n_max = cfg["engine.fock_cutoff"]
        ideal = engine.RegisterState(2)
        engine.apply_ms_ideal(ideal, [0, 1], PI / 4)
        self.target = ideal.psi[0].copy()
        rng = np.random.default_rng([seed])
        ks = [MS_K_CENTRE]
        for a in [1] + list(rng.permutation(np.arange(2, MS_K_HALF_RANGE + 1))):
            pair = [MS_K_CENTRE - int(a), MS_K_CENTRE + int(a)]
            ks += pair if rng.random() < 0.5 else pair[::-1]
        self.ks = ks

    def inputs(self, j: int) -> float:
        """Detuning delta in rad/s."""
        return 2.0 * self.nu / self.ks[j % len(self.ks)]

    def record(self, delta: float, out) -> dict:
        infid = [f for fock, f, _ in self.gate_figures(out[1]) if fock == 0]
        return {"delta_hz": delta / TWO_PI, "omega_rabi": out[0],
                "infidelity_fock0": infid[0]}

    def run(self, delta: float, j: int, split):
        eng = self.eng
        # calibrate_ms_rabi memoises in a module dict; every job calibrates cold.
        getattr(eng, "_CALIBRATION_CACHE", {}).clear()
        t_gate = TWO_PI / delta
        omega = eng.calibrate_ms_rabi(MS_ETA, delta, t_gate, self.nu,
                                      n_max=self.n_max)
        split()
        params = eng.BichromaticParams(omega_rabi=omega, nu=self.nu, delta=delta,
                                       etas=(MS_ETA, MS_ETA), t=t_gate)
        gates = []
        for fock in MS_FOCK_STARTS:
            st = eng.RegisterState(2, phonon=eng.PhononMode(self.nu, n_max=self.n_max),
                                   fock_index=fock)
            eng.apply_ms_bichromatic(st, params)
            gates.append((fock, st))
            if fock != MS_FOCK_STARTS[-1]:
                split()
        return omega, gates

    def gate_figures(self, gates) -> list:
        """(fock, 1-F against MS(pi/4), population back in the start Fock state)."""
        out = []
        for fock, st in gates:
            rho = st.spin_density()
            fid = float(np.real(self.target.conj() @ rho @ self.target))
            back = float(np.sum(np.abs(st.psi[fock]) ** 2))
            out.append((fock, 1.0 - fid, back))
        return out

    def check(self, delta: float, out) -> list:
        return checks.check_ms_gate(self.gate_figures(out[1]))


# ---------------------------------------------------------------------------
# characterization: one campaign pass over the eight experiment kinds
# ---------------------------------------------------------------------------

CHAR_CONFIG = """\
machine.n_qubits = 1
noise.collision_rate = 0.0
addressing.kind = aod
"""
# Shots per kind balance the hand-batched and classical paths (rb,
# gate_decay, heating) against the run_schedule-backed ones (ramsey,
# gradient) in host time: over 82 passes on a 2-vCPU x86-64 host, the
# medians were 1.21 s and 1.01 s.  `run` times the two groups as separate
# segments, so every run records the ratio.
CHAR_SHOTS = {"rb": 30000, "ramsey": 150, "gradient": 100,
              "thermometry": 10000, "heating": 6000, "ghz": 1000,
              "gate_decay": 5000, "addressing_scan": 2000}
RB_EPS = 1.4e-3
RB_LENGTHS = (2, 10, 25, 50, 100)
RAMSEY_WAITS_S = tuple(np.linspace(0.002, 0.040, 8))
GRADIENT_POSITIONS_UM = tuple(np.linspace(-40.0, 40.0, 9))
THERMO_NBAR = 0.1
HEATING_WAITS_S = tuple(np.linspace(0.2, 2.0, 5))
HEATING_FREQS_HZ = (0.7e6, 1.05e6, 1.6e6, 2.4e6, 3.2e6)
GHZ_N = 4
GHZ_PHASES = tuple(np.linspace(0.0, TWO_PI, 16, endpoint=False))
GATE_EPS_2Q = 0.01
GATE_COUNTS = (1, 3, 5, 7, 9, 11, 13)
GATE_PHASES = 8  # run_gate_decay default analysis phases
ADDR_CHAIN_N = 10
ADDR_CHAIN_F_AX_HZ = 450e3
ADDR_TONES_MHZ = (1.0, 2.0, 3.0, 4.0, 5.0)
ADDR_POINTS = 41


class Characterization:
    name = "characterization"
    probe = "mixed"

    def __init__(self, seed: int, workdir: str):
        from iontrap_bench import chain, config, engine, experiments, results
        self.exp, self.chain, self.results = experiments, chain, results
        self.seed, self.workdir = seed, workdir
        self.cfg = config.parse_config(CHAR_CONFIG)
        self.machine = config.build_machine(self.cfg)
        self.noise = config.build_noise(self.cfg)
        self.unit = config.build_addressing(self.cfg)
        quiet = engine.NoiseConfig(t2_optical=math.inf, t2_ground=math.inf,
                                   t1=math.inf, collision_rate=0.0)
        self.noise_of = dict.fromkeys(experiments.EXPERIMENT_KINDS, quiet)
        self.noise_of.update(
            rb=engine.NoiseConfig(eps_1q=RB_EPS), ramsey=self.noise,
            gradient=replace(quiet, gradient_compensation=False),
            gate_decay=engine.NoiseConfig(eps_2q=GATE_EPS_2Q))
        self.trap_addr = chain.TrapConfig(omega_ax=TWO_PI * ADDR_CHAIN_F_AX_HZ)

    def inputs(self, j: int) -> dict:
        """Experiment seed per kind."""
        rng = _job_rng(self.seed, j)
        return {k: int(s) for k, s in zip(self.exp.EXPERIMENT_KINDS,
                                          rng.integers(2**31, size=8))}

    def record(self, seeds: dict, out) -> dict:
        """Simulated shots of one pass, from the specs."""
        s = CHAR_SHOTS
        return {"shots": s["rb"] // 20 * 20 * len(RB_LENGTHS)
                + s["ramsey"] * len(RAMSEY_WAITS_S)
                + s["gradient"] * 2 * len(GRADIENT_POSITIONS_UM)
                + s["thermometry"]
                + s["heating"] * len(HEATING_WAITS_S) * len(HEATING_FREQS_HZ)
                + s["ghz"] * (1 + len(GHZ_PHASES))
                + s["gate_decay"] * len(GATE_COUNTS) * (1 + GATE_PHASES)
                + s["addressing_scan"] * ADDR_POINTS * (1 + len(ADDR_TONES_MHZ))}

    def run(self, seeds: dict, j: int, split) -> dict:
        exp = self.exp

        def sp(kind):
            return exp.ExperimentSpec(kind, machine=self.machine,
                                      noise=self.noise_of[kind], addressing=self.unit,
                                      shots=CHAR_SHOTS[kind], seed=seeds[kind])

        res = {}
        # Segments: the run_schedule-backed kinds, then the hand-batched and
        # classical ones, then the rest.
        res["ramsey"] = exp.run_ramsey(sp("ramsey"), "ground", RAMSEY_WAITS_S)
        res["gradient"] = exp.run_gradient_scan(sp("gradient"), GRADIENT_POSITIONS_UM)
        split()
        res["rb"] = exp.run_rb(sp("rb"), RB_LENGTHS)
        res["heating"] = exp.run_heating_scan(sp("heating"), HEATING_WAITS_S,
                                              HEATING_FREQS_HZ)
        res["gate_decay"] = exp.run_gate_decay(sp("gate_decay"), GATE_COUNTS)
        split()
        res["thermometry"] = exp.run_sideband_thermometry(sp("thermometry"), THERMO_NBAR)
        res["ghz"] = exp.run_ghz(sp("ghz"), GHZ_N, GHZ_PHASES)
        ions = self.chain.equilibrium_positions(ADDR_CHAIN_N, trap=self.trap_addr)
        res["addressing_scan"] = exp.run_addressing_scan(
            sp("addressing_scan"), self.unit, n_points=ADDR_POINTS,
            chain_positions_um=ions.positions, calibration_tones_mhz=ADDR_TONES_MHZ)

        written = {}
        for kind, r in res.items():
            out = os.path.join(self.workdir, f"job-{j}", kind)
            extra = {k: v for k, v in r.extra.items()
                     if isinstance(v, (int, float, bool, str, list))}
            manifest = self.results.RunManifest(seeds[kind], self.cfg)
            written[kind] = (out, self.results.write_results(
                out, r.datasets, r.fits, manifest, extra=extra))
        return res, written

    def check(self, seeds: dict, out) -> list:
        res, written = out
        x = {k: r.extra for k, r in res.items()}
        c = checks.check_recovered
        problems = []
        problems += c("rb", "gate error", 1.0 - x["rb"]["gate_fidelity"],
                      x["rb"]["gate_fidelity_err"], RB_EPS / 2.0)
        problems += c("ramsey", "T2", x["ramsey"]["t2_s"], x["ramsey"]["t2_err_s"],
                      self.noise.t2_ground)
        problems += c("gradient", "slope", x["gradient"]["slope_hz_per_um"],
                      x["gradient"]["slope_err"],
                      self.noise_of["gradient"].gradient_for("ground"))
        th = x["thermometry"]
        if th["flagged"]:
            problems.append("thermometry: estimator flagged")
        problems += c("thermometry", "nbar", th["nbar"], th["nbar_err"], THERMO_NBAR)
        problems += c("heating", "alpha", x["heating"]["alpha"],
                      x["heating"]["alpha_err"], self.noise_of["heating"].heating_alpha)
        if not x["ghz"]["witness"]:
            problems.append("ghz: witness F > 0.5 not met")
        problems += c("ghz", "F", x["ghz"]["F"], x["ghz"]["F_err"], 1.0)
        problems += c("gate_decay", "per-gate fidelity",
                      x["gate_decay"]["per_gate_fidelity"],
                      x["gate_decay"]["per_gate_fidelity_err"],
                      1.0 - 0.75 * GATE_EPS_2Q)
        a = x["addressing_scan"]
        problems += c("addressing_scan", "waist", a["w0_um"], a["w0_err_um"],
                      self.unit.w0_um)
        problems += c("addressing_scan", "AOD slope", a["slope_um_per_mhz"],
                      a["slope_err"], self.unit.slope_um_per_mhz)
        for kind, (out_dir, files) in written.items():
            problems += checks.check_written_results(out_dir, res[kind].fits, files)
        shutil.rmtree(os.path.dirname(next(iter(written.values()))[0]))
        return problems


WORKLOADS = {w.name: w for w in (SimRegister, MsGate, Characterization)}
