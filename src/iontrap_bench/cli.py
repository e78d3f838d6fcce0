"""Top-level command line interface: iontrap-bench {chain|compile|simulate|experiment|fit}."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from . import chain as chain_mod
from . import compiler as comp
from . import engine as eng
from . import experiments as exp
from .config import build_addressing, build_machine, build_noise, build_trap, load_config
from .errors import IonTrapBenchError
from .fitting import (binomial_se, fit_decay, fit_fringe, fit_gaussian, fit_linear,
                      fit_power_law)
from .results import (RunManifest, fmt, read_points, write_json, write_results, write_run,
                      write_shot_records, write_text)


@functools.cache  # built once: main may run many times in one process, at about 3 ms a build
def _build_parser():
    p = argparse.ArgumentParser(prog="iontrap-bench",
                                description="Trapped-ion pulse-level simulation bench")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("chain", help="equilibrium positions and normal modes")
    c.add_argument("--n", type=int, required=True)

    k = sub.add_parser("compile", help="compile a circuit file to a pulse schedule")
    k.add_argument("--circuit", required=True)

    s = sub.add_parser("simulate", help="run a circuit through the noisy engine")
    s.add_argument("--circuit", required=True)
    s.add_argument("--threads", type=int, default=1, help="no effect on results")

    e = sub.add_parser("experiment", help="run a characterization experiment")
    e.add_argument("kind", choices=exp.EXPERIMENT_KINDS)
    e.add_argument("--qubit-kind", choices=("ground", "optical"), default="ground")
    e.add_argument("--bus", choices=("axial", "radial"), default="axial")
    e.add_argument("--ghz-n", type=int, default=4)
    e.add_argument("--nbar", type=float, default=0.02)

    f = sub.add_parser("fit", help="fit a points.csv dataset")
    f.add_argument("--model", required=True, choices=_FIT_DISPATCH)
    f.add_argument("--data", required=True, help="CSV with x,y,yerr")
    f.add_argument("--frequency", type=float, default=1.0, help="fringe fixed frequency")
    for parser in (c, k, s, e):
        parser.add_argument("--config", action="append", default=[], metavar="PATH",
                            help="config file; may repeat, a later file overrides "
                                 "the keys it sets")
    for parser in (s, e):
        parser.add_argument("--shots", type=int, default=100)
        parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    for parser in (c, k, s, e, f):
        parser.add_argument("--out", default=None, help="output file or directory")
    return p


def cmd_chain(args):
    chain = chain_mod.equilibrium_positions(args.n, build_trap(load_config(*args.config)))
    lines = ["ion_index,position_um"]
    lines += [f"{i},{fmt(z)}" for i, z in enumerate(chain.positions)]
    lines.append("mode_index,freq_hz,direction")
    for direction, modes in (("axial", chain_mod.axial_mode_spectrum(chain)),
                             ("radial", chain_mod.radial_mode_spectrum(chain))):
        lines += [f"{i},{fmt(w / (2 * math.pi))},{direction}"
                  for i, w in enumerate(modes.frequencies)]
    write_text(args.out, "\n".join(lines) + "\n")


def _compile_file(path: str, machine) -> comp.PulseSchedule:
    with open(path, encoding="utf-8") as fh:
        return comp.compile_circuit(comp.parse_circuit(fh.read()), machine)


def cmd_compile(args):
    schedule = _compile_file(args.circuit, build_machine(load_config(*args.config)))
    write_json(args.out, schedule.to_dict())


def cmd_simulate(args):
    cfg = load_config(*args.config)
    machine = build_machine(cfg)
    shots = eng.run_schedule(_compile_file(args.circuit, machine), machine,
                             build_noise(cfg), args.shots, seed=args.seed)
    bits = eng.valid_bits(shots)
    m = len(bits)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    write_shot_records(os.path.join(out, "shots.csv"), shots)
    pops = [{"qubit": q, "p_bright": k / m, "stderr": float(binomial_se(k, m))}
            for q, k in enumerate(bits.sum(axis=0).tolist())]
    manifest = RunManifest(args.seed, cfg, inputs=(args.circuit, *args.config),
                           command="simulate")
    write_run(out, {"shots": args.shots, "valid_shots": m, "populations": pops}, manifest,
              ["shots.csv"])


def _ghz_phases(n: int) -> np.ndarray:
    """16 phases over one parity period 2 pi / n (run_ghz rejects n < 2).
    Over 2 pi, n phi is a multiple of pi for n = 8, 16, 24: no sin quadrature."""
    return np.linspace(0.0, 2.0 * math.pi / max(n, 1), 16)


def cmd_experiment(args):
    cfg = load_config(*args.config)
    machine = build_machine(cfg)
    noise = build_noise(cfg)
    unit = build_addressing(cfg)
    spec = exp.ExperimentSpec(args.kind, machine=machine, noise=noise,
                              addressing=unit, shots=args.shots, seed=args.seed)

    if args.kind == "ramsey":
        t2 = noise.t2(args.qubit_kind)
        if not math.isfinite(2.2 * t2):
            raise ValueError(f"ramsey waits span 0.1-2.2 T2 and need a finite T2, "
                             f"got {t2} s for the {args.qubit_kind} qubit")
        waits = np.linspace(0.1 * t2, 2.2 * t2, 8)
        result = exp.run_ramsey(spec, args.qubit_kind, waits)
    elif args.kind == "gradient":
        result = exp.run_gradient_scan(spec, np.linspace(-40.0, 40.0, 9))
    elif args.kind == "rb":
        result = exp.run_rb(spec, [2, 5, 10, 20, 40, 80])
    elif args.kind == "thermometry":
        result = exp.run_sideband_thermometry(spec, args.nbar)
    elif args.kind == "heating":
        result = exp.run_heating_scan(
            spec, np.linspace(0.2, 2.0, 5),
            [0.7e6, 1.05e6, 1.6e6, 2.4e6, 3.2e6], nbar0=args.nbar)
    elif args.kind == "ghz":
        result = exp.run_ghz(spec, args.ghz_n, _ghz_phases(args.ghz_n))
    elif args.kind == "gate_decay":
        result = exp.run_gate_decay(spec, [1, 3, 5, 7, 9, 11, 13], bus=args.bus)
    else:  # addressing_scan
        tones = [1.0, 2.0, 3.0, 4.0, 5.0] if unit.kind == "aod" else None
        result = exp.run_addressing_scan(spec, unit, calibration_tones_mhz=tones)

    manifest = RunManifest(args.seed, cfg, inputs=tuple(args.config),
                           command=f"experiment {args.kind}")
    write_results(args.out or ".", result.datasets, result.fits, manifest,
                  extra=result.extra)


_FIT_DISPATCH = {
    "decay_exp": lambda ds, args: fit_decay(ds, form="exp"),
    "rb": lambda ds, args: fit_decay(ds, form="power", fixed_offset=0.5),
    "gate": lambda ds, args: fit_decay(ds, form="power", fixed_offset=0.25),
    "gaussian": lambda ds, args: fit_gaussian(ds),
    "fringe": lambda ds, args: fit_fringe(ds, frequency=args.frequency),
    "power_law": lambda ds, args: fit_power_law(ds),
    "linear": lambda ds, args: fit_linear(ds),
}


def cmd_fit(args):
    fit = _FIT_DISPATCH[args.model](read_points(args.data), args)
    write_json(args.out and os.path.join(args.out, "summary.json"), {"fit": fit.as_dict()})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "chain": cmd_chain,
        "compile": cmd_compile,
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "fit": cmd_fit,
    }[args.command]
    try:
        handler(args)
    except (IonTrapBenchError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
