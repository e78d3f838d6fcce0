"""Span tracing around the public functions of each iontrap_bench layer.

The tracer patches every listed public function at each place it is looked
up: the defining module, every package module that imported the name, and
the class for methods.  Each call records one span (name, start, end,
parent, thread, error).  Spans stay in memory until `write` is called.

Layers are the package modules; `cli` is a thin dispatcher and is not a
layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

LAYERS = {
    "chain": ("equilibrium_positions", "axial_mode_spectrum",
              "radial_mode_spectrum", "lamb_dicke_parameters"),
    "compiler": ("parse_circuit", "compile_circuit", "validate"),
    "engine": ("run_schedule", "apply_rotation", "apply_rz", "apply_ms_ideal",
               "apply_dephasing", "apply_t1_decay", "apply_depolarizing",
               "evolve_phonon_heating", "project_bits", "measure",
               "DetectionModel.sample_counts", "apply_ms_bichromatic",
               "calibrate_ms_rabi"),
    "addressing": ("crosstalk_matrix", "relative_rabi"),
    "experiments": ("run_ramsey", "run_gradient_scan", "run_rb",
                    "run_sideband_thermometry", "run_heating_scan", "run_ghz",
                    "run_gate_decay", "run_addressing_scan"),
    "fitting": ("fit_decay", "fit_gaussian", "fit_fringe", "fit_linear",
                "fit_power_law", "binomial_se"),
    "config": ("parse_config", "build_machine", "build_noise",
               "build_addressing"),
    "results": ("write_results", "write_shot_records"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

PACKAGE = "iontrap_bench"


def per_layer_metric_names() -> list:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.errors", "count", "lower"))
    out.append(("engine.valid_shot_frac", "frac", "higher"))
    out.append(("engine.calib_evals_per_calib", "evals/calib", "lower"))
    out.append(("trace_overhead_frac", "frac", "lower"))
    return out


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self):
        self.spans = []  # (span_id, name_index, parent_id, thread, t0, t1, error)
        self.valid_shots = 0
        self.shots = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)
        self._shot_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, index: int):
        spans, stack_of, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        count_shots = SPAN_NAMES[index] == "engine.run_schedule"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            error = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count_shots:
                    valid = sum(1 for r in result if r.valid)
                    with self._shot_lock:
                        self.shots += len(result)
                        self.valid_shots += valid
                return result
            except BaseException:
                error = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, index, parent, threading.get_ident(), t0, t1, error))

        return wrapper

    def install(self):
        """Patch every listed function wherever the package looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        modules += [m for k, m in sorted(sys.modules.items())
                    if k.startswith(PACKAGE + ".") and m not in modules]
        for index, name in enumerate(SPAN_NAMES):
            layer, attr = name.split(".", 1)
            home = sys.modules[f"{PACKAGE}.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, index))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, index)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(SPAN_NAMES),
                       "fields": ["id", "name", "parent", "thread", "start_s",
                                  "end_s", "error"],
                       "spans": self.spans}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, shots: int, valid_shots: int) -> dict:
    """Per-function call counts and self time, per-layer totals and ratios.

    Self time is a span's duration minus the part its children cover.
    """
    children = {}
    for sid, _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    calls = [0] * len(SPAN_NAMES)
    self_s = [0.0] * len(SPAN_NAMES)
    errors = dict.fromkeys(LAYERS, 0)
    name_of = {}
    parent_of = {}
    for sid, index, parent, _, t0, t1, error in spans:
        name_of[sid] = index
        parent_of[sid] = parent
        calls[index] += 1
        self_s[index] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        if error:
            errors[SPAN_NAMES[index].split(".", 1)[0]] += 1

    calib = SPAN_NAMES.index("engine.calibrate_ms_rabi")
    gate = SPAN_NAMES.index("engine.apply_ms_bichromatic")
    evals_in_calib = 0
    for sid, index in name_of.items():
        if index != gate:
            continue
        p = parent_of[sid]
        while p >= 0 and name_of.get(p) != calib:
            p = parent_of.get(p, -1)
        evals_in_calib += p >= 0

    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for index, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = calls[index]
        out[f"{name}.self_s"] = self_s[index]
        layer_self[name.split(".", 1)[0]] += self_s[index]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.errors"] = errors[layer]
    out["engine.valid_shot_frac"] = valid_shots / shots if shots else 0.0
    out["engine.calib_evals_per_calib"] = (evals_in_calib / calls[calib]
                                           if calls[calib] else 0.0)
    return out
