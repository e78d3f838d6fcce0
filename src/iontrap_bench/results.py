"""Deterministic result serialization: points.csv, summary.json, manifest.json.

Each <name>.csv, points.csv among them, has the header x,y,yerr.  Outputs
are byte-identical across runs with equal inputs and seed: LF line
endings, '.' decimal separator, 17-significant-digit floats, sorted JSON
keys, and no wall-clock timestamps in the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import config_digest
from .fitting import Dataset


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass(frozen=True)
class RunManifest:
    seed: int
    config: dict
    inputs: tuple = ()
    outputs: tuple = ()
    command: str = ""  # the CLI command that wrote the run, e.g. "experiment rb"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "config_digest": config_digest(self.config),
            "tool_version": __version__,
            "inputs": sorted(self.inputs),
            "outputs": sorted(self.outputs),
        }


def write_points_csv(path: str, dataset: Dataset):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,yerr\n")
        for row in zip(dataset.x, dataset.y, dataset.yerr):
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_results(out_dir: str, datasets: dict, fits: dict,
                  manifest: RunManifest, extra: dict = None) -> list:
    """Write all artifacts; returns the list of files written.

    datasets: name -> Dataset, written as <name>.csv.  fits: name ->
    FitResult, serialized into summary.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, ds in datasets.items():
        fname = f"{name}.csv"
        path = os.path.join(out_dir, fname)
        write_points_csv(path, ds)
        written.append(fname)
    summary = {
        "fits": {name: fr.as_dict() for name, fr in fits.items()},
        "provenance": {
            "seed": manifest.seed,
            "config_digest": config_digest(manifest.config),
        },
    }
    if extra:
        summary.update(extra)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    written.append("summary.json")
    manifest = replace(manifest, outputs=tuple(written))
    write_json(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
    written.append("manifest.json")
    return written


def write_shot_records(path: str, shots):
    """CSV export of run_schedule's Shots: shot,bits,counts_q0..counts_qN,valid,
    one row per shot.  The bits column is a byte view of the bits array;
    every field goes, in row order, into one flat list that the row
    template, repeated once per shot, formats in one call and one write."""
    size, n = shots.bits.shape
    if not size:
        raise ValueError("no shots to write")
    width = n + 3
    fields = [None] * (size * width)
    fields[0::width] = range(size)
    bits = np.ascontiguousarray(shots.bits + 48, dtype=np.uint8).view(f"S{n}").ravel()
    fields[1::width] = bits.astype(f"U{n}").tolist()
    for q, col in enumerate(shots.counts.T.tolist()):
        fields[2 + q::width] = col
    fields[width - 1::width] = shots.valid.astype(np.uint8).tolist()
    header = "shot,bits," + ",".join(f"counts_q{q}" for q in range(n)) + ",valid\n"
    row = "{},{}," + ",".join(["{}"] * n) + ",{}\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + (row * size).format(*fields))
