"""Every file and stdout form the CLI writes, and the points.csv reader.

Each <name>.csv, points.csv among them, has the header x,y,yerr.  Outputs
are byte-identical across runs with equal inputs and seed: LF line
endings, '.' decimal separator, 17-significant-digit floats (`fmt`),
sorted JSON keys with indent 1 and a final newline (`write_json`), and no
wall-clock timestamps in the manifest.  A run directory ends in
summary.json, whose provenance block names the seed and config digest,
and manifest.json, which names every file of the run (`write_run`).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import config_digest
from .fitting import Dataset


def fmt(v: float) -> str:
    return format(float(v), ".17g")


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


def write_text(path: str, text: str):
    """Write text to path, making its directory, or to stdout when there is no path."""
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_json(path: str, obj: dict):
    write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def write_points_csv(path: str, dataset: Dataset):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,yerr\n")
        for row in zip(dataset.x, dataset.y, dataset.yerr):
            fh.write(",".join(map(fmt, row)) + "\n")


def read_points(path: str) -> Dataset:
    """x, y, yerr of a points CSV: a header and rows of finite numbers."""
    with open(path, encoding="utf-8") as fh:
        lines = [(i, line) for i, line in enumerate(fh.read().splitlines(), 1)
                 if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: no data rows")
    width = lines[0][1].count(",") + 1
    for i, line in lines[1:]:
        if line.count(",") + 1 != width:
            raise ValueError(f"{path}: line {i} has {line.count(',') + 1} "
                             f"columns, the header has {width}")
    rows = np.genfromtxt([line for _, line in lines], delimiter=",", names=True)
    columns = [np.atleast_1d(rows[c]) for c in ("x", "y", "yerr")]
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError(f"{path}: x, y and yerr must all be finite numbers")
    return Dataset(*columns)


def write_run(out_dir: str, summary: dict, manifest: RunManifest, written: list) -> list:
    """Close a run directory: summary.json with the manifest's seed and
    config digest as its provenance block, then manifest.json, which names
    the files already `written` and summary.json.  Returns every file of
    the run."""
    provenance = {"seed": manifest.seed, "config_digest": config_digest(manifest.config)}
    write_json(os.path.join(out_dir, "summary.json"), dict(summary, provenance=provenance))
    written = [*written, "summary.json"]
    write_json(os.path.join(out_dir, "manifest.json"),
               replace(manifest, outputs=tuple(written)).to_dict())
    return written + ["manifest.json"]


def write_results(out_dir: str, datasets: dict, fits: dict,
                  manifest: RunManifest, extra: dict = None) -> list:
    """Write all artifacts; returns the list of files written.

    datasets: name -> Dataset, written as <name>.csv.  fits: name ->
    FitResult, serialized into summary.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, ds in datasets.items():
        write_points_csv(os.path.join(out_dir, f"{name}.csv"), ds)
    summary = {"fits": {name: fr.as_dict() for name, fr in fits.items()}, **(extra or {})}
    return write_run(out_dir, summary, manifest, [f"{name}.csv" for name in datasets])




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
