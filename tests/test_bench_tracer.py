"""The benchmark's span tracer finds every function it is told to wrap.

bench/spans.py names the functions by string, so a renamed or deleted
function would otherwise surface only when a traced benchmark run starts.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"iontrap_bench.{layer}")
        for name in names:
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{layer}.{name}")
    assert missing == []
