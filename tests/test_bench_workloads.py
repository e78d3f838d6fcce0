"""Every benchmark workload builds, runs its first job and passes its own
output checks.

The workloads in bench/ call the library's public API directly, so a
signature change that breaks them fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_first_job_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    inputs = wl.inputs(0)
    out = wl.run(inputs, 0, lambda: None)
    assert wl.check(inputs, out) == []
