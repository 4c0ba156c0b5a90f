"""The first benchmark block of each workload, graded by the benchmark's own checks.

Each task must end with its expected exit code (library calls with no
exception) and every accuracy check the benchmark applies to its output must
report error / tolerance <= 1, so an output the benchmark would count as
failed fails here first.  The benchmark modules live in ``perfbench/`` and are
imported from there unchanged.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

# cli seeds 1-8 are the first that between them draw all nine documented error cases;
# grid seeds 1-4 spot-check 20 massive samples against pointwise quadrature
_CASES = [("grid", seed) for seed in range(1, 5)] + [("pointwise", 1), ("pointwise", 2)] + [
    ("cli", seed) for seed in range(1, 9)
]


@pytest.mark.parametrize("workload, seed", _CASES)
def test_first_block_passes_the_benchmark_checks(workload, seed, tmp_path):
    block = next(workloads.prepared_blocks(workload, seed, ROOT, tmp_path))
    for prep in block:
        task = prep.task
        out = prep.call()
        assert getattr(out, "code", task.expect) == task.expect, task
        for metric, ratio in prep.check(out).items():
            assert ratio <= 1.0, (task, metric, ratio)
