"""One set-up as a fresh process pays it: import fieldwork and build the first block of inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
run.py times this script from outside, so interpreter start-up is included.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports fieldwork)

if __name__ == "__main__":
    blocks = workloads.prepared_blocks(sys.argv[1], int(sys.argv[2]), ROOT, ROOT / ".perfbench_work")
    next(blocks)
