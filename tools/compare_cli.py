"""Compare the command-line outputs on configs/ at two git revisions.

    python3 tools/compare_cli.py PARENT [CHANGE]

PARENT and CHANGE are any revisions of the local repository; each is exported
with `git archive` into a temporary directory.  Without CHANGE the working
tree is compared instead.  Every command of `fieldwork.cli` runs on every file
of the parent's configs/, at each revision with that revision's own src/ and
configs/, and writes its CSV to stdout.  For each command x config pair one
line reports whether the output bytes, stderr and exit code match; for a CSV
that differs, also the largest absolute and relative move of a numeric cell.
The invocations of OVERRIDE_CASES, which reach the mu-grid kernels and massive
fields that the shipped configs leave out, and of ERROR_CASES, each meant to
end in exit 2, are compared the same way.
Paths into each checkout are masked in stderr, so a warning's file name does
not count as a difference.  Exits 0 when every pair matches, 1 otherwise, and
2 when a revision cannot be exported.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("charfn", "pdf", "moments", "check-crooks", "check-jarzynski", "ramsey", "sweep")
ROOT = Path(__file__).resolve().parents[1]
# (command, config, --set overrides...): a massive field in charfn (the
# non-uniform FFT), pdf (the one-jump density), moments and on the delta
# config; a cold field at the k-node cap; a window too fine for the folded DFT;
# a window |mu| <= 2 l (the direct sum)
OVERRIDE_CASES = (
    ("charfn", "thermal_beta1.ini", "field.mass=0.6"),
    ("charfn", "thermal_beta1.ini", "field.beta=1e6"),
    ("charfn", "thermal_beta1.ini", "grids.mu_min=3", "grids.mu_max=3.01", "grids.mu_count=2001"),
    ("charfn", "thermal_beta1.ini", "grids.mu_min=-1", "grids.mu_max=1"),
    ("pdf", "thermal_beta1.ini", "field.mass=0.6"),
    ("moments", "thermal_beta1.ini", "field.mass=0.6"),
    ("charfn", "delta_coupling.ini", "field.mass=0.6"),
)
# (command, config, --set override): the config errors of parsing, of the
# grid bounds and of an unwritable output path
ERROR_CASES = (
    ("moments", "thermal_beta1.ini", "field.coupling=strong"),
    ("moments", "thermal_beta1.ini", "field.temperature=1"),
    ("moments", "thermal_beta1.ini", "detector.gain=1"),
    ("moments", "thermal_beta1.ini", "coupling=2"),
    ("charfn", "vacuum.ini", "grids.mu_count=1000000000"),
    ("moments", "thermal_beta1.ini", "output.path="),
)


def export(revision: str, into: Path) -> Path:
    """The tree of ``revision`` unpacked into the new directory ``into``, by
    `git archive` and tar."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True, capture_output=True)
    return into


def run(root: Path, command: str, config: str, *overrides: str) -> tuple[bytes, bytes, int]:
    """(stdout, stderr, exit code) of one command in the checkout at ``root``,
    each of ``overrides`` passed by --set, with ``root`` masked in stderr."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    sets = [arg for override in overrides for arg in ("--set", override)]
    out = subprocess.run(
        [sys.executable, "-m", "fieldwork.cli", command, "--config", f"configs/{config}", *sets],
        cwd=root, env=env, capture_output=True,
    )
    return out.stdout, out.stderr.replace(str(root).encode(), b"<root>"), out.returncode


def _cell(text: str):
    """The number a CSV cell, or the value of a ``name = value`` line, holds; else
    the text itself."""
    try:
        return float(text.rpartition("=")[2])
    except ValueError:
        return text


def cell_moves(a: bytes, b: bytes):
    """(largest absolute, largest relative) move between the numeric cells of two
    CSV texts of the same layout, or None where their lines, columns or text
    cells differ.  A relative move is |x - y| / max(|x|, |y|); NaN against NaN
    is no move, and NaN against a number an infinite one."""
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return None
    worst_abs = worst_rel = 0.0
    for line_a, line_b in zip(lines_a, lines_b):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if len(cells_a) != len(cells_b):
            return None
        for x, y in zip(map(_cell, cells_a), map(_cell, cells_b)):
            if isinstance(x, str) or isinstance(y, str):
                if x != y:
                    return None
                continue
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            move = abs(x - y)
            worst_abs = max(worst_abs, move)
            worst_rel = max(worst_rel, move / max(abs(x), abs(y)) if math.isfinite(move) else move)
    return worst_abs, worst_rel


def compare(parent: tuple, change: tuple) -> tuple[bool, str]:
    """(whether they match, a report) for two (stdout, stderr, exit code) triples."""
    same = [parent[0] == change[0], parent[1] == change[1], parent[2] == change[2]]
    report = " ".join(f"{what}={'same' if ok else 'DIFF'}"
                      for what, ok in zip(("output", "stderr", "exit"), same))
    if not same[2]:
        report += f" ({parent[2]} -> {change[2]})"
    if not same[0]:
        moves = cell_moves(parent[0], change[0])
        report += (" (layout differs)" if moves is None
                   else f" (largest move: abs {moves[0]:.3g}, rel {moves[1]:.3g})")
    return all(same), report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        trees = []
        for i, revision in enumerate(args):
            try:
                trees.append(export(revision, Path(tmp) / str(i)))
            except subprocess.CalledProcessError as exc:
                print(f"compare_cli: cannot export {revision!r}: {exc.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
        if len(trees) == 1:
            trees.append(ROOT)
        configs = sorted(p.name for p in (trees[0] / "configs").glob("*.ini"))
        pairs = [(command, config) for config in configs for command in COMMANDS]
        groups = (pairs, OVERRIDE_CASES, ERROR_CASES)
        differing = [0, 0, 0]
        for i, cases in enumerate(groups):
            for command, config, *overrides in cases:
                ok, report = compare(*(run(tree, command, config, *overrides) for tree in trees))
                differing[i] += not ok
                print(" ".join([f"{command:16} {config:20}", *overrides, report]))
    counts = [f"{len(cases) - n} of {len(cases)} {what}" for cases, n, what in
              zip(groups, differing, ("command x config pairs", "override cases", "error cases"))]
    print(f"{counts[0]}, {counts[1]} and {counts[2]} identical")
    return 1 if any(differing) else 0


if __name__ == "__main__":
    sys.exit(main())
