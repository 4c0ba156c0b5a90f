"""Seeded inputs for the three workloads, and the calls and checks that use them.

A workload is an endless sequence of blocks.  Every block holds the same number
of tasks of each kind, in a seeded order, with freshly drawn parameters.  The
benchmark times whole blocks, so the mix of kinds in a run does not depend on
where the clock stopped.  The program sees only the drawn inputs.

Parameters are drawn around the values the shipped configs and the test suite
use: perturbative coupling 0.005-0.02 (0.01 on the library workloads, the
reference value), beta 0.5-2, delta coupling 0.05-1 on the library workloads
and 0.01-0.1 (the tested values) on the CLI's delta config, mass 0.2-1 at
beta = 1; the CLI also draws sigma 0.8-1.25 and switching width 1/16-1/8.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import fieldwork as fw
import fieldwork.cli  # noqa: F401  (loads the submodule fw.cli)

WORKLOADS = ("grid", "pointwise", "cli")

REF_COUPLING = 0.01
REF_SWITCH_CENTER = 0.5
REF_SWITCH_WIDTH = 1.0 / 12.0
REF_SIGMA = 1.0
STATES = ("thermal", "vacuum", "delta", "massive")
CHARFN_MU = np.linspace(-10.0, 10.0, 201)  # the charfn command's default grid

# Per block, grid runs one distribution per state and SAMPLES_PER_STATE samples:
# the median task is then a charfn-command-shaped sample and the tail a
# pdf-command-shaped distribution, so each latency metric reads one path.
SAMPLES_PER_STATE = 5


@dataclass(frozen=True)
class Task:
    """One call into the program: its kind, its drawn inputs and its exit code."""

    kind: str
    params: dict
    expect: int = 0


@dataclass
class Prepared:
    """A task with its inputs built: ``call`` runs the program, ``check`` grades the output."""

    task: Task
    call: Callable[[], object]
    check: Callable[[object], dict] = field(default=lambda out: {})


# ---------------------------------------------------------------------------
# Drawing tasks


RANGES = {"thermal": ("beta", 0.5, 2.0), "delta": ("coupling", 0.05, 1.0), "massive": ("mass", 0.2, 1.0)}


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws, one from each of n equal slices of [lo, hi], in random order.

    Stratified draws cover each range evenly within every block, so the
    latency quantiles of a run depend little on which values the seed drew.
    """
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


def _states(rng: random.Random, state: str, n: int) -> list[dict]:
    """Parameters of n scenarios in ``state``, stratified over its range."""
    if state not in RANGES:
        return [{"state": state} for _ in range(n)]
    key, lo, hi = RANGES[state]
    fixed = {"beta": 1.0} if state == "massive" else {}
    return [{"state": state, key: v, **fixed} for v in _strata(rng, lo, hi, n)]


def _grid_block(rng: random.Random) -> list[Task]:
    tasks = [Task("distribution", _states(rng, st, 1)[0]) for st in STATES]
    for st in STATES:
        for params in _states(rng, st, SAMPLES_PER_STATE):
            if st == "massive":
                params["spot"] = rng.randrange(CHARFN_MU.size)
            tasks.append(Task("sample", params))
    rng.shuffle(tasks)
    return tasks


def _pointwise_block(rng: random.Random) -> list[Task]:
    # One sweep per block keeps the sweeps (the slowest tasks) fewer than ten in
    # a run, so the tail percentile reads the moments and large-mu charfn_kms.
    tasks = []
    for st in ("thermal", "vacuum", "massive"):
        for p, mu in zip(_states(rng, st, 4), _strata(rng, 0.1, 40.0, 4)):
            tasks.append(Task("kms", {**p, "mu": mu}))
        tasks += [Task("moments", p) for p in _states(rng, st, 4)]
    tasks += [Task("kms", {**p, "mu": complex(0.0, p["beta"])}) for p in _states(rng, "thermal", 4)]
    for p, re, im in zip(_states(rng, "thermal", 4), _strata(rng, 0.1, 10.0, 4), _strata(rng, 0.0, 1.0, 4)):
        tasks.append(Task("kms", {**p, "mu": complex(re, im * p["beta"])}))
    for p, mu in zip(_states(rng, "delta", 8), _strata(rng, 0.5, 20.0, 8)):
        tasks.append(Task("delta_numeric", {**p, "mu": mu}))
    tasks += [Task("delta_weight", p) for st in ("thermal", "vacuum") for p in _states(rng, st, 2)]
    scales = sorted(_strata(rng, 0.125, 1.0, 4), reverse=True)
    tasks.append(Task("sweep", {"state": "vacuum", "scales": tuple(scales)}))
    rng.shuffle(tasks)
    return tasks


# Documented invalid inputs: (description, command, config, --set values).
# The CLI maps a configuration error to exit 2 and a numeric-regime error to 3.
CONFIG_ERRORS = (
    ("non-numeric value", "moments", "vacuum", ("field.coupling=strong",)),
    ("unknown key", "charfn", "thermal", ("field.temperature=1",)),
    ("unknown section", "pdf", "vacuum", ("detector.gain=1",)),
    ("malformed --set", "moments", "thermal", ("coupling=2",)),
)
REGIME_ERRORS = (
    ("check-jarzynski in the vacuum", "check-jarzynski", "vacuum", ()),
    ("check-crooks in the vacuum", "check-crooks", "vacuum", ()),
    ("ramsey with smooth switching", "ramsey", "thermal", ()),
    ("moments with delta switching", "moments", "delta", ()),
    ("sweep at finite beta", "sweep", "thermal", ()),
)
ERROR_KINDS = {"configuration error": (2, CONFIG_ERRORS), "numeric-regime error": (3, REGIME_ERRORS)}
VALID_COMMANDS = (
    ("charfn", "vacuum"),
    ("charfn", "thermal"),
    ("charfn", "delta"),
    ("pdf", "vacuum"),
    ("pdf", "thermal"),
    ("pdf", "delta"),
    ("moments", "vacuum"),
    ("moments", "thermal"),
    ("check-crooks", "thermal"),
    ("check-jarzynski", "thermal"),
    ("ramsey", "delta"),
    ("ramsey", "delta"),
    ("sweep", "vacuum"),
    ("sweep", "vacuum"),
)


def _cli_overrides(rng: random.Random, configs: list[str]) -> list[tuple]:
    """--set values for one command on each of ``configs``, stratified across them."""
    n = len(configs)
    coupling = _strata(rng, 0.005, 0.02, n)
    delta_coupling = _strata(rng, 0.01, 0.1, n)
    width = _strata(rng, 1.0 / 16.0, 1.0 / 8.0, n)
    beta = _strata(rng, 0.5, 2.0, n)
    sigma = _strata(rng, 0.8, 1.25, n)
    out = []
    for i, config in enumerate(configs):
        if config == "delta":
            sets = {"field.coupling": delta_coupling[i]}
        else:
            sets = {"field.coupling": coupling[i], "switching.width": width[i]}
            if config == "thermal":
                sets["field.beta"] = beta[i]
            else:
                scales = sorted(_strata(rng, 0.125, 1.0, 4), reverse=True)
                sets["grids.widths"] = ", ".join(repr(c) for c in scales)
        sets["smearing.sigma"] = sigma[i]
        out.append(tuple(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in sets.items()))
    return out


def _cli_block(rng: random.Random) -> list[Task]:
    tasks = []
    for command in dict.fromkeys(cmd for cmd, _ in VALID_COMMANDS):
        configs = [cfg for cmd, cfg in VALID_COMMANDS if cmd == command]
        for config, sets in zip(configs, _cli_overrides(rng, configs)):
            params = {"command": command, "config": config, "set": sets}
            if command == "charfn" and config != "delta":
                params["spot"] = rng.randrange(CHARFN_MU.size)
            tasks.append(Task("cli", params))
    for error, (code, cases) in ERROR_KINDS.items():
        for why, command, config, sets in rng.sample(cases, 2):
            params = {"command": command, "config": config, "set": sets, "error": error, "why": why}
            tasks.append(Task("cli", params, expect=code))
    rng.shuffle(tasks)
    return tasks


_BLOCKS = {"grid": _grid_block, "pointwise": _pointwise_block, "cli": _cli_block}


def draw_blocks(workload: str, seed: int):
    """Endless seeded sequence of task blocks for ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    make = _BLOCKS[workload]
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# Building inputs


def scenario(params: dict) -> fw.Scenario:
    """The library Scenario for drawn state parameters."""
    smearing = fw.SmearingProfile.gaussian_spherical(params.get("sigma", REF_SIGMA))
    if params["state"] == "delta":
        return fw.Scenario(
            field=fw.FieldSpec(mass=0.0, beta=math.inf, coupling=params["coupling"]),
            switching=fw.SwitchingProfile.delta(),
            smearing=smearing,
        )
    return fw.Scenario(
        field=fw.FieldSpec(
            mass=params.get("mass", 0.0),
            beta=params.get("beta", math.inf),
            coupling=params.get("coupling", REF_COUPLING),
        ),
        switching=fw.SwitchingProfile.gaussian(
            center=params.get("center", REF_SWITCH_CENTER),
            width=params.get("width", REF_SWITCH_WIDTH),
        ),
        smearing=smearing,
    )


def prepare_library(task: Task) -> Prepared:
    p = task.params
    s = scenario(p)
    kind = task.kind
    if kind == "distribution":

        def check(dist):
            return checks.distribution_check(s, dist.w_grid, dist.density, dist.atom_weight)

        return Prepared(task, lambda: fw.workdist.distribution_from_charfn(s), check)
    if kind == "sample":

        def check(values):
            if s.switching.is_delta:
                return checks.delta_closed_check(s, CHARFN_MU, values, "charfn.grid_err_max")
            if "spot" in p:
                return checks.pointwise_spot_check(s, CHARFN_MU, values, p["spot"])
            return {}

        return Prepared(task, lambda: fw.charfn.sample_charfn(s, CHARFN_MU), check)
    if kind == "kms":
        mu = p["mu"]

        def check(value):
            if mu == complex(0.0, s.field.beta):
                return checks.jarzynski_check(abs(value - 1.0))
            return {}

        return Prepared(task, lambda: fw.charfn.charfn_kms(s, mu), check)
    if kind == "delta_numeric":
        mu = p["mu"]
        return Prepared(
            task,
            lambda: fw.charfn.charfn_delta_numeric(s, mu),
            lambda value: checks.delta_closed_check(s, mu, value, "charfn.pointwise_err_max"),
        )
    if kind == "moments":

        def check(rep):
            if s.field.mass != 0.0:
                return {}
            out = checks.moment_check(s, rep.mean, rep.second_moment)
            if not s.field.is_vacuum:
                out.update(checks.jarzynski_check(abs(rep.jarzynski_value - 1.0)))
            return out

        return Prepared(task, lambda: fw.workdist.moments(s), check)
    if kind == "delta_weight":
        return Prepared(task, lambda: fw.workdist.delta_weight(s))
    if kind == "sweep":
        pairs = [(c * s.switching.width, c * s.smearing.sigma) for c in p["scales"]]
        return Prepared(
            task,
            lambda: fw.workdist.localization_sweep(s, pairs),
            lambda rows: checks.sweep_check(s.field.coupling, rows),
        )
    raise ValueError(f"unknown task kind {kind!r}")


def read_config(path: Path) -> dict:
    """The shipped INI file as {section.key: raw value}."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    return {f"{sec}.{key}": val for sec in parser.sections() for key, val in parser.items(sec)}


def _config_scenario(raw: dict) -> fw.Scenario:
    """Scenario for a config with overrides, the way the CLI documents its keys."""
    params = {
        "state": "delta" if raw.get("switching.kind", "gaussian") == "delta" else "gaussian",
        "mass": float(raw.get("field.mass", 0.0)),
        "beta": float(raw.get("field.beta", "inf")),
        "coupling": float(raw.get("field.coupling", REF_COUPLING)),
        "sigma": float(raw.get("smearing.sigma", 1.0)),
        "center": float(raw.get("switching.center", 0.0)),
        "width": float(raw.get("switching.width", 1.0)),
    }
    return scenario(params)


def _read_table(path: str):
    """(comment lines, rows as a 2-D array) of a CSV written by the CLI."""
    comments = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            comments.append(line)
    rows = np.loadtxt(path, delimiter=",", skiprows=len(comments) + 1, ndmin=2)
    return comments, rows


def _cli_check(command: str, s: fw.Scenario, spot, path: str) -> dict:
    if command == "check-jarzynski":
        with open(path, encoding="utf-8") as handle:
            return checks.jarzynski_check(float(handle.read().split("=")[1]))
    comments, rows = _read_table(path)
    if command == "charfn":
        mu, values = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
        if s.switching.is_delta:
            return checks.delta_closed_check(s, mu, values, "charfn.grid_err_max")
        return checks.pointwise_spot_check(s, mu, values, spot)
    if command == "pdf":
        atom = float(comments[0].split("=")[1])
        return checks.distribution_check(s, rows[:, 0], rows[:, 1], atom)
    if command == "moments":
        mean, second, _, jar, _ = rows[0]
        out = checks.moment_check(s, mean, second)
        if not s.field.is_vacuum:
            out.update(checks.jarzynski_check(abs(jar - 1.0)))
        return out
    if command == "check-crooks":
        return checks.crooks_table_check(rows[:, 3], rows[:, 4] == 1.0)
    if command == "ramsey":
        return checks.ramsey_check(rows[:, 5])
    if command == "sweep":
        return checks.sweep_check(s.field.coupling, rows)
    raise ValueError(f"unknown command {command!r}")


class CliOutput:
    """Exit code of one CLI invocation and the file it wrote."""

    def __init__(self, code, path):
        self.code = code
        self.path = path
        self.bytes = os.path.getsize(path) if os.path.exists(path) else 0


def prepare_cli(task: Task, configs: dict, out_dir: Path, serial: int) -> Prepared:
    p = task.params
    config_path, base = configs[p["config"]]
    out = str(out_dir / f"task{serial}.csv")
    argv = [p["command"], "--config", str(config_path)]
    for item in p["set"]:
        argv += ["--set", item]
    argv += ["--output", out]

    def call():
        with contextlib.redirect_stderr(io.StringIO()):
            code = fw.cli.main(argv)
        return CliOutput(code, out)

    def check(result):
        try:
            if result.code != 0:
                return {}
            raw = dict(base)
            raw.update(item.split("=", 1) for item in p["set"])
            return _cli_check(p["command"], _config_scenario(raw), p.get("spot"), out)
        finally:
            if os.path.exists(out):
                os.remove(out)

    return Prepared(task, call, check)


def cli_configs(root: Path) -> dict:
    """The shipped configs: {name: (path, {section.key: raw value})}."""
    files = {"vacuum": "vacuum.ini", "thermal": "thermal_beta1.ini", "delta": "delta_coupling.ini"}
    return {name: (root / "configs" / f, read_config(root / "configs" / f)) for name, f in files.items()}


def prepared_blocks(workload: str, seed: int, root: Path, out_dir: Path):
    """Endless sequence of blocks of Prepared tasks; ``out_dir`` receives CLI output."""
    configs = cli_configs(root) if workload == "cli" else {}
    serial = 0
    for block in draw_blocks(workload, seed):
        prepared = []
        for task in block:
            if task.kind == "cli":
                prepared.append(prepare_cli(task, configs, out_dir, serial))
                serial += 1
            else:
                prepared.append(prepare_library(task))
        yield prepared
