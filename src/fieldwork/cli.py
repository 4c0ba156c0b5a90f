"""Batch command-line front end.

Scenarios are described by a flat INI file (``key = value``, ``#`` comments)
with sections ``[field]``, ``[switching]``, ``[smearing]``, ``[quadrature]``,
``[grids]`` and ``[output]``; any unknown section or key is rejected.
``--set section.key=value`` overrides individual entries.  All commands emit
RFC-4180-style CSV with LF line endings, a header row naming columns and
units, and 17 significant digits, so identical configs yield byte-identical
output.

Exit codes: 0 success, 2 configuration error, 3 numeric-regime error,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .charfn import (
    DEFAULT_MU_MAX,
    DEFAULT_MU_POINTS,
    Scenario,
    charfn_delta_closed,
    charfn_kms,
    default_k_max,
    sample_charfn,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    FieldworkError,
    RegimeError,
)
from .field_model import FieldSpec, SmearingProfile, SwitchingProfile
from .ramsey import ModeSet, continuum_convergence, simulate_delta_ramsey, tomography
from .special_math import QuadratureSpec
from .workdist import (
    crooks_check,
    distribution_from_charfn,
    localization_sweep,
    moments,
)

__all__ = ["RunConfig", "main"]

_FMT = "%.17g"
# grid counts (mu_count, fft_points, w_count, modes, each mode_counts entry)
# above this bound are rejected before anything is allocated
_MAX_GRID_POINTS = 2**22

_SCHEMA = {
    "field": {"mass", "beta", "coupling"},
    "switching": {"kind", "center", "width"},
    "smearing": {"kind", "sigma"},
    "quadrature": {"abs_tol", "rel_tol", "k_max", "max_subdivisions"},
    "grids": {
        "mu_min",
        "mu_max",
        "mu_count",
        "fft_points",
        "fft_mu_max",
        "w_min",
        "w_max",
        "w_count",
        "modes",
        "mode_counts",
        "mode_k_max",
        "widths",
    },
    "output": {"path"},
}

@dataclass
class RunConfig:
    """Validated scenario + grid parameters for one command invocation."""

    scenario: Scenario
    grids: dict
    output_path: str | None


def _fmt(x) -> str:
    return _FMT % float(x)


def _parse_float(section: str, key: str, raw: str) -> float:
    text = raw.strip().lower()
    try:
        return math.inf if text in ("inf", "infinity") else float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r}: not a number") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r}: not an integer") from None


def _load_ini(path: str | None, overrides) -> dict:
    """Read the INI file plus --set overrides into {section: {key: raw string}}."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None
    )
    parser.optionxform = str  # keys are case-sensitive, like the schema
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from None
    for item in overrides:
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key.strip(), value.strip())
    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    for section, keys in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if not raw:
        raise ConfigError("empty configuration: no sections found")
    return raw


def _build_scenario(raw: dict) -> Scenario:
    fld = raw.get("field", {})
    field = FieldSpec(
        mass=_parse_float("field", "mass", fld.get("mass", "0")),
        beta=_parse_float("field", "beta", fld.get("beta", "inf")),
        coupling=_parse_float("field", "coupling", fld.get("coupling", "0.01")),
    )

    sw = raw.get("switching", {})
    kind = sw.get("kind", "gaussian").strip().lower()
    if kind == "gaussian":
        switching = SwitchingProfile.gaussian(
            center=_parse_float("switching", "center", sw.get("center", "0")),
            width=_parse_float("switching", "width", sw.get("width", "1")),
        )
    elif kind == "delta":
        for key in ("center", "width"):
            if key in sw:
                raise ConfigError(f"[switching] {key} is meaningless for kind = delta")
        switching = SwitchingProfile.delta()
    else:
        raise ConfigError(f"[switching] kind = {kind!r}: expected gaussian or delta")

    sm = raw.get("smearing", {})
    smkind = sm.get("kind", "gaussian").strip().lower()
    if smkind != "gaussian":
        raise ConfigError(f"[smearing] kind = {smkind!r}: expected gaussian")
    smearing = SmearingProfile.gaussian_spherical(
        sigma=_parse_float("smearing", "sigma", sm.get("sigma", "1"))
    )

    quadrature = None
    if "quadrature" in raw:
        qd = raw["quadrature"]
        defaults = QuadratureSpec(k_max=default_k_max(switching, smearing))
        given = {}
        for key in ("abs_tol", "rel_tol", "k_max", "max_subdivisions"):
            if key in qd:
                parse = _parse_int if key == "max_subdivisions" else _parse_float
                given[key] = parse("quadrature", key, qd[key])
        quadrature = replace(defaults, **given)
    try:
        return Scenario(
            field=field, switching=switching, smearing=smearing, quadrature=quadrature
        )
    except FieldworkError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _grid_values(raw: dict) -> dict:
    grids = {}
    for key, value in raw.get("grids", {}).items():
        if key in ("mu_count", "fft_points", "w_count", "modes"):
            grids[key] = _parse_int("grids", key, value)
            if grids[key] > _MAX_GRID_POINTS:
                raise ConfigError(
                    f"[grids] {key} = {grids[key]}: more than {_MAX_GRID_POINTS} points"
                )
        elif key in ("mode_counts", "widths"):
            try:
                parts = [p for p in value.replace(",", " ").split() if p]
                grids[key] = (
                    [int(p) for p in parts] if key == "mode_counts"
                    else [float(p) for p in parts]
                )
            except ValueError:
                raise ConfigError(f"[grids] {key} = {value!r}: not a number list") from None
            if key == "mode_counts" and max(grids[key], default=0) > _MAX_GRID_POINTS:
                raise ConfigError(
                    f"[grids] {key} = {value!r}: an entry above {_MAX_GRID_POINTS} modes"
                )
        else:
            grids[key] = _parse_float("grids", key, value)
            if not math.isfinite(grids[key]):
                raise ConfigError(f"[grids] {key} = {value!r}: must be finite")
    return grids


def _write_csv(path: str | None, header: str, rows, comments=()) -> None:
    lines = list(comments) + [header]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _mu_grid(grids: dict) -> np.ndarray:
    lo = grids.get("mu_min", -10.0)
    hi = grids.get("mu_max", 10.0)
    count = grids.get("mu_count", 201)
    if count < 2 or not hi > lo:
        raise ConfigError("[grids] need mu_max > mu_min and mu_count >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError("[grids] mu_max - mu_min overflows; narrow the mu window")
    return np.linspace(lo, hi, count)


def _cmd_charfn(cfg: RunConfig) -> int:
    mu = _mu_grid(cfg.grids)
    values = sample_charfn(cfg.scenario, mu)
    _write_csv(
        cfg.output_path,
        "mu [1/energy],re_charfn [dimensionless],im_charfn [dimensionless]",
        zip(mu, values.real, values.imag),
    )
    return 0


def _cmd_pdf(cfg: RunConfig) -> int:
    dist = distribution_from_charfn(
        cfg.scenario,
        mu_points=cfg.grids.get("fft_points", DEFAULT_MU_POINTS),
        mu_max=cfg.grids.get("fft_mu_max", DEFAULT_MU_MAX),
    )
    _write_csv(
        cfg.output_path,
        "w [energy],density [1/energy]",
        zip(dist.w_grid, dist.density),
        comments=[f"# atom_weight = {_fmt(dist.atom_weight)}"],
    )
    return 0


def _cmd_moments(cfg: RunConfig) -> int:
    rep = moments(cfg.scenario)
    _write_csv(
        cfg.output_path,
        "mean [energy],second_moment [energy^2],variance [energy^2],"
        "jarzynski_value [dimensionless],partition_ratio [dimensionless]",
        [(rep.mean, rep.second_moment, rep.variance,
          rep.jarzynski_value, rep.partition_ratio)],
    )
    return 0


def _cmd_check_crooks(cfg: RunConfig) -> int:
    lo = cfg.grids.get("w_min", 0.1)
    hi = cfg.grids.get("w_max", 3.0)
    count = cfg.grids.get("w_count", 20)
    if count < 1 or not hi >= lo:
        raise ConfigError("[grids] need w_max >= w_min and w_count >= 1")
    rows = crooks_check(cfg.scenario, np.linspace(lo, hi, count))
    _write_csv(
        cfg.output_path,
        "w [energy],log_ratio [dimensionless],beta_w [dimensionless],"
        "deviation [dimensionless],ok [bool]",
        [(r.w, r.log_ratio, r.beta_w, r.deviation, float(r.ok)) for r in rows],
    )
    return 0


def _cmd_check_jarzynski(cfg: RunConfig) -> int:
    beta = cfg.scenario.field.beta
    if not math.isfinite(beta):
        raise RegimeError("check-jarzynski requires a finite beta")
    value = charfn_kms(cfg.scenario, 1j * beta)
    _write_csv(cfg.output_path, f"jarzynski_deviation = {_fmt(abs(value - 1.0))}", ())
    return 0


def _cmd_ramsey(cfg: RunConfig) -> int:
    scenario = cfg.scenario
    if not scenario.switching.is_delta or not scenario.field.is_vacuum:
        raise RegimeError(
            "ramsey comparison needs the instantaneous coupling on the vacuum "
            "(switching kind = delta, beta = inf)"
        )
    if scenario.field.mass != 0.0:
        raise RegimeError("ramsey comparison uses the massless closed form; set field.mass = 0")
    n_modes = cfg.grids.get("modes", 128)
    k_max = cfg.grids.get("mode_k_max", 10.0)
    modes = ModeSet.uniform_radial(n_modes, k_max)
    mu = _mu_grid(cfg.grids)
    lam = scenario.field.coupling
    rows = []
    for m in mu:
        simulated = tomography(simulate_delta_ramsey(modes, lam, scenario.smearing, m))
        analytic = charfn_delta_closed(lam, scenario.smearing.sigma, m)
        rows.append(
            (m, simulated.real, simulated.imag, analytic.real, analytic.imag,
             abs(simulated - analytic))
        )
    if "mode_counts" in cfg.grids:
        report = continuum_convergence(
            scenario.smearing, lam, float(mu[-1]), cfg.grids["mode_counts"], k_max
        )
        if not report.ok:
            raise ConvergenceError(
                "discrete-mode simulation did not converge to the continuum: "
                f"errors {report.errors}"
            )
    _write_csv(
        cfg.output_path,
        "mu [1/energy],re_simulated [dimensionless],im_simulated [dimensionless],"
        "re_analytic [dimensionless],im_analytic [dimensionless],"
        "abs_difference [dimensionless]",
        rows,
    )
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    scales = cfg.grids.get("widths", [1.0, 0.5, 0.25, 0.125])
    switching = cfg.scenario.switching
    smearing = cfg.scenario.smearing
    if switching.kind != "gaussian" or smearing.kind != "gaussian_spherical":
        raise RegimeError("sweep requires Gaussian switching and smearing profiles")
    pairs = [(c * switching.width, c * smearing.sigma) for c in scales]
    rows = localization_sweep(cfg.scenario, pairs)
    _write_csv(
        cfg.output_path,
        "switch_width [time],smear_width [length],mean [energy],std [energy],"
        "std_over_mean [dimensionless],var_over_mean [energy]",
        [tuple(r) for r in rows],
    )
    return 0


_DISPATCH = {
    "charfn": _cmd_charfn,
    "pdf": _cmd_pdf,
    "moments": _cmd_moments,
    "check-crooks": _cmd_check_crooks,
    "check-jarzynski": _cmd_check_jarzynski,
    "ramsey": _cmd_ramsey,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldwork",
        description="Work distributions of localized unitaries on a thermal scalar field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        cmd = sub.add_parser(name, help=f"run the {name} computation")
        cmd.add_argument("--config", help="INI scenario file")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a single config entry (repeatable)",
        )
        cmd.add_argument("--output", help="output file path (default: stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return int(exc.code or 0)
    try:
        raw = _load_ini(args.config, args.overrides)
        scenario = _build_scenario(raw)
        grids = _grid_values(raw)
        output_path = args.output or raw.get("output", {}).get("path")
        cfg = RunConfig(scenario=scenario, grids=grids, output_path=output_path)
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4
    except FieldworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
