"""Batch command-line front end.

Scenarios are described by a flat INI file (``key = value``, ``#`` comments)
with sections ``[field]``, ``[switching]``, ``[smearing]``, ``[grids]`` and
``[output]``; any unknown section or key is rejected.
``--set section.key=value`` overrides individual entries.  All commands emit
RFC-4180-style CSV with LF line endings, a header row naming columns and
units, and 17 significant digits, so identical configs yield byte-identical
output.  Each cell is the text of ``%.17g``: a table of 4096 cells or more,
such as the 16384 rows of `pdf`, is written from exact 17-digit decimals
computed in numpy in blocks of 4096 cells, and a smaller one by one ``%``.

Exit codes: 0 success, 2 configuration error, 3 numeric-regime error,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import sys

import numpy as np

from .charfn import (
    DEFAULT_MU_MAX,
    DEFAULT_MU_POINTS,
    Scenario,
    charfn_delta_closed,
    charfn_kms,
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
from .workdist import (
    crooks_check,
    distribution_from_charfn,
    localization_sweep,
    moments,
)

__all__ = ["main"]

_FMT = "%.17g"
# a table of this many cells or more is formatted by _format_cells in blocks of
# about this many cells, which bound its temporaries; below it one % is faster
_BLOCK_CELLS = 4096
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
# grid counts (mu_count, fft_points, w_count, modes, each mode_counts entry)
# above this bound are rejected before anything is allocated
_MAX_GRID_POINTS = 2**22


def _convert(where: str, text: str, convert, what: str):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{where} = {text!r}: not {what}") from None


def _number(where: str, text: str) -> float:
    return _convert(where, text, float, "a number")


def _finite(where: str, text: str) -> float:
    value = _number(where, text)
    if not math.isfinite(value):
        raise ConfigError(f"{where} = {text!r}: must be finite")
    return value


def _count(where: str, text: str) -> int:
    value = _convert(where, text, int, "an integer")
    if value > _MAX_GRID_POINTS:
        raise ConfigError(f"{where} = {value}: more than {_MAX_GRID_POINTS} points")
    return value


def _numbers(where: str, text: str, convert=float) -> list:
    values = _convert(
        where, text, lambda t: [convert(p) for p in t.replace(",", " ").split()], "a number list"
    )
    if not values:
        raise ConfigError(f"{where} = {text!r}: an empty list")
    return values


def _counts(where: str, text: str) -> list[int]:
    values = _numbers(where, text, int)
    if max(values, default=0) > _MAX_GRID_POINTS:
        raise ConfigError(f"{where} = {text!r}: an entry above {_MAX_GRID_POINTS} modes")
    return values


def _word(*choices: str):
    def parse(where: str, text: str) -> str:
        word = text.strip().lower()
        if word not in choices:
            raise ConfigError(f"{where} = {word!r}: expected {' or '.join(choices)}")
        return word

    return parse


def _path(where: str, text: str) -> str:
    return text


# section -> key -> parser(where, text); any other section or key is rejected
_SCHEMA = {
    "field": {"mass": _number, "beta": _number, "coupling": _number},
    "switching": {"kind": _word("gaussian", "delta"), "center": _number, "width": _number},
    "smearing": {"kind": _word("gaussian"), "sigma": _number},
    "grids": {  # grouped by the commands that read them, as in the README
        "mu_min": _finite, "mu_max": _finite, "mu_count": _count,
        "fft_points": _count, "fft_mu_max": _finite,
        "w_min": _finite, "w_max": _finite, "w_count": _count,
        "modes": _count, "mode_counts": _counts, "mode_k_max": _finite,
        "widths": _numbers,
    },
    "output": {"path": _path},
}


def _load_ini(path: str | None, overrides) -> dict:
    """Read the INI file plus --set overrides into {section: {key: parsed value}}."""
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
    if not parser.sections():
        raise ConfigError("empty configuration: no sections found")
    config = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        config[section] = {}
        for key, text in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            config[section][key] = _SCHEMA[section][key](f"[{section}] {key}", text)
    return config


def _build_scenario(config: dict) -> Scenario:
    fld = config.get("field", {})
    field = FieldSpec(
        mass=fld.get("mass", 0.0),
        beta=fld.get("beta", math.inf),
        coupling=fld.get("coupling", 0.01),
    )

    sw = config.get("switching", {})
    if sw.get("kind", "gaussian") == "gaussian":
        switching = SwitchingProfile.gaussian(
            center=sw.get("center", 0.0), width=sw.get("width", 1.0)
        )
    else:
        for key in ("center", "width"):
            if key in sw:
                raise ConfigError(f"[switching] {key} is meaningless for kind = delta")
        switching = SwitchingProfile.delta()

    smearing = SmearingProfile.gaussian_spherical(
        sigma=config.get("smearing", {}).get("sigma", 1.0)
    )
    return Scenario(field=field, switching=switching, smearing=smearing)


@functools.cache
def _format_tables() -> tuple:
    """The tables of `_format_cells`, built on its first call: 10^k = hi + lo to
    2^-106 for k = -264 .. 296 (hi split by _SPLIT), "%04d" % i for i < 10^4 as
    four ASCII bytes read as one uint32, the exponent texts, and which of a
    cell's 47 characters each layout keeps, as a void array indexed by
    (layout * 18 + significant digits) * 2 + negative."""
    hi, lo = [], []
    for k in range(-264, 297):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h_num, h_den = (num / den).as_integer_ratio()  # int / int rounds correctly
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    split = _SPLIT * hi
    hi_h = split - (split - hi)
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    exponents = np.array([b"e%+03d" % e for e in range(-280, 281)], "S5").view(np.uint8)
    # characters: 0 "-", 1-5 "0.000", 6-22 the 17 digits, 23 ".", 24-40 the digits
    # again, 41-45 the exponent, 46 the separator.  Layouts 0-20 are fixed notation
    # with exponent X = layout - 4, 21 and 22 scientific with a 2- or 3-digit
    # exponent, 23 zero; a layout keeps a run of each part, so text[keep] is quick
    keep = np.zeros((24, 18, 2, 47), bool)
    keep[..., 1, 0] = keep[..., 46] = True
    keep[23, :, :, 1] = True
    for s in range(1, 18):  # significant digits once trailing zeros are stripped
        for x in range(-4, 17):
            row = keep[x + 4, s]
            if x < 0:
                row[:, 1:2 - x] = row[:, 6:6 + s] = True
            else:  # every integer digit, then "." and the rest if any
                row[:, 6:7 + x] = True
                row[:, 23] = s > x + 1
                row[:, 25 + x:24 + s] = True
        for layout in (21, 22):
            row = keep[layout, s]
            row[:, 6] = row[:, 41:45 + (layout == 22)] = True
            row[:, 23] = s > 1
            row[:, 25:24 + s] = True
    keep = keep.reshape(-1, 47).view(np.dtype((np.void, 47)))[:, 0]
    return hi, hi_h, hi - hi_h, lo, digits.view(np.uint32)[:, 0], exponents.reshape(-1, 5), keep


def _format_cells(cells: np.ndarray) -> str:
    """The CSV lines of ``cells`` (2-D), the same text as _FMT of each cell.

    For |x| in [1e-280, 1e281), e10 = floor(log10 |x|) and the 17 digits are
    q = round(|x| 10^(16 - e10)): p = fl(|x| hi) plus its exact error (Dekker's
    product) and |x| lo is within 1e-14 of the exact product.  A cell is left to %
    when it is not finite or outside that range, when q is not 17 digits (e10 was
    off by one) or when the product is within 1e-6 of a tie.  The text is then
    read off one character row per cell by the layout of its e10 and sign."""
    hi, hi_h, hi_l, lo, digits4, exponents, keep = _format_tables()
    x = cells.ravel()
    a = np.abs(x)
    zero = a == 0.0
    inside = (a >= 1e-280) & (a < 1e281)
    a = np.where(inside, a, 1.0)
    e10 = np.clip(np.floor(np.log10(a)), -280, 280).astype(np.intp)
    k = 280 - e10  # the row of 10^(16 - e10)
    split = _SPLIT * a
    a_h = split - (split - a)
    a_l = a - a_h
    p = a * hi[k]
    tail = ((a_h * hi_h[k] - p) + a_h * hi_l[k] + a_l * hi_h[k]) + a_l * hi_l[k] + a * lo[k]
    floor = np.floor(tail)
    frac = tail - floor
    whole = p.astype(np.int64) + floor.astype(np.int64)
    q = whole + (frac > 0.5)
    spill = ~zero & (~inside | (whole < 10**16) | (q >= 10**17) | (np.abs(frac - 0.5) < 1e-6))
    q[spill] = 10**16
    head, low = np.divmod(q, 10**8)
    top, head = np.divmod(head, 10**8)
    groups = np.empty((x.size, 4), np.intp)
    groups[:, 0], groups[:, 1] = np.divmod(head, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10**4)
    digits = np.empty((x.size, 17), np.uint8)
    digits[:, 0] = top + 48
    digits[:, 1:].view(np.uint32)[:] = digits4[groups]
    significant = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)  # digits[:, 0] > 0
    text = np.empty((x.size, 47), np.uint8)
    text[:] = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,", np.uint8)
    text[:, 6:23] = text[:, 24:41] = digits
    text[:, 41:46] = exponents.take(e10 + 280, axis=0)
    text.reshape(cells.shape + (47,))[:, -1, 46] = 10  # "\n" ends each row
    layout = np.where((e10 >= -4) & (e10 < 17), e10 + 4, 21 + (np.abs(e10) >= 100))
    layout[zero] = 23
    mask = keep.take((layout * 18 + significant) * 2 + np.signbit(x)).view(bool).reshape(text.shape)
    rows = np.flatnonzero(spill)
    if rows.size:
        texts = np.array([_FMT % v for v in x[rows].tolist()], "S24").view(np.uint8)
        text[rows, :24] = texts.reshape(-1, 24)
        mask[rows, :46] = False
        mask[rows, :24] = text[rows, :24] != 0
    return text[mask].tobytes().decode("ascii")


def _write_csv(path: str | None, header: str, rows, comments=()) -> None:
    """Write the comment lines, the header and ``rows`` (a 2-D array or a sequence
    of equal-length rows of numbers; a bool prints as 0 or 1), every cell with
    _FMT: by one % over all cells below _BLOCK_CELLS cells, else by
    `_format_cells` on blocks of rows, which gives the same bytes."""
    # the header names every column
    cells = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    texts = ["".join(line + "\n" for line in [*comments, header])]
    if cells.size < _BLOCK_CELLS:
        texts.append((",".join([_FMT] * cells.shape[1]) + "\n") * len(cells) % tuple(cells.ravel().tolist()))
    else:  # each block is written, and freed, before the next is formatted
        step = max(1, _BLOCK_CELLS // cells.shape[1])
        texts = itertools.chain(texts, (_format_cells(cells[i:i + step]) for i in range(0, len(cells), step)))
    if path is None:
        sys.stdout.writelines(texts)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from None


def _mu_grid(grids: dict) -> np.ndarray:
    lo = grids.get("mu_min", -10.0)
    hi = grids.get("mu_max", 10.0)
    count = grids.get("mu_count", 201)
    if count < 2 or not hi > lo:
        raise ConfigError("[grids] need mu_max > mu_min and mu_count >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError("[grids] mu_max - mu_min overflows; narrow the mu window")
    return np.linspace(lo, hi, count)


def _cmd_charfn(scenario: Scenario, grids: dict) -> tuple:
    mu = _mu_grid(grids)
    values = sample_charfn(scenario, mu)
    return ("mu [1/energy],re_charfn [dimensionless],im_charfn [dimensionless]",
            np.column_stack((mu, values.real, values.imag)))


def _cmd_pdf(scenario: Scenario, grids: dict) -> tuple:
    points = grids.get("fft_points", DEFAULT_MU_POINTS)
    mu_max = grids.get("fft_mu_max", DEFAULT_MU_MAX)
    if points < 8 or points % 2:
        raise ConfigError(f"[grids] fft_points = {points}: must be even and >= 8")
    dmu = 2.0 * mu_max / points  # the mu spacing, as special_math._dft_step forms it
    if not (dmu > 0.0 and math.isfinite(math.pi / dmu)):
        raise ConfigError(f"[grids] fft_mu_max = {mu_max:g}: the mu spacing 2 fft_mu_max / "
                          "fft_points must be > 0 with pi / spacing finite")
    dist = distribution_from_charfn(scenario, mu_points=points, mu_max=mu_max)
    return ("w [energy],density [1/energy]",
            np.column_stack((dist.w_grid, dist.density)),
            [f"# atom_weight = {_FMT % dist.atom_weight}"])


def _cmd_moments(scenario: Scenario, grids: dict) -> tuple:
    rep = moments(scenario)
    # the partition_ratio column repeats jarzynski_value, the ratio of partition functions
    return ("mean [energy],second_moment [energy^2],variance [energy^2],"
            "jarzynski_value [dimensionless],partition_ratio [dimensionless]",
            [(rep.mean, rep.second_moment, rep.variance,
              rep.jarzynski_value, rep.jarzynski_value)])


def _cmd_check_crooks(scenario: Scenario, grids: dict) -> tuple:
    lo = grids.get("w_min", 0.1)
    hi = grids.get("w_max", 3.0)
    count = grids.get("w_count", 20)
    if count < 1 or not hi >= lo:
        raise ConfigError("[grids] need w_max >= w_min and w_count >= 1")
    w = np.linspace(lo, hi, count)
    if not np.all(np.isfinite(w) & (w != 0.0)):  # rho(W) / rho(-W) is defined at finite W != 0
        raise ConfigError(f"[grids] w_min = {lo:g}, w_max = {hi:g}: a W is 0 or not finite")
    return ("w [energy],log_ratio [dimensionless],beta_w [dimensionless],"
            "deviation [dimensionless],ok [bool]",
            crooks_check(scenario, w))  # ok prints as 0 or 1


def _cmd_check_jarzynski(scenario: Scenario, grids: dict) -> tuple:
    beta = scenario.field.beta
    if not math.isfinite(beta):
        raise RegimeError("check-jarzynski requires a finite beta")
    value = charfn_kms(scenario, 1j * beta)
    return f"jarzynski_deviation = {_FMT % abs(value - 1.0)}", ()


def _cmd_ramsey(scenario: Scenario, grids: dict) -> tuple:
    if not scenario.switching.is_delta or not scenario.field.is_vacuum:
        raise RegimeError(
            "ramsey comparison needs the instantaneous coupling on the vacuum "
            "(switching kind = delta, beta = inf)"
        )
    if scenario.field.mass != 0.0:
        raise RegimeError("ramsey comparison uses the massless closed form; set field.mass = 0")
    n_modes = grids.get("modes", 128)
    k_max = grids.get("mode_k_max", 10.0)
    mu = _mu_grid(grids)
    if n_modes * mu.size > _MAX_GRID_POINTS:  # every mode is simulated at every mu point
        raise ConfigError(f"[grids] modes x mu_count = {n_modes} x {mu.size} > {_MAX_GRID_POINTS}")
    if sum(grids.get("mode_counts", ())) > _MAX_GRID_POINTS:
        raise ConfigError(f"[grids] mode_counts: more than {_MAX_GRID_POINTS} modes in all")
    if n_modes < 1:
        raise ConfigError(f"[grids] modes = {n_modes}: must be >= 1")
    if min(grids.get("mode_counts", [1])) < 1:
        raise ConfigError("[grids] mode_counts: every entry must be >= 1")
    if not k_max > 0.0:
        raise ConfigError(f"[grids] mode_k_max = {k_max:g}: must be > 0")
    modes = ModeSet.uniform_radial(n_modes, k_max)
    lam = scenario.field.coupling
    # the closed form first: it refuses a sigma whose profile would overflow in the simulation
    analytic = charfn_delta_closed(lam, scenario.smearing.sigma, mu).tolist()
    # tolist() gives Python complex: abs() of a numpy complex differs in the last bits
    simulated = tomography(simulate_delta_ramsey(modes, lam, scenario.smearing, mu)).tolist()
    rows = [(m, s.real, s.imag, a.real, a.imag, abs(s - a))
            for m, s, a in zip(mu, simulated, analytic)]
    if "mode_counts" in grids:
        report = continuum_convergence(
            scenario.smearing, lam, float(mu[-1]), grids["mode_counts"], k_max
        )
        if not report.ok:
            raise ConvergenceError(
                "discrete-mode simulation did not converge to the continuum: "
                f"errors {report.errors}"
            )
    return ("mu [1/energy],re_simulated [dimensionless],im_simulated [dimensionless],"
            "re_analytic [dimensionless],im_analytic [dimensionless],"
            "abs_difference [dimensionless]",
            rows)


def _cmd_sweep(scenario: Scenario, grids: dict) -> tuple:
    scales = grids.get("widths", [1.0, 0.5, 0.25, 0.125])
    switching = scenario.switching
    if switching.is_delta:
        raise RegimeError("sweep requires Gaussian switching and smearing profiles")
    pairs = [(c * switching.width, c * scenario.smearing.sigma) for c in scales]
    for c, (s_w, sigma) in zip(scales, pairs):  # as the profiles require
        if not (s_w > 0.0 and sigma > 0.0 and math.isfinite(s_w * s_w) and math.isfinite(sigma)):
            raise ConfigError(f"[grids] widths: the scale {c:g} gives widths ({s_w:g}, {sigma:g}); "
                              "each must be finite and > 0, with a finite square")
    return ("switch_width [time],smear_width [length],mean [energy],std [energy],"
            "std_over_mean [dimensionless],var_over_mean [energy]",
            localization_sweep(scenario, pairs))


# each command takes (scenario, grids) and returns (header, rows) or
# (header, rows, comments), the arguments of _write_csv after the path;
# it raises before returning on any invalid input, and writes nothing
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
    parser.add_argument("command", choices=_DISPATCH, help="the computation to run")
    parser.add_argument("--config", help="INI scenario file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a single config entry (repeatable)",
    )
    parser.add_argument("--output", help="output file path (default: stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return int(exc.code or 0)
    try:
        config = _load_ini(args.config, args.overrides)
        table = _DISPATCH[args.command](_build_scenario(config), config.get("grids", {}))
        _write_csv(args.output or config.get("output", {}).get("path"), *table)
        return 0
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
