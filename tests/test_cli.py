"""Tests for the batch command-line front end."""

import contextlib
import io
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from fieldwork import (
    CharFnGrid,
    CrooksRow,
    ModeSet,
    SmearingProfile,
    charfn_delta_closed,
    cli,
    delta_weight,
    invert_charfn,
    simulate_delta_ramsey,
    tomography,
)
from fieldwork.charfn import DEFAULT_MU_MAX
from fieldwork.cli import main

VACUUM_INI = """\
[field]
mass = 0
beta = inf
coupling = 0.01

[switching]
kind = gaussian
center = 0.5
width = 0.08333333333333333

[smearing]
kind = gaussian
sigma = 1.0
"""

DELTA_INI = """\
[field]
mass = 0
beta = inf
coupling = 0.1

[switching]
kind = delta

[smearing]
kind = gaussian
sigma = 1.0

[grids]
mu_min = -5
mu_max = 5
mu_count = 11
modes = 64
mode_k_max = 10
"""


@pytest.fixture
def vacuum_config(tmp_path):
    path = tmp_path / "vacuum.ini"
    path.write_text(VACUUM_INI)
    return str(path)


@pytest.fixture
def delta_config(tmp_path):
    path = tmp_path / "delta.ini"
    path.write_text(DELTA_INI)
    return str(path)


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return comments, header, np.array(rows)


class TestConfigHandling:
    def test_empty_config_is_rejected(self, tmp_path):
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        out = tmp_path / "out.csv"
        assert main(["pdf", "--config", str(empty), "--output", str(out)]) == 2
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(VACUUM_INI + "\n[plotting]\nstyle = fancy\n")
        assert main(["moments", "--config", str(bad)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(VACUUM_INI.replace("sigma = 1.0", "sigma = 1.0\nshape = cube"))
        assert main(["moments", "--config", str(bad)]) == 2

    def test_non_numeric_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(VACUUM_INI.replace("coupling = 0.01", "coupling = strong"))
        assert main(["moments", "--config", str(bad)]) == 2

    def test_set_overrides_config(self, vacuum_config, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["moments", "--config", vacuum_config, "--output", str(out1)]) == 0
        assert (
            main(
                ["moments", "--config", vacuum_config,
                 "--set", "field.coupling=0.02", "--output", str(out2)]
            )
            == 0
        )
        _, _, rows1 = read_csv(out1)
        _, _, rows2 = read_csv(out2)
        assert rows2[0, 0] == pytest.approx(4.0 * rows1[0, 0], rel=1e-12)

    def test_malformed_set_rejected(self, vacuum_config):
        assert main(["moments", "--config", vacuum_config, "--set", "coupling=2"]) == 2

    @pytest.mark.parametrize("command", ["charfn", "pdf", "moments"])
    @pytest.mark.parametrize(
        "override",
        ["switching.center=nan", "switching.center=inf", "switching.width=inf",
         "smearing.sigma=inf"],
    )
    def test_non_finite_gaussian_parameter_rejected(self, vacuum_config, command, override):
        assert main([command, "--config", vacuum_config, "--set", override]) == 2

    @pytest.mark.parametrize("command", ["charfn", "moments"])
    def test_quadrature_section_rejected(self, vacuum_config, command, capsys):
        # the radial cutoff is derived from the widths; the tolerances are fixed
        assert main([command, "--config", vacuum_config, "--set", "quadrature.k_max=inf"]) == 2
        assert capsys.readouterr().err == "config error: unknown config section [quadrature]\n"

    @pytest.mark.parametrize(
        "command, override",
        [("charfn", "grids.mu_max=inf"), ("charfn", "grids.mu_min=-inf"),
         ("pdf", "grids.fft_mu_max=inf")],
    )
    def test_non_finite_mu_window_rejected(self, vacuum_config, command, override, capsys):
        assert main([command, "--config", vacuum_config, "--set", override]) == 2
        assert override.split("=")[0].split(".")[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("charfn", "mu_max"), ("pdf", "fft_mu_max")])
    def test_huge_mu_window_rejected_before_allocating(self, command, key, capsys):
        # a thermal field takes a k grid, which refuses the window; the vacuum's
        # closed form answers it
        config = str(CONFIGS / "thermal_beta1.ini")
        assert main([command, "--config", config, "--set", f"grids.{key}=1e300"]) == 2
        assert "mu_max" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("ramsey", "mode_counts"), ("sweep", "widths")])
    def test_empty_list_rejected(self, command, key, capsys):
        # an empty mode_counts simulated nothing and exited 4; an empty widths
        # printed a header alone
        config = str(CONFIGS / ("delta_coupling.ini" if command == "ramsey" else "vacuum.ini"))
        assert main([command, "--config", config, "--set", f"grids.{key}="]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: [grids] {key} = '': an empty list\n"

    def test_overflowing_mu_span_rejected_without_numpy_warnings(self, vacuum_config, capsys):
        span = ["--set", "grids.mu_min=-1.7e308", "--set", "grids.mu_max=1.7e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would escape main
            assert main(["charfn", "--config", vacuum_config, *span]) == 2
        err = capsys.readouterr().err
        assert "mu_min" in err and "mu_max" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "command, key",
        [("charfn", "mu_count"), ("pdf", "fft_points"), ("check-crooks", "w_count"),
         ("ramsey", "modes"), ("ramsey", "mode_counts")],
    )
    def test_oversized_grid_count_rejected_before_the_command_runs(
        self, vacuum_config, capsys, monkeypatch, command, key
    ):
        def reached(scenario, grids):
            raise AssertionError(f"{key} = {grids[key]} reached the {command} command")

        monkeypatch.setitem(cli._DISPATCH, command, reached)
        value = "16,1000000000" if key == "mode_counts" else "1000000000"  # every entry counts
        assert main([command, "--config", vacuum_config, "--set", f"grids.{key}={value}"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, keys",
        [("grids.modes=400000", ("modes", "mu_count")),  # 400000 x 11 mu points
         ("grids.mode_counts=4000000,1000000", ("mode_counts",))],  # each entry is in bounds
    )
    def test_ramsey_work_bound_rejected_before_a_mode_set_is_built(
        self, delta_config, capsys, monkeypatch, override, keys
    ):
        def reached(*args):
            raise AssertionError(f"{override} reached ModeSet.uniform_radial")

        monkeypatch.setattr(cli.ModeSet, "uniform_radial", reached)
        assert main(["ramsey", "--config", delta_config, "--set", override]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_options_may_precede_the_command(self, vacuum_config, capsys):
        assert main(["moments", "--config", vacuum_config]) == 0
        after = capsys.readouterr().out
        assert main(["--config", vacuum_config, "moments"]) == 0
        assert capsys.readouterr().out == after

    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert len(cli._DISPATCH) == 7
        assert all(name in out for name in cli._DISPATCH)

    def test_unwritable_output_is_a_config_error(self, vacuum_config, tmp_path, capsys):
        assert main(["moments", "--config", vacuum_config, "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output file")
        assert main(["moments", "--config", vacuum_config, "--set", "output.path="]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output file ''")


class TestCommands:
    def test_pdf_vacuum_has_no_negative_work_rows(self, vacuum_config, tmp_path):
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--config", vacuum_config, "--output", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header.startswith("w [energy],density [1/energy]")
        assert len(comments) == 1 and comments[0].startswith("# atom_weight = ")
        atom = float(comments[0].split("=")[1])
        assert 0.0 < atom <= 1.0
        negative = rows[rows[:, 0] < 0.0]
        assert np.max(np.abs(negative[:, 1])) <= 1e-9

    def test_charfn_csv_shape(self, vacuum_config, tmp_path):
        out = tmp_path / "charfn.csv"
        assert (
            main(
                ["charfn", "--config", vacuum_config,
                 "--set", "grids.mu_count=21", "--output", str(out)]
            )
            == 0
        )
        _, header, rows = read_csv(out)
        assert header.split(",")[0] == "mu [1/energy]"
        assert rows.shape == (21, 3)
        mid = rows[10]
        assert mid[0] == 0.0 and mid[1] == 1.0 and mid[2] == 0.0

    def test_check_jarzynski_reports_tiny_deviation(self, vacuum_config, tmp_path, capsys):
        code = main(
            ["check-jarzynski", "--config", vacuum_config, "--set", "field.beta=1"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("jarzynski_deviation = ")
        assert float(text.split("=")[1]) <= 1e-8

    def test_check_jarzynski_requires_finite_beta(self, vacuum_config):
        assert main(["check-jarzynski", "--config", vacuum_config]) == 3

    def test_check_crooks_table(self, vacuum_config, tmp_path):
        out = tmp_path / "crooks.csv"
        code = main(
            ["check-crooks", "--config", vacuum_config,
             "--set", "field.beta=2", "--output", str(out)]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert rows.shape[0] == 20
        assert np.max(np.abs(rows[:, 3])) <= 1e-10
        assert np.all(rows[:, 4] == 1.0)

    def test_check_crooks_names_the_mass_gap(self, vacuum_config, tmp_path):
        # the default samples 0.1 .. 3 put four below m = 0.6, where rho is exactly 0
        out = tmp_path / "crooks.csv"
        with pytest.warns(UserWarning) as caught:
            code = main(
                ["check-crooks", "--config", vacuum_config, "--set", "field.beta=1",
                 "--set", "field.mass=0.6", "--output", str(out)]
            )
        assert code == 0
        _, _, rows = read_csv(out)
        gap = rows[:, 0] <= 0.6
        assert np.count_nonzero(gap) == 4
        assert [str(c.message) for c in caught] == [
            f"crooks_check: density 0 in the mass gap |W| <= m = 0.6 at W = {w!r}; "
            "sample excluded"
            for w in rows[gap, 0].tolist()
        ]
        assert np.all(rows[gap, 4] == 0.0) and np.all(np.isnan(rows[gap][:, [1, 3]]))
        assert np.all(rows[~gap, 4] == 1.0)
        assert np.max(np.abs(rows[~gap, 3])) <= 1e-10

    def test_ramsey_comparison_table(self, delta_config, tmp_path):
        out = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--config", delta_config, "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows.shape == (11, 6)
        assert np.max(rows[:, 5]) < 1e-6  # simulated vs analytic
        # Hermitian symmetry of both columns across mu -> -mu
        assert rows[0, 1] == pytest.approx(rows[-1, 1], rel=1e-12)
        assert rows[0, 2] == pytest.approx(-rows[-1, 2], rel=1e-12)

    def test_ramsey_rejects_smooth_switching(self, vacuum_config):
        assert main(["ramsey", "--config", vacuum_config]) == 3

    def test_ramsey_rejects_a_massive_field(self, delta_config, capsys):
        assert main(["ramsey", "--config", delta_config, "--set", "field.mass=1"]) == 3
        assert "mass" in capsys.readouterr().err

    @pytest.mark.parametrize("command, coupling", [("moments", "50"), ("pdf", "1e3")])
    def test_perturbative_breakdown_exit_code(self, vacuum_config, command, coupling, capsys):
        code = main([command, "--config", vacuum_config, "--set", f"field.coupling={coupling}"])
        assert code == 3
        assert "perturbative breakdown" in capsys.readouterr().err

    def test_sweep_table(self, vacuum_config, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", vacuum_config, "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows.shape == (4, 6)
        assert np.all(np.diff(rows[:, 5]) > 0.0)  # variance/mean grows

    def test_moments_regime_error_exit_code(self, delta_config):
        assert main(["moments", "--config", delta_config]) == 3

    def test_convergence_failure_exit_code(self, vacuum_config, capsys):
        # widths of 1e-160 put the cutoff 7 / sqrt(s^2 + sigma^2) at 5e160, where k^2 overflows
        with np.errstate(all="ignore"):
            code = main(["moments", "--config", vacuum_config, "--set", "smearing.sigma=1e-160",
                         "--set", "switching.width=1e-160"])
        assert code == 4
        assert "the integrand is not finite" in capsys.readouterr().err.splitlines()[-1]


class TestDeterminism:
    def test_row_format_writes_the_per_cell_bytes(self, capsys):
        # the one % over every cell against the per-row join of per-cell formats
        cells = [-0.0, 5e-324, 1e-300, math.nan, math.inf, -math.inf, 0.0,
                 1.6688285284775185e-136]
        tables = [
            [tuple(cells), tuple(np.float64(c) for c in cells)],
            [(0.5, -0.0, 5e-324, math.nan, 0.0), (1.0, 1e-300, math.inf, -math.inf, 1.0)],
            [CrooksRow(0.5, -0.0, 5e-324, math.nan, False), CrooksRow(1.0, 1e-300, 1.0, 0.0, True)],
            np.column_stack((np.array(cells), np.array(cells[::-1]))),
        ]
        for rows in tables:
            header = ",".join(f"c{i}" for i in range(len(rows[0])))
            cli._write_csv(None, header, rows, comments=["# atom_weight = 1"])
            per_row = [",".join("%.17g" % float(c) for c in row) for row in rows]
            expected = ["# atom_weight = 1", header] + per_row
            assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert "%.17g" % True == "1" and "%.17g" % False == "0"  # as the per-row join printed ok
        cli._write_csv(None, "jarzynski_deviation = 1e-10", ())  # header only
        assert capsys.readouterr().out == "jarzynski_deviation = 1e-10\n"
        cli._write_csv(None, "a,b,c", np.empty((0, 3)))  # zero rows under a 3-column header
        assert capsys.readouterr().out == "a,b,c\n"

    def test_identical_config_gives_byte_identical_csv(self, vacuum_config, tmp_path):
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        for out in (out1, out2):
            assert main(["pdf", "--config", vacuum_config, "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()  # LF line endings


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_RAMSEY_REGIME = (
    "regime error: ramsey comparison needs the instantaneous coupling on the vacuum "
    "(switching kind = delta, beta = inf)"
)
# (command, shipped config) -> first stderr line of the exit-3 pairs; every
# other pair exits 0
_SHIPPED_REGIME_ERRORS = {
    ("moments", "delta_coupling.ini"):
        "regime error: moments: use the characteristic-function derivative path "
        "for the delta coupling",
    ("check-crooks", "delta_coupling.ini"):
        "regime error: the closed-form density applies to the perturbative regime only",
    ("check-crooks", "vacuum.ini"): "regime error: crooks_check requires a finite temperature",
    ("check-jarzynski", "delta_coupling.ini"):
        "regime error: check-jarzynski requires a finite beta",
    ("check-jarzynski", "vacuum.ini"): "regime error: check-jarzynski requires a finite beta",
    ("ramsey", "thermal_beta1.ini"): _RAMSEY_REGIME,
    ("ramsey", "vacuum.ini"): _RAMSEY_REGIME,
    ("sweep", "delta_coupling.ini"):
        "regime error: sweep requires Gaussian switching and smearing profiles",
    ("sweep", "thermal_beta1.ini"):
        "regime error: localization_sweep is defined for the vacuum field",
}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.ini")))
@pytest.mark.parametrize("command", sorted(cli._DISPATCH))
def test_every_command_on_every_shipped_config(command, config, capsys):
    code = main([command, "--config", str(CONFIGS / config)])
    err = capsys.readouterr().err
    expected = _SHIPPED_REGIME_ERRORS.get((command, config))
    assert code == (0 if expected is None else 3)
    if expected is not None:
        assert err.splitlines()[0] == expected
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, config",
    [(command, p.name) for command in sorted(cli._DISPATCH)
     for p in sorted(CONFIGS.glob("*.ini")) if (command, p.name) not in _SHIPPED_REGIME_ERRORS],
)
def test_a_command_returns_its_table_and_only_main_writes(
    command, config, tmp_path, monkeypatch, capsys
):
    assert main([command, "--config", str(CONFIGS / config)]) == 0
    written = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)  # a file the command wrote would land here
    settings = cli._load_ini(str(CONFIGS / config), [])
    table = cli._DISPATCH[command](cli._build_scenario(settings), settings.get("grids", {}))
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []
    cli._write_csv(None, *table)
    assert capsys.readouterr().out == written


def test_the_partition_ratio_cell_repeats_the_jarzynski_value(capsys):
    assert main(["moments", "--config", str(CONFIGS / "thermal_beta1.ini")]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert cells[4] == cells[3]


@pytest.mark.parametrize("config", ["thermal_beta1.ini", "vacuum.ini"])
@pytest.mark.parametrize("command", ["moments", "check-jarzynski"])
def test_cold_thermal_state_passes_jarzynski(command, config, capsys):
    # at beta = 3 the cutoff 20 / width = 240 puts beta k_max at 720, past
    # where e^{beta w} overflows on the imaginary axis
    assert main([command, "--config", str(CONFIGS / config), "--set", "field.beta=3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "moments":
        assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(1.0, abs=1e-8)
    else:
        assert float(out.split("=")[1]) <= 1e-8


@pytest.mark.parametrize("override", ["smearing.sigma=1e-4", "smearing.sigma=1e-5",
                                      "smearing.sigma=1e-6", "smearing.sigma=1e-9",
                                      "switching.width=2e16"])
def test_moments_of_narrow_or_slow_profiles_match_the_closed_form(override, capsys):
    # <W> = lambda^2 s^2 / (8 sqrt(pi) (s^2 + sigma^2)^{3/2}).  A cutoff set by the
    # narrower width alone left the integrand's bulk below the first quadrature
    # nodes, and the mean came out as 0.
    assert main(["moments", "--config", str(CONFIGS / "vacuum.ini"), "--set", override]) == 0
    mean = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
    width, sigma, lam = 1.0 / 12.0, 1.0, 0.01
    key, value = override.split("=")
    if key == "smearing.sigma":
        sigma = float(value)
    else:
        width = float(value)
    a = width**2 + sigma**2
    assert mean == pytest.approx(lam**2 * width**2 / (8.0 * math.sqrt(math.pi) * a**1.5),
                                 rel=1e-12, abs=0.0)


# (command, shipped config) -> exit code and last stderr line at widths of 1e-160
_TINY_WIDTHS = {
    # the vacuum's closed forms (exponent and mass) need no k grid; its density
    # spreads over |W| ~ 1 / l = 1e160, far past the W window
    ("charfn", "vacuum.ini"): (0, ""),
    ("pdf", "vacuum.ini"):
        (2, "error: invert_charfn: the density is wider than the W window |W| <= 16.8 "
            "(Re phi(dmu) = 0); raise the number of points or lower mu_max"),
    # lambda^2 / 8 pi^2 sigma^2 overflows
    ("charfn", "delta_coupling.ini"):
        (3, "regime error: sample_charfn: lambda^2 B is not finite at coupling 0.1"),
    ("pdf", "delta_coupling.ini"):
        (3, "regime error: sample_charfn: lambda^2 B is not finite at coupling 0.1"),
    ("charfn", "thermal_beta1.ini"):
        (4, "convergence error: below k_max = 4.94975e+160 the integrand is not finite"),
    ("pdf", "thermal_beta1.ini"):
        (4, "convergence error: radial quadrature: the integrand is not finite"),
}


@pytest.mark.parametrize("command, config", sorted(_TINY_WIDTHS))
def test_widths_of_1e_160_exit_with_a_documented_code(command, config, capsys):
    # widths of 1e-160 put the cutoff 7 / sqrt(s^2 + sigma^2) (7 / sigma for delta)
    # above 1e160; from about 1e155 on, k^2 in the spectral weight overflows
    widths = ["--set", "smearing.sigma=1e-160"]
    if config != "delta_coupling.ini":
        widths += ["--set", "switching.width=1e-160"]
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(CONFIGS / config), *widths])
    out, err = capsys.readouterr()
    assert (code, (err.splitlines() or [""])[-1]) == _TINY_WIDTHS[command, config]
    assert "Traceback" not in err
    if code == 0:  # at |z| = |mu| / 2 l >= 3.5e158 the exponent is -A0 / 2 l^2 = -1 / 8 pi
        rows = np.array([[float(c) for c in line.split(",")] for line in out.splitlines()[1:]])
        ref = np.where(rows[:, 0] == 0.0, 1.0, 1.0 - 0.01**2 / (8.0 * math.pi))
        assert np.max(np.abs(rows[:, 1] - ref)) <= 1e-16 and np.all(rows[:, 2] == 0.0)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.ini")))
@pytest.mark.parametrize("mu_max", ["0", "-0.0", "-5", "1e-310"])
def test_non_positive_fft_mu_max_is_a_configuration_error(mu_max, config, capsys):
    # a zero spacing has no conjugate W grid, a negative one reverses the mu grid,
    # and a subnormal one puts the W grid edge pi / dmu at inf
    code = main(["pdf", "--config", str(CONFIGS / config), "--set", f"grids.fft_mu_max={mu_max}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "spacing" in err
    assert "Traceback" not in err


def test_narrow_fft_window_prints_the_exact_atom(capsys):
    # at fft_mu_max = 1 the density part of P~ has not dephased; an atom read
    # off the window edge took 61-79 % of p, the known one is 1 - p
    config = str(CONFIGS / "vacuum.ini")
    assert main(["pdf", "--config", config, "--set", "grids.fft_mu_max=1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    scenario = cli._build_scenario(cli._load_ini(config, []))
    assert first == f"# atom_weight = {cli._FMT % delta_weight(scenario)}"


def _mp_dawson(x):
    """D(x) at the working precision: e^{-x^2} erfi(x) sqrt(pi) / 2 below x = 20,
    above by the asymptotic series (1 / 2x) Sum_n (2n - 1)!! / (2 x^2)^n, whose
    terms fall below 1e-25 of the sum within 12 terms."""
    if x < 20:
        return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)
    term = total = 1 / (2 * x)
    n = 0
    while term > 1e-25 * total:
        n += 1
        term *= (2 * n - 1) / (2 * x * x)
        total += term
    return total


def test_delta_pdf_is_the_inverted_closed_form(tmp_path):
    # against P~ from the Dawson form at 20 digits, inverted with the same atom:
    # P~ in double precision carries about 4e-13 of the peak into the density
    out = tmp_path / "pdf.csv"
    assert main(["pdf", "--config", str(CONFIGS / "delta_coupling.ini"), "--output", str(out)]) == 0
    comments, _, rows = read_csv(out)
    atom = float(comments[0].split("=")[1])
    mu = np.append(np.arange(2**13) * (2.0 * DEFAULT_MU_MAX / 2**14), DEFAULT_MU_MAX)
    with mpmath.workdps(20):
        c = mpmath.mpf(0.1) ** 2 / (4 * mpmath.pi**2)  # lambda = 0.1, sigma = 1

        def charfn(m):
            x = m / 2
            i_mu = -m * _mp_dawson(x) / 2 + 1j * mpmath.sqrt(mpmath.pi) * m * mpmath.exp(-x * x) / 4
            return complex(mpmath.exp(c * i_mu))

        values = np.array([charfn(mpmath.mpf(m)) for m in mu.tolist()])
    ref = invert_charfn(CharFnGrid(mu=mu, values=values), atom)
    assert np.array_equal(rows[:, 0], ref.w_grid)
    assert np.max(np.abs(rows[:, 1] - ref.density)) <= 1e-12 * np.max(ref.density)


@pytest.mark.parametrize(
    "config, overrides",
    [("vacuum.ini", ["switching.width=0.00083", "smearing.sigma=0.01"]),  # mean 4.85e-6
     ("delta_coupling.ini", ["field.coupling=1e3"])],  # mean work 1.1e4
)
def test_a_density_wider_than_the_w_window_is_a_configuration_error(config, overrides, capsys):
    # the W window |W| <= pi / dmu = 16.75 aliased these densities: the inverted
    # mean read -5.7e-11, and the delta density was flat at 0.0298
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["pdf", "--config", str(CONFIGS / config), *sets]) == 2
    err = capsys.readouterr().err
    assert "wider than the W window" in err and "raise the number of points" in err


@pytest.mark.parametrize("override", ["field.beta=1e6", "field.mass=1e-7"])
def test_a_cold_or_light_field_is_sampled_on_the_capped_k_grid(override, capsys):
    # 32 / kappa would take 5.7e6 or 3.6e8 k nodes; the period stops at the cap
    code = main(["charfn", "--config", str(CONFIGS / "thermal_beta1.ini"), "--set", override])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(out.splitlines()) == 202  # header and the 201 default points


@pytest.mark.parametrize("override", ["field.beta=1", "field.beta=1e6", "field.mass=1e-7"])
@pytest.mark.parametrize(
    "command, window",
    [("charfn", ["grids.mu_min=-2e6", "grids.mu_max=2e6"]), ("pdf", ["grids.fft_mu_max=2e6"])],
)
def test_a_mu_window_past_the_k_node_cap_is_a_configuration_error(command, window, override, capsys):
    # the k period is at least |mu| + 200 l: 2.2e6 nodes here, past the cap of 2^20;
    # a cold or light field below that width takes the largest period the cap allows.
    # pdf samples no such window: its W window |W| <= pi / dmu = 0.013 is refused first
    sets = [arg for item in window + [override] for arg in ("--set", item)]
    code = main([command, "--config", str(CONFIGS / "thermal_beta1.ini"), *sets])
    err = capsys.readouterr().err
    assert code == 2
    last = err.splitlines()[-1]
    if command == "pdf":
        assert "wider than the W window" in last and "raise the number of points" in last
    else:
        assert "lower |mu| or mu_max" in last
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, config, override, expected",
    [("sweep", "vacuum.ini", "switching.width=1e-200", 3),  # the mean work underflows to 0
     ("ramsey", "delta_coupling.ini", "smearing.sigma=1e-217", 2),  # sigma^2 underflows
     ("ramsey", "delta_coupling.ini", "smearing.sigma=1e201", 2),  # sigma^2 overflows
     # |chi~(0)|^2 = 2 pi width^2 overflows; every path reads it, the moments first
     ("moments", "vacuum.ini", "switching.width=1e160", 2),
     ("moments", "thermal_beta1.ini", "switching.width=1e160", 2),
     ("charfn", "thermal_beta1.ini", "switching.width=1e160", 2),
     ("pdf", "vacuum.ini", "switching.width=1e160", 2)],
)
def test_extreme_profile_widths_exit_with_a_documented_code(
    command, config, override, expected, capsys
):
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(CONFIGS / config), "--set", override])
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err


# float keys only: the count keys have their own bound tests and would start large runs
_FLOAT_KEYS = [
    "field.mass", "field.beta", "field.coupling", "switching.center", "switching.width",
    "smearing.sigma", "grids.mu_min", "grids.mu_max", "grids.fft_mu_max",
    "grids.w_min", "grids.w_max", "grids.mode_k_max",
]
_LOG_UNIFORM = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-300.0, 300.0),
)


@seed(20191018)
@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from(sorted(cli._DISPATCH)),
    st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.ini"))),
    st.dictionaries(st.sampled_from(_FLOAT_KEYS), _LOG_UNIFORM, min_size=1, max_size=3),
)
def test_exit_code_contract_under_extreme_float_values(command, config, overrides):
    """Any float override ends in exit 0, 2, 3 or 4 and never in a traceback,
    and exit 0 writes only finite cells."""
    argv = [command, "--config", str(CONFIGS / config)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy overflow warnings are not part of the contract
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        vacuum = "field.beta" not in overrides and config != "thermal_beta1.ini"
        assert _non_finite_cells(command, out.getvalue(), vacuum) == []


def _non_finite_cells(command: str, text: str, vacuum: bool) -> list:
    """The cells of a CSV written with exit 0 that are not finite, less the two
    documented ones: a Crooks row excluded with ok = 0, and the vacuum's NaN
    jarzynski_value and partition_ratio."""
    lines = text.splitlines()
    if command == "check-jarzynski":
        return [v for v in [float(lines[0].split("=")[1])] if not math.isfinite(v)]
    comments = [line for line in lines if line.startswith("#")]
    bad = [v for v in (float(c.split("=")[1]) for c in comments) if not math.isfinite(v)]
    for line in lines[len(comments) + 1:]:
        values = [float(c) for c in line.split(",")]
        if command == "check-crooks" and values[4] == 0.0:
            continue
        if command == "moments" and vacuum:
            values = values[:3]
        bad += [v for v in values if not math.isfinite(v)]
    return bad


@pytest.mark.parametrize("command", ["charfn", "check-crooks", "check-jarzynski"])
@pytest.mark.parametrize("coupling", ["1e150", "1e155", "1e221"])
def test_strong_coupling_writes_finite_cells_or_exits_with_a_documented_code(
    command, coupling, capsys
):
    # lambda^2 overflows from |lambda| of about 1.34e154 on
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(CONFIGS / "thermal_beta1.ini"),
                     "--set", f"field.coupling={coupling}"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if coupling == "1e150":
        assert code == 0 and _non_finite_cells(command, out, vacuum=False) == []
    else:
        assert code == 2
        assert "coupling^2 overflows" in err.splitlines()[-1]


@pytest.mark.parametrize(
    "overrides",
    [[],
     ["field.coupling=3", "smearing.sigma=0.5", "grids.mu_min=-40", "grids.mu_count=257"],
     # 2048 modes: 32 mu rows per chunk, so the 100 points span four chunks
     ["field.coupling=0.01", "smearing.sigma=2", "grids.modes=2048", "grids.mu_count=100"]],
)
def test_ramsey_table_equals_a_per_point_scalar_reference(delta_config, overrides, capsys):
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["ramsey", "--config", delta_config, *sets]) == 0
    out = capsys.readouterr().out
    grids = {"mu_min": -5.0, "mu_max": 5.0, "mu_count": 11, "modes": 64,
             "coupling": 0.1, "sigma": 1.0}
    for item in overrides:
        key, _, value = item.partition(".")[2].partition("=")
        grids[key] = float(value)
    mu = np.linspace(grids["mu_min"], grids["mu_max"], int(grids["mu_count"]))
    modes = ModeSet.uniform_radial(int(grids["modes"]), 10.0)
    smearing = SmearingProfile.gaussian_spherical(grids["sigma"])
    lines = out.splitlines()[1:]
    assert len(lines) == mu.size
    analytic = charfn_delta_closed(grids["coupling"], grids["sigma"], mu).tolist()
    for line, m, a in zip(lines, mu.tolist(), analytic):
        s = tomography(simulate_delta_ramsey(modes, grids["coupling"], smearing, m))
        cells = (m, s.real, s.imag, a.real, a.imag, abs(s - a))
        assert line == ",".join("%.17g" % c for c in cells)


@pytest.mark.parametrize(
    "drop_mode_counts, overrides, expected",
    [(True, ["grids.mode_k_max=1e120"], 2),  # the cell weights 4 pi k^2 dk overflow
     (False, ["grids.mode_k_max=1e300"], 2),  # k^2 itself overflows
     (False, ["grids.mu_max=1e300"], 4)],  # (mu / 2 sigma)^2 overflows; mu = 1e300 misses
)
def test_ramsey_overflow_exits_with_a_documented_code_and_no_warning(
    tmp_path, drop_mode_counts, overrides, expected, capsys
):
    config = (CONFIGS / "delta_coupling.ini").read_text()
    if drop_mode_counts:
        config = "\n".join(line for line in config.splitlines() if "mode_counts" not in line)
    path = tmp_path / "delta.ini"
    path.write_text(config)
    sets = [arg for item in overrides for arg in ("--set", item)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ramsey", "--config", str(path), *sets])
    out, err = capsys.readouterr()
    assert code == expected
    assert caught == [] and "RuntimeWarning" not in err
    assert out == ""  # no table with NaN cells


def _run_quietly(argv):
    """(exit code, stdout, stderr, warnings raised) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("mass", ["1e155", "1e200", "1e300"])
@pytest.mark.parametrize("command, config", [
    ("moments", "thermal_beta1.ini"), ("moments", "vacuum.ini"), ("sweep", "vacuum.ini"),
    ("check-jarzynski", "thermal_beta1.ini"), ("pdf", "thermal_beta1.ini"),
    ("charfn", "thermal_beta1.ini"),
])
def test_a_very_large_mass_runs_as_at_1e154_without_warnings(command, config, mass):
    # from m of about 1e155 (s w)^2 and w^2 overflow where the spectral weight is
    # exactly 0; their product with it is 0, so every command ends as at m = 1e154:
    # moments 0, 0, 0, 1, 1; sweep's mean work 0 (exit 3); P~ = 1 and an atom of 1
    argv = [command, "--config", str(CONFIGS / config), "--set"]
    reference = _run_quietly(argv + ["field.mass=1e154"])
    assert reference[3] == []
    assert _run_quietly(argv + [f"field.mass={mass}"]) == reference
