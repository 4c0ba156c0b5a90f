"""The comparison that tools/compare_cli.py makes of two command outputs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_cli.py"
_SPEC = importlib.util.spec_from_file_location("compare_cli", _PATH)
compare_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_cli)

CSV = (b"# atom_weight = 0.99990000000000001\n"
       b"w [energy],density [1/energy]\n"
       b"-1.5,2.2250738585072014e-05\n"
       b"0,0.00011936620731892151\n")


def test_identical_outputs_match():
    ok, report = compare_cli.compare((CSV, b"", 0), (CSV, b"", 0))
    assert ok
    assert report == "output=same stderr=same exit=same"
    assert compare_cli.cell_moves(CSV, CSV) == (0.0, 0.0)


def test_a_last_digit_move_is_a_difference_with_its_size():
    moved = CSV.replace(b"0.00011936620731892151", b"0.00011936620731892152")
    ok, report = compare_cli.compare((CSV, b"", 0), (moved, b"", 0))
    assert not ok
    assert report.startswith("output=DIFF stderr=same exit=same (largest move: abs ")
    worst_abs, worst_rel = compare_cli.cell_moves(CSV, moved)
    assert worst_abs == pytest.approx(1.4e-20, rel=0.05)
    assert 0.0 < worst_rel <= 2.0**-52


def test_a_different_layout_or_exit_code_is_reported():
    assert compare_cli.cell_moves(CSV, CSV.replace(b"w [energy]", b"W [energy]")) is None
    assert compare_cli.cell_moves(CSV, CSV + b"1,2\n") is None
    ok, report = compare_cli.compare((CSV, b"", 0), (b"", b"regime error: x\n", 3))
    assert not ok
    assert report == "output=DIFF stderr=DIFF exit=DIFF (0 -> 3) (layout differs)"


@pytest.mark.parametrize("case", compare_cli.ERROR_CASES, ids=lambda case: case[2])
def test_each_error_case_is_a_config_error_that_writes_nothing(case):
    out, err, code = compare_cli.run(compare_cli.ROOT, *case)
    assert (out, code) == (b"", 2)
    assert err.startswith(b"config error: ") and err.count(b"\n") == 1


@pytest.mark.parametrize("case", compare_cli.OVERRIDE_CASES, ids=lambda case: " ".join(case))
def test_each_override_case_writes_a_csv(case):
    out, err, code = compare_cli.run(compare_cli.ROOT, *case)
    assert code == 0
    assert out.count(b"\n") > 1
