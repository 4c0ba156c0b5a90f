"""Tests of the benchmark itself: inputs, tracing arithmetic, checks and exit codes.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import fieldwork as fw
import fieldwork.cli
import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def first_blocks(workload, seed, n=3):
    return list(itertools.islice(workloads.draw_blocks(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_tasks(workload):
    assert first_blocks(workload, 7) == first_blocks(workload, 7)
    assert first_blocks(workload, 7) != first_blocks(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_same_mix(workload):
    mixes = {
        tuple(sorted((t.kind, t.params.get("error") or t.params.get("command", ""), t.expect)
                     for t in block))
        for block in first_blocks(workload, 3, n=5)
    }
    assert len(mixes) == 1


def test_self_time_of_nested_spans():
    # root [0,100] holds A [10,40] (with A1 [15,25]) and B [50,90] (with B1 [60,70], B2 [75,80])
    start = [0, 10, 15, 50, 60, 75]
    end = [100, 40, 25, 90, 70, 80]
    parent = [-1, 0, 1, 0, 3, 3]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 25, 10, 5]
    assert own.sum() == 100  # self times partition the root span


def test_self_time_clips_a_child_to_its_parent():
    own = tracing.self_times([0, 5], [10, 20], [-1, 0])
    assert own.tolist() == [5, 15]


def test_tracer_spans_counts_and_restores():
    s = workloads.scenario({"state": "thermal", "beta": 1.0})
    original = fw.charfn.integrate_radial
    t = tracing.Tracer()
    t.install()
    try:
        assert fw.charfn.integrate_radial is not original
        fw.charfn_kms(s, 1.0)
    finally:
        t.uninstall()
    assert fw.charfn.integrate_radial is original
    summary = t.summary()
    assert summary["charfn.charfn_kms"]["calls"] == 1
    assert summary["special_math.integrate_radial"]["calls"] == 2  # real and imaginary parts
    # every integrand evaluation smears once, so the two counts agree
    evals = t.counts[tracing.INTEGRAND_EVALS]
    assert evals > 0 and evals == summary["field_model.smearing_ft"]["calls"]
    kms = summary["charfn.charfn_kms"]
    assert 0 <= kms["self_s"] <= kms["total_s"]
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(kms["total_s"], rel=1e-9)


def test_task_factors_scale_each_top_span_and_its_children():
    t = tracing.Tracer()
    for start, end, parent, name in [(0, 100, -1, "task"), (10, 30, 0, "inner"),
                                     (200, 260, -1, "task"), (210, 230, 2, "inner")]:
        t.func.append(t._id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    summary = t.summary(task_factors=[2.0, 0.5])
    assert summary["inner"]["total_s"] * 1e9 == pytest.approx(20 / 2.0 + 20 / 0.5)
    assert summary["task"]["self_s"] * 1e9 == pytest.approx(80 / 2.0 + 40 / 0.5)


def test_tail_is_the_value_with_ten_beyond_it():
    value, pct, n = run.tail_latency(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in range(1, 101)) == run.TAIL_BEYOND


# -- accuracy checks reject perturbed outputs --------------------------------


def passes(ratios):
    return bool(ratios) and all(r <= 1.0 for r in ratios.values())


def prepared(kind, **params):
    return workloads.prepare_library(workloads.Task(kind, params))


@pytest.fixture(scope="module")
def thermal_distribution():
    prep = prepared("distribution", state="thermal", beta=1.0)
    return prep, prep.call()


def test_density_check_rejects_perturbed_peak(thermal_distribution):
    prep, dist = thermal_distribution
    assert passes(prep.check(dist))
    i = int(np.argmax(dist.density))
    dist.density[i] *= 1.0 + 2 * checks.PEAK_REL_TOL
    try:
        assert prep.check(dist)["workdist.density_err_max"] > 1.0
    finally:
        dist.density[i] /= 1.0 + 2 * checks.PEAK_REL_TOL


def test_density_check_rejects_perturbed_tail(thermal_distribution):
    prep, dist = thermal_distribution
    j = int(np.argmax(dist.w_grid > 4.0))
    dist.density[j] += 2 * checks.TAIL_ABS_TOL
    try:
        assert prep.check(dist)["workdist.density_err_max"] > 1.0
    finally:
        dist.density[j] -= 2 * checks.TAIL_ABS_TOL


def test_atom_check_rejects_perturbed_atom(thermal_distribution):
    prep, dist = thermal_distribution
    dist.atom_weight -= 2 * checks.ATOM_TOL
    try:
        assert prep.check(dist)["workdist.atom_err_max"] > 1.0
    finally:
        dist.atom_weight += 2 * checks.ATOM_TOL


def test_delta_distribution_check_rejects_negative_work():
    prep = prepared("distribution", state="delta", coupling=0.3)
    dist = prep.call()
    assert passes(prep.check(dist))
    dist.density[dist.w_grid < -1.0] = -1e-5
    assert prep.check(dist)["workdist.density_err_max"] > 1.0


@pytest.mark.parametrize("state", [{"state": "delta", "coupling": 0.4},
                                   {"state": "massive", "mass": 0.5, "beta": 1.0, "spot": 150}])
def test_grid_sample_check_rejects_perturbed_value(state):
    prep = prepared("sample", **state)
    values = prep.call()
    assert passes(prep.check(values))
    values[150] += 2 * checks.GRID_TOL
    assert prep.check(values)["charfn.grid_err_max"] > 1.0


def test_jarzynski_check_rejects_perturbed_value():
    prep = prepared("kms", state="thermal", beta=1.5, mu=1.5j)
    value = prep.call()
    assert passes(prep.check(value))
    assert prep.check(value + 2 * checks.JARZYNSKI_TOL)["charfn.pointwise_err_max"] > 1.0


def test_delta_numeric_check_rejects_perturbed_value():
    prep = prepared("delta_numeric", state="delta", coupling=0.5, mu=3.0)
    value = prep.call()
    assert passes(prep.check(value))
    assert prep.check(value + 2j * checks.GRID_TOL)["charfn.pointwise_err_max"] > 1.0


def test_moment_checks_reject_perturbed_moments():
    prep = prepared("moments", state="vacuum")
    rep = prep.call()
    assert passes(prep.check(rep))
    bumped = dataclasses.replace(rep, second_moment=rep.second_moment * (1.0 + 2 * checks.MOMENT_REL_TOL))
    assert prep.check(bumped)["workdist.moment_err_max"] > 1.0
    sweep = prepared("sweep", state="vacuum", scales=(1.0, 0.5))
    rows = sweep.call()
    assert passes(sweep.check(rows))
    rows[1] = rows[1]._replace(std=rows[1].std * (1.0 + 4 * checks.MOMENT_REL_TOL))
    assert sweep.check(rows)["workdist.moment_err_max"] > 1.0


def test_crooks_and_ramsey_table_checks_reject_misses():
    assert passes(checks.crooks_table_check([1e-12, -1e-12], [True, True]))
    assert not passes(checks.crooks_table_check([1e-12, 2 * checks.CROOKS_TOL], [True, True]))
    assert not passes(checks.crooks_table_check([1e-12], [False]))
    assert passes(checks.ramsey_check(np.array([1e-8, 1e-7])))
    assert not passes(checks.ramsey_check(np.array([1e-8, 2 * checks.RAMSEY_TOL])))


def test_cli_check_reads_and_rejects_the_written_table(tmp_path):
    configs = workloads.cli_configs(ROOT)
    task = workloads.Task("cli", {"command": "ramsey", "config": "delta", "set": ("field.coupling=0.05",)})
    prep = workloads.prepare_cli(task, configs, tmp_path, 0)
    out = prep.call()
    assert out.code == 0 and out.bytes > 0
    text = Path(out.path).read_text()
    header, first, rest = text.split("\n", 2)
    assert passes(prep.check(out))  # the check removes the file it read
    cells = first.split(",")
    cells[5] = repr(2 * checks.RAMSEY_TOL)
    Path(out.path).write_text("\n".join([header, ",".join(cells), rest]))
    assert prep.check(out)["ramsey.err_max"] > 1.0


# -- CLI exit codes ------------------------------------------------------------


def documented_exit_codes():
    """{meaning: code} from the 'Exit codes:' sentence of the CLI's docstring."""
    sentence = re.search(r"Exit codes:(.*?)\.", fieldwork.cli.__doc__, re.S).group(1)
    return {m.group(2).strip(): int(m.group(1)) for m in re.finditer(r"(\d+) ([^,]+)", sentence)}


def test_expected_exit_codes_are_the_documented_ones():
    codes = documented_exit_codes()
    assert codes["success"] == 0
    tasks = [t for block in first_blocks("cli", 5, n=4) for t in block]
    for task in tasks:
        assert task.expect == codes[task.params.get("error", "success")]
    assert {t.expect for t in tasks} == {0, 2, 3}


@pytest.mark.parametrize(
    "case",
    [(code, c) for code, cases in workloads.ERROR_KINDS.values() for c in cases],
    ids=lambda case: case[1][0],
)
def test_documented_invalid_inputs_exit_as_expected(case, tmp_path):
    code, (why, command, config, sets) = case
    task = workloads.Task("cli", {"command": command, "config": config, "set": sets}, expect=code)
    prep = workloads.prepare_cli(task, workloads.cli_configs(ROOT), tmp_path, 0)
    out = prep.call()
    assert out.code == code
    assert not Path(out.path).exists()

