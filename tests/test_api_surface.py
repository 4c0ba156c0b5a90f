"""The public API surface.

Every name a module lists in ``__all__`` must resolve, and the package's
export list is pinned so that the public-name count changes only on purpose.
Every function the benchmark's tracer wraps must exist under its name.
Every module-level private name must be used somewhere in the package, and
every module-level import in the module that makes it.
The package needs numpy alone: it imports no scipy, declares numpy as its only
runtime dependency, and runs its commands without loading scipy.  Under glibc,
importing it keeps freed heap memory for reuse, so repeated calls do not fault
their arrays in afresh.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fieldwork

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

MODULES = sorted(m.name for m in pkgutil.iter_modules(fieldwork.__path__))

PUBLIC_NAMES = [
    "CharFnGrid",
    "ConfigError",
    "ConvergenceError",
    "ConvergenceReport",
    "CrooksRow",
    "FieldSpec",
    "FieldworkError",
    "InconsistencyError",
    "InvalidArgumentError",
    "ModeSet",
    "MomentReport",
    "QubitState",
    "RegimeError",
    "Scenario",
    "SmearingProfile",
    "SweepRow",
    "SwitchingProfile",
    "WorkDistribution",
    "charfn_correction",
    "charfn_delta_closed",
    "charfn_delta_numeric",
    "charfn_grid",
    "charfn_kms",
    "continuum_convergence",
    "crooks_check",
    "delta_weight",
    "dispersion",
    "distribution_from_charfn",
    "first_order_qubit_correction",
    "invert_charfn",
    "localization_sweep",
    "moments",
    "sample_charfn",
    "simulate_delta_ramsey",
    "simulate_perturbative_ramsey",
    "smearing_ft",
    "switching_ft",
    "thermal_weight",
    "tomography",
    "work_density_analytic",
]


@pytest.mark.parametrize("name", ["fieldwork"] + [f"fieldwork.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_pinned():
    assert sorted(fieldwork.__all__) == PUBLIC_NAMES


def test_every_traced_function_resolves():
    # the benchmark's tracer wraps these by name; a missing one fails only a traced run
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"fieldwork.{mod}"), fn, None))
    ]
    assert missing == []


def _module_level_private_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_used():
    trees = [ast.parse(p.read_text()) for p in Path(fieldwork.__file__).parent.glob("*.py")]
    defined = set().union(*map(_module_level_private_names, trees))
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used) == []


def _unread_imports(tree):
    """Names bound by the module-level imports of ``tree`` that it never reads;
    ``__future__`` imports and the names it lists in ``__all__`` are exempt."""
    bound = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read - exported


def test_every_module_level_import_is_read():
    unread = {
        p.name: sorted(names)
        for p in sorted(Path(fieldwork.__file__).parent.glob("*.py"))
        if (names := _unread_imports(ast.parse(p.read_text())))
    }
    assert unread == {}


def _imported_modules(tree):
    """Top-level names of every module ``tree`` imports, at any depth; relative
    imports (the package's own modules) are left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_runtime_needs_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    imported = {
        p.name: sorted(names)
        for p in sorted(Path(fieldwork.__file__).parent.glob("*.py"))
        if "scipy" in (names := _imported_modules(ast.parse(p.read_text())))
    }
    assert imported == {}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    def names(deps):
        return [re.match(r"[\w.-]+", dep).group() for dep in deps]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])  # the tests' quad


def test_the_package_and_its_commands_run_without_scipy(tmp_path):
    # the vacuum and delta commands evaluate the Faddeeva function (charfn, pdf,
    # moments, sweep) and the Dawson integral (ramsey)
    src = str(Path(fieldwork.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, fieldwork, fieldwork.cli\n"
        "configs, out = sys.argv[1:]\n"
        "codes = [fieldwork.cli.main([command, '--config', f'{configs}/{name}.ini',\n"
        "                             '--output', f'{out}/{name}-{command}.csv'])\n"
        "         for name in ('vacuum', 'delta_coupling')\n"
        "         for command in ('charfn', 'pdf', 'moments', 'sweep', 'ramsey')]\n"
        "fieldwork.special_math.dawson([0.5, 20.0])\n"
        "print(codes)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "configs"), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    # ramsey is delta-only, and moments and sweep need a smooth switching
    assert out.stdout.split("\n")[:2] == ["[0, 0, 0, 0, 3, 0, 0, 3, 3, 0]", "[]"]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap thresholds are glibc's")
def test_repeated_distributions_reuse_the_heap():
    # at glibc's start thresholds each 2^14-point delta distribution faulted
    # 140-210 pages of temporaries in afresh
    src = str(Path(fieldwork.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import resource, fieldwork as fw\n"
        "s = fw.Scenario(field=fw.FieldSpec(mass=0.0, beta=float('inf'), coupling=0.5),\n"
        "                switching=fw.SwitchingProfile.delta(),\n"
        "                smearing=fw.SmearingProfile.gaussian_spherical(1.0))\n"
        "for _ in range(3):\n"
        "    fw.distribution_from_charfn(s)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    fw.distribution_from_charfn(s)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert float(out.stdout) < 8.0
