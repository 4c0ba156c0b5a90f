"""Span tracing of the fieldwork layers from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` at every name that binds
it inside the package (``fieldwork.workdist.charfn_grid`` as well as
``fieldwork.charfn.charfn_grid``), because a module calls the functions of
another through the names it imported.  Each call records a span: function,
start, end and the span that was open when it started.  Spans stay in compact
arrays in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED = {
    "field_model": ("smearing_ft", "switching_ft", "thermal_weight", "dispersion"),
    "special_math": ("integrate_radial", "invert_charfn", "dawson"),
    "charfn": (
        "charfn_grid",
        "sample_charfn",
        "charfn_kms",
        "charfn_correction",
        "charfn_delta_numeric",
        "charfn_delta_closed",
    ),
    "workdist": (
        "distribution_from_charfn",
        "moments",
        "delta_weight",
        "localization_sweep",
        "crooks_check",
    ),
    "ramsey": ("simulate_delta_ramsey", "simulate_perturbative_ramsey", "continuum_convergence"),
    "cli": ("main",),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

INTEGRAND_EVALS = "special_math.integrate_radial.integrand_evals"
QUAD_FAILED = "special_math.integrate_radial.failed"
POINTS = "charfn.sample_charfn.points"
FLOOR_VIOLATIONS = "workdist.floor_violations"
CLAMPED_POINTS = "workdist.clamped_points"


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span are disjoint, because spans come from one thread and
    close in the reverse order they opened, so the covered part is the sum of
    the children's durations, each clipped to its parent's interval.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.nonzero(parent >= 0)[0]
    owner = parent[child]
    covered = np.minimum(end[child], end[owner]) - np.maximum(start[child], start[owner])
    covered_by_owner = np.bincount(
        owner, weights=np.maximum(covered, 0), minlength=start.size
    )
    return (end - start) - covered_by_owner


def top_spans(parent) -> np.ndarray:
    """Index of the outermost ancestor of every span (itself for a top-level span)."""
    up = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        jumped = up[up]
        if np.array_equal(jumped, up):
            return up
        up = jumped


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self.counts: Counter = Counter()
        self._patches: list = []  # (module, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def spanned(self, name: str, fn):
        """``fn`` wrapped so each call records a span named ``name``."""
        fid = self._id(name)
        func, parent, start, end, open_ = self.func, self.parent, self.start, self.end, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            func.append(fid)
            parent.append(open_[-1])
            end.append(0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return wrapper

    def _counted(self, name: str, fn):
        """The span wrapper plus the counters this boundary measures."""
        inner = self.spanned(name, fn)
        counts = self.counts
        if name == "special_math.integrate_radial":
            from fieldwork.errors import ConvergenceError

            def wrapper(f, *args, **kwargs):
                def counted(k):
                    counts[INTEGRAND_EVALS] += 1
                    return f(k)

                try:
                    return inner(counted, *args, **kwargs)
                except ConvergenceError:
                    counts[QUAD_FAILED] += 1
                    raise

        elif name == "charfn.sample_charfn":

            def wrapper(s, mu, *args, **kwargs):
                counts[POINTS] += int(np.size(mu))
                return inner(s, mu, *args, **kwargs)

        elif name == "workdist.distribution_from_charfn":

            def wrapper(*args, **kwargs):
                dist = inner(*args, **kwargs)
                counts[FLOOR_VIOLATIONS] += int(bool(dist.metadata["negative_floor_violation"]))
                counts[CLAMPED_POINTS] += int(dist.metadata["clamped_points"])
                return dist

        else:
            return inner
        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every TRACED function at each package name bound to it."""
        if self._patches:
            for module, attr, _, wrapper in self._patches:
                setattr(module, attr, wrapper)
            return
        modules = [m for n, m in list(sys.modules.items()) if n == "fieldwork" or n.startswith("fieldwork.")]
        for mod_name, fns in TRACED.items():
            home = importlib.import_module(f"fieldwork.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._counted(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original, wrapper))

    def uninstall(self):
        """Restore the original functions; ``install`` puts the wrappers back."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "func": np.frombuffer(self.func, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self, task_factors=None) -> dict:
        """Per name: calls, self seconds and inclusive seconds.

        With ``task_factors`` (one per top-level span, in the order they ran),
        every span's times are divided by the factor of the top-level span it
        belongs to.
        """
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"]).astype(float)
        total = (a["end"] - a["start"]).astype(float)
        if task_factors is not None:
            top = top_spans(a["parent"])
            ordinal = np.cumsum(a["parent"] < 0) - 1
            scale = np.asarray(task_factors, dtype=float)[ordinal[top]]
            own /= scale
            total /= scale
        n = len(self.names)
        calls = np.bincount(a["func"], minlength=n)
        self_s = np.bincount(a["func"], weights=own, minlength=n) / 1e9
        incl_s = np.bincount(a["func"], weights=total, minlength=n) / 1e9
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
