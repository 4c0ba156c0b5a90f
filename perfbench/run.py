"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs the same blocks twice, untraced and then traced,
and reports the per-layer metrics of the traced half.  Human-readable lines
come first; the last line of standard output is one JSON object.

Times are reported at reference speed.  On a shared host, other tenants slow
all code, by up to 2x for minutes at a time.  Fixed kernels that share no code
with fieldwork (see Speed) run between the timed tasks; their durations against
REF_KERNEL_S give the machine's speed, and each task's time is divided by the
square root of the median speed factor of its block (see SPEED_EXPONENT).  The
raw wall figures are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One process, one BLAS thread: the forward matmul is a matrix-vector product
# that a second thread does not speed up on a 2-core machine, and an idle core
# keeps the run steadier.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# Four blocks hold at least eleven of each workload's slowest regular task (the
# distributions of grid, the pdf invocations of cli), so the tail, the value
# with ten tasks beyond it, always falls among them.
MIN_BLOCKS = 4
TAIL_BEYOND = 10  # the tail is the highest percentile with this many tasks beyond it
# the speed kernels' durations on the idle 2-core Xeon VM the bounds were set on
REF_KERNEL_S = {"python": 1.0e-3, "numpy": 0.55e-3}
# Over 23 runs under contention, fieldwork's run medians slowed by the kernel
# factor to a power between 0.2 and 1.0 (about 0.6 typical): the kernels, tight
# loops, suffer more from a busy sibling core than the program does.  Dividing
# by the square root left the smallest run-to-run spread (3-9 %, against 4-12 %
# raw and 4-13 % with the full factor).
SPEED_EXPONENT = 0.5
WALL_LIMIT = 1.5  # a phase ends once its wall time reaches this many times its budget


def tail_latency(latencies):
    """(value, percentile, samples): the value with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based; with fewer samples, the maximum
    return ordered[rank - 1], 100.0 * rank / n, n


class Speed:
    """Machine speed now, relative to the reference: > 1 means slower.

    Two kernels that share no code with fieldwork: a pure-Python loop, which
    slows like the scalar quadrature callbacks, and ``np.cos`` over an array,
    which slows like the trig matmul.  The factor is the geometric mean of
    their times over REF_KERNEL_S, each the faster of two runs.
    """

    def __init__(self):
        import numpy as np

        self._cos = np.cos
        self._x = np.linspace(0.0, 1.0, 100_000)
        self._out = np.empty_like(self._x)

    def _python_s(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        return time.perf_counter() - t0

    def _numpy_s(self):
        t0 = time.perf_counter()
        self._cos(self._x, out=self._out).sum()
        return time.perf_counter() - t0

    def factor(self):
        python = min(self._python_s(), self._python_s()) / REF_KERNEL_S["python"]
        numpy = min(self._numpy_s(), self._numpy_s()) / REF_KERNEL_S["numpy"]
        return math.sqrt(python * numpy)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the configured value."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    getter = getattr(handle, symbol)
                    getter.restype = ctypes.c_int
                    return int(getter())
    except OSError:
        pass
    return BLAS_THREADS


def os_threads():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def measure_setup(workload, seed):
    """Median wall time of SETUP_PROBES fresh set-ups, and all of them.

    Not scaled to reference speed: start-up is file and loader work, which the
    speed kernel does not track.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


class Run:
    """Executes blocks of prepared tasks and grades their outputs."""

    def __init__(self, blocks, speed, tracer=None):
        self._source = blocks
        self.seen: list = []  # blocks drawn so far, replayed by a later phase
        self.speed = speed
        self.tracer = tracer
        self.failures: list[str] = []
        self.ratios: dict = {}

    def block(self, i):
        while len(self.seen) <= i:
            self.seen.append(next(self._source))
        return self.seen[i]

    def warm_up(self):
        kinds = {}
        for prep in self.block(0):
            kinds.setdefault(prep.task.kind, prep)
        for prep in kinds.values():
            prep.check(prep.call())

    def phase(self, seconds, min_blocks, traced=False):
        """Run whole blocks for about ``seconds``; returns the phase record.

        The block count is the one whose reference-speed time is nearest to
        ``seconds``, judged from the first block, and at least ``min_blocks``,
        so that contention does not change how many tasks the quantiles are
        taken over.  A phase still stops once its wall time reaches WALL_LIMIT
        times ``seconds``.
        The speed kernels run between tasks; each task's time is divided by
        the median factor of its block (to SPEED_EXPONENT), which follows
        contention that lasts seconds without adding the kernels' own jitter
        to single tasks.
        ``ms`` holds each task's reference-speed latency, ``raw_ms`` its wall
        latency, and ``factors`` the speed factor applied to it.
        """
        rec = {"ms": [], "raw_ms": [], "factors": [], "blocks": [], "wall": 0.0,
               "cpu_s": 0.0, "tasks": 0, "failed": 0, "bytes": 0}
        i, n_blocks = 0, 1
        while i < n_blocks and rec["wall"] < WALL_LIMIT * seconds:
            block = self.block(i)
            calls = [
                self.tracer.spanned(f"task.{p.task.kind}", p.call) if traced else p.call
                for p in block
            ]
            if traced:
                self.tracer.install()
            results = []
            wall0, cpu0 = time.perf_counter(), time.process_time()
            probes = [self.speed.factor()]
            for call in calls:
                t0 = time.perf_counter_ns()
                try:
                    out, err = call(), None
                except Exception as exc:  # a raising task is a failed task; the run goes on
                    out, err = None, exc
                results.append(((time.perf_counter_ns() - t0) / 1e6, out, err))
                probes.append(self.speed.factor())
            rec["wall"] += time.perf_counter() - wall0
            rec["cpu_s"] += time.process_time() - cpu0
            if traced:
                self.tracer.uninstall()
            factor = statistics.median(probes) ** SPEED_EXPONENT
            block_ms = 0.0
            for prep, (latency, out, err) in zip(block, results):
                rec["raw_ms"].append(latency)
                rec["factors"].append(factor)
                rec["ms"].append(latency / factor)
                block_ms += latency / factor
                rec["tasks"] += 1
                rec["bytes"] += getattr(out, "bytes", 0)
                if not self._grade(prep, out, err):
                    rec["failed"] += 1
            rec["blocks"].append(block_ms)
            if i == 0:
                n_blocks = max(min_blocks, round(seconds * 1e3 / block_ms))
            i += 1
        return rec

    def _grade(self, prep, out, err):
        task = prep.task
        problem = None
        if err is not None:
            problem = f"raised {type(err).__name__}: {err}"
        else:
            try:
                ratios = prep.check(out)
            except Exception as exc:  # an output the check cannot read is a miss
                ratios, problem = {}, f"check raised {type(exc).__name__}: {exc}"
            code = getattr(out, "code", task.expect)
            if code != task.expect:
                problem = f"exit code {code}, expected {task.expect}"
            for metric, ratio in ratios.items():
                self.ratios[metric] = max(self.ratios.get(metric, 0.0), ratio)
                if not ratio <= 1.0:
                    problem = problem or f"{metric} error / tolerance = {ratio:.3g}"
        if problem:
            self.failures.append(f"{task.kind} {task.params}: {problem}")
        return problem is None


def end_to_end(rec, setup_s, ratios):
    lat = rec["ms"]
    tail, pct, n = tail_latency(lat)
    worst = max(ratios.values(), default=0.0)
    if not worst > 0:
        raise RuntimeError("no accuracy check reported an error")
    metrics = {
        "tasks_per_s": rec["tasks"] / (sum(lat) / 1e3),
        "task_p50_ms": statistics.median(lat),
        "task_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (rec["tasks"] - rec["failed"]) / rec["tasks"],
        "err_margin_digits": -math.log10(worst),
    }
    raw_tail = tail_latency(rec["raw_ms"])[0]
    notes = [
        f"task_tail_ms is the p{pct:.1f} latency of {n} tasks in {len(rec['blocks'])} blocks",
        f"raw wall: {rec['tasks'] / rec['wall']:.4g} tasks/s, p50 {statistics.median(rec['raw_ms']):.4g} ms, "
        f"tail {raw_tail:.4g} ms; speed factor median {statistics.median(rec['factors']):.3f}, "
        f"range {min(rec['factors']):.3f}-{max(rec['factors']):.3f}",
        f"err_over_tol_max = {worst!r}",
    ]
    return metrics, notes


def per_layer(run, traced, untraced):
    import checks
    import tracer as tracing

    tracer = run.tracer
    summary = tracer.summary(task_factors=traced["factors"])
    counts = tracer.counts
    metrics = {}
    for name in tracing.TRACED_NAMES:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    points = counts[tracing.POINTS]
    sample_s = summary.get("charfn.sample_charfn", {}).get("total_s", 0.0)
    metrics[tracing.POINTS] = points
    metrics["charfn.sample_charfn.ns_per_point"] = sample_s * 1e9 / points if points else 0.0
    for counter in (tracing.INTEGRAND_EVALS, tracing.QUAD_FAILED,
                    tracing.FLOOR_VIOLATIONS, tracing.CLAMPED_POINTS):
        metrics[counter] = counts[counter]
    metrics["cli.bytes_written"] = traced["bytes"]
    for name in checks.ACCURACY_METRICS:
        metrics[name] = run.ratios.get(name, 0.0)
    metrics["process.cpu_s"] = traced["cpu_s"]
    metrics["process.threads"] = os_threads()
    k = min(len(traced["blocks"]), len(untraced["blocks"]))
    metrics["trace.overhead_frac"] = sum(traced["blocks"][:k]) / sum(untraced["blocks"][:k]) - 1.0
    notes = [f"trace.overhead_frac compares the first {k} blocks of each half"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "pointwise", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import fieldwork
    except ImportError as exc:
        print(f"perfbench: cannot import fieldwork from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(fieldwork.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: fieldwork imported from {fieldwork.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as out_dir:
        blocks = workloads.prepared_blocks(args.workload, args.seed, ROOT, Path(out_dir))
        run = Run(blocks, Speed(), tracing.Tracer() if args.trace else None)
        run.block(0)
        setup_s, setup_all = measure_setup(args.workload, args.seed)
        run.warm_up()
        if args.trace:
            untraced = run.phase(args.seconds / 2, min_blocks=2)
            traced = run.phase(args.seconds / 2, min_blocks=2, traced=True)
            metrics, notes = per_layer(run, traced, untraced)
            trace_path = WORK / f"trace-{args.workload}.npz"
            run.tracer.save(trace_path)
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
            attempted = untraced["tasks"] + traced["tasks"]
            failed = untraced["failed"] + traced["failed"]
        else:
            rec = run.phase(args.seconds, min_blocks=MIN_BLOCKS)
            metrics, notes = end_to_end(rec, setup_s, run.ratios)
            notes.append("setup probes: " + ", ".join(f"{t:.4f} s" for t in setup_all))
            attempted, failed = rec["tasks"], rec["failed"]

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}, "
          f"BLAS threads {blas_threads()}, python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]!r} {m['unit']} ({m['better']} is better)")
    for line in notes:
        print(f"note: {line}")
    for line in run.failures:
        print(f"FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
