"""Benchmark of addamsfrailty: four workloads, end-to-end and per-layer figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --seed 1 --seconds 2 --smoke

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics, recorded by wrappers installed around the
package's public functions (see tracing.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's metadata (versions,
thread settings, ``src/`` line count, deterministic counts, failures).
``--workload all`` runs each workload in its own process and prints the
figures of all four.  ``--smoke`` shrinks every input for quick checks of
the benchmark itself.

Every workload is closed-loop with one caller in one process.  The BLAS and
OpenMP thread variables are fixed to 1 before numpy loads, and
ADDAMSFRAILTY_THREADS is removed from the environment.

A run takes one set-up sample, prepares what only the checks need (untimed),
then repeats the timed operation for ``--seconds`` (``op_s`` is the median).
A set-up sample is a few set-ups back to back, enough to last about a
second, timed together (mean seconds per set-up); the workload's further
samples run between operations, spread evenly over the run, and ``setup_s``
is the median of the samples.  So ``setup_s``, like ``op_s``, rests on
timings of a second or more taken across the whole run, not on a burst of
short ones at its start.

``op_s`` and ``setup_s`` are seconds at a fixed host speed.  On a 2-vCPU
share of a Xeon cloud host the speed of the host itself drifted by up to
1.7x over tens of seconds, and that drift, not the program, set most of the
run-to-run spread of plain wall times.  So a fixed reference computation
that calls nothing in the package (``_reference_work``) is timed right after
every timed operation and every set-up sample, and each timing is scaled by
``REFERENCE_S`` over the mean time of the reference computations just
before and just after it: the seconds it would have taken on a host that
runs the reference computation in ``REFERENCE_S``.  The plain wall-clock
medians (``op_wall_s``, ``setup_wall_s``) and the reference timings are
printed with the metadata.

``attempted`` counts every set-up, every operation and the run-level checks;
a set-up whose inputs differ from the first, an operation that raises or
fails its checks, and deterministic facts that differ from an earlier run
of the same code and seed (kept under ``.perfbench_out/``) each count as
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("study", "cohort", "household", "analyze")

# seconds the reference computation is scaled to; about its time on a
# 2-vCPU Xeon cloud host, so that op_s and setup_s read close to wall time
REFERENCE_S = 0.04
# name -> (unit, better); the end-to-end metrics of a --trace 0 run
END_TO_END = {
    "op_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# per-layer metrics of a --trace 1 run, measured over the first traced operation
LAYERS = {
    "estimation.objective_evals_per_fit": ("count", "lower"),
    "estimation.gradient_calls_per_fit": ("count", "lower"),
    "estimation.bfgs_iterations": ("count", "lower"),
    "estimation.minimize_calls_per_fit": ("count", "lower"),
    "estimation.hessian_evals": ("count", "lower"),
    "estimation.hessian_s": ("s", "lower"),
    "estimation.fit_s": ("s", "lower"),
    "estimation.build_spec_calls": ("count", "lower"),
    "likelihood.workspace_build_s": ("s", "lower"),
    "likelihood.evals": ("count", "lower"),
    "likelihood.eval_s": ("s", "lower"),
    "likelihood.ie_terms": ("terms_computed", "lower"),
    "likelihood.clamps": ("count", "lower"),
    "family.log_laplace_calls": ("count", "lower"),
    "family.log_laplace_s": ("s", "lower"),
    "hazard.cumulative_calls": ("count", "lower"),
    "hazard.cumulative_s": ("s", "lower"),
    "simulate.generate_s": ("s", "lower"),
    "simulate.clusters_per_s": ("1/s", "higher"),
    "data.read_csv_s": ("s", "lower"),
    "data.write_csv_s": ("s", "lower"),
    "data.rows": ("count", "higher"),
    "data.csv_bytes": ("bytes", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "analysis.rc_table_s": ("s", "lower"),
    "analysis.hr_within_table_s": ("s", "lower"),
    "analysis.rfv_parameter_table_s": ("s", "lower"),
    "analysis.trajectories_s": ("s", "lower"),
    "analysis.build_spec_calls": ("count", "lower"),
    "report.write_s": ("s", "lower"),
    "report.bytes": ("bytes", "lower"),
}
# layers whose work a workload's set-up does, reported as "setup.<name>"
SETUP_LAYERS = (
    "simulate.generate_s", "simulate.clusters_per_s", "data.write_csv_s",
    "data.csv_bytes", "estimation.fit_s", "estimation.objective_evals_per_fit",
    "cli.command_s", "config.load_s",
)
PER_LAYER = dict(LAYERS)
PER_LAYER.update({f"setup.{name}": LAYERS[name] for name in SETUP_LAYERS})
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")
# units of deterministic per-layer figures, which must repeat exactly
COUNT_UNITS = ("count", "bytes", "terms_computed")


def _require_source():
    missing = [p for p in (SRC / "addamsfrailty" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        sys.exit("perfbench: not run from a checkout of addamsfrailty; missing "
                 + ", ".join(str(p.relative_to(ROOT)) for p in missing))
    sys.path.insert(0, str(SRC))


def _code_digest():
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + [ROOT / "tests" / "oracles.py"]
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def _metadata(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "ADDAMSFRAILTY_THREADS": os.environ.get("ADDAMSFRAILTY_THREADS", "unset"),
        "src_lines": _src_lines(),
        "code_sha256": _code_digest(),
    }


def _peak_rss_mb():
    """Peak resident set of this process, which runs one workload only."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Operations attempted in one run, with their checks."""

    def __init__(self):
        self.attempted = 0
        self.problems = []          # (what, problem)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.problems.append((what, problems))

    @property
    def failed(self):
        return len(self.problems)


def _reference_work():
    """Fixed work that calls nothing in the package: a Python loop and numpy
    array passes, the two kinds of work the workloads do."""
    import numpy as np

    total = 0
    for i in range(300_000):
        total += i % 7
    x = np.linspace(0.01, 10.0, 100_000)
    for _ in range(8):
        y = np.log1p(np.exp(-x))
        np.searchsorted(x, y)
        np.sort(y)
    return total


class HostClock:
    """Scales timings to a host that runs ``_reference_work`` in REFERENCE_S."""

    def __init__(self):
        self.references = [self._reference()]

    @staticmethod
    def _reference():
        start = perf_counter()
        _reference_work()
        return perf_counter() - start

    def scale(self, elapsed):
        """``elapsed`` seconds, measured just now, at the reference speed."""
        self.references.append(self._reference())
        return elapsed * REFERENCE_S / statistics.mean(self.references[-2:])


def _measure(wl, state, seconds, run, count=None, tracer_for=None, between=None,
             clock=None):
    """Repeat the timed operation for ``seconds`` (or exactly ``count`` times).

    Returns one record per operation: (index, seconds or None, outputs,
    sub-timings, tracer, seconds at the reference speed of ``clock`` or
    None).  An exception or a failed check counts as a failed operation.
    ``between(progress)``, if given, is called after each operation with the
    share of ``seconds`` used so far.
    """
    records = []
    started = perf_counter()
    deadline = started + seconds
    i = 0
    while True:
        if count is not None and len(records) >= count:
            break
        if count is None and records and perf_counter() >= deadline:
            break
        tracer = tracer_for() if tracer_for is not None else None
        gc.collect()  # each operation starts from the same heap state
        try:
            with tracer or contextlib.nullcontext():
                start = perf_counter()
                out = wl.op(state, i)
                elapsed = perf_counter() - start
            scaled = clock.scale(elapsed) if clock is not None else None
            problems = wl.check(state, i, out)
            record = (i, elapsed, wl.outputs(state, i, out), wl.timings(out), tracer, scaled)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
            record = (i, None, None, {}, tracer, None)
        run.record(f"op {i}", problems)
        records.append(record)
        i += 1
        if between is not None:
            between((perf_counter() - started) / seconds if seconds else 1.0)
    return records


def _setup(wl, k, run, first=None, tracer=None, batch=1):
    """Set-up sample ``k``: ``batch`` set-ups back to back, each in a work
    directory of its own and each producing the same inputs as the first.
    Returns (state and digest of the sample's first set-up, mean seconds
    per set-up)."""
    workdirs = [wl.workdir / f"setup{k}-{b}" for b in range(batch)]
    for workdir in workdirs:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
    gc.collect()
    digests = []
    start = perf_counter()
    with tracer or contextlib.nullcontext():
        for workdir in workdirs:
            state_b, made = wl.setup(workdir)
            if not digests:
                state = state_b
            digests.append(made)
    elapsed = (perf_counter() - start) / batch
    first = digests[0] if first is None else first
    for b, made in enumerate(digests):
        run.record(f"setup {k}.{b}", [] if made == first
                   else ["set-up inputs differ between repeats"])
    for workdir in workdirs[1:]:
        shutil.rmtree(workdir, ignore_errors=True)
    return state, digests[0], elapsed


def _compare_with_earlier(args, code, deterministic, run):
    """Deterministic facts must repeat across runs of one commit and seed."""
    store = OUT / "runs" / (f"{args.workload}-seed{args.seed}"
                            f"{'-smoke' if args.smoke else ''}-{code}.json")
    earlier = {}
    if store.is_file():
        try:
            earlier = json.loads(store.read_text())
        except ValueError:
            earlier = {}
    status = "compared with an earlier run" if earlier else "first run"
    mismatches = []
    for section, values in deterministic.items():
        before = earlier.get(section, {})
        for key, value in values.items():
            if key in before and before[key] != value:
                mismatches.append(f"{section}.{key}")
            before[key] = value
        earlier[section] = before
    run.record("determinism across runs",
               [f"differs from an earlier run: {', '.join(mismatches)}"] if mismatches else [])
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(earlier, sort_keys=True))
    os.replace(tmp, store)
    return status


def _untraced(wl, args, run, meta):
    """End-to-end run: one set-up sample, then the timed operation for
    --seconds, with the further set-up samples spread over the run."""
    clock = HostClock()
    state, made, elapsed = _setup(wl, 0, run, batch=wl.setup_batch)
    setup_times, setup_scaled = [elapsed], [clock.scale(elapsed)]
    wl.prepare(state)

    def more_setups(progress):
        while len(setup_times) < wl.setup_samples and \
                progress >= len(setup_times) / wl.setup_samples:
            k = len(setup_times)
            setup_times.append(_setup(wl, k, run, first=made, batch=wl.setup_batch)[2])
            setup_scaled.append(clock.scale(setup_times[-1]))
            shutil.rmtree(wl.workdir / f"setup{k}-0", ignore_errors=True)

    ops = _measure(wl, state, args.seconds, run, between=more_setups, clock=clock)
    more_setups(1.0)
    op_scaled = [r[5] for r in ops if r[5] is not None]
    values = {
        "op_s": statistics.median(op_scaled) if op_scaled else None,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": _peak_rss_mb(),
    }
    meta["reference_s"] = {"median": statistics.median(clock.references),
                           "min": min(clock.references), "max": max(clock.references),
                           "count": len(clock.references)}
    return setup_times, made, ops, values


def _traced(wl, args, run, meta):
    """Per-layer run: one traced set-up, untraced operations for half of
    --seconds, then the same operations again with the tracer installed.
    Layer figures come from the traced set-up and the first traced
    operation; the tracing overhead is the median of traced minus untraced
    wall time over operations on the same input."""
    from tracing import Tracer

    setup_tracer = Tracer()
    state, made, elapsed = _setup(wl, 0, run, tracer=setup_tracer)
    setup_times = [elapsed]
    wl.prepare(state)
    plain = [r for r in _measure(wl, state, args.seconds / 2, run) if r[1] is not None]
    traced = _measure(wl, state, 0, run, count=max(1, len(plain)), tracer_for=Tracer)
    by_index = {r[0]: r[2] for r in plain}
    run.record("traced outputs equal untraced", [
        f"op {r[0]} outputs differ when traced" for r in traced
        if r[2] is not None and r[0] in by_index and r[2] != by_index[r[0]]
    ])
    values = traced[0][4].metrics()
    values.update({f"setup.{k}": v for k, v in setup_tracer.metrics().items()
                   if k in SETUP_LAYERS})
    pairs = [(t[1], p[1]) for t, p in zip(traced, plain) if t[1] is not None]
    overhead = statistics.median(t - p for t, p in pairs) if pairs else None
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = (
        None if overhead is None else overhead / statistics.median(p for _, p in pairs))
    meta["absent"] = sorted(k for k, v in values.items() if v is None)
    meta["traced_ops"] = len(traced)
    return setup_times, made, plain, values


def run_one(args):
    from workloads import WORKLOADS

    meta = _metadata(args)
    run = Run()
    wl = WORKLOADS[args.workload](args.seed, args.smoke,
                                  OUT / f"work-{args.workload}-{os.getpid()}")
    try:
        setup_times, made, ops, values = (_traced if args.trace else _untraced)(
            wl, args, run, meta)
        deterministic = {
            "setup": {"digest": made},
            "ops": {str(r[0]): r[2] for r in ops if r[2] is not None},
        }
        if args.trace:
            deterministic["layer_counts"] = {
                k: v for k, v in values.items()
                if PER_LAYER.get(k, ("",))[0] in COUNT_UNITS
            }
        meta["determinism"] = _compare_with_earlier(args, meta["code_sha256"], deterministic, run)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    op_times = [r[1] for r in ops if r[1] is not None]
    timings = {}
    for r in ops:
        for key, sub in r[3].items():
            timings.setdefault(key, []).extend(sub)
    summary = {name: (values[name], "s") for name in ("op_s", "setup_s")
               if values.get(name) is not None}
    summary["setup_wall_s"] = (statistics.median(setup_times), "s")
    if op_times:
        summary["op_wall_s"] = (statistics.median(op_times), "s")
        summary.update(wl.summary(op_times, timings))
    summary["peak_rss_mb"] = (values.get("peak_rss_mb") or _peak_rss_mb(), "MB")
    summary["failed_frac"] = (run.failed / run.attempted, "ratio")
    meta.update({
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "setup_times_s": setup_times,
        "op_times_s": op_times,
        "deterministic": deterministic,
        "failures": [f"{what}: {'; '.join(p)}" for what, p in run.problems][:20],
    })
    units = PER_LAYER if args.trace else END_TO_END
    for name, (value, unit) in summary.items():
        print(f"{args.workload:<10} {name:<20} {value:>14.6g} {unit}")
    for line in meta["failures"]:
        print(f"FAILED {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0 and bool(op_times),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]}
                    for k, v in values.items() if v is not None},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS belongs to one workload."""
    results, failed = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            failed += 1
            continue
        results[name] = (json.loads(lines[-2])["meta"], json.loads(lines[-1]))
    print()
    print(f"{'workload':<10} {'metric':<36} {'value':>14} unit")
    for name, (meta, result) in results.items():
        rows = result["metrics"] if args.trace else meta["summary"]
        for metric, entry in rows.items():
            print(f"{name:<10} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<10} {'failed/attempted':<36} "
              f"{result['failed']:>7}/{result['attempted']:<6}")
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()) + failed,
        "failed": sum(r["failed"] for _, r in results.values()) + failed,
        "metrics": {f"{name}.{metric}": entry
                    for name, (_, result) in results.items()
                    for metric, entry in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    # before numpy loads: one BLAS/OpenMP thread, and the package's own knob unset
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ADDAMSFRAILTY_THREADS", None)
    _require_source()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
