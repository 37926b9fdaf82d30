"""Checks of the benchmark itself, on the small inputs of ``--smoke``.

    python3 perfbench/selftest.py

* BENCHMARK.json names exactly the workloads and metrics run.py reports;
* each workload, untraced and traced, prints a result line of the agreed
  shape with every metric, and passes its correctness checks;
* two traced runs with one seed give the same deterministic counts;
* a counter whose source the package lacks reads as absent;
* in a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import COUNT_UNITS, END_TO_END, NAMES, OUT, PER_LAYER  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


def check_manifest(failures):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in manifest["workloads"]] != list(NAMES):
        failures.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from run.py")


def check_result(label, proc, expected, failures):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
        return None
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: {result['failed']}/{result['attempted']} failed "
                        f"{json.loads(lines[-2])['meta']['failures']}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if name not in expected or entry["unit"] != expected[name][0]:
            failures.append(f"{label}: unexpected metric {name} [{entry['unit']}]")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r}")
    absent = json.loads(lines[-2])["meta"].get("absent", [])
    missing = set(expected) - set(result["metrics"]) - set(absent)
    if missing:
        failures.append(f"{label}: missing metrics {sorted(missing)}")
    return result


def check_workloads(failures):
    for name in NAMES:
        common = ("--workload", name, "--seed", "3", "--seconds", "1", "--smoke")
        check_result(f"{name} untraced", _run(ROOT, *common, "--trace", "0"),
                     END_TO_END, failures)
        traced = [check_result(f"{name} traced", _run(ROOT, *common, "--trace", "1"),
                               PER_LAYER, failures) for _ in range(2)]
        if None in traced:
            continue
        counts = [
            {k: v["value"] for k, v in r["metrics"].items()
             if PER_LAYER[k][0] in COUNT_UNITS}
            for r in traced
        ]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            failures.append(f"{name}: deterministic counts differ between runs: {diff}")


def check_bare_directory(failures):
    bare = OUT / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy2(path, bare / "perfbench")
        proc = _run(bare, "--workload", "study", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("benchmark did not fail without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_absent_sources(failures):
    """Counters whose source the package no longer has read as absent."""
    sys.path.insert(0, str(ROOT / "src"))
    import addamsfrailty.likelihood as likelihood
    import workloads
    from tracing import Tracer

    saved = likelihood.diagnostics
    del likelihood.diagnostics
    try:
        wl = workloads.Household(1, True, OUT / f"absent-{os.getpid()}")
        state, _ = wl.setup(wl.workdir)
        with Tracer() as tracer:
            wl.op(state, 0)
        layer = tracer.metrics()
    finally:
        likelihood.diagnostics = saved
    if layer["likelihood.clamps"] is not None:
        failures.append("likelihood.clamps not absent without likelihood.diagnostics")
    if not layer["likelihood.evals"]:
        failures.append("tracing without likelihood.diagnostics counted no evaluations")


def main():
    failures = []
    check_manifest(failures)
    check_absent_sources(failures)
    check_bare_directory(failures)
    check_workloads(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
