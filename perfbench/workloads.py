"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed alone, runs a
set-up, then repeats one timed operation.  Every call into
``addamsfrailty`` goes through a module attribute (``simulate.generate``,
``estimation.fit``, ...) so the wrappers of a traced run see it.

study
    One replicate of the replication gates: ``generate`` on the recovery
    spec (alpha = -1, gamma = 5, two piecewise units, n = 3000), ``fit``
    of the free model, ``fit`` of the gamma-pinned null, ``lrt``.  Small n:
    per-evaluation overhead and evaluation count dominate, and both the
    general and the gamma-limit branches of ``family`` run.
cohort
    ``cli.main(["fit", ...])`` on 12,000-cluster CSVs of the same spec,
    three of them written during set-up by ``cli.main(["simulate", ...])``;
    operation i fits CSV i mod 3, so a run's median does not rest on the
    iteration count of one dataset.  The fit config has no ``[params]``, so
    the fit starts from the data-driven default.  Large n: CSV read,
    workspace build and the likelihood kernel.
household
    One ``LikelihoodWorkspace`` plus ``total_loglik`` over a fixed 6 x 6
    grid of (alpha, gamma), on K = 8 units per cluster with exponential
    baselines (n = 2000).  Loads the inclusion-exclusion kernel wide
    (about 200 event-pattern groups, about 55k terms per evaluation).  The
    series oracle the check compares against is computed once before the
    timed loop and is not part of ``setup_s``: it is not the program's work.
analyze
    ``rc_table``, ``hr_within_table``, ``rfv_parameter_table``,
    ``trajectories`` for every stratum and every ``report`` writer, on a
    two-stratum fit made during set-up.  Runs no likelihood.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from addamsfrailty import analysis, cli, estimation, family, hazard, likelihood, report, simulate

ALPHA, GAMMA = -1.0, 5.0
MONITORING = dict(kind="uniform", a=1.0, b=80.0)
# relative error allowed between the workspace's cluster probabilities at
# the generating values and the series oracle (measured below 1e-10)
ORACLE_RTOL = 1e-8


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, fixed by the benchmark seed and its index."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _monitoring():
    return simulate.MonitoringLaw(**MONITORING)


def _recovery_spec(regime: str = "free"):
    link = hazard.FrailtyLink.for_factor(["s"], zeta0=ALPHA, kappa0=math.log(GAMMA))
    return hazard.ModelSpec(
        units=("u1", "u2"),
        baselines={
            "u1": hazard.PiecewiseConstantBaseline((0.0, 40.0), (0.05, 0.02)),
            "u2": hazard.PiecewiseConstantBaseline((0.0, 40.0), (0.03, 0.04)),
        },
        frailty_link=link,
        branch_regimes={"s": hazard.BranchRegime(regime)},
    )


def _estimates(items):
    """Every Estimate reachable from a table, a row dict or a list of them."""
    for item in items:
        if isinstance(item, analysis.Estimate):
            yield item
        elif isinstance(item, dict):
            yield from _estimates(item.values())


def _brackets(lo, value, hi) -> bool:
    slack = 1e-12 * max(1.0, abs(value))
    return lo - slack <= value <= hi + slack


class Workload:
    """Set-up, one timed operation and its checks."""

    name = ""
    # set-up samples per run, and set-ups timed together in one sample
    setup_samples = 5
    setup_batch = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self, workdir: Path):
        """Build the inputs, with any files in ``workdir``; returns (state,
        digest of what set-up produced)."""
        raise NotImplementedError

    def prepare(self, state):
        """Untimed work after set-up that only the checks need."""

    def op(self, state, i):
        raise NotImplementedError

    def check(self, state, i, out):
        """Problems found in the output of operation ``i`` (empty when correct)."""
        raise NotImplementedError

    def outputs(self, state, i, out):
        """Deterministic facts of operation ``i``, equal across runs of one commit."""
        raise NotImplementedError

    def timings(self, out):
        """Sub-timings the operation measured itself, by name."""
        return {}

    def summary(self, op_times, timings):
        """The workload's own end-to-end figures, by the names users know them."""
        raise NotImplementedError


class Study(Workload):
    name = "study"
    setup_batch = 3

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 1000 if smoke else 3000

    def _replicate(self, state, n, sim_seed):
        data = simulate.generate(simulate.SimConfig(
            spec=state["free"], n_clusters=n, seed=sim_seed, monitoring=_monitoring(),
        ))
        t0 = perf_counter()
        alt = estimation.fit(state["free"], data)
        t1 = perf_counter()
        null = estimation.fit(state["null"], data)
        t2 = perf_counter()
        stat, p_value = estimation.lrt(null, alt)
        return {"data": data, "alt": alt, "null": null, "stat": stat,
                "p_value": p_value, "fit_s": (t1 - t0, t2 - t1)}

    def setup(self, workdir):
        state = {"free": _recovery_spec("free"), "null": _recovery_spec("gamma")}
        # warm-up of fixed size, so the first replicate pays no first-call
        # costs: one dataset, one workspace, one evaluation per model
        data = simulate.generate(simulate.SimConfig(
            spec=state["free"], n_clusters=self.n, seed=derived_seed(self.seed, 1 << 30),
            monitoring=_monitoring(),
        ))
        logliks = [likelihood.LikelihoodWorkspace(spec, data).total_loglik(spec)
                   for spec in (state["free"], state["null"])]
        return state, repr(logliks)

    def op(self, state, i):
        return self._replicate(state, self.n, derived_seed(self.seed, i))

    def check(self, state, i, out):
        problems = []
        for label in ("alt", "null"):
            result = out[label]
            if not result.converged:
                problems.append(f"{label} fit did not converge")
            if not np.all(np.isfinite(result.covariance)):
                problems.append(f"{label} fit has a non-finite covariance")
        truth = likelihood.LikelihoodWorkspace(state["free"], out["data"]).total_loglik(
            state["free"])
        if not out["alt"].loglik >= truth:
            problems.append(
                f"free fit loglik {out['alt'].loglik!r} below the generating "
                f"values' {truth!r}")
        if not (math.isfinite(out["stat"]) and out["stat"] >= 0.0):
            problems.append(f"LRT statistic {out['stat']!r}")
        return problems

    def outputs(self, state, i, out):
        return {
            "alt_iterations": out["alt"].iterations,
            "null_iterations": out["null"].iterations,
            "alt_loglik": repr(out["alt"].loglik),
            "null_loglik": repr(out["null"].loglik),
        }

    def timings(self, out):
        return {"fit_s": list(out["fit_s"])}

    def summary(self, op_times, timings):
        return {
            "replicates_per_s": (len(op_times) / sum(op_times), "1/s"),
            "fit_s": (float(np.median(timings["fit_s"])), "s"),
        }


class Cohort(Workload):
    name = "cohort"
    setup_samples = 3

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 2000 if smoke else 12_000
        self.files = 2 if smoke else 3

    def _write_configs(self, workdir, j):
        csv_path = workdir / f"cohort{j}.csv"
        model = ("[model]\nunits = u1, u2\nbaseline = piecewise\ncutpoints = 0, 40\n")
        sim_ini = workdir / f"simulate{j}.ini"
        sim_ini.write_text(
            f"[data]\npath = {csv_path}\n{model}"
            f"[params]\nzeta = {ALPHA!r}\nkappa = {math.log(GAMMA)!r}\n"
            "rates.u1 = 0.05, 0.02\nrates.u2 = 0.03, 0.04\n"
            f"[simulate]\nn_clusters = {self.n}\nseed = {derived_seed(self.seed, j)}\n"
            f"monitoring = uniform:{MONITORING['a']!r},{MONITORING['b']!r}\n"
            f"[output]\ndir = {workdir / f'simulate_out{j}'}\n"
        )
        fit_ini = workdir / f"fit{j}.ini"
        fit_ini.write_text(
            f"[data]\npath = {csv_path}\n{model}"
            f"[output]\ndir = {workdir / f'fit_out{j}'}\n"
        )
        return csv_path, sim_ini, fit_ini

    def setup(self, workdir):
        state, made = {"fit_ini": [], "report": []}, []
        for j in range(self.files):
            csv_path, sim_ini, fit_ini = self._write_configs(workdir, j)
            code = cli.main(["simulate", "--config", str(sim_ini)])
            if code != 0:
                raise RuntimeError(f"simulate exited with {code}")
            state["fit_ini"].append(str(fit_ini))
            state["report"].append(workdir / f"fit_out{j}" / "report.json")
            made.append(digest(csv_path.read_bytes()))
        return state, made

    def op(self, state, i):
        j = i % self.files
        state["report"][j].unlink(missing_ok=True)
        code = cli.main(["fit", "--config", state["fit_ini"][j]])
        blob = state["report"][j].read_bytes() if state["report"][j].exists() else b""
        return {"dataset": j, "code": code, "report": blob}

    def check(self, state, i, out):
        problems = []
        if out["code"] != 0:
            problems.append(f"fit exited with {out['code']}")
        try:
            converged = json.loads(out["report"])["fit"]["converged"]
        except (ValueError, KeyError) as exc:
            return problems + [f"report.json unreadable: {exc!r}"]
        if converged != "true":
            problems.append(f"converged = {converged!r}")
        reference = state.setdefault("reference", {}).setdefault(out["dataset"], out["report"])
        if out["report"] != reference:
            problems.append("report.json differs from the run's first fit of this CSV")
        return problems

    def outputs(self, state, i, out):
        try:
            fit = json.loads(out["report"])["fit"]
        except (ValueError, KeyError):
            fit = {}
        return {"dataset": out["dataset"], "report_sha256": digest(out["report"]),
                "iterations": fit.get("iterations"), "loglik": fit.get("loglik")}

    def summary(self, op_times, timings):
        return {"cli_fit_s": (float(np.median(op_times)), "s")}


class Household(Workload):
    name = "household"
    setup_batch = 5
    K = 8
    GRID_ALPHA = np.linspace(-2.0, -0.25, 6)
    GRID_GAMMA = np.geomspace(1.0, 10.0, 6)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 200 if smoke else 2000

    def setup(self, workdir):
        units = tuple(f"u{j + 1}" for j in range(self.K))
        rates = np.linspace(0.01, 0.04, self.K)
        rate_of = dict(zip(units, (float(r) for r in rates)))
        link = hazard.FrailtyLink.for_factor(["s"], zeta0=ALPHA, kappa0=math.log(GAMMA))
        spec = hazard.ModelSpec(
            units=units,
            baselines={u: hazard.ExponentialBaseline(rate_of[u]) for u in units},
            frailty_link=link,
        )
        data = simulate.generate(simulate.SimConfig(
            spec=spec, n_clusters=self.n, seed=derived_seed(self.seed, 0),
            monitoring=_monitoring(),
        ))
        grid = [
            replace(spec, frailty_link=replace(link, zeta=(float(a),), kappa=(math.log(g),)))
            for a in self.GRID_ALPHA for g in self.GRID_GAMMA
        ]
        state = {"spec": spec, "data": data, "grid": grid, "rates": rate_of}
        made = [(r.unit, r.time, r.event) for c in data.clusters for r in c.records]
        return state, digest(repr(made).encode())

    def prepare(self, state):
        oracles = _load_oracles()
        # every cluster, in dataset order: the check never picks clusters by error
        state["oracle"] = np.array([
            oracles.series_cluster_prob(
                ALPHA, GAMMA, 1.0,
                [state["rates"][r.unit] * r.time for r in c.records],
                [r.event for r in c.records],
            )
            for c in state["data"].clusters
        ])

    def op(self, state, i):
        ws = likelihood.LikelihoodWorkspace(state["spec"], state["data"])
        values = [ws.total_loglik(point) for point in state["grid"]]
        return {"ws": ws, "values": values}

    def check(self, state, i, out):
        problems = []
        values = np.array(out["values"])
        if not np.all(np.isfinite(values)):
            problems.append(f"{int(np.sum(~np.isfinite(values)))} non-finite grid values")
        reference = state.setdefault("reference", values)
        if not np.array_equal(values, reference):
            problems.append("grid values differ from the run's first scan")
        probs = np.exp(out["ws"].cluster_logliks(state["spec"]))
        rel = np.abs(probs - state["oracle"]) / state["oracle"]
        if not np.all(rel <= ORACLE_RTOL):
            problems.append(
                f"{int(np.sum(~(rel <= ORACLE_RTOL)))} clusters differ from the "
                f"series oracle by more than {ORACLE_RTOL:g} (max {np.nanmax(rel):.3g})")
        return problems

    def outputs(self, state, i, out):
        return {"grid_sha256": digest(np.array(out["values"]).tobytes())}

    def summary(self, op_times, timings):
        return {"evals_per_s": (len(self.GRID_ALPHA) * len(self.GRID_GAMMA)
                                / float(np.median(op_times)), "1/s")}


class Analyze(Workload):
    name = "analyze"
    K_MAX = 5
    TIMES = np.linspace(0.0, 80.0, 41)
    FILES = ("report.json", "params.csv", "rfv_params.csv", "rc_table.csv",
             "hr_within.csv", "trajectories.csv")

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 500 if smoke else 4000

    def setup(self, workdir):
        # m: alpha -1, gamma 5, mu 1; f: alpha -2, gamma 8, mu 0.5
        link = hazard.FrailtyLink.for_factor(["m", "f"], zeta0=ALPHA, kappa0=math.log(GAMMA))
        link = replace(link, zeta=(ALPHA, -1.0), kappa=(math.log(GAMMA), math.log(8.0 / 5.0)),
                       beta0=(0.0, math.log(0.5)))
        spec = hazard.ModelSpec(
            units=("u1", "u2"),
            baselines={"u1": hazard.ExponentialBaseline(0.04),
                       "u2": hazard.ExponentialBaseline(0.02)},
            frailty_link=link,
        )
        data = simulate.generate(simulate.SimConfig(
            spec=spec, n_clusters=self.n, seed=derived_seed(self.seed, 0),
            monitoring=_monitoring(), stratum_probs={"m": 0.5, "f": 0.5},
        ))
        result = estimation.fit(spec, data)
        if not result.converged:
            raise RuntimeError("set-up fit did not converge")
        return {"fit": result, "out": workdir / "analyze_out"}, repr(result.loglik)

    def op(self, state, i):
        result = state["fit"]
        levels = list(result.spec.frailty_link.levels)
        discrete = [
            lvl for lvl in levels
            if family.classify_branch(result.spec.frailty_params(lvl)).is_discrete
        ]
        table = analysis.rc_table(result, strata=discrete, k_max=self.K_MAX)
        hr_rows = analysis.hr_within_table(result, k_max=self.K_MAX)
        rfv_table = analysis.rfv_parameter_table(result)
        curves = []
        for lvl in levels:
            curves.extend(analysis.trajectories(
                result, lvl, units=list(result.spec.units), times=self.TIMES))
        out = state["out"]
        report.write_json_report(out / "report.json", {
            "command": "analyze",
            "fit": report.fit_payload(result),
            "rfv_params": report.rfv_params_payload(rfv_table),
            "rc_table": report.rc_table_payload(table),
        })
        report.write_params_csv(out / "params.csv", result)
        report.write_rfv_params_csv(out / "rfv_params.csv", rfv_table)
        report.write_rc_table_csv(out / "rc_table.csv", table)
        report.write_hr_within_csv(out / "hr_within.csv", hr_rows)
        report.write_trajectories_csv(out / "trajectories.csv", curves)
        files = {name: (out / name).read_bytes() for name in self.FILES}
        return {"table": table, "hr_rows": hr_rows, "rfv": rfv_table,
                "curves": curves, "files": files}

    def check(self, state, i, out):
        problems = []
        levels = state["fit"].spec.frailty_link.levels
        units = state["fit"].spec.units
        expected = {
            "rc_table rows": (len(out["table"].rows), len(levels) * self.K_MAX),
            "rc_table pairs": (len(out["table"].pairs), (len(levels) - 1) * self.K_MAX),
            "hr_within rows": (len(out["hr_rows"]), len(levels) * (self.K_MAX - 1)),
            "rfv strata": (len(out["rfv"]), len(levels)),
            "trajectory curves": (len(out["curves"]), len(levels) * (2 + len(units))),
        }
        for label, (got, want) in expected.items():
            if got != want:
                problems.append(f"{got} {label}, expected {want}")
        estimates = list(_estimates(
            [r.z for r in out["table"].rows] + [r.cum_prob for r in out["table"].rows]
            + [p.cum_prob_ratio for p in out["table"].pairs]
            + [p.hr_across for p in out["table"].pairs]
            + [e["hr"] for e in out["hr_rows"]] + list(out["rfv"].values())
        ))
        unbracketed = sum(
            1 for e in estimates
            if e.lo is not None and not _brackets(e.lo, e.value, e.hi)
        )
        for curve in out["curves"]:
            if len(curve.values) != len(self.TIMES):
                problems.append(f"{curve.kind} curve has {len(curve.values)} points")
            if curve.lo is not None:
                unbracketed += sum(
                    1 for lo, v, hi in zip(curve.lo, curve.values, curve.hi)
                    if not _brackets(lo, v, hi)
                )
        if unbracketed:
            problems.append(f"{unbracketed} confidence intervals miss their estimate")
        reference = state.setdefault("reference", out["files"])
        for name in self.FILES:
            if out["files"][name] != reference[name]:
                problems.append(f"{name} differs from the run's first pass")
        return problems

    def outputs(self, state, i, out):
        return {name: digest(blob) for name, blob in sorted(out["files"].items())}

    def summary(self, op_times, timings):
        return {"analysis_s": (float(np.median(op_times)), "s")}


WORKLOADS = {w.name: w for w in (Study, Cohort, Household, Analyze)}


def _load_oracles():
    """The independent series oracle kept with the package's tests."""
    path = Path(likelihood.__file__).resolve().parents[2] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
