"""Spans and counters recorded from outside ``addamsfrailty``.

A :class:`Tracer` replaces public functions of the package with timing
wrappers while it is installed, and puts the originals back afterwards.
A module-level function is wrapped in every ``addamsfrailty`` module that
holds it under any name, which is where its callers look it up (for
example ``addamsfrailty.cli.read_csv`` and
``addamsfrailty.likelihood.log_laplace``).  Methods are wrapped on their
class.  Nothing under ``src/`` is edited.

Two kinds of record are kept:

* spans for coarse calls (CLI command, config load, CSV read/write,
  simulate, workspace build, likelihood evaluation, fit, Hessian,
  analysis tables, report writers), each with its parent span, so a
  span's self time is its duration minus the time its child spans cover;
* tallies (call count and total time) for hot leaf calls
  (``log_laplace``, baseline ``cumulative``, ``build_spec``), which would
  cost too much as individual spans.

A name the package no longer has is skipped, so the counters it feeds
read as absent instead of crashing the run.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "addamsfrailty"

# (module, function) -> span name, for module-level functions
SPANS = {
    ("simulate", "generate"): "simulate.generate",
    ("data", "read_csv"): "data.read_csv",
    ("data", "write_csv"): "data.write_csv",
    ("config", "load_config"): "config.load",
    ("cli", "main"): "cli.command",
    ("estimation", "fit"): "estimation.fit",
    ("analysis", "rc_table"): "analysis.rc_table",
    ("analysis", "hr_within_table"): "analysis.hr_within_table",
    ("analysis", "rfv_parameter_table"): "analysis.rfv_parameter_table",
    ("analysis", "trajectories"): "analysis.trajectories",
}
REPORT_WRITERS = (
    "write_json_report", "write_params_csv", "write_rfv_params_csv",
    "write_rc_table_csv", "write_hr_within_csv", "write_trajectories_csv",
)
ANALYSIS_SPANS = frozenset(
    name for name in SPANS.values() if name.startswith("analysis.")
)


def _modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _records(dataset):
    """Unit records per cluster, or None when the dataset has no cluster view."""
    clusters = getattr(dataset, "clusters", None)
    if clusters is None:
        return None
    return [getattr(c, "records", ()) for c in clusters]


def ie_terms(dataset):
    """Inclusion-exclusion terms per evaluation: sum over clusters of 2^events."""
    records = _records(dataset)
    if records is None:
        return None
    return sum(1 << sum(int(r.event) for r in recs) for recs in records)


def _row_count(dataset):
    records = _records(dataset)
    return None if records is None else sum(len(recs) for recs in records)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return None


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``addamsfrailty.estimation``.

    ``minimize`` counts its calls, the calls of the ``fun`` and ``jac`` it
    is given, and the iterations it reports; every other attribute is the
    real module's.
    """

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, fun, x0, *args, **kwargs):
        counts = self._tracer.counts
        counts["estimation.minimize_calls"] += 1

        def counted_fun(*a, **k):
            counts["estimation.objective_evals"] += 1
            return fun(*a, **k)

        jac = kwargs.get("jac")
        if callable(jac):
            def counted_jac(*a, **k):
                counts["estimation.gradient_calls"] += 1
                return jac(*a, **k)
            kwargs["jac"] = counted_jac
        result = self._module.minimize(counted_fun, x0, *args, **kwargs)
        counts["estimation.bfgs_iterations"] += int(getattr(result, "nit", 0))
        return result


class Tracer:
    """Records spans and tallies while installed; use as a context manager."""

    def __init__(self):
        self.spans = []              # [name, start, end, parent index, extra]
        self.counts = Counter()
        self.tally_s = defaultdict(float)
        self.absent = []             # wrap targets the package lacks
        self._stack = []
        self._patches = []           # (owner, attribute, original)
        self._workspace_terms = {}   # id(workspace) -> computed IE terms
        self._clamps_before = None

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _in_span(self, names):
        return any(self.spans[i][0] in names for i in self._stack)

    def _span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self.spans[index][4], args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _tally_wrapper(self, name, fn, route=None):
        counts = self.counts
        tally_s = self.tally_s

        if route is None:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                tally_s[name] += perf_counter() - start
                counts[name] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                key = route()
                start = perf_counter()
                result = fn(*args, **kwargs)
                tally_s[key] += perf_counter() - start
                counts[key] += 1
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap_function(self, module_name, func_name, make):
        """Wrap a module-level function everywhere the package binds it."""
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{func_name}")
            return
        wrapper = make(original)
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _wrap_method(self, cls, method, make):
        if method not in vars(cls):
            self.absent.append(f"{cls.__name__}.{method}")
            return
        self._patch(cls, method, make(vars(cls)[method]))

    def install(self):
        import addamsfrailty  # noqa: F401  (loads every submodule)

        for (module_name, func_name), span in SPANS.items():
            self._wrap_function(
                module_name, func_name,
                lambda fn, span=span: self._span_wrapper(span, fn, _AFTER.get(span)),
            )
        for writer in REPORT_WRITERS:
            self._wrap_function(
                "report", writer,
                lambda fn: self._span_wrapper("report.write", fn, _after_report),
            )
        self._wrap_function("estimation", "hessian", self._wrap_hessian)
        self._wrap_function(
            "family", "log_laplace",
            lambda fn: self._tally_wrapper("family.log_laplace", fn),
        )

        mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
        hazard = mods.get("hazard")
        if hazard is not None:
            for cls in vars(hazard).values():
                if isinstance(cls, type) and cls.__module__ == hazard.__name__ \
                        and "cumulative" in vars(cls):
                    self._wrap_method(
                        cls, "cumulative",
                        lambda fn: self._tally_wrapper("hazard.cumulative", fn),
                    )
        estimation = mods.get("estimation")
        layout = getattr(estimation, "ParameterLayout", None)
        if layout is not None:
            self._wrap_method(
                layout, "build_spec",
                lambda fn: self._tally_wrapper(
                    "build_spec", fn,
                    route=lambda: ("analysis.build_spec"
                                   if self._in_span(ANALYSIS_SPANS)
                                   else "estimation.build_spec"),
                ),
            )
        else:
            self.absent.append("estimation.ParameterLayout")
        if estimation is not None and hasattr(estimation, "optimize"):
            self._patch(estimation, "optimize",
                        _OptimizeProxy(estimation.optimize, self))
        else:
            self.absent.append("estimation.optimize")
        likelihood = mods.get("likelihood")
        workspace = getattr(likelihood, "LikelihoodWorkspace", None)
        if workspace is not None:
            self._wrap_method(workspace, "__init__", self._wrap_workspace_init)
            self._wrap_method(workspace, "total_loglik", self._wrap_total_loglik)
        else:
            self.absent.append("likelihood.LikelihoodWorkspace")
        self._clamps_before = _clamp_count()
        return self

    def uninstall(self):
        if self._clamps_before is not None:
            after = _clamp_count()
            if after is not None:
                self.counts["likelihood.clamps"] += after - self._clamps_before
            self._clamps_before = None
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap_hessian(self, hessian):
        span_hessian = self._span_wrapper("estimation.hessian", hessian)
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def counted(*a, **k):
                counts["estimation.hessian_evals"] += 1
                return f(*a, **k)
            return span_hessian(counted, *args, **kwargs)
        wrapper.__wrapped__ = hessian
        return wrapper

    def _wrap_workspace_init(self, init):
        span_init = self._span_wrapper("likelihood.workspace_build", init)
        terms = self._workspace_terms

        def wrapper(ws, spec, data, *args, **kwargs):
            span_init(ws, spec, data, *args, **kwargs)
            terms[id(ws)] = ie_terms(data)
        wrapper.__wrapped__ = init
        return wrapper

    def _wrap_total_loglik(self, method):
        span_eval = self._span_wrapper("likelihood.eval", method)
        terms = self._workspace_terms
        counts = self.counts

        def wrapper(ws, *args, **kwargs):
            result = span_eval(ws, *args, **kwargs)
            n_terms = terms.get(id(ws))
            if n_terms is not None:
                counts["likelihood.ie_terms_total"] += n_terms
                counts["likelihood.ie_evals"] += 1
            return result
        wrapper.__wrapped__ = method
        return wrapper

    # -- results ---------------------------------------------------------
    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_time(self, name):
        covered = defaultdict(float)
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                covered[s[3]] += s[2] - s[1]
        return sum(
            (s[2] - s[1]) - covered[i]
            for i, s in enumerate(self.spans) if s[0] == name and s[2] is not None
        )

    def extra_sum(self, name, key):
        values = [s[4].get(key) for s in self.spans if s[0] == name]
        if any(v is None for v in values):
            return None
        return sum(values)

    def metrics(self):
        """Per-layer figures of everything recorded; None marks an absent source."""
        c = self.counts
        fits = len(self.durations("estimation.fit"))
        evals = len(self.durations("likelihood.eval"))

        def per_fit(key):
            return c[key] / fits if fits else 0.0

        def median(values):
            return statistics.median(values) if values else 0.0

        generate_s = sum(self.durations("simulate.generate"))
        clusters = self.extra_sum("simulate.generate", "clusters")
        ie_total = c["likelihood.ie_terms_total"]
        out = {
            "estimation.objective_evals_per_fit": per_fit("estimation.objective_evals"),
            "estimation.gradient_calls_per_fit": per_fit("estimation.gradient_calls"),
            "estimation.bfgs_iterations": per_fit("estimation.bfgs_iterations"),
            "estimation.minimize_calls_per_fit": per_fit("estimation.minimize_calls"),
            "estimation.hessian_evals": per_fit("estimation.hessian_evals"),
            "estimation.hessian_s": median(self.durations("estimation.hessian")),
            "estimation.fit_s": median(self.durations("estimation.fit")),
            "estimation.build_spec_calls": c["estimation.build_spec"],
            "likelihood.workspace_build_s": median(
                self.durations("likelihood.workspace_build")),
            "likelihood.evals": evals,
            "likelihood.eval_s": median(self.durations("likelihood.eval")),
            "likelihood.ie_terms": (
                ie_total / c["likelihood.ie_evals"] if c["likelihood.ie_evals"]
                else None if evals else 0.0),
            "likelihood.clamps": c["likelihood.clamps"] if _clamp_count() is not None else None,
            "family.log_laplace_calls": c["family.log_laplace"],
            "family.log_laplace_s": self.tally_s["family.log_laplace"],
            "hazard.cumulative_calls": c["hazard.cumulative"],
            "hazard.cumulative_s": self.tally_s["hazard.cumulative"],
            "simulate.generate_s": generate_s,
            "simulate.clusters_per_s": (
                None if clusters is None else clusters / generate_s if generate_s else 0.0),
            "data.read_csv_s": sum(self.durations("data.read_csv")),
            "data.write_csv_s": sum(self.durations("data.write_csv")),
            "data.rows": _sum_known(self.extra_sum("data.read_csv", "rows"),
                                    self.extra_sum("data.write_csv", "rows")),
            "data.csv_bytes": _sum_known(self.extra_sum("data.read_csv", "bytes"),
                                         self.extra_sum("data.write_csv", "bytes")),
            "config.load_s": sum(self.durations("config.load")),
            "cli.command_s": self.self_time("cli.command"),
            "analysis.rc_table_s": sum(self.durations("analysis.rc_table")),
            "analysis.hr_within_table_s": sum(self.durations("analysis.hr_within_table")),
            "analysis.rfv_parameter_table_s": sum(
                self.durations("analysis.rfv_parameter_table")),
            "analysis.trajectories_s": sum(self.durations("analysis.trajectories")),
            "analysis.build_spec_calls": c["analysis.build_spec"],
            "report.write_s": sum(self.durations("report.write")),
            "report.bytes": self.extra_sum("report.write", "bytes"),
        }
        for target in self.absent:
            for metric in _ABSENT_FEEDS.get(target, ()):
                out[metric] = None
        return out


def _sum_known(*values):
    return None if any(v is None for v in values) else sum(values)


def _clamp_count():
    """Round-off clamps counted by the package, or None if it keeps no count."""
    module = sys.modules.get(f"{PACKAGE}.likelihood")
    diagnostics = getattr(module, "diagnostics", None)
    value = getattr(diagnostics, "clamped_probabilities", None)
    return int(value) if isinstance(value, (int, float)) and math.isfinite(value) else None


def _after_generate(extra, args, kwargs, result):
    clusters = getattr(result, "clusters", None)
    extra["clusters"] = len(clusters) if clusters is not None else None


def _after_read(extra, args, kwargs, result):
    extra["rows"] = _row_count(result)
    extra["bytes"] = _file_size(args[0] if args else kwargs.get("path"))


def _after_write(extra, args, kwargs, result):
    dataset = args[0] if args else kwargs.get("dataset")
    extra["rows"] = _row_count(dataset)
    extra["bytes"] = _file_size(args[1] if len(args) > 1 else kwargs.get("path"))


def _after_report(extra, args, kwargs, result):
    extra["bytes"] = _file_size(args[0] if args else kwargs.get("path"))


_AFTER = {
    "simulate.generate": _after_generate,
    "data.read_csv": _after_read,
    "data.write_csv": _after_write,
}

# wrap targets -> per-layer metrics that read as absent without them
_ABSENT_FEEDS = {
    "estimation.optimize": (
        "estimation.objective_evals_per_fit", "estimation.gradient_calls_per_fit",
        "estimation.bfgs_iterations", "estimation.minimize_calls_per_fit",
    ),
    "estimation.hessian": ("estimation.hessian_evals", "estimation.hessian_s"),
    "estimation.fit": ("estimation.fit_s",),
    "estimation.ParameterLayout": ("estimation.build_spec_calls", "analysis.build_spec_calls"),
    "likelihood.LikelihoodWorkspace": (
        "likelihood.workspace_build_s", "likelihood.evals", "likelihood.eval_s",
        "likelihood.ie_terms",
    ),
    "family.log_laplace": ("family.log_laplace_calls", "family.log_laplace_s"),
    "simulate.generate": ("simulate.generate_s", "simulate.clusters_per_s"),
    "data.read_csv": ("data.read_csv_s",),
    "data.write_csv": ("data.write_csv_s",),
    "config.load_config": ("config.load_s",),
    "cli.main": ("cli.command_s",),
}
