"""Run configuration: flat key-value file with per-unit blocks.

The format is INI-style (configparser): ``key = value`` lines, so a key
may hold ``:``, and ``;`` after whitespace opens a comment.  Sections:

``[data]``       dataset path; the stratum and weight columns are read
                 when the file has them.
``[model]``      units, stratum levels, baseline family and cutpoints,
                 per-stratum branch regimes, pins.
``[covariates]`` per-unit covariate column lists (main effects only).
``[params]``     explicit parameter values; with ``pin_all = true`` the
                 model is fully pinned (analyze published values without
                 fitting), otherwise they are the optimizer's start point.
                 Keys match unit and stratum names in any case, as in
                 ``[covariates]`` and ``regime.<level>``, so two unit or level
                 names that differ only in case are an error; a key that
                 matches no parameter is an error.
``[fit]``        ``maxiter``, the iteration limit (>= 0) of the fit's trust region.
``[simulate] [analyze] [lrt] [output]`` command settings; the ``[fit]``,
                 ``[analyze]`` and ``[lrt]`` ones are checked before any fit.

Each key is declared once, by the ``load_config`` line that reads it, and
a section or key that nothing reads (a typo, a removed setting, a
``regime.<level>`` for an undeclared level) is a ConfigError.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, InvalidParameters
from .hazard import (
    PIENTER2_CUTPOINTS,
    BranchRegime,
    ExponentialBaseline,
    FrailtyLink,
    GeneralizedGammaBaseline,
    LinearPredictor,
    ModelSpec,
    PiecewiseConstantBaseline,
    WeibullBaseline,
)
from .simulate import MonitoringLaw

__all__ = ["RunConfig", "load_config"]

_PRESET_CUTPOINTS = {"pienter2": PIENTER2_CUTPOINTS}
_DEFAULT_RATE = 0.05
# the [params] keys of the frailty link, one value per design row each
_LINK_PARAMS = ("zeta", "kappa", "beta0")


def _split(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _floats(value: str) -> List[float]:
    try:
        return [float(part) for part in _split(value)]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {value!r}") from exc


def _bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


@dataclass
class RunConfig:
    data_path: Optional[str]
    units: Tuple[str, ...]
    stratum_levels: Tuple[str, ...]
    reference: str
    baseline_family: str
    cutpoints: Tuple[float, ...]
    stratified_baselines: bool
    regimes: Dict[str, BranchRegime]
    pin_reference_mu: bool
    covariates: Dict[str, Tuple[str, ...]]
    params: Dict[str, List[float]]
    pin_all: bool
    fit_maxiter: int
    sim_n_clusters: int
    sim_seed: int
    sim_monitoring: MonitoringLaw
    sim_stratum_probs: Optional[Dict[str, float]]
    analyze_k_max: int
    analyze_time_grid: np.ndarray
    analyze_units: Optional[Tuple[str, ...]]
    lrt_regimes: Dict[str, Dict[str, str]]   # "null"/"alt" -> level -> regime
    output_dir: str

    # ------------------------------------------------------------------
    def _param(self, key: str, default: Optional[List[float]] = None) -> Optional[List[float]]:
        """A ``[params]`` entry; configparser stores the keys lower-cased."""
        return self.params.get(key.lower(), default)

    def _baseline_keys(self) -> Dict[object, str]:
        """Each baseline's ``ModelSpec`` key -> the ``[params]`` key of its values."""
        prefix = "rates" if self.baseline_family == "piecewise" else "params"
        if self.stratified_baselines:
            return {(lvl, u): f"{prefix}.{lvl}:{u}"
                    for lvl in self.stratum_levels for u in self.units}
        return {u: f"{prefix}.{u}" for u in self.units}

    def _beta_keys(self) -> Dict[str, str]:
        """Each unit -> the ``[params]`` key of its covariate effects."""
        return {u: f"beta.{u}" for u in self.units}

    def _param_keys(self) -> set:
        """The ``[params]`` keys ``build_spec`` reads, lower-cased."""
        return {*_LINK_PARAMS, *(key.lower() for key in self._baseline_keys().values()),
                *(key.lower() for key in self._beta_keys().values())}

    def _baseline(self, key: str):
        """The baseline whose values the ``[params]`` entry ``key`` holds."""
        family = self.baseline_family
        values = self._param(key)
        if family == "piecewise":
            rates = values if values is not None else [_DEFAULT_RATE] * len(self.cutpoints)
            if len(rates) != len(self.cutpoints):
                raise ConfigError(f"{key} needs {len(self.cutpoints)} values")
            return PiecewiseConstantBaseline(self.cutpoints, tuple(rates))
        if family == "exponential":
            return ExponentialBaseline(*(values or [_DEFAULT_RATE]))
        if family == "weibull":
            return WeibullBaseline(*(values or [1.0, 1.0 / _DEFAULT_RATE]))
        if family == "gengamma":
            return GeneralizedGammaBaseline(*(values or [1.0, 1.0, 1.0 / _DEFAULT_RATE]))
        raise ConfigError(f"unknown baseline family {family!r}")

    def build_spec(self, regimes: Optional[Dict[str, BranchRegime]] = None) -> ModelSpec:
        link = FrailtyLink.for_factor(
            self.stratum_levels, self.reference, pin_reference_mu=self.pin_reference_mu
        )
        p = len(link.zeta)
        updates = {}
        for name in _LINK_PARAMS:
            if name in self.params:
                values = self.params[name]
                if len(values) != p:
                    raise ConfigError(f"{name} needs {p} values (design order)")
                updates[name] = tuple(values)
        if self.stratified_baselines or self.pin_all:
            updates["beta0_free"] = (False,) * p
            updates["zeta_free"] = (False,) * p if self.pin_all else link.zeta_free
            updates["kappa_free"] = (False,) * p if self.pin_all else link.kappa_free
        link = dataclasses.replace(link, **updates)
        baselines = {spec_key: self._baseline(key)
                     for spec_key, key in self._baseline_keys().items()}
        predictors = {
            u: LinearPredictor(self.covariates.get(u, ()),
                               self._param(key, [0.0] * len(self.covariates.get(u, ()))))
            for u, key in self._beta_keys().items()
        }
        return ModelSpec(
            units=self.units,
            baselines=baselines,
            frailty_link=link,
            predictors=predictors,
            branch_regimes=regimes if regimes is not None else self.regimes,
            stratified_baselines=self.stratified_baselines,
        )

    def regimes_for(self, model: str) -> Dict[str, BranchRegime]:
        """The branch regimes of the LRT's "null" or "alt" model."""
        return {lvl: _parse_regime(text, "lrt") for lvl, text in self.lrt_regimes[model].items()}


def _distinct_in_any_case(names: Tuple[str, ...], key: str) -> None:
    """Keys match names in any case, so two names may not differ in case alone."""
    seen: Dict[str, str] = {}
    for name in names:
        first = seen.setdefault(name.lower(), name)
        if first != name:
            raise ConfigError(f"model.{key}: {first!r} and {name!r} differ only in case")


def _parse_regime(text: str, key: str) -> BranchRegime:
    kind, _, b = text.strip().lower().partition(":")
    try:
        return BranchRegime(kind, b=int(b) if b else None)
    except (ValueError, InvalidParameters) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_monitoring(text: str) -> MonitoringLaw:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "uniform":
        a, b = _floats(rest)
        return MonitoringLaw("uniform", a=a, b=b)
    if kind == "grid":
        return MonitoringLaw("grid", times=tuple(_floats(rest)))
    raise ConfigError(f"unknown monitoring law {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("analyze.time_grid must be start:stop:count")
    count = int(parts[2])
    if count < 1:
        raise ConfigError(f"analyze.time_grid {text!r} needs a count >= 1")
    grid = np.linspace(float(parts[0]), float(parts[1]), count)
    if not (np.all(grid >= 0.0) and np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ConfigError(
            f"analyze.time_grid {text!r} must be finite, >= 0 and strictly increasing"
        )
    return grid


def load_config(path, overrides: Optional[List[str]] = None) -> RunConfig:
    """Parse a config file; ``overrides`` are ``section.key=value`` strings."""
    parser = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), option.strip(), value.strip())

    declared = set()    # the (section, key) pairs read below; any other is an error

    def get(section, option, default=None):
        declared.add((section, parser.optionxform(option)))
        return parser.get(section, option, fallback=default)

    def items(section):
        pairs = parser.items(section) if parser.has_section(section) else []
        declared.update((section, key) for key, _ in pairs)
        return pairs

    units = tuple(_split(get("model", "units", "")))
    if not units:
        raise ConfigError("[model] units is required")
    levels = tuple(_split(get("model", "stratum_levels", "all")))
    _distinct_in_any_case(units, "units")
    _distinct_in_any_case(levels, "stratum_levels")
    reference = get("model", "reference", levels[0])
    if reference not in levels:
        raise ConfigError(f"reference {reference!r} not among stratum levels")
    cut_text = get("model", "cutpoints", "0")
    if cut_text.startswith("preset:"):
        preset = cut_text.split(":", 1)[1].strip()
        if preset not in _PRESET_CUTPOINTS:
            raise ConfigError(f"unknown cutpoint preset {preset!r}")
        cutpoints = _PRESET_CUTPOINTS[preset]
    else:
        cutpoints = tuple(_floats(cut_text))
    regime_texts = {lvl: get("model", f"regime.{lvl}") for lvl in levels}
    regimes = {lvl: _parse_regime("free" if text is None else text, f"model.regime.{lvl}")
               for lvl, text in regime_texts.items()}
    covariates = {}
    for unit, value in items("covariates"):
        matched = [u for u in units if u.lower() == unit]
        if not matched:
            raise ConfigError(f"[covariates] {unit!r} is not a declared unit")
        covariates[matched[0]] = tuple(_split(value))
    params: Dict[str, List[float]] = {}
    pin_all = False
    for key, value in items("params"):
        if key == "pin_all":
            pin_all = _bool(value)
        else:
            params[key] = _floats(value)
    probs_text = get("simulate", "stratum_probs", "")
    stratum_probs = None
    if probs_text:
        stratum_probs = {}
        for part in _split(probs_text):
            lvl, _, prob = part.partition(":")
            try:
                stratum_probs[lvl.strip()] = float(prob)
            except ValueError as exc:
                raise ConfigError(f"simulate.stratum_probs: {exc}") from exc
    lrt = {model: get("lrt", f"{model}_regime", default).strip().lower()
           for model, default in (("null", "gamma"), ("alt", "free"))}
    for model, text in lrt.items():
        _parse_regime(text, f"lrt.{model}_regime")   # reject it before any fit runs
    # the null model keeps a level's own model.regime, the alt model does not
    lrt_regimes = {"null": {lvl: lrt["null"] if text is None else text.strip().lower()
                            for lvl, text in regime_texts.items()},
                   "alt": dict.fromkeys(levels, lrt["alt"])}
    analyze_units = tuple(_split(get("analyze", "units", ""))) or None
    for unit in analyze_units or ():
        if unit not in units:
            raise ConfigError(f"analyze.units: {unit!r} is not a declared unit")
    try:
        config = RunConfig(
            data_path=get("data", "path"),
            units=units,
            stratum_levels=levels,
            reference=reference,
            baseline_family=get("model", "baseline", "piecewise").strip().lower(),
            cutpoints=cutpoints,
            stratified_baselines=_bool(get("model", "stratified_baselines", "false")),
            regimes=regimes,
            pin_reference_mu=_bool(get("model", "pin_reference_mu", "true")),
            covariates=covariates,
            params=params,
            pin_all=pin_all,
            fit_maxiter=int(get("fit", "maxiter", "500")),
            sim_n_clusters=int(get("simulate", "n_clusters", "100")),
            sim_seed=int(get("simulate", "seed", "0")),
            sim_monitoring=_parse_monitoring(get("simulate", "monitoring", "uniform:1,80")),
            sim_stratum_probs=stratum_probs,
            analyze_k_max=int(get("analyze", "k_max", "5")),
            analyze_time_grid=_parse_grid(get("analyze", "time_grid", "0:80:81")),
            analyze_units=analyze_units,
            lrt_regimes=lrt_regimes,
            output_dir=get("output", "dir", "out"),
        )
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    if config.fit_maxiter < 0:
        raise ConfigError(f"fit.maxiter must be >= 0, got {config.fit_maxiter}")
    if config.analyze_k_max < 1:
        raise ConfigError(f"analyze.k_max must be >= 1, got {config.analyze_k_max}")
    unknown = sorted(set(params) - config._param_keys())
    if unknown:
        raise ConfigError(f"[params] {', '.join(map(repr, unknown))} match no parameter")
    sections = {section for section, _ in declared} | {"covariates", "params"}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"[{section}] is not a section")
        unknown = [f"{section}.{key}" for key in parser.options(section)
                   if (section, key) not in declared]
        if unknown:
            raise ConfigError(f"{', '.join(unknown)}: no such setting")
    return config
