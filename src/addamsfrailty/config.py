"""Run configuration: flat key-value file with per-unit blocks.

The format is INI-style (configparser).  Sections:

``[data]``       dataset path; the stratum and weight columns are read
                 when the file has them.
``[model]``      units, stratum levels, baseline family and cutpoints,
                 per-stratum branch regimes, pins.
``[covariates]`` per-unit covariate column lists (main effects only).
``[params]``     explicit parameter values; with ``pin_all = true`` the
                 model is fully pinned (analyze published values without
                 fitting), otherwise they seed the optimizer.
``[fit] [simulate] [analyze] [lrt] [output]`` command settings.
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
    fit_seed: int
    sim_n_clusters: int
    sim_seed: int
    sim_monitoring: MonitoringLaw
    sim_stratum_probs: Optional[Dict[str, float]]
    analyze_k_max: int
    analyze_time_grid: np.ndarray
    analyze_units: Optional[Tuple[str, ...]]
    lrt_null_regime: str
    lrt_alt_regime: str
    output_dir: str

    # ------------------------------------------------------------------
    def _baseline(self, key_label: str):
        family = self.baseline_family
        if family == "piecewise":
            rates = self.params.get(f"rates.{key_label}")
            if rates is None:
                rates = [_DEFAULT_RATE] * len(self.cutpoints)
            if len(rates) != len(self.cutpoints):
                raise ConfigError(
                    f"rates.{key_label} needs {len(self.cutpoints)} values"
                )
            return PiecewiseConstantBaseline(self.cutpoints, tuple(rates))
        values = self.params.get(f"params.{key_label}")
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
        for name in ("zeta", "kappa", "beta0"):
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
        if self.stratified_baselines:
            baselines = {
                (lvl, u): self._baseline(f"{lvl}:{u}")
                for lvl in self.stratum_levels for u in self.units
            }
        else:
            baselines = {u: self._baseline(u) for u in self.units}
        predictors = {
            u: LinearPredictor(self.covariates.get(u, ()),
                               self.params.get(f"beta.{u}", [0.0] * len(self.covariates.get(u, ()))))
            for u in self.units
        }
        return ModelSpec(
            units=self.units,
            baselines=baselines,
            frailty_link=link,
            predictors=predictors,
            branch_regimes=regimes if regimes is not None else self.regimes,
            stratified_baselines=self.stratified_baselines,
        )

    def regimes_for(self, kind: str) -> Dict[str, BranchRegime]:
        return {lvl: _parse_regime(kind, "lrt") for lvl in self.stratum_levels}


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
    if kind in ("grid", "empirical"):
        return MonitoringLaw(kind, times=tuple(_floats(rest)))
    raise ConfigError(f"unknown monitoring law {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("time_grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    return np.linspace(start, stop, count)


def load_config(path, overrides: Optional[List[str]] = None) -> RunConfig:
    """Parse a config file; ``overrides`` are ``section.key=value`` strings."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
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

    def get(section, option, default=None):
        return parser.get(section, option, fallback=default)

    units = tuple(_split(get("model", "units", "")))
    if not units:
        raise ConfigError("[model] units is required")
    levels = tuple(_split(get("model", "stratum_levels", "all")))
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
    regimes = {lvl: _parse_regime(get("model", f"regime.{lvl}", "free"), f"model.regime.{lvl}")
               for lvl in levels}
    covariates = {}
    if parser.has_section("covariates"):
        for unit, value in parser.items("covariates"):
            matched = [u for u in units if u.lower() == unit]
            if not matched:
                raise ConfigError(f"[covariates] {unit!r} is not a declared unit")
            covariates[matched[0]] = tuple(_split(value))
    params: Dict[str, List[float]] = {}
    pin_all = False
    if parser.has_section("params"):
        for key, value in parser.items("params"):
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
    lrt_regimes = {key: get("lrt", key, default)
                   for key, default in (("null_regime", "gamma"), ("alt_regime", "free"))}
    for key, text in lrt_regimes.items():
        _parse_regime(text, f"lrt.{key}")   # reject it before any fit runs
    try:
        return RunConfig(
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
            fit_seed=int(get("fit", "seed", "0")),
            sim_n_clusters=int(get("simulate", "n_clusters", "100")),
            sim_seed=int(get("simulate", "seed", "0")),
            sim_monitoring=_parse_monitoring(get("simulate", "monitoring", "uniform:1,80")),
            sim_stratum_probs=stratum_probs,
            analyze_k_max=int(get("analyze", "k_max", "5")),
            analyze_time_grid=_parse_grid(get("analyze", "time_grid", "0:80:81")),
            analyze_units=tuple(_split(get("analyze", "units", ""))) or None,
            lrt_null_regime=lrt_regimes["null_regime"],
            lrt_alt_regime=lrt_regimes["alt_regime"],
            output_dir=get("output", "dir", "out"),
        )
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
