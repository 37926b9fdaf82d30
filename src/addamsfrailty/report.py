"""Deterministic report files: a nested JSON summary plus flat CSV tables.

Every number is rendered with %.6g so reruns with the same inputs are
byte-identical, but the fit's ``gradient_norm`` takes %.2g: its further
digits move with summation order.  Infinities print as "inf"/"-inf"; the
undefined 0/0 hazard ratio prints as "undef"; missing values (no CI
available, field not applicable) are empty in CSV and omitted from JSON.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .analysis import Estimate, RCTable, TrajectoryCurve
from .estimation import FitResult

__all__ = [
    "fmt",
    "write_json_report",
    "write_params_csv",
    "write_rfv_params_csv",
    "write_rc_table_csv",
    "write_hr_within_csv",
    "write_trajectories_csv",
]

UNDEF = "undef"


def fmt(value) -> Optional[str]:
    """Render one number for a report; None stays None (field omitted)."""
    if value is None:
        return None
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.6g" % value


def _est_dict(est: Optional[Estimate]) -> Optional[Dict[str, str]]:
    if est is None:
        return None
    out = {"estimate": fmt(est.value)}
    if est.lo is not None:
        out["lo"] = fmt(est.lo)
        out["hi"] = fmt(est.hi)
    return out


def _prune(obj):
    if isinstance(obj, dict):
        return {k: _prune(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [_prune(v) for v in obj]
    return obj


def write_json_report(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_prune(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path, header: Sequence[str], rows: List[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])


def _natural_entries(result: FitResult):
    """(name, estimate, natural-scale se, lo, hi) per free parameter."""
    transforms = result.layout.free_transforms
    for name, se, transform in zip(result.names, result.se, transforms):
        est, lo, hi = result.ci[name]
        yield name, est, est * se if transform == "log" else se, lo, hi


def fit_payload(result: FitResult) -> dict:
    """JSON-ready summary of a maximum-likelihood fit."""
    params = {}
    for name, est, se, lo, hi in _natural_entries(result):
        params[name] = {
            "estimate": fmt(est), "se": fmt(se), "lo": fmt(lo), "hi": fmt(hi),
        }
    return {
        "loglik": fmt(result.loglik),
        "aic": fmt(result.aic),
        "n_free": str(result.n_free),
        "converged": str(bool(result.converged)).lower(),
        "iterations": str(result.iterations),
        "gradient_norm": fmt(float("%.2g" % result.gradient_norm)),
        "parameters": params,
    }


def write_params_csv(path, result: FitResult) -> None:
    rows = []
    for name, est, se, lo, hi in _natural_entries(result):
        rows.append([name, fmt(est), fmt(se), fmt(lo), fmt(hi)])
    _write_rows(path, ["name", "estimate", "se", "lo", "hi"], rows)


_RFV_COLUMNS = ("alpha", "gamma", "mu", "psi", "nu", "pi", "b", "lambda_star")


def write_rfv_params_csv(path, table: Dict[str, Dict[str, Optional[Estimate]]]) -> None:
    """One row per stratum, estimate and CI bounds per frailty-law quantity."""
    header = ["stratum"]
    for col in _RFV_COLUMNS:
        header += [col, f"{col}_lo", f"{col}_hi"]
    rows = []
    for stratum, row in table.items():
        cells = [stratum]
        for col in _RFV_COLUMNS:
            est = row.get(col)
            if est is None:
                cells += [None, None, None]
            else:
                cells += [fmt(est.value), fmt(est.lo), fmt(est.hi)]
        rows.append(cells)
    _write_rows(path, header, rows)


def rfv_params_payload(table: Dict[str, Dict[str, Optional[Estimate]]]) -> dict:
    return {
        stratum: {col: _est_dict(row.get(col)) for col in _RFV_COLUMNS}
        for stratum, row in table.items()
    }


def write_rc_table_csv(path, table: RCTable) -> None:
    rows = []
    for r in table.rows:
        rows.append([
            "support", r.stratum, table.reference, str(r.k),
            fmt(r.z.value), fmt(r.z.lo), fmt(r.z.hi),
            fmt(r.prob),
            fmt(r.cum_prob.value), fmt(r.cum_prob.lo), fmt(r.cum_prob.hi),
            None, None, None,
        ])
    for p in table.pairs:
        hr = p.hr_across
        rows.append([
            "pair", p.stratum, p.reference, str(p.k),
            None, None, None, None,
            fmt(p.cum_prob_ratio.value), fmt(p.cum_prob_ratio.lo), fmt(p.cum_prob_ratio.hi),
            UNDEF if hr is None else fmt(hr.value),
            None if hr is None else fmt(hr.lo),
            None if hr is None else fmt(hr.hi),
        ])
    _write_rows(
        path,
        ["row", "stratum", "reference", "k",
         "z", "z_lo", "z_hi", "prob",
         "cum_prob", "cum_prob_lo", "cum_prob_hi",
         "hr_across", "hr_across_lo", "hr_across_hi"],
        rows,
    )


def rc_table_payload(table: RCTable) -> dict:
    support = [
        {
            "stratum": r.stratum, "k": str(r.k),
            "z": _est_dict(r.z), "prob": fmt(r.prob),
            "cum_prob": _est_dict(r.cum_prob),
        }
        for r in table.rows
    ]
    pairs = [
        {
            "stratum": p.stratum, "reference": p.reference, "k": str(p.k),
            "cum_prob_ratio": _est_dict(p.cum_prob_ratio),
            "hr_across": UNDEF if p.hr_across is None else _est_dict(p.hr_across),
        }
        for p in table.pairs
    ]
    return {"reference": table.reference, "support": support, "pairs": pairs}


def write_hr_within_csv(path, entries: List[dict]) -> None:
    """Adjacent-RC hazard ratios; entries hold stratum, k, and an Estimate."""
    rows = []
    for e in entries:
        est = e["hr"]
        rows.append([e["stratum"], str(e["k"]),
                     fmt(est.value), fmt(est.lo), fmt(est.hi)])
    _write_rows(path, ["stratum", "k", "hr_within", "lo", "hi"], rows)


def write_trajectories_csv(path, curves: List[TrajectoryCurve]) -> None:
    rows = []
    for curve in curves:
        for i, t in enumerate(curve.times):
            rows.append([
                curve.kind, curve.stratum, curve.unit,
                fmt(t), fmt(curve.values[i]),
                fmt(curve.lo[i]) if curve.lo is not None else None,
                fmt(curve.hi[i]) if curve.hi is not None else None,
            ])
    _write_rows(path, ["kind", "stratum", "unit", "time", "value", "lo", "hi"], rows)
