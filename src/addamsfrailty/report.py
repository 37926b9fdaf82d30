"""Deterministic report files: a nested JSON summary plus flat CSV tables.

Every number is rendered with %.6g so reruns with the same inputs are
byte-identical, but the fit's ``gradient_norm`` takes %.2g: its further
digits move with summation order.  Infinities print as "inf"/"-inf"; the
undefined 0/0 hazard ratio prints as "undef"; missing values (no CI
available, field not applicable) are empty in CSV and omitted from JSON.
The params, rfv_params and rc_table tables each format their cells once,
as CSV rows; the JSON payload of each nests the same cells.
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
    "fit_payload",
    "rfv_params_payload",
    "rc_table_payload",
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
        writer.writerows(rows)


def _cells(est: Optional[Estimate], absent: Optional[str] = None) -> list:
    """The (estimate, lo, hi) cells of one Estimate; ``absent``, None, None without one."""
    return [absent, None, None] if est is None else [fmt(est.value), fmt(est.lo), fmt(est.hi)]


def _nest(row: list, i: int):
    """The JSON of the three cells from ``row[i]``; an empty or "undef" cell stays itself."""
    if row[i] in (None, UNDEF):
        return row[i]
    return {"estimate": row[i], "lo": row[i + 1], "hi": row[i + 2]}


_PARAMS_HEADER = ["name", "estimate", "se", "lo", "hi"]


def _params_rows(result: FitResult) -> List[list]:
    """One row per free parameter; a log-scale one's SE is on the natural scale."""
    rows = []
    for name, se, transform in zip(result.names, result.se, result.layout.free_transforms):
        est, lo, hi = result.ci[name]
        se = est * se if transform == "log" else se
        rows.append([name, fmt(est), fmt(se), fmt(lo), fmt(hi)])
    return rows


def fit_payload(result: FitResult) -> dict:
    """JSON-ready summary of a maximum-likelihood fit."""
    return {
        "loglik": fmt(result.loglik),
        "aic": fmt(result.aic),
        "n_free": str(result.n_free),
        "converged": str(bool(result.converged)).lower(),
        "iterations": str(result.iterations),
        "gradient_norm": fmt(float("%.2g" % result.gradient_norm)),
        "parameters": {
            row[0]: dict(zip(_PARAMS_HEADER[1:], row[1:])) for row in _params_rows(result)
        },
    }


def write_params_csv(path, result: FitResult) -> None:
    _write_rows(path, _PARAMS_HEADER, _params_rows(result))


_RFV_COLUMNS = ("alpha", "gamma", "mu", "psi", "nu", "pi", "b", "lambda_star")


def _rfv_rows(table: Dict[str, Dict[str, Optional[Estimate]]]) -> List[list]:
    """One row per stratum: its name, then three cells per frailty-law quantity."""
    return [
        [stratum] + [cell for col in _RFV_COLUMNS for cell in _cells(row.get(col))]
        for stratum, row in table.items()
    ]


def write_rfv_params_csv(path, table: Dict[str, Dict[str, Optional[Estimate]]]) -> None:
    """One row per stratum, estimate and CI bounds per frailty-law quantity."""
    header = ["stratum"] + [col + end for col in _RFV_COLUMNS for end in ("", "_lo", "_hi")]
    _write_rows(path, header, _rfv_rows(table))


def rfv_params_payload(table: Dict[str, Dict[str, Optional[Estimate]]]) -> dict:
    return {
        row[0]: {col: _nest(row, 1 + 3 * i) for i, col in enumerate(_RFV_COLUMNS)}
        for row in _rfv_rows(table)
    }


def _rc_rows(table: RCTable) -> List[list]:
    """Support rows, then pair rows; a 0/0 ``hr_across`` reads "undef"."""
    rows = []
    for r in table.rows:
        rows.append(["support", r.stratum, table.reference, str(r.k)]
                    + _cells(r.z) + [fmt(r.prob)] + _cells(r.cum_prob) + [None] * 3)
    for p in table.pairs:
        rows.append(["pair", p.stratum, p.reference, str(p.k)] + [None] * 4
                    + _cells(p.cum_prob_ratio) + _cells(p.hr_across, UNDEF))
    return rows


def write_rc_table_csv(path, table: RCTable) -> None:
    _write_rows(
        path,
        ["row", "stratum", "reference", "k",
         "z", "z_lo", "z_hi", "prob",
         "cum_prob", "cum_prob_lo", "cum_prob_hi",
         "hr_across", "hr_across_lo", "hr_across_hi"],
        _rc_rows(table),
    )


def rc_table_payload(table: RCTable) -> dict:
    support, pairs = [], []
    for row in _rc_rows(table):
        if row[0] == "support":
            support.append({"stratum": row[1], "k": row[3], "z": _nest(row, 4),
                            "prob": row[7], "cum_prob": _nest(row, 8)})
        else:
            pairs.append({"stratum": row[1], "reference": row[2], "k": row[3],
                          "cum_prob_ratio": _nest(row, 8), "hr_across": _nest(row, 11)})
    return {"reference": table.reference, "support": support, "pairs": pairs}


def write_hr_within_csv(path, entries: List[dict]) -> None:
    """Adjacent-RC hazard ratios; entries hold stratum, k, and an Estimate."""
    rows = [[e["stratum"], str(e["k"])] + _cells(e["hr"]) for e in entries]
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
