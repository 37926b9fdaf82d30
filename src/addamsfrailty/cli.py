"""Command-line entry point.

Subcommands: ``simulate`` (generate a dataset), ``fit`` (maximum
likelihood), ``analyze`` (risk-category tables and trajectories, after a
fit or on fully pinned parameters), ``lrt`` (nested regime comparison).
Reports are written to files under ``[output] dir``; stderr carries only
diagnostics, and nothing is printed to stdout.

Exit codes: 0 success, 1 malformed dataset or a file that cannot be
read or written, 2 non-convergence or a start point whose log-likelihood
is not finite,
3 configuration error or a dataset unit the model does not declare.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import report as rep
from .analysis import hr_within_table, rc_table, rfv_parameter_table, trajectories
from .config import RunConfig, load_config
from .data import read_csv, write_csv
from .errors import (
    ConfigError,
    DatasetError,
    FrailtyModelError,
    IdentifiabilityError,
    InvalidParameters,
    NonConvergence,
    NonFiniteEvaluation,
)
from .estimation import fit as ml_fit
from .estimation import lrt as lr_test
from .estimation import pinned_result
from .family import classify_branch
from .likelihood import LikelihoodWorkspace
from .simulate import SimConfig, generate

__all__ = ["main"]

log = logging.getLogger("addamsfrailty")

EXIT_OK = 0
EXIT_DATA = 1
EXIT_NONCONVERGENCE = 2
EXIT_CONFIG = 3


def _load(args) -> RunConfig:
    return load_config(args.config, args.set or [])


def _read_data(config: RunConfig):
    if not config.data_path:
        raise ConfigError("[data] path is required for this command")
    return read_csv(config.data_path)


def _outdir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_fit(config: RunConfig, data, regimes=None, name: str = "fit"):
    spec = config.build_spec(regimes=regimes)
    init = "spec" if config.params and not config.pin_all else None
    result = ml_fit(spec, data, init=init, maxiter=config.fit_maxiter)
    if not result.converged:
        raise NonConvergence(
            f"{name}: stopped at {result.stop}, gradient norm "
            f"{result.gradient_norm:.3g} after {result.iterations} iterations"
        )
    return result


def _write_fit_reports(config: RunConfig, command: str, result, **extra) -> Path:
    """Write the files fit and analyze share; ``extra`` joins report.json."""
    out = _outdir(config)
    rfv_table = rfv_parameter_table(result)
    rep.write_json_report(out / "report.json", {
        "command": command,
        "fit": rep.fit_payload(result),
        "rfv_params": rep.rfv_params_payload(rfv_table),
        **extra,
    })
    rep.write_params_csv(out / "params.csv", result)
    rep.write_rfv_params_csv(out / "rfv_params.csv", rfv_table)
    return out


def cmd_fit(args) -> int:
    config = _load(args)
    result = _run_fit(config, _read_data(config))
    _write_fit_reports(config, "fit", result)
    log.info("fit converged: loglik %.6g, %d free parameters",
             result.loglik, result.n_free)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load(args)
    spec = config.build_spec()
    sim = SimConfig(
        spec=spec,
        n_clusters=config.sim_n_clusters,
        seed=config.sim_seed,
        monitoring=config.sim_monitoring,
        stratum_probs=config.sim_stratum_probs,
    )
    data = generate(sim)
    out = _outdir(config)
    target = Path(config.data_path) if config.data_path else out / "data.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    write_csv(data, target)
    log.info("simulated %d clusters to %s", len(data), target)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _load(args)
    if config.pin_all:
        spec = config.build_spec()
        if config.data_path:
            data = _read_data(config)
            loglik = LikelihoodWorkspace(spec, data).total_loglik(spec)
        else:
            loglik = float("nan")
        result = pinned_result(spec, loglik)
    else:
        result = _run_fit(config, _read_data(config))
    k_max = config.analyze_k_max
    discrete = [
        lvl for lvl in result.spec.frailty_link.levels
        if classify_branch(result.spec.frailty_params(lvl)).is_discrete
    ]
    table = rc_table(result, strata=discrete, k_max=k_max)
    hr_rows = hr_within_table(result, k_max=k_max)
    curves = []
    units = list(config.analyze_units or result.spec.units)
    for lvl in result.spec.frailty_link.levels:
        curves.extend(
            trajectories(result, lvl, units=units, times=config.analyze_time_grid)
        )
    out = _write_fit_reports(config, "analyze", result, rc_table=rep.rc_table_payload(table))
    rep.write_rc_table_csv(out / "rc_table.csv", table)
    rep.write_hr_within_csv(out / "hr_within.csv", hr_rows)
    rep.write_trajectories_csv(out / "trajectories.csv", curves)
    return EXIT_OK


def cmd_lrt(args) -> int:
    config = _load(args)
    data = _read_data(config)
    fits = {
        label: _run_fit(config, data, config.regimes_for(label), f"{label} model")
        for label in ("null", "alt")
    }
    stat, p_value = lr_test(fits["null"], fits["alt"])
    df = fits["alt"].n_free - fits["null"].n_free
    out = _outdir(config)
    payload = {
        "command": "lrt",
        **{label: {"regime": config.lrt_regimes[label], "fit": rep.fit_payload(result)}
           for label, result in fits.items()},
        "lrt": {
            "statistic": rep.fmt(stat),
            "df": str(df),
            "p_value": rep.fmt(p_value),
        },
    }
    rep.write_json_report(out / "report.json", payload)
    log.info("LRT statistic %.6g on %d df (p = %.3g)", stat, df, p_value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addamsfrailty",
        description="Shared discrete-frailty models for clustered "
                    "current-status data",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("fit", cmd_fit, "maximum-likelihood fit"),
        ("simulate", cmd_simulate, "generate a synthetic dataset"),
        ("analyze", cmd_analyze, "risk-category tables and trajectories"),
        ("lrt", cmd_lrt, "likelihood-ratio test of nested regimes"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config entry")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DatasetError as exc:
        log.error("dataset rejected:")
        for problem in exc.problems:
            log.error("  %s", problem)
        return EXIT_DATA
    except NonConvergence as exc:
        log.error("no convergence: %s", exc)
        return EXIT_NONCONVERGENCE
    except NonFiniteEvaluation as exc:
        log.error("optimization failed: %s", exc)
        return EXIT_NONCONVERGENCE
    except (ConfigError, IdentifiabilityError, InvalidParameters) as exc:
        log.error("bad configuration: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("file error: %s", exc)
        return EXIT_DATA
    except FrailtyModelError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
