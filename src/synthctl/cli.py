"""Command-line front-end: fits, conformal inference, DTE, simulation studies.

Exit codes: 0 on success, 1 on user or input errors, 2 on internal errors.
Failures print one machine-parseable line to stderr: ``error: CODE: message``.
Every command that takes --seed is bit-reproducible, and worker-thread counts
never change results (seeds derive from task indices, outputs keep task
order).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from .conformal import confidence_interval, default_grid, save_p_curve
from .dte import bootstrap_counterfactual, mmd_test, quantiles, save_draws
from .errors import SynthctlError
from .estimators import Method, fit_method
from .moments import MomentConfig
from .panel import PanelData, PanelSchema, load_panel
from .seeding import threads_from_env
from .simlab import (
    StudySpec,
    Theorem1Spec,
    appendix_d_spec,
    figure2_spec,
    run_replication_study,
    theorem1_experiment,
)
from .solver import SolverOptions

_FIT_METHODS = {
    "dmscm": Method.DMSCM,
    "d2mscm": Method.D2MSCM,
    "abadie": Method.ABADIE,
    "fp": Method.FP_DEMEANED,
    "fp_demeaned": Method.FP_DEMEANED,
    "ols": Method.OLS,
}


class _CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    return threads_from_env()


def _add_panel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="long-format CSV panel")
    p.add_argument("--treated", required=True, help="treated unit identifier")
    p.add_argument("--t0", type=int, required=True, help="pre-treatment length")
    p.add_argument("--unit-col", default="unit")
    p.add_argument("--period-col", default="period")
    p.add_argument("--outcome-col", default="outcome")
    p.add_argument(
        "--covariate-cols",
        default="",
        help="comma-separated covariate column names",
    )
    p.add_argument("--period-type", choices=("int", "str"), default="int")


def _add_moment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method", choices=sorted(_FIT_METHODS), default="dmscm"
    )
    p.add_argument("--g", type=int, default=5, help="number of moment orders")
    p.add_argument("--include-covariates", action="store_true")
    p.add_argument(
        "--scaling", choices=("none", "pooled_sd", "max_abs"), default="pooled_sd"
    )
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)


def _load_panel_from_args(args) -> PanelData:
    path = Path(args.input)
    if not path.exists():
        raise _CliError("IO_NOT_FOUND", f"input file not found: {path}")
    covariates = tuple(
        c.strip() for c in args.covariate_cols.split(",") if c.strip()
    )
    schema = PanelSchema(
        unit=args.unit_col,
        period=args.period_col,
        outcome=args.outcome_col,
        covariates=covariates,
        period_type=args.period_type,
    )
    return load_panel(path, schema, args.treated, args.t0)


def _moment_config(args) -> MomentConfig:
    return MomentConfig(
        g=args.g,
        include_covariates=args.include_covariates,
        scaling=args.scaling,
    )


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _write_json(payload: dict, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    panel = _load_panel_from_args(args)
    fit = fit_method(
        panel, _FIT_METHODS[args.method], _moment_config(args), _solver_options(args)
    )
    _write_json(fit.to_json_dict(), args.output)
    weights = " ".join(f"{w:.6f}" for w in fit.weights.weights)
    print(f"method: {fit.method.value}")
    print(f"weights: {weights}")
    if fit.weights.intercept is not None:
        print(f"intercept: {fit.weights.intercept:.6f}")
    print(f"pre_fit_rmse: {fit.pre_fit_rmse:.6f}")
    print(f"mean_post_att: {fit.mean_post_att():.6f}")
    return 0


def cmd_conformal(args) -> int:
    if not (0.0 < args.level < 1.0):
        raise _CliError("BAD_LEVEL", f"level must lie in (0, 1), got {args.level}")
    if args.method == "ols":
        raise _CliError("BAD_METHOD", "conformal inference needs a simplex estimator")
    panel = _load_panel_from_args(args)
    cfg = _moment_config(args)
    opts = _solver_options(args)
    estimator = _FIT_METHODS[args.method]
    if args.grid_min is not None and args.grid_max is not None:
        grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    else:
        grid = default_grid(panel, estimator, cfg, opts, points=args.grid_points)
    report = confidence_interval(
        panel, grid, args.level, estimator, cfg, opts, threads=_threads(args.threads)
    )
    _write_json(report.to_json_dict(), args.output)
    if args.csv:
        save_p_curve(report, args.csv)
    fit = fit_method(panel, estimator, cfg, opts)
    lo = "-inf" if report.lower is None else f"{report.lower:.6f}"
    hi = "+inf" if report.upper is None else f"{report.upper:.6f}"
    print(f"tau_hat {fit.mean_post_att():.6f} [{lo}, {hi}] @ {args.level}")
    if report.open_lower or report.open_upper:
        print(
            "WARN_GRID_EDGE: acceptance region touches the grid boundary; widen the grid",
            file=sys.stderr,
        )
    return 0


def cmd_dte(args) -> int:
    if args.l <= 1:
        raise _CliError("BAD_L", f"need --L > 1, got {args.l}")
    panel = _load_panel_from_args(args)
    fit = fit_method(
        panel, _FIT_METHODS[args.method], _moment_config(args), _solver_options(args)
    )
    sample = bootstrap_counterfactual(panel, fit.weights, args.l, args.seed)
    if args.draws_out:
        save_draws(sample, args.draws_out)
    probs = [float(p) for p in args.probs.split(",") if p.strip()]
    qs = quantiles(sample, probs)
    payload = {
        "schema_version": 1,
        "l": sample.l,
        "seed": sample.seed,
        "probs": probs,
        "quantiles": qs,
    }
    _write_json(payload, args.output)
    print("quantiles: " + " ".join(f"{p}:{q:.6f}" for p, q in zip(probs, qs)))
    if args.mmd:
        observed_post = panel.treated_outcomes[panel.t0 :]
        report = mmd_test(
            observed_post, sample.draws, permutations=args.permutations, seed=args.seed
        )
        _write_json(report.to_json_dict(), args.mmd_out)
        print(f"mmd2: {report.mmd2:.6g} p_value: {report.p_value:.6g}")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise _CliError("BAD_LIST", f"expected comma-separated integers, got {text!r}")


def _study_from_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    if not Path(path).exists():
        raise _CliError("IO_NOT_FOUND", f"config file not found: {path}")
    parser.read(path)
    values: dict = {}
    if parser.has_section("study"):
        sec = parser["study"]
        if "methods" in sec:
            methods = []
            for name in sec["methods"].split(","):
                name = name.strip()
                if name not in _FIT_METHODS:
                    raise _CliError("BAD_METHOD", f"unknown method {name!r} in config")
                methods.append(_FIT_METHODS[name])
            values["methods"] = tuple(methods)
        for key in ("replications", "seed"):
            if key in sec:
                values["base_seed" if key == "seed" else key] = sec.getint(key)
        if "output_dir" in sec:
            values["output_dir"] = sec["output_dir"]
    if parser.has_section("dgp"):
        sec = parser["dgp"]
        for key in ("j", "g"):
            if key in sec:
                values[f"{key}_values"] = _parse_int_list(sec[key])
        for key in ("t0", "t1", "k"):
            if key in sec:
                values[key] = sec.getint(key)
        for key in ("tau", "drift_var", "var_floor"):
            if key in sec:
                values[key] = sec.getfloat(key)
        if "var_floor_mode" in sec:
            values["var_floor_mode"] = sec["var_floor_mode"]
        if "stationary" in sec:
            values["stationary"] = sec.getboolean("stationary")
    return values


def cmd_simulate(args) -> int:
    out_dir = None
    overrides: dict = {}
    if args.config:
        overrides = _study_from_config(args.config)
        out_dir = overrides.pop("output_dir", None)
    # flags win over the config file
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.j:
        overrides["j_values"] = _parse_int_list(args.j)
    if args.g:
        overrides["g_values"] = _parse_int_list(args.g)
    if args.mmd:
        overrides["compute_mmd"] = True
    if args.output_dir:
        out_dir = args.output_dir
    if out_dir is None:
        raise _CliError("BAD_OUTPUT", "--output-dir (or config output_dir) is required")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.preset == "theorem1":
        spec = Theorem1Spec(
            seed=overrides.get("base_seed", 0),
            replications=overrides.get("replications", 100),
        )
        result = theorem1_experiment(spec)
        (out / "theorem1.json").write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8"
        )
        print(
            f"ols_mean: {result['ols_mean']}\n"
            f"predicted_limit: {result['predicted_limit']}\n"
            f"gmm_mean: {result['gmm_mean']}"
        )
        return 0

    if args.preset == "figure2":
        spec = figure2_spec(**overrides)
    elif args.preset == "appendixD":
        spec = appendix_d_spec(**overrides)
    else:
        overrides.setdefault("x_axis", "j")
        spec = StudySpec(**overrides)
    result = run_replication_study(spec, threads=_threads(args.threads))
    result.save_records_csv(out / "records.csv")
    (out / "aggregates.json").write_text(
        json.dumps(result.aggregates_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
    result.save_figure_csv(out / "figure.csv")
    print(
        f"study complete: {len(result.records)} records, "
        f"{len(result.aggregates)} cells -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthctl",
        description="Density-matching synthetic control estimation and inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate weights and the post-period effects")
    _add_panel_args(p_fit)
    _add_moment_args(p_fit)
    p_fit.add_argument("--output", help="write the fit result JSON here")
    p_fit.set_defaults(func=cmd_fit)

    p_conf = sub.add_parser("conformal", help="p-values and confidence interval")
    _add_panel_args(p_conf)
    _add_moment_args(p_conf)
    p_conf.add_argument("--level", type=float, default=0.10)
    p_conf.add_argument("--grid-min", type=float)
    p_conf.add_argument("--grid-max", type=float)
    p_conf.add_argument("--grid-points", type=int, default=41)
    p_conf.add_argument("--threads", type=int)
    p_conf.add_argument("--output", help="write the report JSON here")
    p_conf.add_argument("--csv", help="write the (alpha, p) curve CSV here")
    p_conf.set_defaults(func=cmd_conformal)

    p_dte = sub.add_parser("dte", help="bootstrap the counterfactual distribution")
    _add_panel_args(p_dte)
    _add_moment_args(p_dte)
    p_dte.add_argument("--L", dest="l", type=int, default=10_000)
    p_dte.add_argument("--seed", type=int, default=0)
    p_dte.add_argument("--probs", default="0.05,0.25,0.5,0.75,0.95")
    p_dte.add_argument("--draws-out", help="write the draw CSV here")
    p_dte.add_argument("--output", help="write the quantiles JSON here")
    p_dte.add_argument("--mmd", action="store_true",
                       help="test observed treated post outcomes against the draws")
    p_dte.add_argument("--permutations", type=int, default=500)
    p_dte.add_argument("--mmd-out", help="write the MMD report JSON here")
    p_dte.set_defaults(func=cmd_dte)

    p_sim = sub.add_parser("simulate", help="run a replication study")
    p_sim.add_argument(
        "--preset", choices=("figure2", "appendixD", "theorem1", "custom"),
        default="custom",
    )
    p_sim.add_argument("--config", help="INI study config ([study] and [dgp] sections)")
    p_sim.add_argument("--replications", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--j", help="comma-separated untreated-unit counts")
    p_sim.add_argument("--g", help="comma-separated moment-order counts")
    p_sim.add_argument("--mmd", action="store_true", help="record MMD to the truth")
    p_sim.add_argument("--threads", type=int)
    p_sim.add_argument("--output-dir")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except SynthctlError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"error: INTERNAL: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
