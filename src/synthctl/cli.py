"""Command-line front-end: fits, conformal inference, DTE, simulation studies.

Exit codes: 0 on success, 1 on user or input errors (usage mistakes,
unreadable inputs and unwritable output paths included), 2 on internal
errors. Failures print one machine-parseable line to stderr:
``error: CODE: message``.
Every command that takes --seed is bit-reproducible. The moment, solver,
generator and theorem1 defaults are stated only by the objects that own
them (``MomentConfig``, ``SolverOptions``, ``MixtureDgpConfig``,
``Theorem1Spec``), and the grid size, permutation count and method defaults
only by the functions that take them (``default_grid``, ``mmd_test``,
``confidence_interval``); the flags and INI keys read them.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from .conformal import confidence_interval, default_grid, save_p_curve
from .dte import bootstrap_counterfactual, check_probs, mmd_test, quantiles, save_draws
from .errors import BadProbError, SynthctlError
from .estimators import Method, fit_listener, fit_method
from .moments import SCALINGS, MomentConfig
from .panel import SCHEMA_VERSION, PanelData, PanelSchema, load_panel
from .seeding import derive_seed
from .simlab import (
    DGP_SETTINGS,
    MixtureDgpConfig,
    Theorem1Spec,
    appendix_d_spec,
    figure2_spec,
    run_replication_study,
    theorem1_experiment,
)
from .solver import SolverOptions

# every method by its value, plus the short alias "fp"
_FIT_METHODS = {m.value: m for m in Method} | {"fp": Method.FP_DEMEANED}


class _CliError(SynthctlError):
    """A user error found by the CLI itself, with the code it reports."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage mistakes are user errors (exit 1, ``USAGE``).

    Subparsers inherit this class through ``parser_class``; ``--help`` still
    exits 0.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _CliError("USAGE", message)


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


def _default(func, name: str):
    """The default value of ``func``'s parameter ``name``."""
    return inspect.signature(func).parameters[name].default


def _add_moment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method",
        choices=sorted(_FIT_METHODS),
        default=_default(confidence_interval, "estimator").value,
    )
    p.add_argument("--g", type=int, default=MomentConfig.g, help="number of moment orders")
    p.add_argument("--include-covariates", action="store_true")
    p.add_argument("--scaling", choices=SCALINGS, default=MomentConfig.scaling)
    p.add_argument("--tol", type=float, default=SolverOptions.tol)
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)


def _load_panel_from_args(args) -> PanelData:
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
    path = Path(args.input)
    with _reading(path, "input"):
        return load_panel(path, schema, args.treated, args.t0)


def _moment_config(args) -> MomentConfig:
    return MomentConfig(
        g=args.g,
        include_covariates=args.include_covariates,
        scaling=args.scaling,
    )


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _simplex_method(args, purpose: str) -> Method:
    """The ``--method`` of a command whose ``purpose`` needs simplex weights."""
    method = _FIT_METHODS[args.method]
    if not method.simplex:
        raise _CliError("BAD_METHOD", f"{purpose} needs a simplex estimator")
    return method


@contextlib.contextmanager
def _reading(path, kind: str):
    """Report a failed read of a user's ``kind`` file as a user error, the mirror of ``_writing``.

    A missing file is ``IO_NOT_FOUND``; any other failure to open or read it,
    bytes that are not UTF-8 included, is ``IO_READ``.
    """
    try:
        yield
    except FileNotFoundError as exc:
        raise _CliError("IO_NOT_FOUND", f"{kind} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _CliError("IO_READ", f"cannot read {path}: {reason}") from exc


@contextlib.contextmanager
def _writing(path):
    """Report a failed output write as a user error (``IO_WRITE``), not an internal one."""
    try:
        yield
    except OSError as exc:
        raise _CliError("IO_WRITE", f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(payload: dict, path) -> None:
    if path:
        with _writing(path):
            Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


class _FitCount:
    """A ``fit_listener`` that counts a command's fits and its unconverged ones."""

    def __init__(self):
        self.fits = self.unconverged = 0

    def __call__(self, method, system, weights, diagnostics) -> None:
        self.fits += 1
        self.unconverged += not diagnostics.converged


def cmd_fit(args) -> int:
    opts = _solver_options(args)
    panel = _load_panel_from_args(args)
    fit = fit_method(panel, _FIT_METHODS[args.method], _moment_config(args), opts)
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
    estimator = _simplex_method(args, "conformal inference")
    if args.grid_points < 1:
        raise _CliError("BAD_GRID", f"need --grid-points >= 1, got {args.grid_points}")
    if (args.grid_min is None) != (args.grid_max is None):
        raise _CliError("BAD_GRID", "give both --grid-min and --grid-max, or neither")
    grid = None
    if args.grid_min is not None:
        span = args.grid_max - args.grid_min  # nan or inf when an end is
        if not math.isfinite(span):
            raise _CliError("BAD_GRID", "need finite --grid-min and --grid-max a finite "
                            f"distance apart, got {args.grid_min} and {args.grid_max}")
        if span < 0:
            raise _CliError("BAD_GRID", "need --grid-min <= --grid-max, "
                            f"got {args.grid_min} > {args.grid_max}")
        grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    opts = _solver_options(args)
    panel = _load_panel_from_args(args)
    cfg = _moment_config(args)
    fit = fit_method(panel, estimator, cfg, opts)
    if grid is None:
        grid = default_grid(panel, fit, points=args.grid_points)
    report = confidence_interval(panel, grid, args.level, estimator, cfg, opts)
    _write_json(report.to_json_dict(), args.output)
    if args.csv:
        with _writing(args.csv):
            save_p_curve(report, args.csv)
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
    if args.seed < 0:
        raise _CliError("BAD_SEED", f"need --seed >= 0, got {args.seed}")
    method = _simplex_method(args, "the counterfactual bootstrap")
    try:
        probs = [float(p) for p in args.probs.split(",") if p.strip()]
    except ValueError:
        raise BadProbError(
            f"--probs must be comma-separated numbers, got {args.probs!r}"
        ) from None
    check_probs(probs)
    if args.mmd and args.permutations < 1:
        raise _CliError(
            "BAD_PERMUTATIONS", f"need --permutations >= 1, got {args.permutations}"
        )
    opts = _solver_options(args)
    panel = _load_panel_from_args(args)
    fit = fit_method(panel, method, _moment_config(args), opts)
    sample = bootstrap_counterfactual(panel, fit.weights, args.l, args.seed)
    if args.draws_out:
        with _writing(args.draws_out):
            save_draws(sample, args.draws_out)
    qs = quantiles(sample, probs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "l": sample.l,
        "seed": sample.seed,
        "probs": probs,
        "quantiles": qs,
    }
    _write_json(payload, args.output)
    print("quantiles: " + " ".join(f"{p}:{q:.6f}" for p, q in zip(probs, qs)))
    if args.mmd:
        observed_post = panel.treated_outcomes[panel.t0 :]
        # the permutations get their own stream, apart from the bootstrap's
        report = mmd_test(
            observed_post,
            sample.draws,
            permutations=args.permutations,
            seed=derive_seed(args.seed, 1),
        )
        _write_json(report.to_json_dict(), args.mmd_out)
        print(f"mmd2: {report.mmd2:.6g} p_value: {report.p_value:.6g}")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise _CliError("BAD_LIST", f"expected comma-separated integers, got {text!r}")


def _parse_methods(text: str) -> tuple[Method, ...]:
    methods = []
    for name in text.split(","):
        name = name.strip()
        if name not in _FIT_METHODS:
            raise _CliError("BAD_METHOD", f"unknown method {name!r} in config")
        methods.append(_FIT_METHODS[name])
    return tuple(methods)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# INI section -> key -> (StudySpec field, parser raising ValueError on a bad value);
# other sections, such as a schema template's [panel], are not read
_CONFIG_KEYS = {
    "study": {
        "methods": ("methods", _parse_methods),
        "replications": ("replications", int),
        "seed": ("base_seed", int),
        "output_dir": ("output_dir", str),
    },
    "dgp": {
        "j": ("j_values", _parse_int_list),
        "g": ("g_values", _parse_int_list),
        # each generator setting parses as the type of its default
        **{
            name: (name, _parse_bool if isinstance(default, bool) else type(default))
            for name in DGP_SETTINGS
            for default in [getattr(MixtureDgpConfig, name)]
        },
    },
}


def _study_from_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        # read_file, unlike read, fails on a file it cannot open
        with _reading(path, "config"), open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {
            name: dict(parser[name]) for name in _CONFIG_KEYS if parser.has_section(name)
        }
        defaults = parser.defaults()
    except configparser.Error as exc:
        message = " ".join(str(exc).split())  # configparser's messages span lines
        raise _CliError("BAD_CONFIG", f"cannot read {path}: {message}") from exc
    values: dict = {}
    for name, entries in sections.items():
        for key, raw in entries.items():
            if key not in _CONFIG_KEYS[name]:
                if key in defaults:
                    continue  # a [DEFAULT] key is offered to every section
                raise _CliError("BAD_CONFIG", f"unknown key {key!r} in [{name}]")
            field, parse = _CONFIG_KEYS[name][key]
            try:
                values[field] = parse(raw)
            except ValueError:
                raise _CliError(
                    "BAD_CONFIG", f"[{name}] {key} = {raw!r} is not a valid value"
                ) from None
    return values


# --preset -> the replication study it starts from; overrides win over it
_STUDY_PRESETS = {"figure2": figure2_spec, "appendixD": appendix_d_spec}


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
    # validate the spec first: a rejected one leaves no directory
    if args.preset == "theorem1":
        unused = sorted(set(overrides) - {"replications", "base_seed"})
        if unused:
            raise _CliError(
                "BAD_CONFIG",
                "--preset theorem1 takes only a replication count, a seed and an "
                f"output directory, not {', '.join(unused)}",
            )
        spec = Theorem1Spec(
            **{"seed" if key == "base_seed" else key: v for key, v in overrides.items()}
        )
    else:
        spec = _STUDY_PRESETS[args.preset](**overrides)
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)

    if args.preset == "theorem1":
        result = theorem1_experiment(spec)
        _write_json(result, out / "theorem1.json")
        print(
            f"ols_mean: {result['ols_mean']}\n"
            f"predicted_limit: {result['predicted_limit']}\n"
            f"gmm_mean: {result['gmm_mean']}"
        )
        return 0

    result = run_replication_study(spec)
    with _writing(out / "records.csv"):
        result.save_records_csv(out / "records.csv")
    _write_json(result.aggregates_json_dict(), out / "aggregates.json")
    with _writing(out / "figure.csv"):
        result.save_figure_csv(out / "figure.csv")
    print(
        f"study complete: {len(result.records)} records, "
        f"{len(result.aggregates)} cells -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_conf.add_argument("--grid-points", type=int, default=_default(default_grid, "points"))
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
    p_dte.add_argument("--permutations", type=int, default=_default(mmd_test, "permutations"))
    p_dte.add_argument("--mmd-out", help="write the MMD report JSON here")
    p_dte.set_defaults(func=cmd_dte)

    p_sim = sub.add_parser("simulate", help="run a replication study")
    p_sim.add_argument(
        "--preset", choices=("figure2", "appendixD", "theorem1"), default="figure2"
    )
    p_sim.add_argument("--config", help="INI study config ([study] and [dgp] sections)")
    p_sim.add_argument("--replications", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--j", help="comma-separated untreated-unit counts")
    p_sim.add_argument("--g", help="comma-separated moment-order counts")
    p_sim.add_argument("--mmd", action="store_true", help="record MMD to the truth")
    p_sim.add_argument("--output-dir")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use; parsing never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        count = _FitCount()
        with fit_listener(count):
            code = args.func(args)
        # after a normal return only: a failed command prints its error alone
        if count.unconverged:
            print(
                f"WARN_NOT_CONVERGED: {count.unconverged} of {count.fits} fits did not "
                "converge; their weights are not certified optimal",
                file=sys.stderr,
            )
        return code
    except SynthctlError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"error: INTERNAL: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
