"""Simulation DGPs and replication runners for estimator benchmarking.

The core generator draws each untreated unit's outcome from a per-period
normal whose mean and variance follow random walks (the variance is kept at
or above a positive floor; see ``MixtureDgpConfig``), covariates from
time-invariant normals, and
the treated unit from the weight-mixture of the untreated densities, with a
constant effect added after the intervention. Replication studies sweep the
number of untreated units and the number of moment orders, record per-fit
error metrics, and aggregate medians and quartiles. Every replication derives
its own RNG stream from (base seed, cell index, replication index), so its
results do not depend on which replications ran before it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace

import numpy as np

from .dte import bootstrap_counterfactual, mmd_squared
from .errors import BadConfigError, SynthctlError
from .estimators import (
    BiasLimitInput,
    Method,
    estimate_weights,
    fit_method,
    ls_bias_limit,
)
from .moments import MomentConfig
from .panel import SCHEMA_VERSION, PanelData, open_csv
from .seeding import derive_seed

__all__ = [
    "MixtureDgpConfig",
    "DgpTruth",
    "gen_mixture_dgp",
    "sample_true_post_mixture",
    "StudySpec",
    "ReplicationRecord",
    "CellAggregate",
    "ReplicationResult",
    "run_replication_study",
    "Theorem1Spec",
    "theorem1_experiment",
    "figure2_spec",
    "appendix_d_spec",
]


@dataclass(frozen=True)
class MixtureDgpConfig:
    """Mixture-panel generator settings.

    Initial variances are drawn uniformly from [1, 20). Outcome means and
    variances random-walk over time with increment variance ``drift_var``.
    The variance walk is kept positive by ``var_floor``: in ``"level"`` mode
    the variance itself is floored, so it can shrink but never drops below
    the floor; in ``"increment"`` mode every increment below the floor is
    replaced by it, so variance never decreases.
    ``stationary=True`` freezes all parameters at their initial draws, which
    is the regime the consistency and conformal-validity theory assumes.
    """

    j: int = 10
    t0: int = 30
    t1: int = 100
    k: int = 5
    tau: float = 20.0
    drift_var: float = 10.0
    var_floor: float = 0.1
    var_floor_mode: str = "level"  # "level" | "increment"
    stationary: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.j < 1:
            raise BadConfigError("need at least one untreated unit")
        if self.t0 < 2 or self.t1 < 1:
            raise BadConfigError("need t0 >= 2 and t1 >= 1")
        if self.k < 0:
            raise BadConfigError("covariate dimension must be >= 0")
        if self.var_floor_mode not in ("level", "increment"):
            raise BadConfigError("var_floor_mode must be 'level' or 'increment'")
        if self.var_floor <= 0:
            raise BadConfigError("var_floor must be positive")


@dataclass(frozen=True)
class DgpTruth:
    """Ground truth behind a generated panel: weights, effect, parameter paths."""

    w_star: np.ndarray  # (J,)
    tau: float
    means: np.ndarray  # (J, T, K+1); coordinate 0 is the outcome
    variances: np.ndarray  # (J, T, K+1)


def gen_mixture_dgp(cfg: MixtureDgpConfig) -> tuple[PanelData, DgpTruth]:
    """Generate one mixture panel and its ground truth, deterministically."""
    rng = np.random.default_rng(cfg.seed)
    j, t, k = cfg.j, cfg.t0 + cfg.t1, cfg.k
    coords = k + 1

    w_star = rng.uniform(size=j)
    w_star = w_star / w_star.sum()

    means = np.empty((j, t, coords))
    variances = np.empty((j, t, coords))
    means[:, 0, :] = rng.standard_normal((j, coords))
    variances[:, 0, :] = rng.uniform(1.0, 20.0, size=(j, coords))
    # covariate coordinates stay at their initial parameters
    means[:, 1:, :] = means[:, :1, :]
    variances[:, 1:, :] = variances[:, :1, :]
    if not cfg.stationary:
        drift_sd = np.sqrt(cfg.drift_var)
        mean_steps = drift_sd * rng.standard_normal((j, t - 1))
        var_steps = drift_sd * rng.standard_normal((j, t - 1))
        means[:, 1:, 0] = means[:, :1, 0] + np.cumsum(mean_steps, axis=1)
        if cfg.var_floor_mode == "increment":
            var_steps = np.maximum(var_steps, cfg.var_floor)
            variances[:, 1:, 0] = variances[:, :1, 0] + np.cumsum(var_steps, axis=1)
        else:
            v = variances[:, 0, 0].copy()
            for step in range(1, t):
                v = np.maximum(v + var_steps[:, step - 1], cfg.var_floor)
                variances[:, step, 0] = v

    sds = np.sqrt(variances)
    untreated = means + sds * rng.standard_normal((j, t, coords))

    components = rng.choice(j, size=t, p=w_star)
    z = rng.standard_normal((t, coords))
    treated = means[components, np.arange(t), :] + sds[components, np.arange(t), :] * z
    treated[cfg.t0 :, 0] += cfg.tau

    outcomes = np.vstack([treated[None, :, 0], untreated[:, :, 0]])
    covariates = None
    if k > 0:
        covariates = np.concatenate(
            [treated[None, :, 1:], untreated[:, :, 1:]], axis=0
        )
    units = ["treated"] + [f"u{i + 1}" for i in range(j)]
    panel = PanelData(
        units=tuple(units), outcomes=outcomes, t0=cfg.t0, covariates=covariates
    )
    return panel, DgpTruth(
        w_star=w_star, tau=cfg.tau, means=means, variances=variances
    )


def sample_true_post_mixture(
    truth: DgpTruth, t0: int, n: int, seed: int
) -> np.ndarray:
    """Fresh counterfactual outcome draws from the pooled post-period mixture."""
    rng = np.random.default_rng(seed)
    t = truth.means.shape[1]
    periods = rng.integers(t0, t, size=n)
    units = rng.choice(truth.w_star.shape[0], size=n, p=truth.w_star)
    mu = truth.means[units, periods, 0]
    sd = np.sqrt(truth.variances[units, periods, 0])
    return mu + sd * rng.standard_normal(n)


# the generator settings a study passes unchanged to every cell's generator
DGP_SETTINGS = (
    "t0", "t1", "k", "tau", "drift_var", "var_floor", "var_floor_mode", "stationary"
)


@dataclass(frozen=True)
class StudySpec:
    """A replication study: a (J, G) grid of DGP cells fit by several methods.

    The defaults are the paper's Figure 2 study; the ``DGP_SETTINGS`` take
    theirs from ``MixtureDgpConfig``. No grid may repeat a value.
    """

    j_values: tuple[int, ...] = (10,)
    g_values: tuple[int, ...] = (2, 5, 10)
    methods: tuple[Method, ...] = (Method.DMSCM, Method.ABADIE)
    replications: int = 100
    t0: int = MixtureDgpConfig.t0
    t1: int = MixtureDgpConfig.t1
    k: int = MixtureDgpConfig.k
    tau: float = MixtureDgpConfig.tau
    drift_var: float = MixtureDgpConfig.drift_var
    var_floor: float = MixtureDgpConfig.var_floor
    var_floor_mode: str = MixtureDgpConfig.var_floor_mode
    stationary: bool = MixtureDgpConfig.stationary
    include_covariates: bool = True
    scaling: str = "max_abs"
    compute_mmd: bool = False
    mmd_draws: int = 500
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "methods", tuple(Method(m) for m in self.methods)
        )
        if self.replications < 1:
            raise BadConfigError("need at least one replication")
        if not (self.j_values and self.g_values and self.methods):
            raise BadConfigError("need at least one j value, one g value and one method")
        for name in ("j_values", "g_values", "methods"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                listed = ", ".join(str(getattr(v, "value", v)) for v in values)
                raise BadConfigError(f"{name} repeats a value: {listed}")
        if self.compute_mmd and not all(m.simplex for m in self.methods):
            raise BadConfigError(
                "the MMD bootstraps the fitted weights; every method needs simplex weights"
            )
        if self.k == 0 and self.include_covariates:
            # nothing to include when the DGP generates no covariates
            object.__setattr__(self, "include_covariates", False)
        # build each cell's settings once, so a bad value fails before any run
        for j in self.j_values:
            self.dgp_config(j, seed=0)
        for g in self.g_values:
            MomentConfig(g=g, scaling=self.scaling)

    @property
    def x_axis(self) -> str:
        """The grid variable the figure CSV varies: G for a single J, else J."""
        return "g" if len(self.j_values) == 1 else "j"

    def dgp_config(self, j: int, seed: int) -> MixtureDgpConfig:
        settings = {name: getattr(self, name) for name in DGP_SETTINGS}
        return MixtureDgpConfig(j=j, seed=seed, **settings)


@dataclass(frozen=True)
class ReplicationRecord:
    j: int
    g: int
    method: Method
    replication: int
    seed: int
    att_error: float | None  # mean over post periods of |tau_hat_t - tau|
    mean_att_error: float | None  # |mean post-period tau_hat - tau|
    weight_error: float | None
    mmd_to_truth: float | None
    error: str | None = None


# the error metrics of a record that each cell summarizes, and the summary
_METRICS = ("att_error", "mean_att_error", "weight_error")
_STATS = ("median", "q25", "q75")


@dataclass(frozen=True)
class CellAggregate:
    """One cell's successful fits: ``quartiles[metric][stat]`` for every
    metric of ``_METRICS`` and stat of ``_STATS``, and the median MMD."""

    j: int
    g: int
    method: Method
    n: int
    quartiles: dict[str, dict[str, float]]
    mmd_median: float | None


def _quartiles(records: list[ReplicationRecord]) -> dict[str, dict[str, float]]:
    """Each of ``_METRICS``' median, 25% and 75% quantiles, keyed by ``_STATS``."""
    m = np.array([[getattr(r, name) for name in _METRICS] for r in records])
    stats = np.vstack([np.median(m, axis=0), np.quantile(m, [0.25, 0.75], axis=0)])
    return {
        name: {stat: float(stats[i, k]) for i, stat in enumerate(_STATS)}
        for k, name in enumerate(_METRICS)
    }


@dataclass(frozen=True)
class ReplicationResult:
    spec: StudySpec
    records: tuple[ReplicationRecord, ...]
    aggregates: tuple[CellAggregate, ...]

    def aggregates_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cells": [
                {
                    "j": a.j,
                    "g": a.g,
                    "method": a.method.value,
                    "n": a.n,
                    **a.quartiles,
                    "mmd_median": a.mmd_median,
                }
                for a in self.aggregates
            ],
        }

    def save_records_csv(self, target) -> None:
        """Write the raw records, one column per ``ReplicationRecord`` field.

        Methods are written by value and missing values as empty cells; the
        file is bit-reproducible for a fixed base seed.
        """
        with open_csv(target, "w") as fh:
            writer = csv.writer(fh)
            names = [f.name for f in fields(ReplicationRecord)]
            writer.writerow(names)
            for r in self.records:
                values = (getattr(r, name) for name in names)
                writer.writerow(
                    "" if v is None else v.value if isinstance(v, Method) else v
                    for v in values
                )

    def save_figure_csv(self, target) -> None:
        """Per-figure curve data: x, the other grid value, method, ATT-error quartiles.

        x follows ``StudySpec.x_axis``. The second column, headed ``j`` when x
        is G and ``g`` when x is J, keeps the rows of different cells apart.
        """
        other = "j" if self.spec.x_axis == "g" else "g"
        with open_csv(target, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", other, "method", *_STATS])
            for a in self.aggregates:
                writer.writerow(
                    [
                        getattr(a, self.spec.x_axis),
                        getattr(a, other),
                        a.method.value,
                        *(repr(a.quartiles["mean_att_error"][stat]) for stat in _STATS),
                    ]
                )


def _fit_record(
    spec: StudySpec,
    panel: PanelData,
    truth: DgpTruth,
    j: int,
    g: int,
    method: Method,
    replication: int,
    seed: int,
    mmd_index: int,
) -> ReplicationRecord:
    try:
        fit = fit_method(
            panel,
            method,
            MomentConfig(
                g=g, include_covariates=spec.include_covariates, scaling=spec.scaling
            ),
        )
        att_error = float(np.mean(np.abs(fit.att - truth.tau)))
        mean_att_error = float(abs(fit.att.mean() - truth.tau))
        weight_error = float(np.abs(fit.weights.weights - truth.w_star).max())
        mmd_val = None
        if spec.compute_mmd:
            boot = bootstrap_counterfactual(
                panel, fit.weights, spec.mmd_draws, derive_seed(seed, 1, mmd_index)
            )
            fresh = sample_true_post_mixture(
                truth, spec.t0, spec.mmd_draws, derive_seed(seed, 2, mmd_index)
            )
            mmd_val = mmd_squared(boot.draws, fresh)
        return ReplicationRecord(
            j,
            g,
            method,
            replication,
            seed,
            att_error,
            mean_att_error,
            weight_error,
            mmd_val,
        )
    except SynthctlError as exc:
        return ReplicationRecord(
            j, g, method, replication, seed, None, None, None, None, str(exc)
        )


def _run_replication(
    spec: StudySpec, j_index: int, j: int, replication: int
) -> list[ReplicationRecord]:
    """All fits for one generated panel: every g cell, every method.

    One panel is shared across the g grid and the methods, so comparisons
    between cells are paired (common random numbers).
    """
    seed = derive_seed(spec.base_seed, j_index, replication)
    panel, truth = gen_mixture_dgp(spec.dgp_config(j, seed))
    records: list[ReplicationRecord] = []
    # a method that matches no moments gives the same fit at every g
    invariant_cache: dict[Method, ReplicationRecord] = {}
    for g_index, g in enumerate(spec.g_values):
        for m_index, method in enumerate(spec.methods):
            if method in invariant_cache:
                cached = invariant_cache[method]
                records.append(replace(cached, g=g))
                continue
            rec = _fit_record(
                spec,
                panel,
                truth,
                j,
                g,
                method,
                replication,
                seed,
                mmd_index=g_index * len(spec.methods) + m_index,
            )
            if not method.matches_moments:
                invariant_cache[method] = rec
            records.append(rec)
    return records


def run_replication_study(spec: StudySpec) -> ReplicationResult:
    """Run the full replication grid and aggregate the error records.

    Replications run one after another. Individual replication failures are
    recorded, not fatal; the study raises only when more than 10% of its
    records carry an error.
    """
    chunks = [
        _run_replication(spec, j_index, j, r)
        for j_index, j in enumerate(spec.j_values)
        for r in range(spec.replications)
    ]
    records = tuple(rec for chunk in chunks for rec in chunk)

    failed = sum(1 for r in records if r.error is not None)
    if records and failed > 0.10 * len(records):
        raise SynthctlError(
            f"{failed} of {len(records)} replication fits failed"
        )

    # one pass groups the successful records by cell, in grid order
    cells: dict[tuple[int, int, Method], list[ReplicationRecord]] = {
        (j, g, m): [] for j in spec.j_values for g in spec.g_values for m in spec.methods
    }
    for r in records:
        if r.error is None:
            cells[r.j, r.g, r.method].append(r)
    aggregates = []
    for (j, g, method), ok in cells.items():
        if not ok:
            continue
        mmds = [r.mmd_to_truth for r in ok if r.mmd_to_truth is not None]
        aggregates.append(
            CellAggregate(
                j=j, g=g, method=method, n=len(ok), quartiles=_quartiles(ok),
                mmd_median=float(np.median(mmds)) if mmds else None,
            )
        )
    return ReplicationResult(
        spec=spec, records=records, aggregates=tuple(aggregates)
    )


@dataclass(frozen=True)
class Theorem1Spec:
    """Measurement-error experiment contrasting least squares with moment matching.

    Each untreated unit's observed outcome is a noiseless i.i.d. mean draw
    (second moment from ``q_diag``) plus independent measurement noise
    (variance from ``sigma_diag``). The treated outcome reuses one unit's mean
    realization, selected with probability ``w_star``, plus fresh noise of
    that unit's variance: marginally an exact mixture of the untreated
    densities, yet correlated with the regressors exactly as the attenuation
    bias requires. Mean draws are standardized gammas with unit-specific
    shape, so units with identical variances still differ in higher moments
    and stay separable by moment matching.

    Entries of ``w_star``, ``q_diag`` and ``sigma_diag`` must be finite and
    nonnegative; ``w_star`` needs a positive sum and is used normalized.
    """

    w_star: tuple[float, ...] = (0.5, 0.5)
    q_diag: tuple[float, ...] = (1.0, 1.0)
    sigma_diag: tuple[float, ...] = (1.0, 1.0)
    t0_large: int = 100_000
    seed: int = 0
    replications: int = 100
    g: int = 4

    def __post_init__(self):
        if not (
            len(self.w_star) == len(self.q_diag) == len(self.sigma_diag)
        ):
            raise BadConfigError("w_star, q_diag, sigma_diag must share a length")
        for name in ("w_star", "q_diag", "sigma_diag"):
            values = np.asarray(getattr(self, name), dtype=float)
            if not (np.isfinite(values).all() and (values >= 0).all()):
                raise BadConfigError(f"{name} entries must be finite and >= 0")
        with np.errstate(over="ignore"):
            w_total = np.sum(self.w_star, dtype=float)
        if not 0 < w_total < np.inf:
            raise BadConfigError("w_star must have a positive, finite sum")
        if self.g < 1:
            raise BadConfigError(f"g must be >= 1, got {self.g}")
        if self.t0_large < 2:
            raise BadConfigError("t0_large must be at least 2")
        if self.replications < 1:
            raise BadConfigError("need at least one replication")


# periods per block of the theorem1 treated row: 64 KiB per float64 block
_DRAW_BLOCK = 1 << 13


def _theorem1_buffers(spec: Theorem1Spec) -> tuple[np.ndarray, np.ndarray]:
    """The outcome buffer and the unit-mean buffer of one theorem1 panel."""
    j = len(spec.w_star)
    t = spec.t0_large + 1  # one throwaway post period
    return np.empty((j + 1, t)), np.empty((j, t))


def _theorem1_panel(
    spec: Theorem1Spec, seed: int, buffers: tuple[np.ndarray, np.ndarray] | None = None
) -> PanelData:
    """Draw one theorem1 panel into ``buffers`` (``_theorem1_buffers``), or fresh ones.

    The panel wraps a read-only view of the outcome buffer, so it holds
    the next draw's values once the same buffers are drawn into again: it
    must not outlive its replication.
    """
    rng = np.random.default_rng(seed)
    outcomes, mu = buffers or _theorem1_buffers(spec)
    j, t = mu.shape
    w = np.asarray(spec.w_star)
    q = np.asarray(spec.q_diag)
    s = np.asarray(spec.sigma_diag)
    # unit j's mean distribution: a centered gamma with unit-specific shape
    # and alternating skew sign, scaled to variance q_j; distinct shapes keep
    # the mixture components apart
    shapes = np.arange(1.0, j + 1.0)
    signs = np.where(np.arange(j) % 2 == 0, 1.0, -1.0)
    # Everything below is computed in place, yet bit for bit equal to
    # mu = signs * (gamma - shapes) / sqrt(shapes) * sqrt(q), untreated =
    # mu + sqrt(s) * noise and treated = mu[comp] + sqrt(s[comp]) * z. The
    # per-unit gamma rows consume the stream exactly as one broadcast
    # (j, t) draw does, the four operations on mu keep their order, and each
    # reordered step is a single commuted multiply or add.
    for unit in range(j):
        rng.standard_gamma(shapes[unit], out=mu[unit])
    mu -= shapes[:, None]
    mu *= signs[:, None]
    mu /= np.sqrt(shapes)[:, None]
    mu *= np.sqrt(q)[:, None]
    untreated = outcomes[1:]
    rng.standard_normal(out=untreated)
    untreated *= np.sqrt(s)[:, None]
    untreated += mu
    # unit c is picked when u lands in [cum[c-1], cum[c]): the spec's finite,
    # nonnegative weights keep cum nondecreasing, so counting the thresholds
    # cum[:-1] at or below u in [0, 1) finds c, and never exceeds j - 1. The
    # uniforms are drawn in blocks, one double per draw as one call of t
    # takes them, so only the compact index comp spans the panel; the
    # treated row is then formed block by block, each entry by the same two
    # operations as a whole-row form
    cum = np.cumsum(w / w.sum())
    comp = np.empty(t, dtype=np.min_scalar_type(j - 1))
    for lo in range(0, t, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, t - lo))
        comp[lo : lo + u.size] = (cum[:-1, None] <= u).sum(axis=0)
    treated = rng.standard_normal(out=outcomes[0])
    root_s = np.sqrt(s)
    for lo in range(0, t, _DRAW_BLOCK):
        block = treated[lo : lo + _DRAW_BLOCK]
        picked = comp[lo : lo + block.size]
        block *= root_s[picked]
        block += mu[picked, np.arange(lo, lo + block.size)]
    units = ["treated"] + [f"u{i + 1}" for i in range(j)]
    # a view: PanelData marks the array it holds read-only
    return PanelData(units=tuple(units), outcomes=outcomes.view(), t0=spec.t0_large)


def theorem1_experiment(spec: Theorem1Spec) -> dict:
    """Average the least-squares and moment-matching weights over replications.

    Returns the replication means alongside the analytic least-squares limit,
    so the attenuation bias and its absence under moment matching are directly
    comparable.
    """
    ols_sum = np.zeros(len(spec.w_star))
    gmm_sum = np.zeros(len(spec.w_star))
    cfg = MomentConfig(g=spec.g, scaling="pooled_sd")
    # every replication is drawn into the same two buffers; each panel is
    # done with before the next draw overwrites it
    buffers = _theorem1_buffers(spec)
    for rep in range(spec.replications):
        panel = _theorem1_panel(spec, derive_seed(spec.seed, rep), buffers)
        # the weights alone: a FitResult's T-length series would go unread
        ols_sum += estimate_weights(panel, Method.OLS)[0].weights
        gmm_sum += estimate_weights(panel, Method.DMSCM, cfg)[0].weights
    limit = ls_bias_limit(
        BiasLimitInput(
            q_star=np.asarray(spec.q_diag),
            sigma=np.asarray(spec.sigma_diag),
            w_star=np.asarray(spec.w_star),
        )
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "ols_mean": (ols_sum / spec.replications).tolist(),
        "gmm_mean": (gmm_sum / spec.replications).tolist(),
        "predicted_limit": limit.tolist(),
        "w_star": list(spec.w_star),
        "replications": spec.replications,
    }


def figure2_spec(replications: int = 100, base_seed: int = 0, **overrides) -> StudySpec:
    """The main simulation grid, ``StudySpec``'s defaults: J=10, G in {2,5,10}, T0=30, T1=100."""
    return StudySpec(replications=replications, base_seed=base_seed, **overrides)


def appendix_d_spec(
    replications: int = 100, base_seed: int = 0, **overrides
) -> StudySpec:
    """The varying-J study: error and MMD curves as the donor pool grows."""
    settings = {
        "j_values": (1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
        "g_values": (2, 3, 5, 10),
        "t1": 1000,
    }
    return StudySpec(
        replications=replications, base_seed=base_seed, **(settings | overrides)
    )
