"""Outside-in spans around calls into synthctl's modules.

The tracer replaces public functions at the module attributes their callers
resolve (``synthctl.estimators.solve_simplex_qp`` is the name
``estimate_weights`` looks up, for example), so nothing under ``src/``
changes. Each span records its name, layer, start, end, parent span and op
id; spans stay in memory and are written out when the run ends. A layer's
self time is its spans' durations minus the parts their child spans cover.

``SolveLog`` is the one wrapper the untraced run also installs: it keeps
each ``solve_simplex_qp`` call's arguments and result for the correctness
check and reads no clock.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import dataclass

# (module, attribute, layer): the attribute is where the caller resolves the name
WRAP_POINTS = (
    ("synthctl.cli", "load_panel", "panel"),
    ("synthctl.cli", "fit_method", "estimators"),
    ("synthctl.cli", "default_grid", "conformal"),
    ("synthctl.cli", "confidence_interval", "conformal"),
    ("synthctl.cli", "bootstrap_counterfactual", "dte"),
    ("synthctl.cli", "quantiles", "dte"),
    ("synthctl.cli", "mmd_test", "dte"),
    ("synthctl.cli", "run_replication_study", "simlab"),
    ("synthctl.cli", "theorem1_experiment", "simlab"),
    ("synthctl.conformal", "conformal_p_value", "conformal"),
    ("synthctl.conformal", "estimate_weights", "estimators"),
    ("synthctl.conformal", "fit_method", "estimators"),
    ("synthctl.simlab", "fit_method", "estimators"),
    ("synthctl.simlab", "fit_dmscm", "estimators"),
    ("synthctl.simlab", "ls_unconstrained", "solver"),
    ("synthctl.estimators", "build_system", "moments"),
    ("synthctl.estimators", "build_demeaned_system", "moments"),
    ("synthctl.estimators", "solve_simplex_qp", "solver"),
)
ROOT_NAME = "cli.main"
ROOT_LAYER = "cli"
LAYERS = ("cli", "panel", "simlab", "conformal", "dte", "estimators", "moments", "solver")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _moment_info(args, kwargs, result):
    panel, cfg = _arg(args, kwargs, 0, "panel"), _arg(args, kwargs, 1, "cfg")
    window = _arg(args, kwargs, 2, "window") or panel.t0
    return {"powered_values": panel.outcomes.shape[0] * window * cfg.g}


def _solve_info(args, kwargs, result):
    diag = result[1]
    return {"iterations": int(diag.iterations), "converged": bool(diag.converged),
            "non_unique": bool(diag.non_unique)}


def _panel_info(args, kwargs, result):
    return {"rows_parsed": result.outcomes.shape[0] * result.outcomes.shape[1]}


def _bootstrap_info(args, kwargs, result):
    return {"draws": int(result.l)}


def _mmd_info(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "a")) + len(_arg(args, kwargs, 1, "b"))
    return {"kernel_mb": n * n * 8 / 1e6}


# exact counts, computed from argument and result shapes after the span ends
_INFO = {
    "estimators.build_system": _moment_info,
    "estimators.build_demeaned_system": _moment_info,
    "estimators.solve_simplex_qp": _solve_info,
    "cli.load_panel": _panel_info,
    "cli.bootstrap_counterfactual": _bootstrap_info,
    "cli.mmd_test": _mmd_info,
}


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    info: dict | None


class _Patches:
    """Module attributes replaced by wrappers, restored on ``uninstall``."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> bool:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class SolveLog:
    """Keeps (system, V, (weights, diagnostics)) for every simplex solve."""

    def __init__(self):
        self.calls: list[tuple] = []
        self._patches = _Patches()

    def install(self) -> None:
        def make(original):
            def logged(system, v=None, *args, **kwargs):
                result = original(system, v, *args, **kwargs)
                self.calls.append((system, v, result))
                return result
            return logged
        if not self._patches.replace("synthctl.estimators", "solve_simplex_qp", make):
            raise RuntimeError("synthctl.estimators.solve_simplex_qp not found")

    def take(self) -> list[tuple]:
        calls, self.calls = self.calls, []
        return calls

    def uninstall(self) -> None:
        self._patches.uninstall()


class Tracer:
    """Spans around every ``WRAP_POINTS`` call made inside ``root``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = -1
        self._patches = _Patches()

    def install(self) -> None:
        for module_name, attr, layer in WRAP_POINTS:
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            if not self._patches.replace(
                module_name, attr, lambda fn, n=name, ly=layer: self._wrap(fn, n, ly)
            ):
                self.missing.add(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        self._patches.uninstall()

    def _wrap(self, fn, name: str, layer: str):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            return self._call(fn, name, layer, info, args, kwargs)

        return traced

    def _call(self, fn, name, layer, info, args, kwargs):
        spans, stack = self.spans, self._stack
        span_id = len(spans)
        spans.append(None)  # reserve the id so children point at it
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[span_id] = Span(
                span_id, parent, self._op, name, layer, start, end,
                info(args, kwargs, result) if info and result is not None else None,
            )

    def root(self, op: int, fn, *args):
        """Run ``fn(*args)`` (a ``cli.main`` call) as the root span of op ``op``."""
        self._op = op
        return self._call(fn, ROOT_NAME, ROOT_LAYER, None, args, {})

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


def _self_totals_ns(spans: list[Span], ops: set[int]) -> tuple[dict, dict]:
    """Self time summed per layer and per span name over the spans of ``ops``."""
    per_layer = {layer: 0 for layer in LAYERS}
    per_name: dict[str, int] = {}
    for s, t in zip(spans, self_times_ns(spans)):
        if s.op in ops:
            per_layer[s.layer] += t
            per_name[s.name] = per_name.get(s.name, 0) + t
    return per_layer, per_name


def layer_metrics(spans: list[Span], timed_ops: set[int], count_ops: set[int]) -> dict:
    """Per-layer metrics: self times as ms per op over ``timed_ops``, counts
    as exact totals over ``count_ops``."""
    per_layer, per_name = _self_totals_ns(spans, timed_ops)
    n_ops = max(len(timed_ops), 1)

    def ms(total_ns: int) -> float:
        return total_ns / 1e6 / n_ops

    counted = [s for s in spans if s.op in count_ops]
    solves = [s.info for s in counted if s.name == "estimators.solve_simplex_qp"]
    iterations = [d["iterations"] for d in solves]
    moments = [s.info for s in counted if s.layer == "moments"]
    pvalue_ids = {s.span_id for s in counted if s.name == "conformal.conformal_p_value"}
    estimator_ids = {s.span_id for s in counted if s.layer == "estimators"}
    mmd = [s.info["kernel_mb"] for s in counted if s.name == "cli.mmd_test"]
    return {
        "solver.solve_ms": ms(per_layer["solver"]),
        "solver.calls": len(solves),
        "solver.iterations": sum(iterations),
        "solver.iterations_p50": statistics.median(iterations) if iterations else 0,
        "solver.converged_frac": (
            sum(d["converged"] for d in solves) / len(solves) if solves else 0.0),
        "solver.non_unique_frac": (
            sum(d["non_unique"] for d in solves) / len(solves) if solves else 0.0),
        "moments.build_ms": ms(per_layer["moments"]),
        "moments.calls": len(moments),
        "moments.powered_values": sum(d["powered_values"] for d in moments),
        "conformal.self_ms": ms(per_layer["conformal"]),
        "conformal.pvalues": len(pvalue_ids),
        "conformal.refits": sum(
            1 for s in counted if s.layer == "estimators" and s.parent in pvalue_ids),
        "dte.bootstrap_ms": ms(per_name.get("cli.bootstrap_counterfactual", 0)),
        "dte.quantiles_ms": ms(per_name.get("cli.quantiles", 0)),
        "dte.mmd_ms": ms(per_name.get("cli.mmd_test", 0)),
        "dte.draws": sum(s.info["draws"] for s in counted
                         if s.name == "cli.bootstrap_counterfactual"),
        "dte.mmd_kernel_mb": max(mmd) if mmd else 0.0,
        "estimators.self_ms": ms(per_layer["estimators"]),
        "estimators.fits": sum(
            1 for s in counted if s.layer == "estimators" and s.parent not in estimator_ids),
        "simlab.self_ms": ms(per_layer["simlab"]),
        "panel.load_ms": ms(per_layer["panel"]),
        "panel.rows_parsed": sum(s.info["rows_parsed"] for s in counted
                                 if s.name == "cli.load_panel"),
        "cli.self_ms": ms(per_layer["cli"]),
    }


def layer_shares(spans: list[Span], timed_ops: set[int]) -> dict[str, float]:
    """Each layer's share of the traced ops' total self time."""
    totals, _ = _self_totals_ns(spans, timed_ops)
    grand = sum(totals.values()) or 1
    return {layer: t / grand for layer, t in totals.items()}
