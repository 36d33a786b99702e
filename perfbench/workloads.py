"""The benchmark's workloads: how each makes its inputs, what one op is, and
how an op's outputs are checked.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one returns. Op k's inputs derive from
(workload seed, workload, k) alone, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks

SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "synthctl" / "schemas"


def op_seed(seed: int, workload: str, phase: int, k: int) -> int:
    """A 31-bit seed for op k; phase 0 is measured ops, phase 1 warm-up."""
    tag = sum(ord(ch) for ch in workload)
    return int(np.random.SeedSequence([seed, tag, phase, k]).generate_state(1)[0] >> 1)


class Workload:
    name = ""
    warmup_ops = 1
    # traced ops whose exact counts the traced run reports
    count_ops = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        import jsonschema

        self._validators = {}
        for path in SCHEMAS.glob("*.schema.json"):
            schema = json.loads(path.read_text(encoding="utf-8"))
            self._validators[path.name] = jsonschema.validators.validator_for(schema)(schema)

    def setup(self) -> None:
        """Make the inputs every op needs (untimed by the op clock, part of setup_s)."""

    def argvs(self, k: int, out: Path, warmup: bool = False) -> list[list[str]]:
        """The ``cli.main`` calls that make up op k, writing into ``out``."""
        raise NotImplementedError

    def check_outputs(self, k: int, out: Path) -> list[str]:
        raise NotImplementedError

    def json_output(self, path: Path, schema: str) -> tuple[dict | None, list[str]]:
        return checks.validate_json(path, self._validators[schema])

    def check(self, k: int, out: Path, solves: list[tuple]) -> tuple[list[str], list[str]]:
        """All checks of one op: its outputs and every simplex solve behind it."""
        errors = self.check_outputs(k, out)
        notes = []
        if not solves:
            errors.append("no simplex solve was observed")
        for i, (system, v, (weights, diag)) in enumerate(solves):
            errs, nts = checks.check_solve(system, v, weights, diag)
            errors.extend(f"solve {i}: {e}" for e in errs)
            notes.extend(f"solve {i}: {n}" for n in nts)
        return errors, notes


class Replicate(Workload):
    name = "replicate"
    replications = 3
    warmup_ops = 2
    count_ops = 10
    cells = 6  # g in {2, 5, 10} x {dmscm, abadie}

    def argvs(self, k, out, warmup=False):
        seed = op_seed(self.seed, self.name, int(warmup), k)
        return [["simulate", "--preset", "figure2", "--replications",
                 str(self.replications), "--seed", str(seed), "--output-dir", str(out)]]

    def check_outputs(self, k, out):
        agg, errors = self.json_output(out / "aggregates.json",
                                       "simulation_aggregates.schema.json")
        if agg is not None:
            if len(agg["cells"]) != self.cells:
                errors.append(f"{len(agg['cells'])} aggregate cells, expected {self.cells}")
            short = [c for c in agg["cells"] if c["n"] != self.replications]
            if short:
                errors.append(f"{len(short)} cells with n != {self.replications}")
        header, rows = checks.read_csv(out / "records.csv")
        if len(rows) != self.cells * self.replications:
            errors.append(f"{len(rows)} records, expected {self.cells * self.replications}")
        for row in rows:
            rec = dict(zip(header, row))
            values = [rec[c] for c in ("att_error", "mean_att_error", "weight_error")]
            if rec["error"] or not all(v and math.isfinite(float(v)) for v in values):
                errors.append(f"record failed or not finite: {row}")
                break
        _, fig = checks.read_csv(out / "figure.csv")
        if len(fig) != self.cells:
            errors.append(f"{len(fig)} figure rows, expected {self.cells}")
        return errors


class Theorem1(Workload):
    name = "theorem1"
    replications = 3
    count_ops = 5

    def argvs(self, k, out, warmup=False):
        seed = op_seed(self.seed, self.name, int(warmup), k)
        return [["simulate", "--preset", "theorem1", "--replications",
                 str(self.replications), "--seed", str(seed), "--output-dir", str(out)]]

    def check_outputs(self, k, out):
        res, errors = self.json_output(out / "theorem1.json", "theorem1_result.schema.json")
        if res is None:
            return errors
        if res["replications"] != self.replications:
            errors.append(f"replications {res['replications']}, expected {self.replications}")
        gmm = np.asarray(res["gmm_mean"], dtype=float)
        if gmm.shape != (2,) or gmm.min() < -checks.SIMPLEX_TOL or abs(gmm.sum() - 1) > 1e-9:
            errors.append(f"gmm_mean {res['gmm_mean']} is not a point of the simplex")
        if not np.isfinite(res["ols_mean"] + res["predicted_limit"]).all():
            errors.append("ols_mean or predicted_limit not finite")
        return errors


class Infer(Workload):
    name = "infer"
    panels = 64
    t0, t1 = 30, 100
    grid_points = 41
    level = 0.10
    draws = 2000
    permutations = 500
    count_ops = 3

    def setup(self):
        from synthctl.panel import save_panel
        from synthctl.simlab import figure2_spec, gen_mixture_dgp

        spec = figure2_spec()
        (self.work / "panels").mkdir()
        for k in range(self.panels + 1):  # the last panel is the warm-up's
            seed = op_seed(self.seed, self.name, int(k == self.panels), k)
            panel, _ = gen_mixture_dgp(spec.dgp_config(10, seed))
            save_panel(panel, self._panel_path(k))

    def _panel_path(self, k: int) -> Path:
        return self.work / "panels" / f"p{k}.csv"

    def argvs(self, k, out, warmup=False):
        panel = str(self._panel_path(self.panels if warmup else k % self.panels))
        common = ["--input", panel, "--treated", "treated", "--t0", str(self.t0)]
        seed = op_seed(self.seed, self.name, int(warmup), k)
        return [
            ["conformal", *common, "--g", "2", "--level", str(self.level),
             "--output", str(out / "conformal.json"), "--csv", str(out / "curve.csv")],
            ["dte", *common, "--g", "4", "--L", str(self.draws), "--seed", str(seed),
             "--mmd", "--permutations", str(self.permutations),
             "--draws-out", str(out / "draws.csv"), "--output", str(out / "quantiles.json"),
             "--mmd-out", str(out / "mmd.json")],
        ]

    def check_outputs(self, k, out):
        report, errors = self.json_output(out / "conformal.json",
                                          "conformal_report.schema.json")
        if report is not None:
            _, curve = checks.read_csv(out / "curve.csv")
            errors += checks.check_conformal(report, curve, self.t0 + self.t1,
                                             self.grid_points)
        qs, errs = self.json_output(out / "quantiles.json", "quantiles.schema.json")
        errors += errs
        if qs is not None:
            _, rows = checks.read_csv(out / "draws.csv")
            draws = np.array([float(r[0]) for r in rows])
            errors += checks.check_quantiles(qs, draws, self.draws)
        mmd, errs = self.json_output(out / "mmd.json", "mmd_report.schema.json")
        errors += errs
        if mmd is not None:
            errors += checks.check_mmd(mmd, self.permutations)
        return errors


WORKLOADS = {w.name: w for w in (Replicate, Infer, Theorem1)}
