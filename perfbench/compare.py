"""Compare the result files of two commits.

    python3 perfbench/compare.py RESULTS_PARENT RESULTS_CHANGE

Each argument is a directory of result files written by run.py (``--out``)
or a single file. For every workload x end-to-end metric it prints each
side's median and quartiles over its runs and a verdict against the bound in
BENCHMARK.json:

- better: the change wins at least 9 in 10 runs paired by seed, and the
  medians differ by more than the parent's own quartile spread; or, where
  the parent's spread is wider than the bound, every run of the change reads
  better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the bound;
- unresolved: the parent's spread is wider than the bound, so no change
  within it can be told apart;
- unchanged: otherwise.

Traced runs (``--trace 1``) get a table of per-layer medians without verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        if "workload" in data and "metrics" in data:
            results.append(data)
    if not results:
        sys.exit(f"no result files in {arg}")
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> tuple[str, float]:
    """Verdict for one workload x metric; ``a`` and ``b`` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, meda, q3a = quartiles(list(a.values()))
    _, medb, _ = quartiles(list(b.values()))
    worse_by = sign * (medb - meda) / meda
    seeds = sorted(a.keys() & b.keys())
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    if worse_by > bound:
        return "worse", worse_by
    if seeds and wins >= 0.9 * len(seeds) and abs(medb - meda) > q3a - q1a and worse_by < 0:
        return "better", worse_by
    if (q3a - q1a) / meda > bound:
        if all(sign * (vb - va) < 0 for va in a.values() for vb in b.values()):
            return "better", worse_by
        return "unresolved", worse_by
    return "unchanged", worse_by


def by_workload(results: list[dict], trace: int) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for r in results:
        if r["trace"] == trace:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])

    ga, gb = by_workload(parent, 0), by_workload(change, 0)
    print(f"{'workload':10s} {'metric':18s} {'unit':6s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'worse by':>9s}  verdict")
    for wl in sorted(ga.keys() & gb.keys()):
        for m in spec["end_to_end"]:
            a = {r["seed"]: r["metrics"][m["name"]]["value"] for r in ga[wl]}
            b = {r["seed"]: r["metrics"][m["name"]]["value"] for r in gb[wl]}
            v, worse_by = verdict(a, b, m["better"], m["bound"])
            print(f"{wl:10s} {m['name']:18s} {m['unit']:6s} {fmt(list(a.values())):>30s} "
                  f"{fmt(list(b.values())):>30s} {worse_by:+9.1%}  {v} "
                  f"(bound {m['bound']:.0%}, n={len(a)}/{len(b)})")

    ta, tb = by_workload(parent, 1), by_workload(change, 1)
    for wl in sorted(ta.keys() & tb.keys()):
        print(f"\nper-layer medians, {wl} (traced runs {len(ta[wl])}/{len(tb[wl])}):")
        for m in spec["per_layer"]:
            a = [r["metrics"][m["name"]]["value"] for r in ta[wl]]
            b = [r["metrics"][m["name"]]["value"] for r in tb[wl]]
            print(f"  {m['name']:24s} {m['unit']:6s} {statistics.median(a):12.6g} "
                  f"-> {statistics.median(b):12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
