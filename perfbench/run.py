"""synthctl benchmark: closed-loop workloads over the public API and CLI.

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a source checkout and imports synthctl from its
``src/``. With ``--trace 0`` it prints the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from a run that
alternates untraced and traced copies of each op. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the same facts and the run's environment go to
``perfbench/results/<workload>-s<seed>-t<trace>.json``.

End-to-end times are scaled to a reference host speed: a fixed mix of work
(``host_probe``) is timed before the first op, after every op and after
set-up, and each time is multiplied by PROBE_REF_S over the probe's time
then. The unscaled wall-clock figures are printed and kept in the result
file too.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads: every path runs serially
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SYNTHCTL_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 1 + this
# host probe: pure-Python multiply-adds, then rounds of numpy calls on
# 10-element arrays
PROBE_LOOP, PROBE_SMALL = 30_000, 200
# the probe's time at the host speed end-to-end times are scaled to: about its
# median on the baseline host (2 vCPUs of a 2.1 GHz Xeon, Python 3.11.7)
PROBE_REF_S = 0.0042
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def import_program():
    """Import synthctl from this checkout's src/, never from elsewhere."""
    if not (SRC / "synthctl" / "__init__.py").is_file():
        raise BenchError(f"no synthctl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import synthctl
    import synthctl.cli

    if Path(synthctl.__file__).resolve().parent != (SRC / "synthctl").resolve():
        raise BenchError(f"imported synthctl from {synthctl.__file__}, not {SRC}")
    return numpy, synthctl


def run_cli(main, argvs, root=None) -> tuple[list[int], str]:
    """Run one op's ``cli.main`` calls with their output captured."""
    buf = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        for argv in argvs:
            codes.append(main(argv) if root is None else root(main, argv))
    return codes, buf.getvalue()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment(numpy, synthctl, seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git rev-parse failed)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "synthctl": synthctl.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "synthctl_threads": os.environ.get("SYNTHCTL_THREADS", "unset"),
        "seed": seed,
        "git_commit": commit,
    }


def host_probe() -> float:
    """Seconds a fixed mix of work takes now: the host's speed at this moment.

    The mix is interpreter loops and numpy calls on tiny arrays (per-call
    overhead, as in the solver): the kinds of work whose speed drifts most
    on a shared host. It runs no synthctl code.
    """
    import numpy as np

    a, b = np.linspace(0.0, 1.0, 10), np.linspace(1.0, 0.5, 10)
    t = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    for _ in range(PROBE_SMALL):
        c = np.cumsum(np.sort(a - b))
        float(np.maximum(a - c[3], 0.0) @ b)
    return time.perf_counter() - t


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while the host probe took ``probes``, scaled to
    the reference host speed."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up time of a fresh process: import, inputs and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, main, log, seconds: float) -> dict:
    """The untraced closed loop: op after op until ``seconds`` have passed,
    with the host probe timed before the first op and after each."""
    ops = []
    probes = [host_probe()]
    start = time.perf_counter()
    k = 0
    while True:
        out = wl.work / f"op{k}"
        out.mkdir()
        argvs = wl.argvs(k, out)
        t = time.perf_counter()
        codes, text = run_cli(main, argvs)
        ops.append({"k": k, "out": out, "latency": time.perf_counter() - t,
                    "codes": codes, "text": text, "solves": log.take()})
        probes.append(host_probe())
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    for i, op in enumerate(ops):
        op["scaled"] = scale(op["latency"], probes[i:i + 2])
    return {"ops": ops, "loop_s": time.perf_counter() - start - sum(probes[1:]),
            "probes": probes}


def measure_traced(wl, main, log, tracer, seconds: float) -> dict:
    """Each op runs twice, untraced and traced in alternating order, until
    ``seconds`` have passed and the count window is complete."""
    ops, pairs = [], []
    start = time.perf_counter()
    k = 0
    while True:
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out = wl.work / f"op{k}{'t' if traced else 'u'}"
            out.mkdir()
            argvs = wl.argvs(k, out)
            if traced:
                tracer.install()
            t = time.perf_counter()
            codes, text = run_cli(main, argvs, (lambda f, a, k=k: tracer.root(k, f, a))
                                  if traced else None)
            pair[traced] = time.perf_counter() - t
            if traced:
                tracer.uninstall()
            ops.append({"k": k, "out": out, "latency": pair[traced], "codes": codes,
                        "text": text, "solves": log.take()})
        pairs.append(pair)
        k += 1
        if time.perf_counter() - start >= seconds and k >= wl.count_ops:
            break
    return {"ops": ops, "pairs": pairs}


def check_ops(wl, ops: list[dict]) -> tuple[int, int]:
    """Check every op; print failures. Returns (failed ops, fits noted)."""
    failed = noted = 0
    for op in ops:
        errors = [f"cli.main exited {c}: {op['text'].strip()[-500:]}"
                  for c in op["codes"] if c != 0]
        if not errors:
            try:
                errs, notes = wl.check(op["k"], op["out"], op["solves"])
            except Exception as exc:  # a malformed output fails the op, not the run
                errs, notes = [f"check raised {type(exc).__name__}: {exc}"], []
            errors += errs
            noted += len(notes)
        if errors:
            failed += 1
            print(f"FAIL {wl.name} op {op['k']} ({op['out'].name}): " + "; ".join(errors[:5]))
    return failed, noted


def run_workload(args, spec: dict) -> dict:
    numpy, synthctl = import_program()
    import synthctl.cli as cli
    from tracing import SolveLog, Tracer, layer_metrics, layer_shares
    from workloads import WORKLOADS

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.setup()
        for i in range(wl.warmup_ops):
            out = work / f"warmup{i}"
            out.mkdir()
            codes, text = run_cli(cli.main, wl.argvs(i, out, warmup=True))
            if any(codes):
                raise BenchError(f"warm-up op failed: {text.strip()[-2000:]}")
        setup_wall = time.perf_counter() - T_START
        setup = {"setup_s": scale(setup_wall, [host_probe(), host_probe()]),
                 "setup_wall_s": setup_wall}
        if args.setup_probe:
            return setup

        if not args.trace:
            setups = [setup] + [setup_probe(args.workload, args.seed)
                                for _ in range(SETUP_PROBES)]
        log = SolveLog()
        log.install()
        try:
            if args.trace:
                tracer = Tracer()
                run = measure_traced(wl, cli.main, log, tracer, args.seconds)
            else:
                run = measure(wl, cli.main, log, args.seconds)
        finally:
            log.uninstall()
        failed, noted = check_ops(wl, run["ops"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run["ops"])
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(numpy, synthctl, args.seed),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "fits_not_converged": noted,
    }
    if args.trace:
        n = len(run["pairs"])
        values = layer_metrics(tracer.spans, set(range(n)), set(range(wl.count_ops)))
        values["trace.overhead_frac"] = statistics.median(
            p[True] / p[False] for p in run["pairs"]) - 1.0
        names = spec["per_layer"]
        result["layer_shares"] = layer_shares(tracer.spans, set(range(n)))
        result["trace_missing"] = sorted(tracer.missing)
        result["count_window_ops"] = wl.count_ops
        args.out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(args.out / f"trace-{args.workload}-s{args.seed}.jsonl")
    else:
        lat = [op["scaled"] for op in run["ops"]]
        wall = [op["latency"] for op in run["ops"]]
        tail_value, tail_pct, beyond = tail(lat)
        values = {
            "throughput_ops_s": attempted / math.fsum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        names = spec["end_to_end"]
        result["latency"] = {"samples": attempted, "tail_percentile": tail_pct,
                             "tail_samples_beyond": beyond,
                             "latencies_ms": [x * 1e3 for x in lat],
                             "wall_latencies_ms": [x * 1e3 for x in wall]}
        result["wall"] = {
            "throughput_ops_s": attempted / run["loop_s"],
            "latency_p50_ms": statistics.median(wall) * 1e3,
            "latency_tail_ms": tail(wall)[0] * 1e3,
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
        }
        result["host"] = {"probe_ref_s": PROBE_REF_S, "probes_s": run["probes"],
                          "speed": PROBE_REF_S / statistics.median(run["probes"])}
        result["setup_samples"] = setups
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in names}
    return result


def report(result: dict) -> None:
    """Human-readable lines; the JSON line comes last."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  python {result['env']['python']}  "
          f"numpy {result['env']['numpy']}  nproc {result['env']['nproc']}")
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    if "latency" in result:
        lat = result["latency"]
        print(f"  latency_tail_ms is p{lat['tail_percentile']:.1f}: "
              f"{lat['tail_samples_beyond']} of {lat['samples']} samples beyond it")
        print(f"  times above are scaled to the reference host speed; the host ran at "
              f"{result['host']['speed']:.3f} of it (median probe), and wall clock gave:")
        for name, value in result["wall"].items():
            print(f"    {name:22s} {value:.6g}")
    if "layer_shares" in result:
        shares = sorted(result["layer_shares"].items(), key=lambda kv: -kv[1])
        print("  self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
        if result["trace_missing"]:
            print("  not traced (attribute missing): " + ", ".join(result["trace_missing"]))
    if result["fits_not_converged"]:
        print(f"  note: {result['fits_not_converged']} fits report converged=False; "
              "the reference certifies each as optimal")
    verdict = "correct" if result["failed"] == 0 else "INCORRECT"
    print(f"  {verdict}: {result['failed']} of {result['attempted']} ops failed "
          f"(failed_frac {result['failed_frac']:.4g})")


def run_all(args) -> dict:
    """Every workload, each in its own fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("replicate", "infer", "theorem1"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} failed: {proc.stderr.strip()[-2000:]}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = m
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("replicate", "infer", "theorem1", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        result = run_workload(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(result))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
