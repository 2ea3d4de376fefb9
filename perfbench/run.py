"""Benchmark for eqc: one workload, one seed, one run.

    python3 perfbench/run.py --workload t3-newton --seed 1 --seconds 12 --trace 0

Run from the repository root (any directory works; paths are taken from
this file). A run:

1. starts one warm-up process and SETUP_SAMPLES set-up processes, each of
   which imports eqc and builds the workload's inputs from the seed;
2. starts the measuring process, which does the same and then runs the
   workload's experiment in whole rounds for --seconds (see worker.py);
3. checks the outputs (see checks.py) and prints one JSON line:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Every child gets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1;
the thread count each loaded OpenBLAS reports is printed. Outputs go to
.perfbench_out/<workload>-<size>-seed<seed>-trace<trace>/ under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_ROOT = ROOT / ".perfbench_out"

WARMUPS = 1
SETUP_SAMPLES = 8  # plus the measuring process's own set-up
SETUP_TIMEOUT_S = 120
# the measuring process runs for --seconds, then finishes its round (a
# traced pair of rounds takes up to about a minute) and reports
MEASURE_MARGIN_S = 170
BAYES_SAMPLES = 100_000
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "test_misclass": "fraction",
}


sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class RunError(Exception):
    """The run could not produce a result."""


def _spawn(mode: str, args, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, **BLAS_ENV)
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--size", args.size, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else args.seconds + MEASURE_MARGIN_S
    spawn_time = time.monotonic()
    proc = subprocess.run(cmd + ["--spawn-time", repr(spawn_time)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads((out / "report.json").read_text())


def run(args) -> dict:
    if not (ROOT / "src" / "eqc" / "__init__.py").is_file():
        raise RunError(f"no eqc sources under {ROOT / 'src'}")
    run_dir = OUT_ROOT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    setups = []
    n_setup = SETUP_SAMPLES if args.size == "full" else 0
    for i in range(WARMUPS + n_setup):
        rep = _spawn("setup", args, run_dir / f"setup{i}")
        shutil.rmtree(run_dir / f"setup{i}")
        if i >= WARMUPS:
            setups.append(rep)
    measured = _spawn("measure", args, run_dir / "measure")
    setups.append(measured)

    rounds = measured["rounds"] + measured["traced_rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = check(args.workload, args.size, args.seed, measured, BAYES_SAMPLES)

    if args.trace:
        metrics = _layer_metrics(measured, setups)
    else:
        metrics = _end_to_end(measured, setups, checks.parse_long(measured["long_csv"]))
    info = {
        "rounds": len(measured["rounds"]),
        "traced_rounds": len(measured["traced_rounds"]),
        "tasks_per_round": measured["rounds"][0]["attempted"],
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
        "setup_samples_s": [round(s["setup_s"], 4) for s in setups],
        "failures": sorted({f for r in rounds for f in r["failures"]}),
        "blas_threads": measured["blas_threads"],
        "blas_env": BLAS_ENV,
        "outputs": str(run_dir),
    }
    return {"problems": problems, "info": info,
            "result": {"correct": not problems, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def check(name: str, size: str, seed: int, measured: dict, bayes_samples: int) -> list[str]:
    """Problems with the outputs in a measuring process's report; failed
    tasks are counted, not problems. The Bayes error is estimated from
    bayes_samples Monte Carlo draws."""
    workload = workloads.WORKLOADS[name]
    rows = checks.parse_long(measured["long_csv"])
    problems = []
    if not measured["rounds_identical"]:
        problems.append("rounds wrote different outputs")
    threads = set(measured["blas_threads"].values())
    if threads - {1}:
        problems.append(f"BLAS thread counts {measured['blas_threads']}, expected 1")
    keys = workload.settings[size]
    summary = checks.parse_summary(measured["summary_csv"])
    failed_first = measured["rounds"][0]["failed"]
    scenario = keys["mode"] == "scenario"
    problems += checks.check_rows(rows, workload.expected_tasks(size), failed_first,
                                  keys["test_size"] if scenario else None)
    problems += checks.check_summary(summary, rows)
    bayes, bayes_se = workloads.bayes_error(workload, size, bayes_samples, seed)
    tested = keys["test_size"] if scenario else keys["docs"] // keys["outer_folds"]
    problems += checks.check_error_range(rows, tested, bayes, bayes_se)
    if not scenario:
        kept = workloads.terms_kept(seed, keys)
        problems += checks.check_fisher(measured["fisher"], keys["docs"], kept,
                                        keys["replications"], keys["outer_folds"])
    return problems


def _end_to_end(measured, setups, rows) -> dict:
    rounds = measured["rounds"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "tasks_per_s": sum(r["attempted"] - r["failed"] for r in rounds)
        / sum(r["wall_s"] for r in rounds),
        "peak_rss_mb": measured["peak_rss_mb"],
        "test_misclass": sum(r["error"] for r in rows) / len(rows),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _layer_metrics(measured, setups) -> dict:
    """Self times are means over the traced rounds; counts must be equal
    in every traced round and are reported per round."""
    traced = measured["traced_rounds"]

    def mean_of(kind, layer):
        return sum(r["layers"][kind].get(layer, 0) for r in traced) / len(traced)

    def count_of(kind, layer):
        values = {r["layers"][kind].get(layer, 0) for r in traced}
        if len(values) != 1:
            raise RunError(f"{kind} of {layer} differ between rounds: {sorted(values)}")
        return values.pop()

    out = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.inputs_s": (statistics.median(s["inputs_s"] for s in setups), "s"),
    }
    for layer in (tracer.ROOT, *tracer.LAYERS):
        # bench and selection are not leaves: their metric says it is self time
        name = layer if "." in layer else f"{layer}.self"
        out[f"{name}_s"] = (mean_of("self_s", layer), "s")
        if layer.startswith("quantiles."):
            out[f"{layer}_calls"] = (count_of("calls", layer), "count")
        if layer in tracer.SOLVERS:
            out[f"{layer}_calls"] = (count_of("calls", layer), "count")
            out[f"{layer}_iters"] = (count_of("iters", layer), "count")
            if layer != "metalearners.svm":  # its report always says converged
                out[f"{layer}_nonconverged"] = (count_of("nonconverged", layer), "count")
    out["metalearners.overflow_warnings"] = (
        sum(count_of("runtime_warnings", layer) for layer in tracer.SOLVERS), "count")
    wall = sum(r["wall_s"] for r in traced) / len(traced)
    attributed = sum(sum(r["layers"]["self_s"].values()) for r in traced) / len(traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.unattributed_s"] = (wall - attributed, "s")
    out["trace.overhead_s"] = (statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(measured["rounds"], traced)), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="smoke: a few seconds per run, for the benchmark's tests")
    args = ap.parse_args(argv)
    try:
        out = run(args)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("info: " + json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
