"""One fresh process of a benchmark run; started by run.py, not by hand.

mode "setup": import eqc and build the workload's inputs, then stop.
mode "measure": the same, then call run_experiment on the workload's
experiment file in whole rounds until --seconds have passed. Every round
does the same tasks on the same inputs; the process checks that every
round writes the same outputs. With --trace 1 untraced and traced rounds
alternate (see tracer.py).

Times are taken from --spawn-time, the parent's time.monotonic() just
before it started this process (CLOCK_MONOTONIC is shared by all
processes). The report is written as JSON to <out>/report.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process, by file name."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


class FisherRecorder:
    """Wraps bench's fisher_exact_select and keeps what the check needs:
    the training part's class sizes, per-term presence counts by class,
    the number of terms, L, and the selected columns.

    The counts are taken inside the wrapper, because keeping every fold's
    dense training matrix until the round ends would raise the peak memory
    the run reports; the time this takes is summed in own_s, which the
    round takes out of its wall time."""

    def __init__(self, bench_module):
        self.bench = bench_module
        self.original = bench_module.fisher_exact_select
        self.records: list[dict] = []
        self.own_s = 0.0

    def __enter__(self):
        import numpy as np

        def recording(data, labels, L, *args, **kwargs):
            cols = self.original(data, labels, L, *args, **kwargs)
            t0 = time.perf_counter()
            y = np.asarray(labels)
            ids = np.unique(y)
            present = data.X > 0
            self.records.append({
                "n_train": int(y.size),
                "n_terms": int(present.shape[1]),
                "L": int(L),
                "n1": int(np.sum(y == ids[0])),
                "n2": int(np.sum(y == ids[1])),
                "present1": present[y == ids[0]].sum(axis=0).tolist(),
                "present2": present[y == ids[1]].sum(axis=0).tolist(),
                "selected": np.asarray(cols).tolist(),
            })
            self.own_s += time.perf_counter() - t0
            return cols

        self.bench.fisher_exact_select = recording
        return self

    def __exit__(self, *exc):
        self.bench.fisher_exact_select = self.original


def _read_outputs(out_dir: Path) -> tuple[str, str]:
    return ((out_dir / "errors_long.csv").read_text(),
            (out_dir / "summary.csv").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    import eqc
    import eqc.bench

    t_import = time.monotonic()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cfg_path = workloads.write_inputs(workload, args.size, args.seed, args.out)
    config = eqc.bench.config_from_file(cfg_path)
    t_inputs = time.monotonic()
    report = {
        "import_s": t_import - args.spawn_time,
        "inputs_s": t_inputs - t_import,
        "setup_s": t_inputs - args.spawn_time,
    }
    if args.mode == "measure":
        report.update(_measure(args, config, eqc.bench))
    (args.out / "report.json").write_text(json.dumps(report))
    return 0


def _measure(args, config, bench) -> dict:
    from tracer import ROOT, Tracer

    state = {"fisher": None, "outputs": None, "identical": True}

    def one_round(tracer):
        recorder = None
        if state["fisher"] is None and config.feature_selection == "fisher":
            recorder = FisherRecorder(bench)
        before = tracer.totals() if tracer else None
        with recorder or contextlib.nullcontext():
            t0 = time.perf_counter()
            if tracer:
                result = tracer.call(ROOT, bench.run_experiment, config)
            else:
                result = bench.run_experiment(config)
            wall = time.perf_counter() - t0
        if recorder:
            wall -= recorder.own_s
            state["fisher"] = recorder.records
        outputs = _read_outputs(Path(config.out_dir))
        state["outputs"] = state["outputs"] or outputs
        state["identical"] &= outputs == state["outputs"]
        entry = {"wall_s": wall, "attempted": len(result.rows) + len(result.failures),
                 "failed": len(result.failures), "failures": result.failures}
        if tracer:
            entry["layers"] = _difference(tracer.totals(), before)
        return entry

    rounds, traced = [], []
    tracer = Tracer() if args.trace else None
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(one_round(None))
        if tracer:
            # each untraced round is followed by a traced one, so that a
            # drift in the machine's speed falls on both alike
            tracer.install()
            try:
                traced.append(one_round(tracer))
            finally:
                tracer.uninstall()
    if tracer:
        tracer.write(args.out / "spans.jsonl")
    peak = _peak_rss_mb()
    return {
        "rounds": rounds,
        "traced_rounds": traced,
        "rounds_identical": state["identical"],
        "peak_rss_mb": peak,
        "long_csv": state["outputs"][0],
        "summary_csv": state["outputs"][1],
        "fisher": state["fisher"],
        "blas_threads": _blas_threads(),
    }


def _difference(after: dict, before: dict) -> dict:
    return {key: {k: v - before[key].get(k, 0) for k, v in value.items()}
            for key, value in after.items()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
