"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Every workload runs end to end at smoke size with every check, in both
trace modes, and prints exactly the metrics BENCHMARK.json names. Every
check rejects a corrupted copy of a real output. About a minute.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
BAYES_SAMPLES = 50_000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def untraced():
    """Smoke run of every workload with tracing off, and its worker report."""
    out = {}
    for name in workloads.WORKLOADS:
        result = _result(_run(name, 0))
        report = ROOT / ".perfbench_out" / f"{name}-smoke-seed{SEED}-trace0" / "measure"
        out[name] = (result, json.loads((report / "report.json").read_text()))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(untraced, name):
    result, _ = untraced[name]
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[name].expected_tasks("smoke"))
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_layer(name):
    result = _result(_run(name, 1))
    assert result["correct"]
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == names
    self_times = sum(v["value"] for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith(("setup.", "trace.")))
    # the layers' self times plus the unattributed rest make up the wall time
    wall = metrics["trace.wall_s"]["value"]
    assert self_times + metrics["trace.unattributed_s"]["value"] == pytest.approx(wall)
    assert 0 <= metrics["trace.unattributed_s"]["value"] < 0.01 * wall


def _problems(name, report):
    return run.check(name, "smoke", SEED, report, BAYES_SAMPLES)


def _with(report, rows=None, summary=None, fisher=None):
    """A copy of a worker report whose outputs are replaced."""
    out = json.loads(json.dumps(report))
    if rows is not None:
        out["long_csv"] = _csv(rows, ["scenario", "classifier", "replication", "fold", "error"])
    if summary is not None:
        out["summary_csv"] = _csv(summary, ["classifier", "runs", "mean_error", "std_error",
                                            "formatted"])
    if fisher is not None:
        out["fisher"] = fisher
    return out


def _csv(rows, fields):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: "" if r[k] is None else r[k] for k in fields})
    return buf.getvalue()


def _summary_of(rows):
    return [{"classifier": k, "runs": n, "mean_error": m, "std_error": s,
             "formatted": f"{100 * m:.1f}({100 * s:.1f})"}
            for k, (n, m, s) in checks.recompute_summary(rows).items()]


def test_unchanged_outputs_pass(untraced):
    for name, (_, report) in untraced.items():
        assert _problems(name, report) == [], name


def test_rewritten_outputs_pass(untraced):
    # the rewriting below changes nothing by itself
    report = untraced["t3-newton"][1]
    rows = checks.parse_long(report["long_csv"])
    assert _problems("t3-newton", _with(report, rows, _summary_of(rows))) == []


def test_missing_task_row_is_rejected(untraced):
    report = untraced["t3-newton"][1]
    rows = checks.parse_long(report["long_csv"])[1:]
    problems = _problems("t3-newton", _with(report, rows, _summary_of(rows)))
    assert any("missing" in p for p in problems)


def test_summary_that_does_not_match_rows_is_rejected(untraced):
    report = untraced["t3-newton"][1]
    rows = checks.parse_long(report["long_csv"])
    summary = checks.parse_summary(report["summary_csv"])
    summary[0]["mean_error"] += 0.002
    assert any(" mean " in p for p in _problems("t3-newton", _with(report, summary=summary)))
    rows[0]["error"] += 1 / 500  # one more mistake, summary unchanged
    assert any(" mean " in p for p in _problems("t3-newton", _with(report, rows)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("error", [0.0, 0.6])
def test_error_below_bayes_or_above_chance_is_rejected(untraced, name, error):
    report = untraced[name][1]
    rows = checks.parse_long(report["long_csv"])
    first = rows[0]["classifier"]
    for r in rows:
        if r["classifier"] == first:
            r["error"] = error
    problems = _problems(name, _with(report, rows, _summary_of(rows)))
    assert any(("Bayes" if error == 0.0 else "chance") in p for p in problems)


def test_fisher_selection_that_differs_from_reference_is_rejected(untraced):
    report = untraced["text-fisher"][1]
    fisher = json.loads(json.dumps(report["fisher"]))
    rec = fisher[0]
    p = checks.fisher_pvalues(rec["present1"], rec["present2"], rec["n1"], rec["n2"])
    worst_unselected = max(set(range(len(p))) - set(rec["selected"]), key=lambda j: p[j])
    rec["selected"] = sorted(rec["selected"][1:] + [worst_unselected])
    problems = _problems("text-fisher", _with(report, fisher=fisher))
    assert any("above the L-th smallest" in p for p in problems)


def test_fisher_selection_on_unfiltered_terms_is_rejected(untraced):
    report = untraced["text-fisher"][1]
    fisher = json.loads(json.dumps(report["fisher"]))
    fisher[0]["n_terms"] += 1
    assert any("document-frequency filter" in p
               for p in _problems("text-fisher", _with(report, fisher=fisher)))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("t3-newton", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
