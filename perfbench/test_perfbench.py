"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench`` (about two
minutes; the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny_run(request):
    """(workload, {trace: result}) for one tiny untraced and one tiny traced run."""
    results = {}
    for trace in (0, 1):
        proc = bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.splitlines()[-1])
    return request.param, results


def test_every_metric_is_emitted_with_its_unit(tiny_run):
    _, results = tiny_run
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {s["name"]: s["unit"] for s in SPEC[kind]}
    assert all(m["value"] > 0 for m in results[0]["metrics"].values())
    layers = results[1]["metrics"]
    assert layers["deepcoda.import_s"]["value"] > layers["deepcoda.import_scipy_s"]["value"] > 0


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))


def _bump(row, column):
    row[column] = repr(float(row[column]) + 1e-9)
    return row


CORRUPTIONS = {
    "train": lambda work: _rewrite_csv(work / "out" / "model.txt.report.csv",
                                       lambda rows: [r for r in rows if r[:2] != ["loss", "3"]]),
    "benchmark": lambda work: _rewrite_csv(work / "out" / "bench.csv", lambda rows: rows[:-1]),
    "baseline": lambda work: _rewrite_csv(
        work / "out" / "coef.csv",
        lambda rows: [[r[0], "1e-300", r[2]] if r[0] == "feature_1" else r for r in rows]),
    "explain": lambda work: _rewrite_csv(
        work / "out" / "explanations.csv",
        lambda rows: rows[:2] + [_bump(rows[2], rows[0].index("prob"))] + rows[3:]),
}


def test_corrupted_output_fails_its_check(tiny_run, tmp_path):
    workload, _ = tiny_run
    work = tmp_path / "work"
    shutil.copytree(ROOT / ".bench_out" / f"{workload}-seed3-trace0", work)
    stdout = (work / "stdout.txt").read_text()
    _, check = workloads.WORKLOADS[workload]
    assert check(work, stdout, workloads.TINY)[0] == []
    CORRUPTIONS[workload](work)
    assert check(work, stdout, workloads.TINY)[0] != []


def test_inputs_match_the_program_generators():
    from deepcoda.simulate import gen_cmyc, gen_toy

    for gen, features, effect in ((gen_toy, workloads.TOY_FEATURES, workloads.TOY_EFFECT),
                                  (gen_cmyc, workloads.CMYC_FEATURES, workloads.CMYC_EFFECT)):
        data = gen(40, 7)
        values, labels = workloads.composition(40, 7, features, effect)
        assert np.array_equal(values, data.absolute.values)
        assert np.array_equal(labels, data.labels)


def test_import_times_keeps_outermost_entries_only():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.special",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |     numpy",
        "import time:        40 |         75 |   deepcoda.coda",
        "import time:        25 |        100 | deepcoda",
        "import time:         1 |          1 | deepcoda.cli",
    ])
    assert run.import_times(stderr) == {"deepcoda.import_s": 101e-6, "deepcoda.import_scipy_s": 30e-6}


def test_tracing_overhead_pairs_adjacent_repeats():
    def rep(wall, traced, problems=()):
        return {"wall_s": wall, "traced": traced, "problems": list(problems)}

    repeats = [rep(10.0, False), rep(10.5, True), rep(12.0, False), rep(12.3, True),
               rep(11.0, False, ["exit code 1"]), rep(20.0, True)]
    overhead, resolved = run.tracing_overhead(repeats)
    assert overhead == pytest.approx(0.4)  # the pair with a failed repeat is left out
    assert not resolved  # 0.4 s is within the untraced walls' spread
    steady = [rep(10.0, False), rep(11.0, True), rep(10.1, False), rep(11.1, True), rep(10.05, False)]
    assert run.tracing_overhead(steady) == (pytest.approx(1.0), True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
