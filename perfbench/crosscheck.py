"""Seed cross-check: traced runs set beside the seed figures of ROADMAP item 1.

Run from the repository root; it makes one traced run per workload and seed
and prints a Markdown report:

    python3 perfbench/crosscheck.py > perfbench/reports/crosscheck.md

A figure is flagged when its gap to the seed figure is wider than the
measured spread (the interquartile range of its per-seed values).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def _mean_s(trace, name, note=None):
    durations = [e - s for n, s, e, _, k in trace["spans"] if n == name and note in (None, k)]
    return statistics.mean(durations) if durations else float("nan")


def _lasso_cv_s(trace):
    """Mean cv_select_lambda time inside the ``lasso`` method (raw relative data, not CLR)."""
    spans = trace["spans"]
    return statistics.mean(e - s for n, s, e, parent, _ in spans
                           if n == "baselines.cv_select_lambda" and spans[parent][4] == "lasso")


def _explain_ms_per_1000_rows(trace):
    layers = tracer.layer_metrics(trace)
    return layers["explain.explain_sample_s"] / layers["explain.explain_sample_calls"] * 1e6


def _predict_ms_per_1000_rows(trace):
    rows = sum(k for n, _, _, _, k in trace["spans"] if n == "model.predict_proba")
    return tracer.busy_s(trace, "model.predict_proba") / rows * 1e6


# (figure, workload, seed figure, unit, value from one traced command, how our shape differs)
FIGURES = [
    ("train, self_explain head", "train", 1.99, "s",
     lambda t: _mean_s(t, "train.train"), "1000 rows here, 900 at seed"),
    ("train, linear head", "benchmark", 0.94, "s",
     lambda t: _mean_s(t, "train.train", "linear"), "toy D=4 here, cmyc D=10 at seed"),
    ("loss_and_gradients per call", "train", 860.0, "us",
     lambda t: tracer.layer_metrics(t)["model.loss_and_gradients_us"], "1000 rows here, 900 at seed"),
    ("cv_select_lambda, absolute data", "baseline", 13.2, "s",
     lambda t: _mean_s(t, "baselines.cv_select_lambda"), ""),
    ("cv_select_lambda, relative data", "benchmark", 0.08, "s", _lasso_cv_s, "toy D=4 here"),
    ("explain per-row loop, per 1000 rows", "explain", 66.0, "ms", _explain_ms_per_1000_rows, ""),
    ("predict_proba, per 1000 rows", "benchmark", 0.9, "ms", _predict_ms_per_1000_rows,
     "100-row test batches here"),
]


def traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "1"], cwd=ROOT, check=True, capture_output=True)
    work = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace1"
    traces = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(work.glob("spans-*.json"))]
    return json.loads((work / "report.json").read_text(encoding="utf-8")), traces


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main() -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    per_figure = {f[0]: [] for f in FIGURES}
    layers, accounting, env = {}, {}, None
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            report, traces = traced_run(workload, seed, seconds)
            env = env or report["environment"]
            for name, wl, _, _, value, _ in FIGURES:
                if wl == workload:
                    per_figure[name].append(statistics.median(value(t) for t in traces))
            metrics = {k: v["value"] for k, v in report["metrics"].items()}
            layers.setdefault(workload, []).append(metrics)
            traced = [r for r in report["repeats"] if r["traced"]]
            accounting.setdefault(workload, []).append({
                "wall_s": statistics.median(r["wall_s"] for r in traced),
                "import_s": statistics.median(t["import_s"] for t in traces),
                "cli.run_s": statistics.median(tracer.busy_s(t, "cli.run") for t in traces),
                "unaccounted_s": metrics["trace.unaccounted_s"],
                "overhead_s": metrics["trace.overhead_s"],
                "resolved": report["trace_overhead_resolved"],
            })

    print("# Seed cross-check and first traced report\n")
    print(f"Traced runs of every workload on seeds {list(SEEDS)}, {seconds} s each, made with "
          "`python3 perfbench/crosscheck.py`. Medians over seeds; spread is the interquartile range.\n")
    print("Environment: " + "; ".join(f"{k} {v}" for k, v in env.items()) + "\n")
    print("## Seed figures (ROADMAP item 1) beside the traced numbers\n")
    print("| figure | workload | seed | traced median | spread | gap | flag | shape |")
    print("|---|---|---|---|---|---|---|---|")
    for name, workload, seed_value, unit, _, shape in FIGURES:
        values = per_figure[name]
        med, width = statistics.median(values), spread(values)
        gap = med - seed_value
        flag = "gap wider than spread" if abs(gap) > width else "within spread"
        print(f"| {name} | {workload} | {seed_value:g} {unit} | {med:.4g} {unit} | {width:.2g} {unit} "
              f"| {gap:+.3g} {unit} ({gap / seed_value:+.0%}) | {flag} | {shape} |")
    print("\n## Where the traced wall time goes\n")
    print("The child's own import plus the `cli.run` span should account for the traced wall "
          "time; the rest is interpreter start-up and exit plus writing the spans.\n")
    print("`trace.overhead_s` is resolved in a run only when it is wider than the spread of "
          "that run's untraced walls.\n")
    print("| workload | traced wall s | import s | cli.run s | unaccounted s | trace.overhead_s "
          "| runs where it is resolved |")
    print("|---|---|---|---|---|---|---|")
    for workload, rows in accounting.items():
        med = {k: statistics.median(r[k] for r in rows) for k in rows[0] if k != "resolved"}
        print(f"| {workload} | {med['wall_s']:.3f} | {med['import_s']:.3f} | {med['cli.run_s']:.3f} "
              f"| {med['unaccounted_s']:.3f} | {med['overhead_s']:+.3f} "
              f"| {sum(r['resolved'] for r in rows)} of {len(rows)} |")
    print("\n## Per-layer metrics (median over seeds)\n")
    names = list(layers[next(iter(layers))][0])
    print("| metric | " + " | ".join(layers) + " |")
    print("|---|" + "---|" * len(layers))
    for metric in names:
        cells = [f"{statistics.median(m[metric] for m in runs):.4g}" for runs in layers.values()]
        print(f"| {metric} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
