"""Traced run of one deepcoda CLI command, with spans recorded from outside the program.

Run as ``python perfbench/tracer.py SPANS_JSON <cli arguments...>`` with the
program's ``src`` on ``PYTHONPATH``. It wraps each layer's public functions
where their callers look them up (``deepcoda.cli.read_dataset_csv``,
``deepcoda.train.loss_and_gradients``, ...), runs ``deepcoda.cli.run``,
and writes the spans (name, start, end, parent, note) and counters to
SPANS_JSON when the command has finished. ``layer_metrics`` turns such a
file into the per-layer metrics.

Modules come from ``importlib.import_module``: ``deepcoda.train`` as an
attribute is the re-exported function, not the module.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter

ISTA_CAP = 10_000  # lasso_logistic_fit's default max_iter; a fit with this many steps hit it


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, note]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_fit = 0

    def span(self, name, fn, note=None):
        """``fn`` wrapped in a span; ``note(args, kwargs, result)`` labels it."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if note is not None:
                self.spans[index][4] = note(args, kwargs, result)
            return result

        return traced

    def count_in_fit(self, key, fn):
        """``fn`` counting its calls made from inside ``lasso_logistic_fit``."""

        def counted(*args, **kwargs):
            if self._in_fit:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def lasso_fit(self, fn):
        spanned = self.span("baselines.lasso_fit", fn)

        def fit(*args, **kwargs):
            before = self.counts["baselines.ista_iters"]
            self._in_fit += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                self._in_fit -= 1
                if self.counts["baselines.ista_iters"] - before == ISTA_CAP:
                    self.counts["baselines.fits_at_cap"] += 1

        return fit

    def method(self, make):
        """A method factory whose methods' fit_score calls are spans named by method."""

        def wrapped_make(*args, **kwargs):
            method = make(*args, **kwargs)
            fit = self.span("evaluate.method_fit", method.fit_score, lambda a, k, r: method.name)
            return dataclasses.replace(method, fit_score=fit)

        return wrapped_make

    def install(self) -> None:
        mod = importlib.import_module
        cli, train_, evaluate_, baselines_, explain_ = (
            mod(f"deepcoda.{name}") for name in ("cli", "train", "evaluate", "baselines", "explain")
        )

        def rows_read(args, kwargs, result):
            self.counts["cli.rows_read"] += len(result[0])

        def rows_imputed(args, kwargs, result):
            self.counts["coda.rows_imputed"] += int((args[0].values == 0).any(axis=1).sum())

        def head(args, kwargs, result):
            return (args[2] if len(args) > 2 else kwargs["cfg"]).head

        def n_rows(args, kwargs, result):
            return len(result)

        plain = [
            (cli, "read_dataset_csv", "cli.read_dataset_csv", rows_read),
            (cli, "replace_zeros", "coda.replace_zeros", rows_imputed),
            (cli, "train", "train.train", head),
            (evaluate_, "train", "train.train", head),
            (train_, "loss_and_gradients", "model.loss_and_gradients", None),
            (explain_, "forward", "model.forward", None),
            (evaluate_, "predict_proba", "model.predict_proba", n_rows),
            (cli, "cv_select_lambda", "baselines.cv_select_lambda", None),
            (baselines_, "cv_select_lambda", "baselines.cv_select_lambda", None),
            (cli, "benchmark", "evaluate.benchmark", None),
            (evaluate_, "auc", "evaluate.auc", None),
            (baselines_, "auc", "evaluate.auc", None),
            (cli, "explain_sample", "explain.explain_sample", None),
            (cli, "render_report", "explain.render_report", None),
            (cli, "weight_contrast_correlation", "explain.weight_contrast_correlation", None),
        ]
        for module, attr, name, note in plain:
            setattr(module, attr, self.span(name, getattr(module, attr), note))
        for module in (cli, baselines_):
            module.lasso_logistic_fit = self.lasso_fit(module.lasso_logistic_fit)
        # expit runs once per ISTA iteration, soft_threshold once per prox step.
        baselines_.expit = self.count_in_fit("baselines.ista_iters", baselines_.expit)
        baselines_.soft_threshold = self.count_in_fit("baselines.prox_evals", baselines_.soft_threshold)
        for attr in ("make_deepcoda_method", "make_lasso_method"):
            setattr(cli, attr, self.method(getattr(cli, attr)))


def busy_s(trace: dict, name: str) -> float:
    """Total time inside spans called ``name``."""
    return sum(end - start for span_name, start, end, _, _ in trace["spans"] if span_name == name)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer busy times, self times and counts from one traced command."""
    spans, counts = trace["spans"], Counter(trace["counts"])
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy, self_time, calls = Counter(), Counter(), Counter()
    for (name, start, end, _, _), covered in zip(spans, child_time):
        busy[name] += end - start
        self_time[name] += end - start - covered
        calls[name] += 1
    lag_calls = calls["model.loss_and_gradients"]
    fits = calls["baselines.lasso_fit"]
    iters, proxes = counts["baselines.ista_iters"], counts["baselines.prox_evals"]
    return {
        "cli.read_dataset_csv_s": busy["cli.read_dataset_csv"],
        "cli.rows_read": counts["cli.rows_read"],
        "cli.self_s": self_time["cli.run"],
        "coda.replace_zeros_s": busy["coda.replace_zeros"],
        "coda.rows_imputed": counts["coda.rows_imputed"],
        "model.loss_and_gradients_s": busy["model.loss_and_gradients"],
        "model.loss_and_gradients_calls": lag_calls,
        "model.loss_and_gradients_us": busy["model.loss_and_gradients"] / lag_calls * 1e6 if lag_calls else 0.0,
        "model.forward_s": busy["model.forward"],
        "model.forward_calls": calls["model.forward"],
        "model.predict_proba_s": busy["model.predict_proba"],
        "train.train_s": busy["train.train"],
        "train.adam_self_s": self_time["train.train"],
        "baselines.cv_select_lambda_s": busy["baselines.cv_select_lambda"],
        "baselines.lasso_fit_s": busy["baselines.lasso_fit"],
        "baselines.lasso_fits": fits,
        "baselines.ista_iters": iters,
        "baselines.ista_iters_per_fit": iters / fits if fits else 0.0,
        "baselines.fits_at_cap": counts["baselines.fits_at_cap"],
        "baselines.prox_evals": proxes,
        "baselines.step_accept_ratio": iters / proxes if proxes else 0.0,
        "evaluate.benchmark_s": busy["evaluate.benchmark"],
        "evaluate.method_fits": calls["evaluate.method_fit"],
        "evaluate.auc_s": busy["evaluate.auc"],
        "explain.explain_sample_s": busy["explain.explain_sample"],
        "explain.explain_sample_calls": calls["explain.explain_sample"],
        "explain.render_report_s": busy["explain.render_report"],
        "explain.weight_contrast_correlation_s": busy["explain.weight_contrast_correlation"],
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("deepcoda.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.run", cli.run)(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
