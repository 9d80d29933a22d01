"""The package's public API: every module's ``__all__``, re-exported unchanged."""

import importlib

import pytest

import deepcoda

MODULES = ("coda", "simulate", "model", "train", "evaluate", "baselines", "explain")

# The names the package exported before it re-exported each module's __all__.
EARLIER_EXPORTS = {
    "coda": ["CompositionMatrix", "closure", "clr", "log_contrast", "replace_zeros",
             "subcomposition"],
    "simulate": ["SyntheticDataset", "gen_cmyc", "gen_toy"],
    "model": ["DeepCodaParams", "ForwardTrace", "forward", "gradients", "load_params", "loss",
              "loss_and_gradients", "params_from_text", "params_to_text", "predict_proba",
              "save_params"],
    "train": ["TrainConfig", "TrainReport", "TrainingDivergedError", "init_params", "train"],
    "evaluate": ["BenchmarkResult", "LabeledDataset", "Method", "auc", "benchmark",
                 "grid_search", "make_deepcoda_method", "make_lasso_method", "results_to_csv",
                 "split", "standardize_scores"],
    "baselines": ["LassoModel", "apply_transform", "cv_select_lambda", "lasso_logistic_fit",
                  "lasso_objective", "scaled_magnitudes", "soft_threshold"],
    "explain": ["ContrastMembership", "Explanation", "ExplanationBatch", "ReportBundle",
                "contrast_membership", "decision_rule", "explain_batch", "explain_sample",
                "render_report", "weight_contrast_correlation"],
}


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in EARLIER_EXPORTS.items() for n in names]
)
def test_every_earlier_export_is_the_same_object(module, name):
    assert getattr(deepcoda, name) is getattr(importlib.import_module(f"deepcoda.{module}"), name)


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_a_module_all_is_on_the_package(module):
    mod = importlib.import_module(f"deepcoda.{module}")
    missing = [name for name in mod.__all__ if getattr(deepcoda, name, None) is not getattr(mod, name)]
    assert not missing


def test_train_is_the_function():
    assert callable(deepcoda.train) and deepcoda.train.__module__ == "deepcoda.train"
