"""Each command loads only the modules it runs, and the package exports its names lazily.

Every check runs in a new interpreter, whose ``sys.modules`` no other test has filled.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deepcoda
from deepcoda.cli import EXIT_OK, run

# The modules that only some commands run.
OPTIONAL = {"explain", "evaluate", "baselines", "simulate", "metrics", "_forkmap"}

PRINT_LOADED = ("import json, sys\nprint(json.dumps(sorted(\n"
                "    m[9:] for m in sys.modules if m.startswith('deepcoda.'))))")


def fresh(code: str) -> str:
    """The stdout of ``python -c code`` in a new interpreter that imports this deepcoda."""
    src = str(Path(deepcoda.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_by(argv) -> set:
    """The deepcoda modules, without the package prefix, that running ``argv`` loads."""
    code = ("import contextlib, io\nfrom deepcoda.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert run({[str(arg) for arg in argv]!r}) == 0\n")
    return set(json.loads(fresh(code + PRINT_LOADED)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("lazy")
    assert run(["simulate", "toy", "--n", "200", "--seed", "2", "--out", str(work)]) == EXIT_OK
    (work / "train.cfg").write_text("epochs = 20\n")
    assert run(["train", str(work / "relative.csv"), "--config", str(work / "train.cfg"),
                "--out", str(work / "model.txt")]) == EXIT_OK
    return work


def test_importing_the_cli_loads_no_optional_module():
    loaded = set(json.loads(fresh("import deepcoda.cli\n" + PRINT_LOADED)))
    assert "cli" in loaded and not loaded & OPTIONAL


@pytest.mark.parametrize("command,runs,skips", [
    ("train", set(), OPTIONAL),
    ("explain", {"explain", "_forkmap"}, {"evaluate", "baselines", "simulate", "metrics"}),
    ("benchmark", {"evaluate", "baselines", "metrics", "_forkmap"}, {"explain", "simulate"}),
    ("simulate", {"simulate"}, OPTIONAL - {"simulate"}),
    ("baseline", {"baselines", "metrics"}, {"evaluate", "explain", "simulate", "_forkmap"}),
], ids=["train", "explain", "benchmark", "simulate", "baseline"])
def test_a_command_loads_only_the_modules_it_runs(files, tmp_path, command, runs, skips):
    data = files / "relative.csv"
    argv = {
        "train": ["train", data, "--config", files / "train.cfg", "--out", tmp_path / "m.txt"],
        "explain": ["explain", files / "model.txt", data, "--out", tmp_path / "report"],
        "benchmark": ["benchmark", data, "--methods", "deepcoda,lasso", "--splits", "2",
                      "--epochs", "5", "--out", tmp_path / "b.csv"],
        "simulate": ["simulate", "toy", "--n", "50", "--out", tmp_path / "sim"],
        "baseline": ["baseline", data, "--out", tmp_path / "lasso.csv"],
    }[command]
    loaded = loaded_by(argv)
    assert runs <= loaded and not loaded & skips


def test_the_package_exports_every_module_all_lazily():
    code = """
import importlib
import deepcoda.cli
import deepcoda
train = importlib.import_module("deepcoda.train")
assert deepcoda.train is train.train, deepcoda.train
namespace = {}
exec("from deepcoda import *", namespace)
for name in ("coda", "simulate", "model", "train", "evaluate", "baselines", "explain"):
    module = importlib.import_module(f"deepcoda.{name}")
    for attr in module.__all__:
        assert namespace[attr] is getattr(module, attr), (name, attr)
        assert attr in dir(deepcoda), attr
assert not hasattr(deepcoda, "no_such_name")
print("ok")
"""
    assert fresh(code) == "ok\n"


def test_every_name_the_tracer_wraps_resolves_on_the_cli():
    # perfbench/tracer.py wraps these names where cli looks them up.
    code = """
import importlib
import deepcoda.cli as cli
owners = {"read_dataset_csv": "cli", "replace_zeros": "coda", "train": "train",
          "cv_select_lambda": "baselines", "lasso_logistic_fit": "baselines",
          "benchmark": "evaluate", "make_deepcoda_method": "evaluate",
          "make_lasso_method": "evaluate", "explain_sample": "explain",
          "render_report": "explain", "weight_contrast_correlation": "explain"}
for name, owner in owners.items():
    assert getattr(cli, name) is getattr(importlib.import_module(f"deepcoda.{owner}"), name), name
assert not hasattr(cli, "no_such_name")
print("ok")
"""
    assert fresh(code) == "ok\n"
