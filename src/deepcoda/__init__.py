"""Normalization-free log-contrast models with per-sample self-explanation.

The package exports every name in each module's ``__all__``. The first
lookup of one imports the modules, so ``import deepcoda.cli`` loads only the
modules the CLI itself imports.
"""

import importlib

# Importing the submodule binds deepcoda.train to it; the package's train is the function.
from .train import train

_MODULES = ("coda", "simulate", "model", "train", "evaluate", "baselines", "explain")

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if "__all__" not in globals():  # bind every export, a later module's over an earlier's
        modules = [importlib.import_module(f".{module}", __name__) for module in _MODULES]
        exports = {attr: getattr(module, attr) for module in modules for attr in module.__all__}
        globals().update(exports, __all__=list(exports))
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
