"""Normalization-free log-contrast models with per-sample self-explanation.

The package exports every name in each module's ``__all__``.
"""

from .coda import *
from .simulate import *
from .model import *
from .train import *
from .evaluate import *
from .baselines import *
from .explain import *

__version__ = "0.1.0"
