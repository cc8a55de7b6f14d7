"""Compositional probabilistic causal models.

Joint density kernels carry a trace of every internal random choice, so one
object supports sampling, exact log-densities, interventions, counterfactual
replay, and properly-weighted estimation. Diagrams wire kernels together; an
interpretation names which kernel sits in each box.

The package namespace is each library module's `__all__`, joined in the
import order below; the CLI stays in `jointkern.cli`.
"""

import sys

from .errors import *
from .rng import *
from .spaces import *
from .kernels import *
from .primitives import *
from .expr import *
from .diagrams import *
from .interpret import *
from .causal import *
from .weighted import *
from .model import *

__version__ = "0.1.0"

# read from sys.modules: the package attribute `weighted` is the function
__all__ = [name
           for module in ("errors", "rng", "spaces", "kernels", "primitives", "expr",
                          "diagrams", "interpret", "causal", "weighted", "model")
           for name in sys.modules[f"{__name__}.{module}"].__all__]
