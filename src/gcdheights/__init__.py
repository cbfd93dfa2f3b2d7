"""Exact gcd heights on Q, divisibility sequences, and inequality experiments.

The public names are declared once, in each module's ``__all__``; the
package re-exports them, and its ``__all__`` is their concatenation.
"""

__version__ = "0.1.0"

from .arith import *
from .elliptic import *
from .gcd_height import *
from .mulgrp import *
from .experiments import *
from . import arith, elliptic, experiments, gcd_height, mulgrp

__all__ = [
    *arith.__all__,
    *elliptic.__all__,
    *gcd_height.__all__,
    *mulgrp.__all__,
    *experiments.__all__,
]
