"""Pseudo-spectral Strang-splitting toolkit for 1D periodic quasilinear
Schrodinger equations: stepping, conservation diagnostics, convergence
studies, blow-up detection, and plane-wave linear stability analysis.

The public API is each library module's ``__all__``, republished here.
"""

from .diagnostics import *
from .model import *
from .spectral import *
from .splitting import *
from .stability import *

__version__ = "0.1.0"
