"""Sparse-graph majority/LDGM codes over erasure channels.

Construction and simulation of low-density majority codes (LDMCs), LDGMs and
their mixtures; belief-propagation decoding; exact bit-MAP via F2 rank
computations; erasure/entropy polynomial machinery with density-evolution
bounds; and single-/two-point converse bounds for graceful-degradation
analysis.  A name is public where its module lists it in ``__all__``; the
package re-exports those lists in module order.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import bp, channels, converse, devo, efun, ensemble, exactdec, optimize
from .channels import *
from .ensemble import *
from .exactdec import *
from .bp import *
from .efun import *
from .devo import *
from .converse import *
from .optimize import *

_MODULES = (channels, ensemble, exactdec, bp, efun, devo, converse, optimize)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
