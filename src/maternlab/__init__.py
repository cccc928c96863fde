"""Whittle-Matern kernel interpolation, superconvergence studies, and
spectral diagnostics on intervals.

The package centers on norm-minimal interpolation in the reproducing-kernel
Hilbert space of a Matern kernel.  It provides closed-form kernels and their
derivatives, a piecewise-exponential test function with known native norm,
convergence-rate experiments that exhibit doubled interior rates, a
Nystrom-Mercer eigendecomposition with native-space extension operators, and
a weighted sequence-space model in which the underlying approximation bounds
can be verified exactly.

Each module's ``__all__`` is the one list of its public names; this
package re-exports exactly their union.
"""

from . import errors, experiments, interpolation, kernels, mercer, seqmodel, testfunctions
from .errors import *
from .experiments import *
from .interpolation import *
from .kernels import *
from .mercer import *
from .seqmodel import *
from .testfunctions import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (errors, experiments, interpolation, kernels, mercer, seqmodel, testfunctions)
    for name in module.__all__
)
