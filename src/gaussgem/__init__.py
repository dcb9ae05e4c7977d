"""Entanglement measure for multimode pure bosonic Gaussian states.

Covariance matrices use the (q1, p1, ..., qN, pN) quadrature ordering with
vacuum = I/2.  The measure of a pure state is

    (1/32) sum_mode [P(rho^(mode))^-2 - 1],

equivalently the inverse-Killing-form contraction of the local-sp(2,R)
restriction of the Fubini-Study metric minus the separable baseline N/8.

The measure holds for pure states only, so purity is judged once per state,
by one gate against the one threshold ``DEFAULT_PURITY_TOL`` fixed in
``core``; no function takes a tolerance.  A ``PureState`` is a covariance (or
stack) that has passed the gate; every route takes one in place of an array
and does not judge it again.  An array passed to a route is gated once per
call.  The lattice pipeline's ground state is pure by construction and skips
the gate's residual.  The graph builders return a ``PureState``, gated once
at build, since there the gate also catches covariances beyond double
precision.
"""

from .core import *
from .errors import *
from .graphs import *
from .lattice import *
from .measure import *
from . import core, errors, graphs, lattice, measure

__version__ = "0.1.0"

__all__ = []
__all__ += core.__all__
__all__ += errors.__all__
__all__ += graphs.__all__
__all__ += lattice.__all__
__all__ += measure.__all__
