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
the gate's residual; graph states stay gated, since there the gate also
catches covariances beyond double precision.
"""

from .core import (
    DEFAULT_PURITY_TOL,
    PureState,
    build_omega,
    check_pure,
    evolve_covariance,
    matrix_exponential,
    purity,
    require_pure,
    symplectic_from_hamiltonian,
    vacuum_state,
)
from .errors import (
    DivergenceError,
    DivisionByZeroError,
    GaussGemError,
    InvalidArgumentError,
    NumericOverflowError,
    UnphysicalStateError,
)
from .graphs import (
    GraphSpec,
    PolarCoupling,
    compact_gem_two_mode,
    gem_ratio_small_r,
    gem_three_mode_g1,
    gem_three_mode_g2,
    gem_two_mode_closed,
    graph_state_covariance,
    graph_state_covariances,
    hamiltonian_from_graph,
    log_negativity_two_mode,
    two_mode_metric_closed,
)
from .lattice import (
    AsymptoticCoefficients,
    BogoliubovMatrices,
    LatticeFieldConfig,
    asymptotic_coefficients,
    bogoliubov_matrices,
    bogoliubov_residuals,
    complete_elliptic,
    dispersion,
    field_covariance,
    gem_field_asymptotic,
    gem_field_exact,
    gem_field_pipeline,
    reduced_det_from_xy,
)
from .measure import (
    MetricTensor,
    MomentTable,
    gem_from_metric,
    gem_from_purity,
    killing_contraction,
    killing_form_sp2,
    metric_from_moments,
    metric_g,
    metric_h,
    mode_purities,
    moments_from_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCoefficients",
    "BogoliubovMatrices",
    "DEFAULT_PURITY_TOL",
    "DivergenceError",
    "DivisionByZeroError",
    "GaussGemError",
    "GraphSpec",
    "InvalidArgumentError",
    "LatticeFieldConfig",
    "MetricTensor",
    "MomentTable",
    "NumericOverflowError",
    "PolarCoupling",
    "PureState",
    "UnphysicalStateError",
    "asymptotic_coefficients",
    "bogoliubov_matrices",
    "bogoliubov_residuals",
    "build_omega",
    "check_pure",
    "compact_gem_two_mode",
    "complete_elliptic",
    "dispersion",
    "evolve_covariance",
    "field_covariance",
    "gem_field_asymptotic",
    "gem_field_exact",
    "gem_field_pipeline",
    "gem_from_metric",
    "gem_from_purity",
    "gem_ratio_small_r",
    "gem_three_mode_g1",
    "gem_three_mode_g2",
    "gem_two_mode_closed",
    "graph_state_covariance",
    "graph_state_covariances",
    "hamiltonian_from_graph",
    "killing_contraction",
    "killing_form_sp2",
    "log_negativity_two_mode",
    "matrix_exponential",
    "metric_from_moments",
    "metric_g",
    "metric_h",
    "mode_purities",
    "moments_from_covariance",
    "purity",
    "reduced_det_from_xy",
    "require_pure",
    "symplectic_from_hamiltonian",
    "two_mode_metric_closed",
    "vacuum_state",
]
