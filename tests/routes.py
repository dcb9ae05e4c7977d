"""The library's routes to the measure, and the pairs of routes the gate compares.

A route is the set of package functions that compute one value their own
way; ``reads`` says what of the state or input it reads.  The north star's
rule is that routes compared with each other stay independent: neither may
reach the other's entry points through the package's call graph
(``test_routes.py`` checks it with ``ast``).  Shared layers, state
preparation, the purity gate, ``build_omega`` and the ``MetricTensor`` and
``MomentTable`` containers, which each route fills with its own formula
table, may be called by any route; they must reach no route themselves.

Names are "module.function" inside ``gaussgem``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What a route reads.
READS = ("diagonal blocks", "off-diagonal blocks", "moments", "closed form", "mode sums")


@dataclass(frozen=True)
class Route:
    name: str
    entries: tuple[str, ...]
    reads: str


ROUTES = (
    Route("purity", ("measure.gem_from_purity",), "diagonal blocks"),
    Route("mode purities", ("measure.mode_purities",), "diagonal blocks"),
    Route("metric", ("measure.gem_from_metric", "measure.metric_g"), "moments"),
    Route("shifted metric", ("measure.metric_h",), "moments"),
    Route("moment table", ("measure.moments_from_covariance", "measure.metric_from_moments"), "moments"),
    Route("log negativity", ("graphs.log_negativity_two_mode",), "off-diagonal blocks"),
    Route("two-mode closed form", ("graphs.gem_two_mode_closed",), "closed form"),
    Route("compact two-mode closed form", ("graphs.compact_gem_two_mode",), "closed form"),
    Route("triangle closed form", ("graphs.gem_three_mode_g1",), "closed form"),
    Route("path closed form", ("graphs.gem_three_mode_g2",), "closed form"),
    Route("two-mode closed metric", ("graphs.two_mode_metric_closed",), "closed form"),
    Route("field mode sums", ("lattice.gem_field_exact",), "mode sums"),
    Route("field asymptotic", ("lattice.gem_field_asymptotic",), "mode sums"),
    Route("field reduced det from X, Y", ("lattice.reduced_det_from_xy",), "mode sums"),
    Route("field pipeline", ("lattice.gem_field_pipeline",), "diagonal blocks"),
)

#: Route pairs that check each other, with where the check runs.
COMPARED = (
    ("two-mode closed form", "purity", "scan2 --self-test, gem column"),
    ("two-mode closed form", "log negativity", "scan2 --self-test, logneg column"),
    ("triangle closed form", "purity", "scan3 --family equal --self-test, gem_g1"),
    ("path closed form", "purity", "scan3 --family equal --self-test, gem_g2"),
    ("purity", "metric", "scan3 --family xy --self-test; acceptance criterion 3"),
    ("metric", "moment table", "acceptance criterion 3"),
    ("field mode sums", "field pipeline", "field --self-test; acceptance criterion 8"),
)

#: The route-to-route dependences that exist by design: (caller, callee).
DEPENDENCES = {
    # The compact family is the two-mode closed form at r = tanh(nu), renormalized.
    ("compact two-mode closed form", "two-mode closed form"),
    # The pipeline is the lattice covariance put through the purity route.
    ("field pipeline", "purity"),
}

#: Layers every route may call: state preparation, the purity gate, the symplectic form, and the
#: generic containers that keep a route's gated state and its own formula table.
SHARED = (
    "graphs.GraphSpec",
    "graphs.graph_state_covariance",
    "graphs.graph_state_covariances",
    "graphs.hamiltonian_from_graph",
    "lattice.field_covariance",
    "core.matrix_exponential",
    "core.symplectic_from_hamiltonian",
    "core.evolve_covariance",
    "core.require_pure",
    "core.PureState",
    "core.build_omega",
    "measure.MetricTensor",
    "measure.MomentTable",
)
