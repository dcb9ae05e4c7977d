"""Tests for graph-state construction, closed forms, and baselines."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussgem
from gaussgem import (
    DivisionByZeroError,
    GraphSpec,
    InvalidArgumentError,
    LatticeFieldConfig,
    NumericOverflowError,
    PolarCoupling,
    UnphysicalStateError,
    asymptotic_coefficients,
    build_omega,
    compact_gem_two_mode,
    complete_elliptic,
    evolve_covariance,
    gem_field_asymptotic,
    gem_from_purity,
    gem_ratio_small_r,
    gem_three_mode_g1,
    gem_three_mode_g2,
    gem_two_mode_closed,
    graph_state_covariance,
    graph_state_covariances,
    hamiltonian_from_graph,
    killing_contraction,
    log_negativity_two_mode,
    metric_h,
    mode_purities,
    require_pure,
    symplectic_from_hamiltonian,
    two_mode_metric_closed,
    vacuum_state,
)
from gaussgem.core import _pure_by_construction, _purity_residual
from conftest import random_graph_spec
from oracles import fock_covariance, log_negativity_eigvals, prepared_graph_state, quadrature_ops_two_mode

TRIANGLE = ((1, 2), (2, 3), (1, 3))
PATH3 = ((1, 2), (2, 3))


def _pipeline_two_mode(w):
    return gem_from_purity(graph_state_covariance(GraphSpec(2, ((1, 2, w),))))


def _pipeline_uniform(num_modes, pairs, w):
    spec = GraphSpec.with_uniform_weight(num_modes, pairs, w)
    return gem_from_purity(graph_state_covariance(spec))


class TestGraphSpec:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GraphSpec(3, ((1, 2, 1.0), (1, 2, 2.0)))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GraphSpec(3, ((2, 2, 1.0),))

    def test_misordered_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GraphSpec(3, ((3, 1, 1.0),))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GraphSpec(2, ((1, 3, 1.0),))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GraphSpec(2, ((1, 2, complex("inf")),))

    @pytest.mark.parametrize("num_modes,edges", [(True, ()), (2, ((True, 2, 1.0),))])
    def test_boolean_is_not_an_integer(self, num_modes, edges):
        with pytest.raises(InvalidArgumentError):
            GraphSpec(num_modes, edges)


NOT_NUMBERS = [
    pytest.param("0.5", id="string"),
    pytest.param(True, id="bool"),
    pytest.param(np.True_, id="numpy-bool"),
    pytest.param(None, id="none"),
    pytest.param(10**400, id="huge-integer"),
]

NUMBERS = [0, 1, -2, 0.5, 0.3 + 0.5j, np.int64(1), np.uint8(2), np.float64(-0.5), np.float32(0.25),
           np.complex128(0.3 + 0.5j), 1j]


class TestWeightsAreNumbers:
    """Both entry points take numbers only, as the CLI's JSON reader does."""

    @pytest.mark.parametrize("weight", NOT_NUMBERS)
    def test_graph_spec_rejects(self, weight):
        with pytest.raises(InvalidArgumentError, match="edge weights must be numbers"):
            GraphSpec(2, ((1, 2, weight),))

    @pytest.mark.parametrize("weight", NOT_NUMBERS)
    def test_stacked_covariances_reject(self, weight):
        with pytest.raises(InvalidArgumentError, match="edge weights must be numbers"):
            graph_state_covariances(2, ((1, 2),), [weight])
        with pytest.raises(InvalidArgumentError, match="edge weights must be numbers"):
            graph_state_covariances(3, ((1, 2), (2, 3)), [[weight, weight]] * 2)

    @pytest.mark.parametrize("weight", NUMBERS)
    def test_numbers_give_the_state_of_their_complex_value(self, weight):
        want = graph_state_covariance(GraphSpec(2, ((1, 2, complex(weight)),))).gamma
        assert np.array_equal(graph_state_covariance(GraphSpec(2, ((1, 2, weight),))).gamma, want)
        assert np.array_equal(graph_state_covariances(2, ((1, 2),), [weight]).gamma[()], want)
        assert np.array_equal(graph_state_covariances(2, ((1, 2),), [[weight], [weight]]).gamma[1], want)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float32, np.float64, np.complex64, complex])
    def test_numeric_arrays_give_their_complex_states(self, dtype):
        pairs = ((1, 2), (2, 3), (1, 3))
        weights = np.array([[1, 0, 2], [0, 1, 1]], dtype=dtype)
        want = graph_state_covariances(3, pairs, weights.astype(complex)).gamma
        assert np.array_equal(graph_state_covariances(3, pairs, weights).gamma, want)
        for k, row in enumerate(weights):
            spec = GraphSpec(3, tuple((i, j, w) for (i, j), w in zip(pairs, row)))
            assert np.array_equal(graph_state_covariance(spec).gamma, want[k])


#: Every entry point that takes an edge weight or a real parameter, as a function of that input.
WEIGHT_ENTRY_POINTS = {
    "GraphSpec": lambda x: GraphSpec(3, ((1, 2, x), (2, 3, 0.5j))),
    "graph_state_covariances": lambda x: graph_state_covariances(3, PATH3, x),
    "gem_two_mode_closed": gem_two_mode_closed,
    "gem_three_mode_g1": gem_three_mode_g1,
    "gem_three_mode_g2": gem_three_mode_g2,
}
REAL_ENTRY_POINTS = {
    "PolarCoupling-r": lambda x: PolarCoupling(x, 0.3),
    "PolarCoupling-phi": lambda x: PolarCoupling(0.3, x),
    "two_mode_metric_closed": lambda x: two_mode_metric_closed(x, 0.3),
    "LatticeFieldConfig-mass": lambda x: LatticeFieldConfig(1, x, 1.0),
    "LatticeFieldConfig-radius": lambda x: LatticeFieldConfig(1, 1.0, x),
    "asymptotic_coefficients": lambda x: asymptotic_coefficients(x, 0),
    "gem_field_asymptotic": lambda x: gem_field_asymptotic(3, x, 0),
    "compact_gem_two_mode": lambda x: compact_gem_two_mode(x, 0.3),
    "complete_elliptic": lambda x: complete_elliptic("K", x),
    "gem_ratio_small_r": lambda x: gem_ratio_small_r(GraphSpec(3, ((1, 2, 1.0),)), GraphSpec(3, ((2, 3, 1.0),)), x),
}
NO_WEIGHTS = [
    *NOT_NUMBERS,
    pytest.param([[0.5j, True]], id="bool-in-list"),
    pytest.param("1j", id="0d-string"),
    pytest.param(np.array([[True, False]]), id="bool-array"),
    pytest.param([[0.5j, 1.0], [1.0]], id="ragged"),
]


class TestOneWeightRule:
    """One judge of weights for every entry point; a typed error, never a bare TypeError or OverflowError."""

    @pytest.mark.parametrize("bad", NO_WEIGHTS)
    @pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
    def test_weight_entry_points_reject(self, name, bad):
        with pytest.raises(InvalidArgumentError, match="edge weights must be numbers"):
            WEIGHT_ENTRY_POINTS[name](bad)

    @pytest.mark.parametrize("bad", NO_WEIGHTS)
    @pytest.mark.parametrize("name", REAL_ENTRY_POINTS)
    def test_real_parameters_reject(self, name, bad):
        with pytest.raises(InvalidArgumentError, match="real"):
            REAL_ENTRY_POINTS[name](bad)

    @pytest.mark.parametrize("name", REAL_ENTRY_POINTS)
    def test_real_parameters_reject_complex(self, name):
        with pytest.raises(InvalidArgumentError, match="real"):
            REAL_ENTRY_POINTS[name](0.5 + 0j)

    def test_integer_in_double_range_overflows_in_both_builders(self):
        for build in (lambda: graph_state_covariance(GraphSpec(2, ((1, 2, 2**70),))),
                      lambda: graph_state_covariances(2, ((1, 2),), [2**70])):
            with pytest.raises(NumericOverflowError):
                build()

    @pytest.mark.parametrize("name", ["GraphSpec", "graph_state_covariances"])
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(1.5e308, 1.5e308)])
    def test_builders_need_finite_modulus_and_phase(self, name, bad):
        # As the closed forms do: the last has finite parts, but its modulus r is past double range.
        weights = [[0.5j, bad]] if name == "graph_state_covariances" else bad
        with pytest.raises(InvalidArgumentError, match="finite r and phi"):
            WEIGHT_ENTRY_POINTS[name](weights)

    @pytest.mark.parametrize("closed", [gem_two_mode_closed, gem_three_mode_g1, gem_three_mode_g2])
    def test_entry_by_entry_equals_dtype_path(self, closed):
        # A list, an object array and a complex array of the same weights agree bit for bit.
        rng = np.random.default_rng(21)
        w = rng.uniform(-3.0, 3.0, (7, 5)) + 1j * rng.uniform(-3.0, 3.0, (7, 5))
        w[0, :3] = [0.0, complex(-0.0, -0.0), -2.0]
        want = closed(w)
        for same in (w.tolist(), w.astype(object), [list(map(np.complex128, row)) for row in w]):
            assert np.array_equal(closed(same).view(np.int64), want.view(np.int64))  # sign bits included
        want = closed(np.array([complex(x) for x in NUMBERS]))
        assert np.array_equal(closed(NUMBERS).view(np.int64), want.view(np.int64))


class TestHamiltonianFromGraph:
    def test_empty_graph(self):
        assert np.array_equal(hamiltonian_from_graph(GraphSpec(2)), np.zeros((4, 4)))

    def test_real_weight_block(self):
        h = hamiltonian_from_graph(GraphSpec(2, ((1, 2, 1.0),)))
        assert np.array_equal(h[:2, 2:], np.eye(2))
        assert np.array_equal(h[2:, :2], np.eye(2))
        assert np.all(h[:2, :2] == 0.0)

    def test_imaginary_weight_block(self):
        h = hamiltonian_from_graph(GraphSpec(2, ((1, 2, 1j),)))
        assert np.array_equal(h[:2, 2:], [[0.0, -1.0], [-1.0, 0.0]])

    def test_symmetric(self, rng):
        h = hamiltonian_from_graph(random_graph_spec(rng, 4))
        assert np.array_equal(h, h.T)


class TestGraphStateCovariance:
    def test_empty_graph_is_vacuum(self):
        assert np.allclose(graph_state_covariance(GraphSpec(3)).gamma, vacuum_state(3))

    def test_squeezer_variance(self):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 0.5j),))).gamma
        assert gamma[0, 0] == pytest.approx(np.cosh(1.0) / 2.0, abs=1e-12)

    def test_states_are_pure(self, rng):
        for _ in range(10):
            gamma = graph_state_covariance(random_graph_spec(rng, 4)).gamma
            require_pure(gamma)
            assert _purity_residual(gamma) < 1e-9

    def test_vacuum_evolved_in_one_product(self, rng):
        # S S^T / 2 equals evolve_covariance(vacuum_state(N), S) bit for bit,
        # sign bits of zeros included, on single graphs and on a scan2 stack.
        specs = [GraphSpec(3), GraphSpec(2, ((1, 2, 0.4 - 0.0j),))]
        specs += [random_graph_spec(rng, n) for n in (2, 3, 8)]
        specs += [random_graph_spec(rng, 96, edge_prob=0.04) for _ in range(2)]
        for spec in specs:
            S = symplectic_from_hamiltonian(hamiltonian_from_graph(spec))
            got, want = graph_state_covariance(spec).gamma, evolve_covariance(vacuum_state(spec.num_modes), S)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        axis = np.linspace(-3.0, 3.0, 61)
        weights = (axis[:, None] + 1j * axis)[..., None]
        S = symplectic_from_hamiltonian(gaussgem.graphs._generators(2, ((1, 2),), weights))
        got, want = graph_state_covariances(2, ((1, 2),), weights).gamma, evolve_covariance(vacuum_state(2), S)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_overflowing_weight_raises_without_warning(self):
        # pytest turns a leaked RuntimeWarning into a failure.
        with pytest.raises(NumericOverflowError, match="S Gamma S"):
            graph_state_covariance(GraphSpec(2, ((1, 2, 400j),)))

    def test_state_failing_the_gate_raises_from_the_builder(self):
        # At w = 180i S S^T / 2 is finite but ||Gamma||_1^2 is not, so the residual's bound cannot scale.
        message = (
            "state{} fails the purity gate: ||Gamma||_1^2 overflows double precision, "
            "so the bound stays 1.0e-09 (purity residual inf)"
        )
        with pytest.raises(UnphysicalStateError) as raised:
            graph_state_covariance(GraphSpec(2, ((1, 2, 180j),)))
        assert str(raised.value) == message.format("")
        with pytest.raises(UnphysicalStateError) as raised:
            graph_state_covariances(2, ((1, 2),), [[0.5j], [180j]])
        assert str(raised.value) == message.format(" at stack index (1,)")

    @pytest.mark.parametrize(
        "weight, error, match",
        [
            (150j, UnphysicalStateError, r"\|\|Gamma\|\|_1\^2 overflows"),
            (250j, NumericOverflowError, r"S Gamma S\^T"),
            (400j, NumericOverflowError, "matrix exponential overflowed"),
            (2**70, NumericOverflowError, "matrix exponential overflowed"),
        ],
    )
    def test_triangle_faults_raise_their_error_without_warning(self, weight, error, match):
        # One np.errstate covers the triangle's squarings, product and symmetrization:
        # each stage's fault must still raise its own error, and none may leak a RuntimeWarning.
        stack = np.array([[0.5j] * 3, [weight] * 3])
        for build in (lambda: graph_state_covariance(GraphSpec.with_uniform_weight(3, TRIANGLE, weight)),
                      lambda: graph_state_covariances(3, TRIANGLE, stack)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(error, match=match):
                    build()

    def test_matches_fock_preparation(self, rng):
        # Full covariance agreement with the truncated-Fock preparation
        # exp(-iH)|00> for a generic two-mode weight.
        spec = GraphSpec(2, ((1, 2, 0.3 + 0.4j),))
        cutoff = 40
        psi = prepared_graph_state(hamiltonian_from_graph(spec), cutoff)
        fock_gamma = fock_covariance(psi, quadrature_ops_two_mode(cutoff))
        assert np.allclose(graph_state_covariance(spec).gamma, fock_gamma, atol=1e-7)


class TestPolarCouplingInDouble:
    """A PolarCoupling keeps r and phi as Python floats, so every closed form computes in double precision."""

    def test_stores_floats(self):
        for r, phi in [(1, 0.3), (np.float32(0.5), np.float32(0.3)), (np.int64(2), 1), (0.25, np.float64(1.0))]:
            coupling = PolarCoupling(r, phi)
            assert type(coupling.r) is float and type(coupling.phi) is float
            assert (coupling.r, coupling.phi) == (float(r), float(phi))
        assert PolarCoupling(1, 0.3).r == 1.0

    @pytest.mark.parametrize("closed", [gem_two_mode_closed, gem_three_mode_g1, gem_three_mode_g2])
    def test_float32_and_int_inputs_give_double_values(self, closed):
        # Each input gives the bits of its exact double value, not a float32 computation.
        rng = np.random.default_rng(22)
        for r, phi in zip(rng.uniform(0.0, 5.0, 100).astype(np.float32), rng.uniform(-3.0, 3.0, 100).astype(np.float32)):
            want = closed(PolarCoupling(float(r), float(phi)))
            assert closed(PolarCoupling(r, phi)) == want
            assert closed(PolarCoupling(float(r), phi)) == want
        for r in range(6):
            assert closed(PolarCoupling(np.int32(r), 0.7)) == closed(PolarCoupling(r, 0.7)) == closed(PolarCoupling(float(r), 0.7))

    def test_float32_metric_is_double(self):
        r, phi = np.float32(0.8), np.float32(1.1)
        want = two_mode_metric_closed(float(r), float(phi)).matrix
        assert np.array_equal(two_mode_metric_closed(r, phi).matrix, want)

    @pytest.mark.parametrize("closed", [gem_two_mode_closed, gem_three_mode_g1, gem_three_mode_g2])
    def test_integer_r_past_int64_raises_overflow(self, closed):
        # 2**70 is a double; its phase s sqrt(u) is past 2^53, so no digit of sin survives.
        with pytest.raises(NumericOverflowError, match="no significant digit"):
            closed(PolarCoupling(2**70, 0.3))


class TestTwoModeClosedForm:
    @pytest.mark.parametrize("r", [0.0, 0.4, 1.3])
    def test_real_coupling_gives_zero(self, r):
        assert gem_two_mode_closed(PolarCoupling(r, 0.0)) == 0.0

    def test_pure_squeezing_value(self):
        value = gem_two_mode_closed(PolarCoupling(1.0, np.pi / 2))
        assert value == pytest.approx(np.sinh(2.0) ** 2 / 16.0, abs=1e-12)

    def test_matches_pipeline_spot(self):
        c = PolarCoupling(0.7, 1.0)
        assert gem_two_mode_closed(c) == pytest.approx(_pipeline_two_mode(c.weight), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=1.5),
        phi=st.floats(min_value=-np.pi, max_value=np.pi),
    )
    def test_matches_pipeline_everywhere(self, r, phi):
        c = PolarCoupling(r, phi)
        assert gem_two_mode_closed(c) == pytest.approx(_pipeline_two_mode(c.weight), abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        r=st.floats(min_value=0.1, max_value=1.5),
        offset=st.floats(min_value=-1e-5, max_value=1e-5),
    )
    def test_smooth_across_removable_ray(self, r, offset):
        # cos(2 phi) = 0 rays are removable; the series window must agree
        # with the exact branches on both sides.
        c = PolarCoupling(r, np.pi / 4 + offset)
        assert gem_two_mode_closed(c) == pytest.approx(_pipeline_two_mode(c.weight), abs=1e-10)


class TestCompactMeasure:
    def test_zero_at_origin(self):
        assert compact_gem_two_mode(0.0, 1.2) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_unit_parameter(self):
        want = np.sinh(2.0 * np.tanh(1.0)) ** 2 / np.sinh(2.0) ** 2
        assert compact_gem_two_mode(1.0, np.pi / 2) == pytest.approx(want, abs=1e-10)

    def test_approaches_one(self):
        assert compact_gem_two_mode(6.0, np.pi / 2) == pytest.approx(1.0, abs=1e-3)
        assert compact_gem_two_mode(6.0, np.pi / 2) < 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        nu=st.floats(min_value=0.0, max_value=12.0),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    def test_bounded_in_unit_interval(self, nu, phi):
        value = compact_gem_two_mode(nu, phi)
        assert -1e-12 <= value < 1.0

    def test_matches_purity_formula(self):
        # The purity formula [P1^-2 + P2^-2 - 2] / (2 sinh^2 2) on the prepared
        # states, which compact_gem_two_mode rescales from the closed form.
        nu, phi = np.meshgrid(np.linspace(0.0, 6.0, 25), np.linspace(-np.pi, np.pi, 25))
        weights = (np.tanh(nu) * np.exp(1j * phi))[..., None]
        purities = mode_purities(graph_state_covariances(2, ((1, 2),), weights))
        p1, p2 = purities[..., 0], purities[..., 1]
        want = (p1**-2 + p2**-2 - 2.0) / (2.0 * np.sinh(2.0) ** 2)
        got = np.vectorize(compact_gem_two_mode)(nu, phi)
        assert np.max(np.abs(got - want)) < 1e-14


class TestThreeModeClosedForms:
    def test_g1_real_coupling_zero(self):
        assert gem_three_mode_g1(PolarCoupling(0.8, 0.0)) == 0.0

    def test_g1_small_r_leading_order(self):
        r = 1e-3
        value = gem_three_mode_g1(PolarCoupling(r, np.pi / 2))
        assert value == pytest.approx(np.sinh(3 * r) ** 2 / 12.0, rel=1e-10)
        assert value == pytest.approx(0.75 * r**2, rel=1e-5)

    def test_g1_matches_pipeline(self):
        c = PolarCoupling(0.3, np.pi / 3)
        assert gem_three_mode_g1(c) == pytest.approx(
            _pipeline_uniform(3, TRIANGLE, c.weight), abs=1e-9
        )

    def test_g2_real_coupling_zero(self):
        assert gem_three_mode_g2(PolarCoupling(0.8, 0.0)) == 0.0

    def test_g2_small_r_value(self):
        value = gem_three_mode_g2(PolarCoupling(1e-3, np.pi / 2))
        assert value == pytest.approx(5.0e-7, rel=1e-4)

    def test_g2_matches_pipeline(self):
        c = PolarCoupling(0.5, np.pi / 2)
        assert gem_three_mode_g2(c) == pytest.approx(
            _pipeline_uniform(3, PATH3, c.weight), abs=1e-9
        )

    def test_overflow_raises_typed_error(self):
        # sinh(2r)^2 at r = 180 is beyond double precision.
        with pytest.raises(NumericOverflowError):
            gem_two_mode_closed(PolarCoupling(180.0, np.pi / 2))
        with pytest.raises(NumericOverflowError):
            gem_three_mode_g1(PolarCoupling(180.0, np.pi / 2))
        # Near r = 130 both factors of g2 are finite but their product is not.
        with pytest.raises(NumericOverflowError):
            gem_three_mode_g2(PolarCoupling(130.0, np.pi / 2))
        with pytest.raises(NumericOverflowError):
            two_mode_metric_closed(180.0, np.pi / 2)
        # Near the ray cos(2 phi) = 0 a finite sinh^2 divided by a small -cos(2 phi)
        # leaves double precision, and a float division returns inf without raising.
        near_ray = np.pi / 4 + 5e-5
        with pytest.raises(NumericOverflowError):
            gem_two_mode_closed(PolarCoupling(17700.0, near_ray))
        with pytest.raises(NumericOverflowError):
            gem_three_mode_g1(PolarCoupling(11800.0, near_ray))
        with pytest.raises(NumericOverflowError):
            gem_three_mode_g2(PolarCoupling(17700.0, near_ray))
        for r in (17450.0, 17700.0):  # the squared bracket alone, then sinh^2 / u, overflows
            with pytest.raises(NumericOverflowError):
                two_mode_metric_closed(r, near_ray)
        # 2r itself overflows to inf, which must not come out as NaN or a math domain error.
        for phi in (np.pi / 4, 0.3, 2.0):
            for closed in (gem_two_mode_closed, gem_three_mode_g1, gem_three_mode_g2):
                with pytest.raises(NumericOverflowError):
                    closed(PolarCoupling(1.7e308, phi))
            with pytest.raises(NumericOverflowError):
                two_mode_metric_closed(1.7e308, phi)
        # From a phase s sqrt(cos 2 phi) of 2^53 on, neighbouring doubles lie 2 rad
        # apart and sin keeps no significant digit; just below it a value comes back.
        r_below = 0.999 * 2.0**53 / (3.0 * math.sqrt(math.cos(0.6)))  # g1's phase, the largest of the three
        for closed in (gem_two_mode_closed, gem_three_mode_g1, gem_three_mode_g2):
            with pytest.raises(NumericOverflowError, match="significant digit"):
                closed(PolarCoupling(1e17, 0.3))
            assert math.isfinite(closed(PolarCoupling(r_below, 0.3)))

    @pytest.mark.parametrize(
        "r, offset",
        [(1.0, 4e-7), (10.0, 1e-7), (100.0, 3e-7), (1000.0, -3e-7), (1e4, 0.0),
         (0.3, -0.6), (0.5, 0.5), (0.2, 1.2)],  # the last three away from the ray, on both sides
    )
    def test_near_ray_against_mpmath(self, r, offset):
        # Inside |cos 2 phi| < 1e-6 the series in s^2 cos(2 phi) must not be
        # used where that product is large: at r = 1000 it would be 2% off.
        phi = np.pi / 4 + offset
        with mpmath.workdps(40):
            u, sin_sq = mpmath.cos(2 * mpmath.mpf(phi)), mpmath.sin(mpmath.mpf(phi)) ** 2

            def sin_sq_over(s):
                x = s * mpmath.sqrt(abs(u))
                return (mpmath.sin(x) ** 2 if u > 0 else mpmath.sinh(x) ** 2) / abs(u)

            v = mpmath.sqrt(2 * u)  # imaginary for u < 0; the paper's form of g2
            g2 = sin_sq * mpmath.sin(r * v) ** 2 / (2 * u) * (3 * mpmath.cos(2 * r * v) + 5) / 16
            want = {
                gem_two_mode_closed: sin_sq * sin_sq_over(2 * r) / 16,
                gem_three_mode_g1: sin_sq * sin_sq_over(3 * r) / 12,
                gem_three_mode_g2: mpmath.re(g2),
            }
            for closed, value in want.items():
                assert closed(PolarCoupling(r, phi)) == pytest.approx(float(value), rel=2e-15)

    def test_closed_forms_match_pipeline_grid(self, rng):
        # 200 draws across the analytic-continuation boundary.
        for _ in range(200):
            r = float(rng.uniform(0.0, 1.5))
            phi = float(rng.uniform(-np.pi, np.pi))
            c = PolarCoupling(r, phi)
            w = c.weight
            assert abs(gem_two_mode_closed(c) - _pipeline_two_mode(w)) < 1e-8
            assert abs(gem_three_mode_g1(c) - _pipeline_uniform(3, TRIANGLE, w)) < 1e-8
            assert abs(gem_three_mode_g2(c) - _pipeline_uniform(3, PATH3, w)) < 1e-8


CLOSED_FORMS = (gem_two_mode_closed, gem_three_mode_g1, gem_three_mode_g2)


def _scalar_call(closed, w):
    """The closed form on weight w's PolarCoupling, read off as the array path reads it."""
    return closed(PolarCoupling(float(np.hypot(w.real, w.imag)), float(np.arctan2(w.imag, w.real))))


class TestClosedFormArrays:
    """The closed forms on an array of complex weights: the scalar code at every entry."""

    @staticmethod
    def _weights(rng):
        # Both sides of the four rays cos 2 phi = 0, from 1e-12 to 1e-3 away
        # (the nearest inside the ray series' window), then random weights
        # on both sides and weights on the axes; shaped (3, 97).
        offsets = np.geomspace(1e-12, 1e-3, 10)
        rays = np.pi / 4 * np.array([1.0, -1.0, 3.0, -3.0])
        phi = (rays[:, None] + np.concatenate([offsets, -offsets, [0.0]])).ravel()
        near_rays = rng.uniform(0.0, 5.0, phi.size) * np.exp(1j * phi)
        scattered = rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-4.0, 4.0, 200)
        axes = np.array([0.0, 1.0, -1.0, 1j, -1j, 2.5, -0.5j])
        return np.concatenate([near_rays, scattered, axes]).reshape(3, 97)

    def test_array_equals_scalar_bit_for_bit(self, rng):
        w = self._weights(rng)
        r, phi = np.hypot(w.real, w.imag), np.arctan2(w.imag, w.real)
        u = np.cos(2.0 * phi)
        assert (u > 0).any() and (u < 0).any()
        for closed, s, u_closed in ((gem_two_mode_closed, 2.0 * r, u), (gem_three_mode_g1, 3.0 * r, u),
                                    (gem_three_mode_g2, r, 2.0 * u)):
            in_window = np.abs(u_closed) * np.maximum(s * s, 1.0) < 1e-6
            assert in_window.sum() >= 8 and (~in_window).sum() >= 200
            got = closed(w)
            assert got.shape == w.shape and got.dtype == np.float64
            want = np.array([_scalar_call(closed, x) for x in w.ravel()]).reshape(w.shape)
            assert all(type(_scalar_call(closed, x)) is float for x in w.ravel()[:3])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))  # sign bits included
            assert np.all(got[(w.imag == 0.0)] == 0.0)  # real couplings: exactly zero

    @pytest.mark.parametrize("closed", CLOSED_FORMS)
    def test_fault_inside_array_names_first_point(self, closed):
        faults = {
            "near-ray": 17700.0 * np.exp(1j * (np.pi / 4 + 5e-5)),  # finite sinh^2 over a small -u overflows
            "2r": 1.7e308 * np.exp(2.0j),  # the scaled modulus s itself overflows
            "phase": 1e17 * np.exp(0.3j),  # s sqrt(u) past 2^53 on the u > 0 side
        }
        messages = {}
        for name, w in faults.items():
            with pytest.raises(NumericOverflowError) as info:
                _scalar_call(closed, w)
            messages[name] = str(info.value)
        assert len(set(messages.values())) == 3
        assert "significant digit" in messages["phase"]
        for first, second in itertools.permutations(faults, 2):
            weights = np.array([[0.5 + 0.5j, faults[first]], [0.3j, faults[second]]])
            with pytest.raises(NumericOverflowError) as info:
                closed(weights)
            assert str(info.value) == messages[first]

    def test_g2_product_overflow_in_order_with_its_factor(self):
        # At 130i both factors of g2 are finite and their product is not; at
        # 300i the factor S itself overflows.  The first point decides.
        product, factor = 130j, 300j
        messages = {}
        for w in (product, factor):
            with pytest.raises(NumericOverflowError) as info:
                _scalar_call(gem_three_mode_g2, w)
            messages[w] = str(info.value)
        assert "at r = 130" in messages[product] and "sin^2" in messages[factor]
        for first, second in ((product, factor), (factor, product)):
            with pytest.raises(NumericOverflowError) as info:
                gem_three_mode_g2(np.array([0.3j, first, second]))
            assert str(info.value) == messages[first]

    @pytest.mark.parametrize("closed", CLOSED_FORMS)
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 1.0), complex(0.0, -np.inf),
                                     complex(1.5e308, 1.5e308)])  # the last: finite parts, modulus past range
    def test_non_finite_weight_or_modulus_raises_invalid(self, closed, bad):
        with pytest.raises(InvalidArgumentError, match="finite r and phi.* at index 1$"):
            closed(np.array([0.5j, bad, complex(np.nan, 0.0)]))


class TestEdgeRatios:
    def test_three_mode_limit(self):
        a = GraphSpec.with_uniform_weight(3, PATH3, 1.0)
        b = GraphSpec.with_uniform_weight(3, TRIANGLE, 1.0)
        assert gem_ratio_small_r(a, b, 1e-3) == pytest.approx(2.0 / 3.0, abs=1e-4)

    @pytest.mark.parametrize("r", [-1e-3, np.float32(1e-3), np.int64(1)])
    def test_any_finite_real_r_is_taken(self, r):
        # A negative r puts -i|r| on every edge; the limit is still the edge-count ratio.
        a = GraphSpec.with_uniform_weight(3, PATH3, 1.0)
        b = GraphSpec.with_uniform_weight(3, TRIANGLE, 1.0)
        want = gem_ratio_small_r(a, b, float(r))
        assert gem_ratio_small_r(a, b, r) == want
        if abs(r) < 0.1:
            assert want == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_mode_count_mismatch(self):
        a = GraphSpec.with_uniform_weight(3, PATH3, 1.0)
        b = GraphSpec.with_uniform_weight(4, ((1, 2),), 1.0)
        with pytest.raises(InvalidArgumentError):
            gem_ratio_small_r(a, b, 1e-3)

    def test_zero_denominator(self):
        a = GraphSpec.with_uniform_weight(3, PATH3, 1.0)
        b = GraphSpec(3)  # empty graph: measure is exactly zero
        with pytest.raises(DivisionByZeroError):
            gem_ratio_small_r(a, b, 1e-3)


class TestSecondFamily:
    def test_ratio_tends_to_one(self):
        # Unequal-strength family: path over triangle-with-unit-real-edge,
        # both with A12 = ix, A23 = iy.  The ratio approaches 1 from above as
        # x = y grows; 0.08 at x = y = 4 is the calibrated deviation (0.0756).
        deviations = []
        for x in (1.0, 2.0, 4.0, 8.0):
            g1 = gem_from_purity(
                graph_state_covariance(GraphSpec(3, ((1, 2, 1j * x), (2, 3, 1j * x), (1, 3, 1.0))))
            )
            g2 = gem_from_purity(
                graph_state_covariance(GraphSpec(3, ((1, 2, 1j * x), (2, 3, 1j * x))))
            )
            deviations.append(abs(g2 / g1 - 1.0))
        assert deviations[2] < 0.08  # x = y = 4
        assert all(a > b for a, b in zip(deviations, deviations[1:]))


class TestLogNegativity:
    def test_vacuum(self):
        assert log_negativity_two_mode(vacuum_state(2)) == 0.0

    @pytest.mark.parametrize("r", [0.3, 0.8])
    def test_squeezed_pair_scaling(self, r):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
        assert log_negativity_two_mode(gamma) == pytest.approx(2.0 * r, abs=1e-10)

    def test_vanishes_with_measure_on_real_axis(self):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 0.7),)))
        assert log_negativity_two_mode(gamma) == pytest.approx(0.0, abs=1e-9)
        assert gem_from_purity(gamma) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.2, 0.9])
    def test_both_positive_off_axis(self, r):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
        assert log_negativity_two_mode(gamma) > 0.0
        assert gem_from_purity(gamma) > 0.0

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidArgumentError):
            log_negativity_two_mode(vacuum_state(3))

    @pytest.mark.parametrize("r", [6, 8, 9, 12, 16, 20, 25, 50, 100])
    def test_strong_squeezing_reads_2r(self, r):
        # log_negativity_eigvals reads 15.9976 at r = 8, 32.25 at r = 12 and 0.0 from r = 25.
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
        assert log_negativity_two_mode(gamma) == pytest.approx(2.0 * r, rel=1e-12)

    @pytest.mark.parametrize("w", [1.0, -1.0, 0.5, -0.5, 0.7])
    def test_exactly_zero_on_real_axis(self, w):
        # A passive state's Gamma_12 comes out antisymmetric, so det Gamma_12 >= 0.
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, w),)))
        assert log_negativity_two_mode(gamma) == 0.0

    def test_overflowing_det_raises_typed_error(self):
        gamma = vacuum_state(2)
        gamma[0, 2] = gamma[2, 0] = gamma[1, 3] = gamma[3, 1] = 1e200
        state = _pure_by_construction(gamma)  # finite entries, vouched pure, unjudged
        with pytest.raises(NumericOverflowError, match="det Gamma_12"):
            log_negativity_two_mode(state)
        stack = _pure_by_construction(np.stack([vacuum_state(2), gamma]))
        with pytest.raises(NumericOverflowError, match=r"stack index \(1,\)"):
            log_negativity_two_mode(stack)

    def test_matches_partial_transpose_spectrum(self):
        rng = np.random.default_rng(16)
        r, phi = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 64)), rng.uniform(-math.pi, math.pi, 64)
        stack = graph_state_covariances(2, ((1, 2),), (r * np.exp(1j * phi))[:, None])
        got = log_negativity_two_mode(stack)
        for k, gamma in enumerate(stack.gamma):
            assert got[k] == pytest.approx(log_negativity_eigvals(gamma), abs=1e-9)


class TestTwoModeMetricClosed:
    @pytest.mark.parametrize(
        "r, phi", [(-0.7, 1.0), (math.nan, 1.0), (0.7, math.nan), (math.inf, 1.0), (0.7, -math.inf)]
    )
    def test_rejects_what_polar_coupling_rejects(self, r, phi):
        # A negative modulus once came back as the metric at |r|.
        with pytest.raises(InvalidArgumentError):
            two_mode_metric_closed(r, phi)

    def test_block_pattern(self, rng):
        # Row 3m + i is generator i of mode m: diag(A, -A, -A) on each mode, a
        # symmetric cross block with first row (B, 0, 0), B = 1/8 + A.
        points = zip(rng.uniform(0.0, 4.0, 200), rng.uniform(-np.pi, np.pi, 200))
        for r, phi in [*points, (0.0, 0.9), (0.9, 0.0), (1.0, np.pi / 4), (1.0, np.pi / 2)]:
            h = two_mode_metric_closed(r, phi).matrix
            a = -gem_two_mode_closed(PolarCoupling(r, phi))
            for m in (0, 1):
                assert np.array_equal(h[3 * m : 3 * m + 3, 3 * m : 3 * m + 3], np.diag([a, -a, -a]))
            cross = h[:3, 3:]
            assert np.array_equal(cross, cross.T) and np.array_equal(h[3:, :3], cross)
            assert np.array_equal(cross[0, 1:], [0.0, 0.0])
            assert cross[0, 0] == pytest.approx(0.125 + a, rel=1e-12, abs=1e-15)

    def test_zero_coupling_values(self):
        h = two_mode_metric_closed(0.0, 0.9)
        assert h.matrix[0, 0] == pytest.approx(0.0, abs=1e-15)  # A
        assert h.matrix[0, 3] == pytest.approx(0.125, abs=1e-15)  # B
        assert h.matrix[1, 4] == pytest.approx(0.125, abs=1e-15)  # C
        assert h.matrix[1, 5] == pytest.approx(0.0, abs=1e-15)  # D
        assert h.matrix[2, 5] == pytest.approx(0.0, abs=1e-15)  # E

    def test_matches_pipeline_entrywise(self):
        r, phi = 0.6, 1.1
        closed = two_mode_metric_closed(r, phi)
        direct = metric_h(graph_state_covariance(GraphSpec(2, ((1, 2, r * np.exp(1j * phi)),))))
        assert np.max(np.abs(closed.matrix - direct.matrix)) < 1e-9

    @pytest.mark.parametrize(
        "r,phi",
        [(0.4, 0.7), (1.0, np.pi / 2), (0.9, np.pi / 4),
         (0.9, 0.0), (0.9, np.pi), (0.9, -np.pi), (0.9, 1e-13)],
    )
    def test_contraction_equals_closed_measure(self, r, phi):
        # Both take sin^2 phi from the same helper, so they agree exactly,
        # including the zero on real couplings.
        closed = two_mode_metric_closed(r, phi)
        assert killing_contraction(closed) == gem_two_mode_closed(PolarCoupling(r, phi))


def _edge_parts():
    """Real or imaginary parts of edge weights: +-0.0, subnormals and magnitudes up to 1e300."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    )


@st.composite
def _topologies_and_weights(draw):
    """A topology on 2 to 6 modes and weights of shape (E,) or a stack (..., E) that ``_weights`` accepts."""
    num_modes = draw(st.integers(min_value=2, max_value=6))
    all_pairs = list(itertools.combinations(range(1, num_modes + 1), 2))
    pairs = tuple(draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=len(all_pairs), unique=True)))
    shape = draw(st.sampled_from([(), (3,), (2, 2)])) + (len(pairs),)
    parts = draw(st.lists(st.tuples(_edge_parts(), _edge_parts()), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    weights = np.array([complex(re, im) for re, im in parts]).reshape(shape)
    return num_modes, pairs, weights


class TestBuilderGenerator:
    """The builders exponentiate Omega h without ``symplectic_from_hamiltonian``'s symmetry check.

    That is sound because ``_generators`` builds h exactly symmetric and
    finite from any weights that ``_weights`` accepts, and the result must
    equal the public path S = symplectic_from_hamiltonian(h),
    (S S^T / 2 symmetrized) bit for bit.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=_topologies_and_weights())
    def test_generator_is_exactly_symmetric_and_finite(self, case):
        num_modes, pairs, weights = case
        h = gaussgem.graphs._generators(num_modes, pairs, gaussgem.graphs._weights(weights))
        assert h.shape == weights.shape[:-1] + (2 * num_modes, 2 * num_modes)
        assert np.array_equal(h, h.swapaxes(-1, -2))
        assert np.isfinite(h).all()

    @settings(max_examples=150, deadline=None)
    @given(case=_topologies_and_weights())
    def test_builder_generator_equals_dense_product(self, case):
        # The builders' Omega h must equal build_omega(N) @ h bit for bit, sign bits of zeros included.
        num_modes, pairs, weights = case
        h = gaussgem.graphs._generators(num_modes, pairs, gaussgem.graphs._weights(weights))
        self._assert_same_bits(gaussgem.core._omega_times(h), build_omega(num_modes) @ h)

    @staticmethod
    def _public_path(spec):
        S = symplectic_from_hamiltonian(hamiltonian_from_graph(spec))
        product = (0.5 * S) @ S.T
        return 0.5 * (product + product.T)

    @staticmethod
    def _assert_same_bits(got, want):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_one_state_equals_public_path(self, rng):
        specs = [GraphSpec(3), GraphSpec(2, ((1, 2, 0.7),)), GraphSpec(2, ((1, 2, -0.4 - 0.0j),))]
        specs += [random_graph_spec(rng, n) for n in (2, 3, 4, 5, 6) for _ in range(4)]
        for spec in specs:
            self._assert_same_bits(graph_state_covariance(spec).gamma, self._public_path(spec))

    def test_stack_slices_equal_public_path(self, rng):
        for num_modes in range(2, 7):
            pairs = random_graph_spec(rng, num_modes).pairs
            weights = rng.normal(0.0, 0.8, (5, len(pairs))) + 1j * rng.normal(0.0, 0.8, (5, len(pairs)))
            weights[0] = 0.0  # an edgeless state inside a stack: the exponential's diagonal fix-up
            weights[1] = rng.normal(0.0, 0.8, len(pairs))  # real weights only
            stack = graph_state_covariances(num_modes, pairs, weights).gamma
            for k, row in enumerate(weights):
                spec = GraphSpec(num_modes, tuple((i, j, w) for (i, j), w in zip(pairs, row)))
                self._assert_same_bits(stack[k], self._public_path(spec))

    @staticmethod
    def _scipy_path(spec):
        """Gamma from public scipy and numpy alone: S = expm(Omega h), then (0.5 S) S^T symmetrized.

        h is written block by block here and must equal ``hamiltonian_from_graph`` bit for bit.
        """
        h = np.zeros((2 * spec.num_modes, 2 * spec.num_modes))
        for i, j, w in spec.edges:
            a, b = 2 * (i - 1), 2 * (j - 1)
            h[a : a + 2, b : b + 2] = h[b : b + 2, a : a + 2] = [[w.real, -w.imag], [-w.imag, w.real]]
        TestBuilderGenerator._assert_same_bits(hamiltonian_from_graph(spec), h)
        S = scipy.linalg.expm(build_omega(spec.num_modes) @ h)
        product = (0.5 * S) @ S.T
        return 0.5 * (product + product.T)

    @staticmethod
    def _gem_by_mode_blocks(gamma):
        """(1/8) sum over modes of (det Gamma^(mode) - 1/4), each block's np.linalg.det added in mode order."""
        terms = [np.linalg.det(gamma[m : m + 2, m : m + 2]) - 0.25 for m in range(0, len(gamma), 2)]
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total / 8.0

    @staticmethod
    def _squarings(spec):
        """The scaling s that scipy's kernels pick for the generator Omega h of ``spec``."""
        scratch = np.zeros((5, 2 * spec.num_modes, 2 * spec.num_modes))
        scratch[0] = build_omega(spec.num_modes) @ hamiltonian_from_graph(spec)
        return gaussgem.core._pade_kernels().pick_pade_structure(scratch)[1]

    def test_one_state_equals_scipy_path(self, rng):
        # The reference shares no code with the library's matrix exponential.
        zeros = (0.0, -0.0)
        specs = [GraphSpec(3), GraphSpec(2, ((1, 2, 0.7),)), GraphSpec(3, ((1, 3, 1.0 + 0j),))]
        specs += [GraphSpec(3, ((1, 2, complex(re, 0.6)), (2, 3, complex(0.4, im)), (1, 3, complex(re, im))))
                  for re in zeros for im in zeros]
        strong = []
        for num_modes in (3, 4, 5):
            for _ in range(3):
                pairs = random_graph_spec(rng, num_modes).pairs
                weights = 3.0 * np.exp(2j * np.pi * rng.uniform(size=len(pairs))) * rng.uniform(1.0, 1.3, len(pairs))
                strong.append(GraphSpec(num_modes, tuple((i, j, w) for (i, j), w in zip(pairs, weights))))
        assert min(self._squarings(spec) for spec in strong) >= 1
        for spec in specs + strong:
            state = graph_state_covariance(spec)
            want = self._scipy_path(spec)
            self._assert_same_bits(state.gamma, want)
            gem, want_gem = gem_from_purity(state), self._gem_by_mode_blocks(want)
            assert gem == want_gem and math.copysign(1.0, gem) == math.copysign(1.0, want_gem)

    def test_stack_slices_equal_scipy_path(self, rng):
        for num_modes in (3, 4, 5):
            pairs = random_graph_spec(rng, num_modes).pairs
            weights = 3.0 * np.exp(2j * np.pi * rng.uniform(size=(4, len(pairs))))
            weights[0] = 0.0
            weights[1] = weights[1].real
            stack = graph_state_covariances(num_modes, pairs, weights)
            gems = gem_from_purity(stack)
            for k, row in enumerate(weights):
                spec = GraphSpec(num_modes, tuple((i, j, w) for (i, j), w in zip(pairs, row)))
                want = self._scipy_path(spec)
                self._assert_same_bits(stack.gamma[k], want)
                assert gems[k] == self._gem_by_mode_blocks(want)

    @pytest.mark.parametrize("weight", [2**70, 2**70 * 1j, -(2**70)])
    def test_weight_past_the_exponential_still_overflows(self, weight):
        with pytest.raises(NumericOverflowError, match="matrix exponential overflowed"):
            graph_state_covariance(GraphSpec(2, ((1, 2, weight),)))
        with pytest.raises(NumericOverflowError, match="matrix exponential overflowed"):
            graph_state_covariances(3, PATH3, np.array([[0.5j, 0.5j], [weight, 0.5j]]))
