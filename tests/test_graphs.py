"""Tests for graph-state construction, closed forms, and baselines."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussgem
from gaussgem import (
    DivisionByZeroError,
    GraphSpec,
    InvalidArgumentError,
    NumericOverflowError,
    PolarCoupling,
    check_pure,
    compact_gem_two_mode,
    evolve_covariance,
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
    symplectic_from_hamiltonian,
    two_mode_metric_closed,
    vacuum_state,
)
from conftest import random_graph_spec
from oracles import fock_covariance, prepared_graph_state, quadrature_ops_two_mode

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
        assert np.allclose(graph_state_covariance(GraphSpec(3)), vacuum_state(3))

    def test_squeezer_variance(self):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 0.5j),)))
        assert gamma[0, 0] == pytest.approx(np.cosh(1.0) / 2.0, abs=1e-12)

    def test_states_are_pure(self, rng):
        for _ in range(10):
            gamma = graph_state_covariance(random_graph_spec(rng, 4))
            ok, residual = check_pure(gamma)
            assert ok and residual < 1e-9

    def test_vacuum_evolved_in_one_product(self, rng):
        # S S^T / 2 equals evolve_covariance(vacuum_state(N), S) bit for bit,
        # sign bits of zeros included, on single graphs and on a scan2 stack.
        specs = [GraphSpec(3), GraphSpec(2, ((1, 2, 0.4 - 0.0j),))]
        specs += [random_graph_spec(rng, n) for n in (2, 3, 8)]
        specs += [random_graph_spec(rng, 96, edge_prob=0.04) for _ in range(2)]
        for spec in specs:
            S = symplectic_from_hamiltonian(hamiltonian_from_graph(spec))
            got, want = graph_state_covariance(spec), evolve_covariance(vacuum_state(spec.num_modes), S)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        axis = np.linspace(-3.0, 3.0, 61)
        weights = (axis[:, None] + 1j * axis)[..., None]
        S = symplectic_from_hamiltonian(gaussgem.graphs._generators(2, ((1, 2),), weights))
        got, want = graph_state_covariances(2, ((1, 2),), weights), evolve_covariance(vacuum_state(2), S)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_overflowing_weight_raises_without_warning(self):
        # pytest turns a leaked RuntimeWarning into a failure.
        with pytest.raises(NumericOverflowError, match="S Gamma S"):
            graph_state_covariance(GraphSpec(2, ((1, 2, 400j),)))

    def test_matches_fock_preparation(self, rng):
        # Full covariance agreement with the truncated-Fock preparation
        # exp(-iH)|00> for a generic two-mode weight.
        spec = GraphSpec(2, ((1, 2, 0.3 + 0.4j),))
        cutoff = 40
        psi = prepared_graph_state(hamiltonian_from_graph(spec), cutoff)
        fock_gamma = fock_covariance(psi, quadrature_ops_two_mode(cutoff))
        assert np.allclose(graph_state_covariance(spec), fock_gamma, atol=1e-7)


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


class TestEdgeRatios:
    def test_three_mode_limit(self):
        a = GraphSpec.with_uniform_weight(3, PATH3, 1.0)
        b = GraphSpec.with_uniform_weight(3, TRIANGLE, 1.0)
        assert gem_ratio_small_r(a, b, 1e-3) == pytest.approx(2.0 / 3.0, abs=1e-4)

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


class TestTwoModeMetricClosed:
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
