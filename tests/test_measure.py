"""Tests for the metric construction and the measure itself."""

import tracemalloc

import numpy as np
import pytest

import gaussgem.measure
from gaussgem import (
    GraphSpec,
    MetricTensor,
    PureState,
    UnphysicalStateError,
    evolve_covariance,
    gem_from_metric,
    gem_from_purity,
    graph_state_covariance,
    graph_state_covariances,
    killing_contraction,
    killing_form_sp2,
    metric_from_moments,
    metric_g,
    metric_h,
    mode_purities,
    moments_from_covariance,
    vacuum_state,
)
from conftest import random_graph_spec, random_local_symplectic
from oracles import (
    destroy,
    fock_expectation,
    fock_metric_two_mode,
    moments_complex_wick,
    moments_hand_expanded,
    prepared_graph_state,
    reduced_covariance,
    single_mode_squeezed_state,
)
from gaussgem import hamiltonian_from_graph, two_mode_metric_closed
from gaussgem.measure import _assemble
from oracles import killing_contraction_of_matrix, metric_matrix_from_connected, two_mode_closed_metric_matrix


class TestKillingForm:
    def test_structure_constant_value(self):
        assert np.allclose(killing_form_sp2(), 2.0 * np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    def test_inverse(self):
        assert np.allclose(killing_form_sp2() @ gaussgem.measure._KILLING_INVERSE, np.eye(3), atol=1e-14)

    def test_inverse_is_the_reciprocal_diagonal(self):
        # The contraction reads only the diagonal of the inverse.
        inverse = gaussgem.measure._KILLING_INVERSE
        assert np.array_equal(np.diagonal(inverse), 1.0 / np.diagonal(killing_form_sp2()))
        assert np.count_nonzero(inverse - np.diag(np.diagonal(inverse))) == 0

    def test_lorentzian_signature(self):
        eigs = np.sort(np.linalg.eigvalsh(killing_form_sp2()))
        assert (eigs < 0).sum() == 2 and (eigs > 0).sum() == 1


class TestMoments:
    def test_vacuum_first_moments(self):
        table = moments_from_covariance(vacuum_state(2))
        assert np.allclose(table.first[:, 0], 0.0, atol=1e-15)
        assert np.allclose(table.first[:, 1], 0.0, atol=1e-15)
        assert np.allclose(table.first[:, 2], 0.25, atol=1e-15)

    def test_vacuum_t3_variance_vanishes(self):
        # The vacuum is a number-operator eigenstate, so T3 has zero variance:
        # M33 equals M3^2 = 1/16 exactly.
        table = moments_from_covariance(vacuum_state(1))
        assert table.second[0, 0, 2, 2] == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert table.second[0, 0, 2, 2] - table.first[0, 2] ** 2 == pytest.approx(0.0, abs=1e-15)

    def test_squeezed_first_moment_closed_form(self):
        r = 0.3
        gamma = np.diag([np.exp(2 * r) / 2.0, np.exp(-2 * r) / 2.0])
        table = moments_from_covariance(gamma)
        assert table.first[0, 0] == pytest.approx(np.sinh(2 * r) / 4.0, abs=1e-14)

    def test_squeezed_first_moment_matches_fock(self):
        r, cutoff = 0.3, 60
        psi = single_mode_squeezed_state(r, cutoff)
        a = destroy(cutoff)
        q = (a + a.T) / np.sqrt(2.0)
        p = (a - a.T) / (1j * np.sqrt(2.0))
        t1 = (q @ q - (p @ p).real) / 4.0
        gamma = np.diag([np.exp(2 * r) / 2.0, np.exp(-2 * r) / 2.0])
        table = moments_from_covariance(gamma)
        assert table.first[0, 0] == pytest.approx(
            np.real(fock_expectation(psi, t1)), abs=1e-10
        )

    def test_symmetrized_table_is_real_and_symmetric(self, rng):
        spec = random_graph_spec(rng, 3)
        table = moments_from_covariance(graph_state_covariance(spec))
        for i in range(3):
            for j in range(3):
                assert np.allclose(
                    table.second[:, :, i, j], table.second[:, :, j, i].T, atol=1e-13
                )

    def test_nonpure_rejected(self):
        with pytest.raises(UnphysicalStateError):
            moments_from_covariance(np.eye(4))


class TestStructureConstantsFromGenerators:
    def test_derived_table_equals_docstring_commutators(self):
        # [T1,T2] = -i T3, [T2,T3] = i T1, [T3,T1] = i T2, as the module docstring states.
        expected = np.zeros((3, 3, 3), dtype=complex)
        for (i, j, k), c in {(0, 1, 2): -1j, (1, 2, 0): 1j, (2, 0, 1): 1j}.items():
            expected[i, j, k], expected[j, i, k] = c, -c
        assert np.array_equal(gaussgem.measure._STRUCTURE, expected)


def _generic_state(rng, num_modes):
    """Random graph state (vacuum for one mode) under a random local symplectic."""
    gamma = vacuum_state(num_modes)
    if num_modes > 1:
        spec = random_graph_spec(rng, num_modes, max_weight=0.6, edge_prob=min(0.7, 4.0 / num_modes))
        gamma = graph_state_covariance(spec).gamma
    return evolve_covariance(gamma, random_local_symplectic(rng, num_modes))


class TestMomentsAgainstHandExpanded:
    """The Wick contraction of the generator matrices against the nine hand-expanded formulas."""

    @staticmethod
    def _check(table, gamma):
        first, second = moments_hand_expanded(gamma)
        assert np.max(np.abs(table.first - first)) <= 1e-15
        assert np.max(np.abs(table.second - second)) <= 1e-14 * np.max(np.abs(second))

    @pytest.mark.parametrize("num_modes", [1, 2, 3, 8, 40, 96])
    def test_random_states(self, num_modes, rng):
        gamma = _generic_state(rng, num_modes)
        self._check(moments_from_covariance(gamma), gamma)

    def test_stack(self, rng):
        weights = rng.normal(0.0, 0.5, (4, 5, 3)) + 1j * rng.normal(0.0, 0.5, (4, 5, 3))
        stack = graph_state_covariances(3, [(1, 2), (2, 3), (1, 3)], weights)
        self._check(moments_from_covariance(stack), stack.gamma)


class TestMomentsAgainstComplexWick(TestMomentsAgainstHandExpanded):
    """The real-arithmetic Wick sums against the complex contraction of C = Gamma + (i/2) Omega.

    Same states as the hand-expanded check; the two sums differ only in rounding order.
    """

    @staticmethod
    def _check(table, gamma):
        assert table.first.dtype == np.float64 and table.second.dtype == np.float64
        first, second = moments_complex_wick(gamma)
        assert np.max(np.abs(table.first - first)) <= 1e-15
        assert np.max(np.abs(table.second - second)) <= 1e-15 * np.max(np.abs(second))


class TestAssemblyMatchesModePairLoops:
    """The reshaped metric assembly against the mode-pair loops it replaced.

    The arithmetic is unchanged, so the matrices must be equal, not close.
    """

    def test_metric_from_moments(self, rng):
        moments = moments_from_covariance(graph_state_covariance(random_graph_spec(rng, 4)))
        connected = moments.connected
        M = np.zeros((12, 12))
        for i in range(3):
            for j in range(3):
                for m in range(4):
                    for n in range(4):
                        M[3 * m + i, 3 * n + j] = -connected[m, n, i, j]
        assert np.array_equal(metric_from_moments(moments).matrix, 0.5 * (M + M.T))

    def test_assemble(self, rng):
        families = {(i, j): rng.normal(size=(4, 4)) for i in range(3) for j in range(i, 3)}
        M = np.zeros((12, 12))
        for (i, j), F in families.items():
            F = 0.5 * (F + F.T) if i == j else F
            for m in range(4):
                for n in range(4):
                    M[3 * m + i, 3 * n + j] = M[3 * n + j, 3 * m + i] = F[m, n]
        assert np.array_equal(_assemble(4, families), M)


def _family_state(case):
    """A graph state, or a stack of them, for the family-route bit-identity tests."""
    kind, num_modes = case
    rng = np.random.default_rng(2400 + num_modes)
    if kind == "one" and num_modes == 96:  # the benchmark's sparse random N = 96 graph
        return graph_state_covariance(random_graph_spec(rng, 96, max_weight=0.5, edge_prob=4.0 / 95.0))
    if kind == "one":
        return graph_state_covariance(random_graph_spec(rng, num_modes))
    pairs = tuple((i, j) for i in range(1, num_modes + 1) for j in range(i + 1, num_modes + 1))
    weights = 0.6 * (rng.normal(size=(3, 2, len(pairs))) + 1j * rng.normal(size=(3, 2, len(pairs))))
    return graph_state_covariances(num_modes, pairs, weights)


FAMILY_CASES = [("one", n) for n in (*range(2, 13), 96)] + [("stack", 2), ("stack", 3)]
METRIC_ROUTES = {
    "metric_g": metric_g,
    "metric_h": metric_h,
    "metric_from_moments": lambda state: metric_from_moments(moments_from_covariance(state)),
}
CLOSED_POINTS = [(0.0, 0.9), (0.7, 0.3), (1.3, 1.1), (2.0, np.pi / 2), (0.4, -0.8)]


def _same(got, want):
    """Equal values of the same type: float == float, or equal arrays."""
    return type(got) is type(want) and np.array_equal(got, want)


class TestFamiliesMatchTheDenseMatrix:
    """A tensor kept as families reads the values the assembled 3N x 3N matrix gave, bit for bit."""

    @pytest.mark.parametrize("case", FAMILY_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
    @pytest.mark.parametrize("route", sorted(METRIC_ROUTES))
    def test_contraction(self, route, case):
        metric = METRIC_ROUTES[route](_family_state(case))
        assert _same(killing_contraction(metric), killing_contraction_of_matrix(metric.matrix))

    @pytest.mark.parametrize("case", FAMILY_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
    def test_gem_from_metric(self, case):
        state = _family_state(case)
        num_modes = state.gamma.shape[-1] // 2
        assert _same(gem_from_metric(state), killing_contraction(metric_g(state)) - num_modes / 8.0)

    @pytest.mark.parametrize("case", FAMILY_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
    def test_moments_matrix(self, case):
        moments = moments_from_covariance(_family_state(case))
        assert np.array_equal(metric_from_moments(moments).matrix, metric_matrix_from_connected(moments.connected))

    @pytest.mark.parametrize("case", FAMILY_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
    @pytest.mark.parametrize("route", sorted(METRIC_ROUTES))
    def test_matrix_lays_out_the_families(self, route, case):
        metric = METRIC_ROUTES[route](_family_state(case))
        matrix = metric.matrix
        assert matrix is not metric.matrix and np.array_equal(matrix, metric.matrix)  # a new array per read
        assert np.array_equal(matrix, matrix.swapaxes(-1, -2))
        for (i, j), F in metric.families.items():
            assert np.array_equal(matrix[..., i::3, j::3], F if i != j else 0.5 * (F + F.swapaxes(-1, -2)))

    @pytest.mark.parametrize("r, phi", CLOSED_POINTS)
    def test_two_mode_closed(self, r, phi):
        metric = two_mode_metric_closed(r, phi)
        F = metric.families
        scalars = F[0, 0][0, 0], F[0, 0][0, 1], F[1, 1][0, 1], F[1, 2][0, 1], F[2, 2][0, 1]  # A..E
        assert np.array_equal(metric.matrix, two_mode_closed_metric_matrix(*scalars))
        assert _same(killing_contraction(metric), killing_contraction_of_matrix(metric.matrix))


class TestContractionNeverAssembles:
    """The contraction routes read family diagonals; only ``.matrix`` assembles the tensor."""

    @pytest.mark.parametrize("kind", ["one", "stack"])
    def test_routes(self, kind, monkeypatch):
        def refuse(*args):
            raise AssertionError("assembled the dense metric")

        monkeypatch.setattr(gaussgem.measure, "_assemble", refuse)
        state = _family_state((kind, 3))
        gem_from_metric(state)
        killing_contraction(metric_g(state))
        killing_contraction(metric_h(state))
        killing_contraction(metric_from_moments(moments_from_covariance(state)))
        killing_contraction(two_mode_metric_closed(0.7, 0.3))
        moments = moments_from_covariance(state)
        for metric in (metric_g(state), metric_h(state), metric_from_moments(moments), two_mode_metric_closed(0.7, 0.3)):
            with pytest.raises(AssertionError, match="assembled"):
                metric.matrix


CONTRACTIONS = {
    "metric_g": lambda state: killing_contraction(metric_g(state)),
    "metric_h": lambda state: killing_contraction(metric_h(state)),
    "metric_from_moments": lambda state: killing_contraction(metric_from_moments(moments_from_covariance(state))),
    "gem_from_metric": gem_from_metric,
}


class TestContractionAllocatesLinearly:
    """On a state, building a tensor and contracting it allocates less than one N x N float64 array.

    numpy reports its buffers to ``tracemalloc``.  At N = 96 a quadrature
    block, a family or ``np.eye(N)`` is 73,728 B, and a copy of Gamma four
    times that, so the peak shows that only (..., N) diagonals are formed.
    """

    @pytest.mark.parametrize("route", sorted(CONTRACTIONS))
    def test_peak_below_one_block(self, route):
        state = _family_state(("one", 96))
        CONTRACTIONS[route](state)  # first-call allocations are not the route's
        tracemalloc.start()
        try:
            CONTRACTIONS[route](state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96 * 96 * 8


class TestTensorsAreSnapshots:
    """A tensor or table keeps the state it was built from; neither the input nor a read result reaches it."""

    @staticmethod
    def _reads(metric, moments):
        return metric.families, moments.connected, moments.first, killing_contraction(metric)

    @staticmethod
    def _same_reads(got, want):
        (families, *arrays, value), (want_families, *want_arrays, want_value) = got, want
        assert families.keys() == want_families.keys()
        assert all(np.array_equal(families[key], want_families[key]) for key in families)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, want_arrays, strict=True))
        assert _same(value, want_value)

    @pytest.mark.parametrize("route", sorted(METRIC_ROUTES))
    @pytest.mark.parametrize("kind", ["one", "stack"])
    def test_mutated_input(self, route, kind):
        gamma = np.array(_family_state((kind, 3)).gamma)  # a writable array
        metric, moments = METRIC_ROUTES[route](gamma), moments_from_covariance(gamma)
        before = self._reads(metric, moments)
        gamma[...] = vacuum_state(3)
        self._same_reads(self._reads(metric, moments), before)
        assert not np.array_equal(killing_contraction(metric_g(gamma)), before[-1])  # the array did change

    @pytest.mark.parametrize("route", sorted(METRIC_ROUTES))
    def test_reads_are_new_arrays(self, route):
        state = _family_state(("one", 3))
        metric, moments = METRIC_ROUTES[route](state), moments_from_covariance(state)
        before = self._reads(metric, moments)
        families, connected, first, _ = self._reads(metric, moments)
        for F in [*families.values(), connected, first]:
            F[...] = np.nan
        self._same_reads(self._reads(metric, moments), before)

    def test_explicit_families(self):
        families = {key: np.array(F) for key, F in metric_h(_family_state(("one", 3))).families.items()}
        metric = MetricTensor(families)
        before = metric.families, killing_contraction(metric)
        for F in families.values():
            F[...] = np.nan
        assert all(np.array_equal(metric.families[key], F) for key, F in before[0].items())
        assert _same(killing_contraction(metric), before[1])


class TestFamiliesAreTheComponents:
    """``families[(i, j)]`` is the tensor's component block ``matrix[..., i::3, j::3]``, bit for bit."""

    @pytest.mark.parametrize("case", FAMILY_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
    @pytest.mark.parametrize("route", sorted(METRIC_ROUTES))
    def test_routes(self, route, case):
        metric = METRIC_ROUTES[route](_family_state(case))
        matrix = metric.matrix
        for (i, j), F in metric.families.items():
            assert np.array_equal(F, matrix[..., i::3, j::3]), (i, j)

    @pytest.mark.parametrize("r, phi", CLOSED_POINTS)
    def test_two_mode_closed(self, r, phi):
        metric = two_mode_metric_closed(r, phi)
        for (i, j), F in metric.families.items():
            assert np.array_equal(F, metric.matrix[i::3, j::3]), (i, j)

    def test_shifted_metric_on_a_path(self):
        # metric_h's mode-m shift terms depend on m alone; written out, F^{11} was 0.09 off its component.
        metric = metric_h(graph_state_covariance(GraphSpec(3, ((1, 2, 0.4 + 0.3j), (2, 3, -0.2 + 0.5j)))))
        for i in range(3):
            F = metric.families[i, i]
            assert np.array_equal(F, metric.matrix[i::3, i::3]) and np.array_equal(F, F.T)


class TestContractionReadsTheKillingDiagonal:
    """kappa^{-1} is diagonal, so the contraction reads F^{00}, F^{11} and F^{22} alone."""

    @staticmethod
    def _check(metric):
        families = {(i, j): F if i == j else np.full_like(F, np.nan) for (i, j), F in metric.families.items()}
        assert _same(killing_contraction(MetricTensor(families)), killing_contraction(metric))

    @pytest.mark.parametrize("case", [("one", 2), ("one", 7), ("stack", 3)], ids=lambda case: f"{case[0]}-{case[1]}")
    @pytest.mark.parametrize("route", sorted(METRIC_ROUTES))
    def test_off_diagonal_families_never_read(self, route, case):
        self._check(METRIC_ROUTES[route](_family_state(case)))

    def test_off_diagonal_families_never_read_closed(self):
        self._check(two_mode_metric_closed(0.7, 0.3))


class TestPurityGateOnce:
    @pytest.mark.parametrize(
        "route",
        [gem_from_metric, gem_from_purity, metric_g, metric_h, moments_from_covariance, mode_purities],
    )
    def test_each_public_call_gates_once(self, route, rng, monkeypatch):
        calls = []
        gate = gaussgem.measure.require_pure

        def counted(gamma):
            calls.append(1)
            return gate(gamma)

        monkeypatch.setattr(gaussgem.measure, "require_pure", counted)
        route(graph_state_covariance(random_graph_spec(rng, 3)).gamma)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "route",
        [gem_from_metric, gem_from_purity, metric_g, metric_h, moments_from_covariance, mode_purities],
    )
    def test_each_stacked_call_gates_once(self, route, monkeypatch):
        calls = []
        gate = gaussgem.measure.require_pure

        def counted(gamma):
            calls.append(np.shape(gamma))
            return gate(gamma)

        monkeypatch.setattr(gaussgem.measure, "require_pure", counted)
        weights = 1j * np.linspace(0.1, 1.2, 12).reshape(3, 4, 1)
        route(graph_state_covariances(2, ((1, 2),), weights).gamma)
        assert calls == [(3, 4, 4, 4)]


class TestModePurities:
    """The stacked per-mode dets against the per-mode loops they replaced."""

    def test_gem_from_purity_sums_in_mode_order(self, rng):
        for num_modes in (2, 3, 5, 8):
            gamma = graph_state_covariance(random_graph_spec(rng, num_modes)).gamma
            total = 0.0
            for mode in range(1, num_modes + 1):
                total = total + (np.linalg.det(reduced_covariance(gamma, mode)) - 0.25)
            assert gem_from_purity(gamma) == total / 8.0

    def test_matches_per_mode_formula(self, rng):
        for num_modes in (2, 3, 5, 8):
            gamma = graph_state_covariance(random_graph_spec(rng, num_modes)).gamma
            want = [
                min(1.0, 0.5 / np.sqrt(max(np.linalg.det(reduced_covariance(gamma, mode)), 0.25)))
                for mode in range(1, num_modes + 1)
            ]
            got = mode_purities(gamma)
            assert np.array_equal(got, want)
            assert all(type(p) is float for p in got)

    def test_vacuum_clamped_to_one(self):
        assert mode_purities(vacuum_state(3)) == [1.0, 1.0, 1.0]

    def test_nonpure_rejected(self):
        with pytest.raises(UnphysicalStateError):
            mode_purities(np.eye(4))

    def test_reduced_det_below_the_bound_rejected(self):
        # Gamma = BS diag(-1, -1, 1, 1) BS^T / 2, BS a 50:50 beamsplitter, is not
        # positive definite, yet its purity residual is 1.1e-16.  Each mode block
        # is (-I + I) / 4, det ~1e-34, so the uncertainty check in mode_purities
        # must reject it, on an array and on a PureState, alone and in a stack.
        c = np.sqrt(0.5)
        beamsplitter = np.block([[c * np.eye(2), c * np.eye(2)], [-c * np.eye(2), c * np.eye(2)]])
        gamma = 0.5 * beamsplitter @ np.diag([-1.0, -1.0, 1.0, 1.0]) @ beamsplitter.T
        for data in (gamma, np.stack([vacuum_state(2), gamma])):
            with pytest.raises(UnphysicalStateError, match="below the uncertainty bound"):
                mode_purities(data)
            with pytest.raises(UnphysicalStateError):
                mode_purities(PureState(data))


class TestMetricG:
    def test_vacuum_single_mode_components(self):
        g = metric_g(vacuum_state(1))
        assert g.matrix[0, 0] == pytest.approx(-0.125, abs=1e-15)
        assert g.matrix[1, 1] == pytest.approx(-0.125, abs=1e-15)
        assert g.matrix[2, 2] == pytest.approx(0.0, abs=1e-15)

    def test_tensor_symmetry(self, rng):
        for _ in range(5):
            gamma = graph_state_covariance(random_graph_spec(rng, 2))
            g = metric_g(gamma)
            assert np.allclose(g.matrix, g.matrix.T, atol=1e-14)

    def test_closed_forms_match_moment_assembly(self, rng):
        for _ in range(10):
            gamma = graph_state_covariance(random_graph_spec(rng, 2))
            direct = metric_g(gamma)
            assembled = metric_from_moments(moments_from_covariance(gamma))
            assert np.max(np.abs(direct.matrix - assembled.matrix)) < 1e-10

    def test_diagonal_equals_minus_generator_variance(self, rng):
        # g[(m,i),(m,i)] = -(M_ii - M_i^2): the diagonal is a variance.
        gamma = graph_state_covariance(random_graph_spec(rng, 3))
        g = metric_g(gamma)
        table = moments_from_covariance(gamma)
        for m in range(3):
            for i in range(3):
                variance = table.second[m, m, i, i] - table.first[m, i] ** 2
                assert g.matrix[3 * m + i, 3 * m + i] == pytest.approx(-variance, abs=1e-12)

    def test_nonpure_rejected(self):
        with pytest.raises(UnphysicalStateError):
            metric_g(np.eye(4))

    @pytest.mark.parametrize("w", [0.35j, 0.2 + 0.3j])
    def test_matches_fock_generator_moments(self, w):
        # Full tensor against a from-scratch Fock-space computation of the
        # generator moments: no covariance machinery on the oracle side.
        cutoff = 36
        spec = GraphSpec(2, ((1, 2, w),))
        psi = prepared_graph_state(hamiltonian_from_graph(spec), cutoff)
        want = fock_metric_two_mode(psi, cutoff)
        got = metric_g(graph_state_covariance(spec))
        assert np.max(np.abs(got.matrix - want)) < 1e-6


class TestMetricH:
    def test_vacuum_diagonal_blocks_vanish(self):
        h = metric_h(vacuum_state(2))
        for a in (0, 3):
            assert np.allclose(h.matrix[a : a + 3, a : a + 3], 0.0, atol=1e-15)

    def test_vacuum_cross_block_value(self):
        h = metric_h(vacuum_state(2))
        assert h.matrix[0, 3] == pytest.approx(0.125, abs=1e-15)

    def test_contraction_equals_purity_route(self):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 0.4j),)))
        assert killing_contraction(metric_h(gamma)) == pytest.approx(
            gem_from_purity(gamma), abs=1e-10
        )

    def test_contraction_equals_purity_route_random(self, rng):
        for _ in range(10):
            gamma = graph_state_covariance(random_graph_spec(rng, 3))
            assert killing_contraction(metric_h(gamma)) == pytest.approx(
                gem_from_purity(gamma), abs=1e-10
            )


class TestMeasure:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_vacuum_baseline(self, n):
        gamma = vacuum_state(n)
        assert killing_contraction(metric_g(gamma)) == pytest.approx(n / 8.0, abs=1e-13)
        assert gem_from_metric(gamma) == pytest.approx(0.0, abs=1e-13)
        assert gem_from_purity(gamma) == pytest.approx(0.0, abs=1e-15)

    def test_squeezed_pair_value(self):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j),)))
        want = np.sinh(2.0) ** 2 / 16.0
        assert gem_from_metric(gamma) == pytest.approx(want, abs=1e-9)
        assert gem_from_purity(gamma) == pytest.approx(want, abs=1e-9)

    def test_route_equivalence_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            gamma = graph_state_covariance(random_graph_spec(rng, n))
            assert gem_from_metric(gamma) == pytest.approx(gem_from_purity(gamma), abs=1e-9)

    def test_local_symplectic_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            gamma = graph_state_covariance(random_graph_spec(rng, n))
            S = random_local_symplectic(rng, n)
            moved = evolve_covariance(gamma.gamma, S)
            assert abs(gem_from_purity(moved) - gem_from_purity(gamma)) < 1e-8

    def test_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            gamma = graph_state_covariance(random_graph_spec(rng, n))
            assert gem_from_purity(gamma) >= -1e-12

    def test_zero_iff_separable(self, rng):
        # Product states (local operations on vacuum) sit at zero...
        for _ in range(10):
            n = int(rng.integers(2, 5))
            S = random_local_symplectic(rng, n)
            gamma = evolve_covariance(vacuum_state(n), S)
            assert gem_from_purity(gamma) < 1e-10
            for mode in range(1, n + 1):
                det = np.linalg.det(reduced_covariance(gamma, mode))
                assert det == pytest.approx(0.25, abs=1e-10)
        # ...and zero measure forces every reduced determinant to the bound.
        for _ in range(20):
            n = int(rng.integers(2, 5))
            gamma = graph_state_covariance(random_graph_spec(rng, n)).gamma
            if gem_from_purity(gamma) < 1e-10:
                for mode in range(1, n + 1):
                    det = np.linalg.det(reduced_covariance(gamma, mode))
                    assert det == pytest.approx(0.25, abs=1e-8)
