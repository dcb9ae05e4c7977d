"""Stacked (..., 2N, 2N) calls against the same functions called one state at a time.

The stacked engine promises more than closeness: every slice of a stacked
result must equal the single-state call bit for bit, because the CLI scans
and their --self-test run on stacks while library callers run single states.
"""

import subprocess
import sys

import numpy as np
import pytest

from gaussgem import (
    GraphSpec,
    InvalidArgumentError,
    UnphysicalStateError,
    MetricTensor,
    MomentTable,
    build_omega,
    check_pure,
    evolve_covariance,
    gem_from_metric,
    gem_from_purity,
    graph_state_covariance,
    graph_state_covariances,
    hamiltonian_from_graph,
    killing_contraction,
    log_negativity_two_mode,
    matrix_exponential,
    metric_from_moments,
    metric_g,
    metric_h,
    mode_purities,
    moments_from_covariance,
    require_pure,
    symplectic_from_hamiltonian,
    vacuum_state,
)
from conftest import child_env

TRIANGLE = ((1, 2), (2, 3), (1, 3))
PATH3 = ((1, 2), (2, 3))


def _two_mode_grid():
    """Weights on a 9 x 9 grid in [-1.5, 1.5]^2: cos 2 phi takes both signs and 0."""
    axis = np.linspace(-1.5, 1.5, 9)
    return np.array([[complex(re, im) for im in axis] for re in axis])[..., None]


def _xy_grid(pairs):
    """Triangle or path weights (i x, i y[, 1]) on a 7 x 7 grid in [0, 4]^2."""
    axis = np.linspace(0.0, 4.0, 7)
    rows = [[(1j * x, 1j * y, 1.0 + 0j)[: len(pairs)] for y in axis] for x in axis]
    return np.array(rows)


def _single(num_modes, pairs, weights):
    edges = tuple((i, j, complex(w)) for (i, j), w in zip(pairs, weights))
    return graph_state_covariance(GraphSpec(num_modes, edges))


def _cases():
    yield 2, ((1, 2),), _two_mode_grid()
    yield 3, TRIANGLE, _xy_grid(TRIANGLE)
    yield 3, PATH3, _xy_grid(PATH3)


class TestStackEqualsSlices:
    @pytest.mark.parametrize("num_modes,pairs,weights", list(_cases()))
    def test_graph_state_covariances(self, num_modes, pairs, weights):
        stack = graph_state_covariances(num_modes, pairs, weights)
        assert stack.shape == weights.shape[:-1] + (2 * num_modes, 2 * num_modes)
        for index in np.ndindex(weights.shape[:-1]):
            assert np.array_equal(stack[index], _single(num_modes, pairs, weights[index]))

    @pytest.mark.parametrize("num_modes,pairs,weights", list(_cases()))
    def test_gem_from_purity(self, num_modes, pairs, weights):
        stack = graph_state_covariances(num_modes, pairs, weights)
        gems = gem_from_purity(stack)
        assert isinstance(gems, np.ndarray) and gems.shape == weights.shape[:-1]
        for index in np.ndindex(gems.shape):
            single = gem_from_purity(stack[index])
            assert type(single) is float
            assert gems[index] == single

    def test_log_negativity_two_mode(self):
        stack = graph_state_covariances(2, ((1, 2),), _two_mode_grid())
        lognegs = log_negativity_two_mode(stack)
        assert isinstance(lognegs, np.ndarray) and lognegs.shape == stack.shape[:-2]
        for index in np.ndindex(lognegs.shape):
            single = log_negativity_two_mode(stack[index])
            assert type(single) is float
            assert lognegs[index] == single

    def test_check_pure(self):
        stack = graph_state_covariances(3, TRIANGLE, _xy_grid(TRIANGLE))
        ok, residual = check_pure(stack)
        assert ok.shape == residual.shape == stack.shape[:-2]
        for index in np.ndindex(residual.shape):
            single_ok, single_residual = check_pure(stack[index])
            assert type(single_ok) is bool and type(single_residual) is float
            assert (ok[index], residual[index]) == (single_ok, single_residual)

    def test_matrix_exponential_and_evolution(self, rng):
        h = rng.uniform(-1.0, 1.0, (5, 4, 6, 6))
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
        S = symplectic_from_hamiltonian(h)
        gammas = evolve_covariance(vacuum_state(3), S)
        for index in np.ndindex(h.shape[:-2]):
            single_S = symplectic_from_hamiltonian(h[index])
            assert np.array_equal(S[index], single_S)
            assert np.array_equal(matrix_exponential(build_omega(3) @ h[index]), single_S)
            assert np.array_equal(gammas[index], evolve_covariance(vacuum_state(3), single_S))


class TestMetricRouteStacks:
    """The metric and moments routes on stacks against their one-state calls."""

    @pytest.mark.parametrize("num_modes,pairs,weights", list(_cases()))
    def test_tensors(self, num_modes, pairs, weights):
        stack = graph_state_covariances(num_modes, pairs, weights)
        lead = weights.shape[:-1]
        moments = moments_from_covariance(stack)
        tensors = [metric_g(stack), metric_h(stack), metric_from_moments(moments)]
        assert moments.first.shape == lead + (num_modes, 3)
        assert moments.second.shape == lead + (num_modes, num_modes, 3, 3)
        for metric in tensors:
            assert metric.matrix.shape == lead + (3 * num_modes, 3 * num_modes)
            assert metric.num_modes == num_modes
        for index in np.ndindex(lead):
            one = moments_from_covariance(stack[index])
            assert isinstance(one, MomentTable) and one.first.shape == (num_modes, 3)
            assert np.array_equal(moments.first[index], one.first)
            assert np.array_equal(moments.connected[index], one.connected)
            assert np.array_equal(moments.second[index], one.second)
            singles = [metric_g(stack[index]), metric_h(stack[index]), metric_from_moments(one)]
            for metric, single in zip(tensors, singles):
                assert isinstance(single, MetricTensor) and single.matrix.ndim == 2
                assert np.array_equal(metric.matrix[index], single.matrix)
                assert metric.matrix[..., 2, 3 * num_modes - 2][index] == single.matrix[2, 3 * num_modes - 2]

    @pytest.mark.parametrize("num_modes,pairs,weights", list(_cases()))
    def test_contractions(self, num_modes, pairs, weights):
        stack = graph_state_covariances(num_modes, pairs, weights)
        routes = [
            gem_from_metric,
            lambda gamma: killing_contraction(metric_g(gamma)),
            lambda gamma: killing_contraction(metric_h(gamma)),
            lambda gamma: killing_contraction(metric_from_moments(moments_from_covariance(gamma))),
        ]
        for route in routes:
            values = route(stack)
            assert isinstance(values, np.ndarray) and values.shape == weights.shape[:-1]
            for index in np.ndindex(values.shape):
                single = route(stack[index])
                assert type(single) is float
                assert values[index] == single

    @pytest.mark.parametrize("num_modes,pairs,weights", list(_cases()))
    def test_mode_purities(self, num_modes, pairs, weights):
        stack = graph_state_covariances(num_modes, pairs, weights)
        purities = mode_purities(stack)
        assert isinstance(purities, np.ndarray) and purities.shape == weights.shape[:-1] + (num_modes,)
        for index in np.ndindex(weights.shape[:-1]):
            single = mode_purities(stack[index])
            assert type(single) is list and all(type(p) is float for p in single)
            assert np.array_equal(purities[index], single)


class TestPurityGate:
    def test_column_swap_equals_dense_product(self, rng):
        # Gamma Omega^-1 is formed by moving columns; it must equal the
        # dense product the gate was defined with, so the residual is unchanged.
        for num_modes in (1, 2, 3, 5):
            h = rng.uniform(-1.0, 1.0, (2 * num_modes, 2 * num_modes))
            S = symplectic_from_hamiltonian(0.5 * (h + h.T))
            for gamma in (0.5 * S @ S.T, 0.55 * S @ S.T):
                J = gamma @ (-build_omega(num_modes))
                dense = float(np.max(np.abs(J @ J + 0.25 * np.eye(2 * num_modes))))
                assert check_pure(gamma)[1] == dense

    def test_mixed_slice_named(self):
        # Squeezed thermal state S (nu I/2) S^T, nu = 1.1, at small squeezing.
        weights = 1j * np.linspace(0.05, 0.3, 12).reshape(3, 4, 1)
        stack = graph_state_covariances(2, ((1, 2),), weights)
        S = symplectic_from_hamiltonian(hamiltonian_from_graph(GraphSpec(2, ((1, 2, 0.1j),))))
        thermal = evolve_covariance(1.1 * vacuum_state(2), S)
        with pytest.raises(UnphysicalStateError):
            require_pure(thermal)
        stack[1, 2] = thermal
        for call in (require_pure, gem_from_purity, log_negativity_two_mode):
            with pytest.raises(UnphysicalStateError, match=r"stack index \(1, 2\)"):
                call(stack)

    def test_first_failing_slice_named(self):
        stack = np.stack([vacuum_state(1), np.eye(2), vacuum_state(1), 2.0 * np.eye(2)])
        with pytest.raises(UnphysicalStateError, match=r"stack index \(1,\)"):
            require_pure(stack)


class TestStackValidation:
    def test_weights_shape_must_match_edges(self):
        with pytest.raises(InvalidArgumentError):
            graph_state_covariances(3, TRIANGLE, np.zeros((4, 2), dtype=complex))

    def test_nonfinite_weight_rejected(self):
        weights = np.full((3, 1), 0.5j)
        weights[2, 0] = complex(np.nan, 0.0)
        with pytest.raises(InvalidArgumentError):
            graph_state_covariances(2, ((1, 2),), weights)

    @pytest.mark.parametrize("pairs", [((1, 1),), ((2, 1),), ((1, 2), (1, 2)), ((1, 4),), ((1, 2, 3),), ((True, 2),)])
    def test_topology_checked_like_graph_spec(self, pairs):
        with pytest.raises(InvalidArgumentError):
            graph_state_covariances(3, pairs, np.zeros((2, len(pairs)), dtype=complex))

    def test_asymmetric_slice_rejected(self):
        h = np.zeros((3, 4, 4))
        h[2, 0, 1] = 1.0
        with pytest.raises(InvalidArgumentError):
            symplectic_from_hamiltonian(h)

    def test_nonfinite_slice_rejected(self):
        M = np.zeros((3, 2, 2))
        M[1, 0, 0] = np.inf
        with pytest.raises(InvalidArgumentError):
            matrix_exponential(M)

    def test_unbroadcastable_stacks_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evolve_covariance(np.zeros((3, 4, 4)), np.zeros((2, 4, 4)))


# Commands that exponentiate: a graph state, an edgeless one (zero generator),
# a scan2 grid through w = 0 and an xy scan with its self-test.
EXPONENTIATING_RUNS = (
    "main(['gem', spec]); main(['gem', edgeless]); "
    "main(['scan2', '--re-range=-1:1', '--im-range=-1:1', '--steps', '3']); "
    "main(['scan3', '--family', 'xy', '--re-range=-1:1', '--im-range=-1:1', '--steps', '3', '--self-test']); "
)


def _assert_child_exits_0(tmp_path, code):
    """Run ``code`` in a fresh interpreter, with ``spec`` and ``edgeless`` graph files bound."""
    spec, edgeless = tmp_path / "spec.json", tmp_path / "edgeless.json"
    spec.write_text('{"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0.3, "im": 0.5}]}', encoding="utf-8")
    edgeless.write_text('{"modes": 3, "edges": []}', encoding="utf-8")
    prelude = f"import sys; from gaussgem.cli import main; spec, edgeless = {str(spec)!r}, {str(edgeless)!r}; "
    result = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr


def test_import_leaves_scipy_unloaded(tmp_path):
    # A field run and the equal-family scan (closed forms only) load no scipy
    # module at all; the exponentiating commands load only scipy's Pade
    # kernel extension, not the scipy package.
    code = (
        "main(['field', '--n-list', '1,10', '--mass', '1', '--radius', '1', '--self-test']); "
        "main(['scan3', '--family', 'equal', '--re-range=-1:1', '--im-range=-1:1', '--steps', '3']); "
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'field or scan3 equal loaded scipy'; "
        + EXPONENTIATING_RUNS
        + "loaded = [m for m in sys.modules if m.startswith('scipy')]; "
        "assert loaded == ['scipy.linalg._matfuncs_expm'], loaded"
    )
    _assert_child_exits_0(tmp_path, code)


def test_import_leaves_numpy_fft_unloaded(tmp_path):
    # Only field_covariance needs numpy.fft, and only field --self-test calls
    # it; importing the package, a plain field run, the equal-family scan and
    # the exponentiating commands must not load it.
    code = (
        "assert 'numpy.fft' not in sys.modules; "
        "main(['field', '--n-list', '1,10', '--mass', '1', '--radius', '1']); "
        "main(['scan3', '--family', 'equal', '--re-range=-1:1', '--im-range=-1:1', '--steps', '3']); "
        + EXPONENTIATING_RUNS
        + "assert 'numpy.fft' not in sys.modules"
    )
    _assert_child_exits_0(tmp_path, code)


def test_kernels_loaded_first_are_shared_with_scipy_linalg(tmp_path):
    # The driver loads the kernel extension on its own; a later import of
    # scipy.linalg must reuse that module, and the driver must still equal
    # scipy.linalg.expm bit for bit.
    code = (
        "main(['scan2', '--re-range=-1:1', '--im-range=-1:1', '--steps', '3']); "
        "kernels = sys.modules['scipy.linalg._matfuncs_expm']; "
        "import numpy as np, scipy.linalg, scipy.linalg._matfuncs as matfuncs; "
        "from gaussgem import matrix_exponential; "
        "assert sys.modules['scipy.linalg._matfuncs_expm'] is kernels, 'kernel module replaced'; "
        "assert matfuncs.pick_pade_structure is kernels.pick_pade_structure, 'scipy.linalg uses other kernels'; "
        "stack = np.random.default_rng(7).standard_normal((20, 6, 6)) * np.geomspace(1e-2, 20, 20)[:, None, None]; "
        "assert np.array_equal(matrix_exponential(stack), scipy.linalg.expm(stack)), 'not bit-identical'"
    )
    _assert_child_exits_0(tmp_path, code)
