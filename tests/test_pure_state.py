"""Tests for PureState: one purity verdict per state, taken by every measure route."""

import dataclasses
import json

import numpy as np
import pytest

import gaussgem.core
import gaussgem.graphs
import gaussgem.lattice
from gaussgem import (
    GraphSpec,
    LatticeFieldConfig,
    MetricTensor,
    MomentTable,
    NumericOverflowError,
    PureState,
    UnphysicalStateError,
    evolve_covariance,
    field_covariance,
    gem_field_pipeline,
    gem_from_metric,
    gem_from_purity,
    graph_state_covariance,
    graph_state_covariances,
    hamiltonian_from_graph,
    log_negativity_two_mode,
    metric_g,
    metric_h,
    mode_purities,
    moments_from_covariance,
    require_pure,
    symplectic_from_hamiltonian,
    vacuum_state,
)
from gaussgem.cli import main
from gaussgem.core import _pure_by_construction
from conftest import random_graph_spec

ROUTES = [
    gem_from_metric,
    gem_from_purity,
    metric_g,
    metric_h,
    moments_from_covariance,
    mode_purities,
    log_negativity_two_mode,
]


def _arrays(result):
    """A route's result as a tuple of arrays: a metric's matrix, a table's moments, the fields of a record, or the value."""
    if isinstance(result, MetricTensor):
        return (result.matrix,)
    if isinstance(result, MomentTable):
        return (result.first, result.connected)
    if dataclasses.is_dataclass(result):
        return tuple(np.asarray(getattr(result, f.name)) for f in dataclasses.fields(result))
    return (np.asarray(result),)


def _count_residuals(monkeypatch):
    """Count evaluations of the purity residual from here on."""
    calls = []
    residual = gaussgem.core._purity_residual

    def counted(gamma):
        calls.append(np.shape(gamma))
        return residual(gamma)

    monkeypatch.setattr(gaussgem.core, "_purity_residual", counted)
    return calls


def _thermal():
    """Squeezed thermal state S (1.1 I/2) S^T: mixed."""
    S = symplectic_from_hamiltonian(hamiltonian_from_graph(GraphSpec(2, ((1, 2, 0.1j),))))
    return evolve_covariance(1.1 * vacuum_state(2), S)


STATES = {
    "one": lambda rng: graph_state_covariance(random_graph_spec(rng, 2)).gamma,
    "stack": lambda rng: graph_state_covariances(2, ((1, 2),), 1j * np.linspace(0.1, 1.2, 12).reshape(3, 4, 1)).gamma,
}


class TestRoutesTakeAState:
    @pytest.mark.parametrize("kind", sorted(STATES))
    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.__name__)
    def test_no_residual_and_bit_identical(self, route, kind, rng, monkeypatch):
        gamma = STATES[kind](rng)
        state = PureState(gamma)
        calls = _count_residuals(monkeypatch)
        from_state = route(state)
        assert calls == []
        from_array = route(gamma)
        assert len(calls) == 1  # the array is still gated once per call
        assert type(from_state) is type(from_array)
        for got, want in zip(_arrays(from_state), _arrays(from_array), strict=True):
            assert np.array_equal(got, want)

    def test_require_pure_returns_the_gated_matrix(self, rng, monkeypatch):
        state = PureState(graph_state_covariance(random_graph_spec(rng, 3)).gamma)
        calls = _count_residuals(monkeypatch)
        assert require_pure(state) is state.gamma
        assert calls == []


class TestConstruction:
    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(PureState)] == ["gamma"]

    def test_constructor_gates_once(self, rng, monkeypatch):
        stack = graph_state_covariances(2, ((1, 2),), 1j * np.linspace(0.1, 1.2, 6).reshape(3, 2, 1)).gamma
        calls = _count_residuals(monkeypatch)
        PureState(stack)
        assert calls == [(3, 2, 4, 4)]

    def test_thermal_raises_as_require_pure_does(self):
        thermal = _thermal()
        stack = np.array(graph_state_covariances(2, ((1, 2),), 1j * np.linspace(0.05, 0.3, 6).reshape(2, 3, 1)).gamma)
        stack[1, 2] = thermal
        for gamma in (thermal, stack):
            with pytest.raises(UnphysicalStateError) as gated:
                require_pure(gamma)
            with pytest.raises(UnphysicalStateError) as constructed:
                PureState(gamma)
            assert str(constructed.value) == str(gated.value)

    def test_keeps_a_read_only_copy(self, rng):
        gamma = np.array(graph_state_covariance(random_graph_spec(rng, 2)).gamma)  # a writable copy
        original = gamma.copy()
        state = PureState(gamma)
        gamma[0, 0] = 7.0  # the caller's array stays writable and the state does not follow it
        assert np.array_equal(state.gamma, original)
        assert not state.gamma.flags.writeable
        with pytest.raises(ValueError):
            state.gamma[0, 0] = 7.0

    def test_bypass_keeps_the_array_read_only(self):
        gamma = vacuum_state(2)
        assert _pure_by_construction(gamma).gamma is gamma
        assert not gamma.flags.writeable  # kept without a copy, so the verdict cannot go stale

    @pytest.mark.parametrize(
        "build, error, match",
        [
            pytest.param(
                lambda: graph_state_covariance(GraphSpec(2, ((1, 2, 400j),))),
                NumericOverflowError,
                r"S Gamma S\^T overflows",
                id="graph-covariance-not-finite",
            ),
            pytest.param(
                lambda: graph_state_covariance(GraphSpec(2, ((1, 2, 180j),))),
                UnphysicalStateError,
                "fails the purity gate",
                id="graph-failing-the-gate",
            ),
            pytest.param(
                lambda: gem_field_pipeline(LatticeFieldConfig(n=3, mass=1e200, radius=1.0)),
                NumericOverflowError,
                "field_covariance overflows",
                id="lattice-covariance-not-finite",
            ),
        ],
    )
    def test_bypass_is_reached_only_by_finite_covariances(self, build, error, match, monkeypatch):
        # The bypass checks nothing: each builder raises before it would hand over a non-finite array.
        def unreachable(gamma):
            raise AssertionError("a non-finite covariance reached the bypass")

        monkeypatch.setattr(gaussgem.graphs, "_pure_by_construction", unreachable)
        monkeypatch.setattr(gaussgem.lattice, "_pure_by_construction", unreachable)
        with pytest.raises(error, match=match):
            build()


class TestOneResidualPerBuiltState:
    """A graph builder gates its state once; the routes that take the state judge it no more."""

    def test_graph_state_through_every_measure_route(self, rng, monkeypatch):
        spec = random_graph_spec(rng, 3)
        calls = _count_residuals(monkeypatch)
        state = graph_state_covariance(spec)
        for route in ROUTES[:-1]:  # all but the two-mode log negativity
            route(state)
        assert calls == [(6, 6)]

    def test_stack_through_log_negativity(self, monkeypatch):
        calls = _count_residuals(monkeypatch)
        stack = graph_state_covariances(2, ((1, 2),), 1j * np.linspace(0.1, 1.2, 12).reshape(3, 4, 1))
        log_negativity_two_mode(stack)
        assert calls == [(3, 4, 4, 4)]


class TestOneVerdictPerCommand:
    @pytest.mark.parametrize("measure", ["gem", "logneg"])
    def test_gem_command_runs_the_residual_once(self, measure, tmp_path, capsys, monkeypatch):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"modes": 2, "edges": [{"i": 1, "j": 2, "re": 0.3, "im": 0.8}]}))
        calls = _count_residuals(monkeypatch)
        assert main(["gem", str(path), "--measure", measure]) == 0
        assert measure in json.loads(capsys.readouterr().out)
        assert calls == [(4, 4)]

    def test_scan3_xy_self_test_runs_the_residual_once_per_topology(self, capsys, monkeypatch):
        # The pipeline column and its metric-route self-test share one gated stack per topology.
        calls = _count_residuals(monkeypatch)
        argv = ["scan3", "--family", "xy", "--re-range=-1:1", "--im-range=-1:1", "--steps", "5", "--self-test"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 26
        assert calls == [(25, 6, 6), (25, 6, 6)]

    @pytest.mark.parametrize(
        "argv, stacks",
        [
            pytest.param(["scan2"], [(25, 4, 4)], id="scan2"),
            pytest.param(["scan3", "--family", "equal"], [(25, 6, 6), (25, 6, 6)], id="scan3-equal"),
        ],
    )
    def test_self_test_runs_the_residual_once_per_built_stack(self, argv, stacks, capsys, monkeypatch):
        calls = _count_residuals(monkeypatch)
        assert main([*argv, "--re-range=-1:1", "--im-range=-1:1", "--steps", "5", "--self-test"]) == 0
        assert capsys.readouterr().out.count("\n") == 26
        assert calls == stacks

    @pytest.mark.parametrize(
        "n, mass, radius", [(0, 1.0, 1.0), (1, 1.0, 1.0), (5, 0.7, 1.3), (50, 2.0, 0.4), (200, 1.0, 1.0)]
    )
    def test_pipeline_runs_no_residual(self, n, mass, radius, monkeypatch):
        cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
        calls = _count_residuals(monkeypatch)
        got = gem_field_pipeline(cfg)
        assert calls == []
        # The gated array route is the pipeline as it was before states: same bits.
        assert got == gem_from_purity(field_covariance(cfg))
