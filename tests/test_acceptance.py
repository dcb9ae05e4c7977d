"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Every tolerance is fixed here, not configurable.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from gaussgem import (
    GraphSpec,
    LatticeFieldConfig,
    asymptotic_coefficients,
    bogoliubov_matrices,
    bogoliubov_residuals,
    compact_gem_two_mode,
    evolve_covariance,
    gem_field_asymptotic,
    gem_field_exact,
    gem_field_pipeline,
    gem_from_metric,
    gem_from_purity,
    gem_ratio_small_r,
    graph_state_covariance,
    killing_contraction,
    metric_from_moments,
    metric_g,
    moments_from_covariance,
    vacuum_state,
)
from conftest import child_env, random_graph_spec, random_local_symplectic
from oracles import fock_reduced_purity, two_mode_squeezed_state

SQUARE = ((1, 2), (2, 3), (3, 4), (1, 4))
SQUARE_ONE_DIAG = SQUARE + ((2, 4),)
SQUARE_TWO_DIAG = SQUARE + ((1, 3), (2, 4))
TWO_EDGE = ((1, 2), (1, 4))
THREE_EDGE_PATH = ((1, 2), (2, 3), (1, 4))
TRIANGLE = ((1, 2), (2, 3), (1, 3))
PATH3 = ((1, 2), (2, 3))


@contextmanager
def criterion(number, name, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    stamp = f" [{elapsed:.2f}s]" if max_seconds else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{stamp}")
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {number} exceeded {max_seconds}s ({elapsed:.2f}s)"


def test_criterion_01_separable_baseline():
    with criterion(1, "separable baseline", max_seconds=1.0):
        for n in range(1, 7):
            gamma = vacuum_state(n)
            raw = killing_contraction(metric_g(gamma))
            assert abs(raw - n / 8.0) < 1e-12
            assert abs(gem_from_metric(gamma)) < 1e-12
            assert abs(gem_from_purity(gamma)) < 1e-12


def test_criterion_02_two_mode_squeezing_law():
    with criterion(2, "two-mode squeezing law", max_seconds=5.0):
        for r in (0.25, 0.5, 1.0):
            gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
            value = gem_from_purity(gamma)
            assert abs(value - np.sinh(2 * r) ** 2 / 16.0) < 1e-9
        # r = 1 against the truncated-Fock purity computation.
        cutoff = 40
        p_fock = fock_reduced_purity(two_mode_squeezed_state(1.0, cutoff), cutoff)
        oracle = (2.0 / p_fock**2 - 2.0) / 32.0
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j),)))
        assert abs(gem_from_purity(gamma) - oracle) < 1e-6


def test_criterion_03_dual_route_equivalence():
    with criterion(3, "dual-route equivalence", max_seconds=30.0):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            gamma = graph_state_covariance(random_graph_spec(rng, n))
            assert abs(gem_from_metric(gamma) - gem_from_purity(gamma)) < 1e-9
            direct = metric_g(gamma)
            assembled = metric_from_moments(moments_from_covariance(gamma))
            assert np.max(np.abs(direct.matrix - assembled.matrix)) < 1e-10


def test_criterion_04_local_invariance():
    with criterion(4, "local-unitary invariance"):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            gamma = graph_state_covariance(random_graph_spec(rng, n))
            moved = evolve_covariance(gamma.gamma, random_local_symplectic(rng, n))
            assert abs(gem_from_purity(moved) - gem_from_purity(gamma)) < 1e-8


def test_criterion_05_graph_ratio_law():
    with criterion(5, "graph edge-ratio law", max_seconds=10.0):
        pairs = [
            (SQUARE_ONE_DIAG, SQUARE_TWO_DIAG, 5.0 / 6.0),
            (SQUARE, SQUARE_TWO_DIAG, 2.0 / 3.0),
            (TWO_EDGE, THREE_EDGE_PATH, 2.0 / 3.0),
            (TWO_EDGE, SQUARE_ONE_DIAG, 2.0 / 5.0),
            (TWO_EDGE, SQUARE, 1.0 / 2.0),
            (SQUARE, SQUARE_ONE_DIAG, 4.0 / 5.0),
        ]
        for top_a, top_b, want in pairs:
            spec_a = GraphSpec.with_uniform_weight(4, top_a, 1.0)
            spec_b = GraphSpec.with_uniform_weight(4, top_b, 1.0)
            assert abs(gem_ratio_small_r(spec_a, spec_b, 1e-3) - want) < 1e-3
        three_a = GraphSpec.with_uniform_weight(3, PATH3, 1.0)
        three_b = GraphSpec.with_uniform_weight(3, TRIANGLE, 1.0)
        assert abs(gem_ratio_small_r(three_a, three_b, 1e-3) - 2.0 / 3.0) < 1e-4


def test_criterion_06_compact_measure_bound():
    with criterion(6, "compact measure bound"):
        nus = np.linspace(0.0, 6.0, 100)
        phis = np.linspace(0.0, 2 * np.pi, 100)
        for nu in nus:
            for phi in phis:
                assert compact_gem_two_mode(float(nu), float(phi)) <= 1.0
        assert 1.0 - compact_gem_two_mode(6.0, np.pi / 2) < 1e-3


def test_criterion_07_field_symplectic_identities():
    with criterion(7, "field symplectic identities", max_seconds=10.0):
        for num_modes in (3, 5, 21, 101, 801):
            cfg = LatticeFieldConfig.from_modes(num_modes, mass=1.0, radius=1.0)
            residuals = bogoliubov_residuals(bogoliubov_matrices(cfg))
            assert all(v < 1e-10 for v in residuals.values()), residuals


def test_criterion_08_field_measure_values():
    with criterion(8, "field measure values"):
        cfg = LatticeFieldConfig(n=1, mass=1.0, radius=1.0)
        assert abs(gem_field_exact(cfg) - 1.42244e-3) < 1e-8
        assert abs(gem_field_pipeline(cfg) - gem_field_exact(cfg)) < 1e-9
        assert gem_field_exact(LatticeFieldConfig(n=1, mass=100.0, radius=1.0)) < 1e-6
        small = LatticeFieldConfig.from_modes(101, mass=1e-4, radius=1.0)
        law = 1.0 / (np.tan(np.pi / (2 * small.num_modes)) * 32 * np.pi * small.radius * small.mass)
        assert abs(gem_field_exact(small) - law) / law < 0.01


def test_criterion_09_continuum_asymptotics():
    with criterion(9, "continuum asymptotics", max_seconds=30.0):
        # Calibration (tau = 1, p = 0) against the exact mode sums, frozen:
        # n =  50 -> rel 0.375529
        # n = 100 -> rel 0.285801
        # n = 200 -> rel 0.230212
        # n = 400 -> rel 0.192881
        rels = []
        for n in (50, 100, 200, 400):
            exact = gem_field_exact(LatticeFieldConfig(n=n, mass=1.0, radius=1.0))
            rels.append(abs(gem_field_asymptotic(n, 1.0, 0) - exact) / exact)
        assert all(a > b for a, b in zip(rels, rels[1:])), rels
        assert max(rels) < 0.38, rels
        for p in (0, 1):
            for tau in (0.5, 1.0, 2.0):
                coeffs = asymptotic_coefficients(tau, p)
                assert abs(coeffs.kappa2 - 1.0 / (16 * np.pi)) < 1e-12
                assert abs(coeffs.kappa4 - 1.0 / (4 * np.pi**2)) < 1e-12


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "command-line contract"):
        scan_argv = ["scan2", "--re-range", "-1.5:1.5", "--im-range", "-1.5:1.5", "--steps", "21"]
        field_argv = ["field", "--n-list", "1,5,25,125", "--mass", "1", "--radius", "1"]

        def run(argv):
            return subprocess.run([sys.executable, "-m", "gaussgem.cli", *argv], capture_output=True, env=child_env())

        for argv in (scan_argv, field_argv):
            first = run(argv)
            second = run(argv)
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout
        broken = tmp_path / "broken.json"
        broken.write_text('{"modes": 2,', encoding="utf-8")
        proc = run(["gem", str(broken)])
        assert proc.returncode == 2
