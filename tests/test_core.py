"""Tests for the covariance / symplectic machinery."""

import inspect
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import gaussgem
from gaussgem import (
    DEFAULT_PURITY_TOL,
    GraphSpec,
    InvalidArgumentError,
    NumericOverflowError,
    PureState,
    UnphysicalStateError,
    build_omega,
    check_pure,
    evolve_covariance,
    gem_from_purity,
    graph_state_covariance,
    hamiltonian_from_graph,
    matrix_exponential,
    metric_g,
    mode_purities,
    moments_from_covariance,
    purity,
    require_pure,
    symplectic_from_hamiltonian,
    vacuum_state,
)
from conftest import random_graph_spec, random_local_symplectic
from oracles import (
    fock_covariance,
    fock_four_point,
    fock_reduced_purity,
    quadrature_ops_two_mode,
    reduced_covariance,
    taylor_expm,
    two_mode_squeezed_state,
)


class TestOmega:
    def test_single_mode(self):
        assert np.array_equal(build_omega(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_block_diagonal(self):
        omega = build_omega(2)
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(omega[:2, :2], block)
        assert np.array_equal(omega[2:, 2:], block)
        assert np.all(omega[:2, 2:] == 0.0) and np.all(omega[2:, :2] == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_squares_to_minus_identity(self, n):
        omega = build_omega(n)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))
        assert np.array_equal(omega.T, -omega)

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_omega(0)

    @pytest.mark.parametrize("build", [build_omega, vacuum_state])
    def test_boolean_mode_count_rejected(self, build):
        with pytest.raises(InvalidArgumentError):
            build(True)

    @pytest.mark.parametrize("n", [1, 3, 7, 48])
    def test_matches_block_by_block_fill(self, n):
        want = np.zeros((2 * n, 2 * n))
        for m in range(n):
            want[2 * m, 2 * m + 1], want[2 * m + 1, 2 * m] = 1.0, -1.0
        assert np.array_equal(build_omega(n), want)


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_rotation_generator(self):
        theta = 0.3
        out = matrix_exponential([[0.0, theta], [-theta, 0.0]])
        want = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        assert np.allclose(out, want, atol=1e-14)

    def test_against_taylor_oracle(self, rng):
        for _ in range(20):
            M = rng.uniform(-1.0, 1.0, (4, 4))
            assert np.allclose(matrix_exponential(M), taylor_expm(M), atol=1e-10, rtol=1e-10)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidArgumentError):
            matrix_exponential(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            matrix_exponential([[np.nan, 0.0], [0.0, 0.0]])

    def test_overflow_reported(self):
        with pytest.raises(NumericOverflowError):
            matrix_exponential([[1e6, 0.0], [0.0, 1e6]])


class TestExponentialDriver:
    """matrix_exponential against scipy.linalg.expm, bit for bit, slice by slice."""

    @staticmethod
    def _squarings(M):
        from scipy.linalg import _matfuncs_expm

        scratch = np.empty((5,) + M.shape)
        scratch[0] = M
        return _matfuncs_expm.pick_pade_structure(scratch)[1]

    @pytest.mark.parametrize("n", [2, 4, 6, 12])
    def test_random_stacks_over_scalings(self, rng, n):
        scales = np.geomspace(1e-3, 60.0, 40)
        stack = scales[:, None, None] * rng.standard_normal((40, n, n)) / np.sqrt(n)
        assert {0, 1, 2, 3, 4} <= {self._squarings(M) for M in stack}
        assert np.array_equal(matrix_exponential(stack), scipy.linalg.expm(stack))
        for M in stack[::7]:
            assert np.array_equal(matrix_exponential(M), scipy.linalg.expm(M))

    def test_four_dimensional_stack(self, rng):
        stack = rng.standard_normal((2, 3, 6, 6))
        out = matrix_exponential(stack)
        assert out.shape == (2, 3, 6, 6)
        for index in np.ndindex(2, 3):
            assert np.array_equal(out[index], scipy.linalg.expm(stack[index]))

    def test_mixed_structure_stack(self, rng):
        # Zero, diagonal and triangular slices take scipy's bandwidth branch;
        # interleaved with generic ones, each must still come out as expm's.
        generic = 3.0 * rng.standard_normal((8, 5, 5))
        stack = generic.copy()
        stack[0] = 0.0
        stack[2] = np.diag(rng.standard_normal(5))
        stack[3] = np.triu(generic[3])
        stack[5] = np.tril(generic[5])
        stack[6] = np.triu(generic[6], 1)
        stack[7] = np.triu(generic[7])
        stack[7, 4, 0] = -0.0  # a negative zero counts as zero, as in scipy's bandwidth
        out = matrix_exponential(stack)
        for k in range(len(stack)):
            assert np.array_equal(out[k], scipy.linalg.expm(stack[k]))
            assert np.array_equal(np.signbit(out[k]), np.signbit(scipy.linalg.expm(stack[k])))

    def test_dense_graph_generator(self, rng):
        h = hamiltonian_from_graph(random_graph_spec(rng, 96, edge_prob=0.04))
        M = build_omega(96) @ h
        assert np.array_equal(matrix_exponential(M), scipy.linalg.expm(M))

    def test_generic_slices_skip_public_expm(self, rng, monkeypatch):
        def refuse(_):
            raise AssertionError("generic slices must not go through scipy.linalg.expm")

        stack = rng.standard_normal((6, 4, 4))
        want = scipy.linalg.expm(stack)
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        assert np.array_equal(matrix_exponential(stack), want)
        assert np.array_equal(matrix_exponential(stack[0]), want[0])

    def test_generic_overflow_reported_without_warning(self):
        # pytest turns a leaked RuntimeWarning into a failure.
        with pytest.raises(NumericOverflowError):
            matrix_exponential([[800.0, 1.0], [1.0, 800.0]])

    def test_bad_input_checked_before_scipy_kernels(self, monkeypatch):
        # Input errors stay InvalidArgumentError even without the private module.
        # A name that is neither in sys.modules nor a file in scipy's linalg
        # directory hides the kernels from both places the driver looks.
        monkeypatch.setattr(gaussgem.core, "_PADE_KERNELS", "scipy.linalg._no_such_kernels")
        with pytest.raises(ImportError, match=r"scipy.linalg._no_such_kernels, not found in \[.*linalg"):
            matrix_exponential([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(InvalidArgumentError):
            matrix_exponential(np.zeros((2, 3)))
        with pytest.raises(InvalidArgumentError):
            matrix_exponential([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "kernel,result,error",
        [
            ("pick_pade_structure", (-1, 0), MemoryError),
            ("pade_UV_calc", 3, RuntimeError),
            ("pade_UV_calc", -11, MemoryError),
        ],
    )
    def test_kernel_failure_raises_as_scipy(self, monkeypatch, kernel, result, error):
        kernels = gaussgem.core._pade_kernels()  # the module object the driver calls
        assert kernels is sys.modules["scipy.linalg._matfuncs_expm"]
        real = getattr(kernels, kernel)

        def failing(*args):
            real(*args)
            return result

        monkeypatch.setattr(kernels, kernel, failing)
        with pytest.raises(error, match="error code"):
            matrix_exponential([[0.1, 0.2], [0.3, 0.4]])


class TestSymplecticFromHamiltonian:
    def test_zero_generator(self):
        assert np.allclose(symplectic_from_hamiltonian(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_preserves_omega(self, rng):
        omega = build_omega(2)
        for _ in range(30):
            h = rng.uniform(-1.0, 1.0, (4, 4))
            h = 0.5 * (h + h.T)
            S = symplectic_from_hamiltonian(h)
            assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-10
            assert abs(np.linalg.det(S) - 1.0) < 1e-10

    def test_two_mode_squeezer_variance_matches_fock(self):
        # Graph weight i*r squeezes the pair; the q1 variance must match the
        # truncated-Fock two-mode squeezed state.
        r = 0.5
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
        psi = two_mode_squeezed_state(r, cutoff=30)
        ops = quadrature_ops_two_mode(30)
        fock_var = np.real(np.vdot(ops[0] @ psi, ops[0] @ psi))
        assert gamma[0, 0] == pytest.approx(fock_var, abs=1e-8)
        assert gamma[0, 0] == pytest.approx(np.cosh(2 * r) / 2, abs=1e-12)
        assert gamma[1, 1] == pytest.approx(np.cosh(2 * r) / 2, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            symplectic_from_hamiltonian([[0.0, 1.0], [0.0, 0.0]])

    def test_generator_equals_dense_product(self, rng, monkeypatch):
        # Omega h is formed by moving rows; it must equal build_omega(N) @ h
        # bit for bit, sign bits of zeros included, so that expm sees the
        # same input.  Zero imaginary parts make -0.0 entries in h.
        generators = []
        real_expm = gaussgem.core.matrix_exponential
        monkeypatch.setattr(gaussgem.core, "matrix_exponential", lambda M: generators.append(M) or real_expm(M))
        hs = [hamiltonian_from_graph(random_graph_spec(rng, n)) for n in (2, 3, 5, 8, 13, 40)]
        hs.append(hamiltonian_from_graph(GraphSpec(3, ((1, 2, 0.7), (2, 3, -0.4), (1, 3, 0.3 + 0.0j)))))
        grid = np.linspace(-2.0, 2.0, 9)
        weights = (grid[:, None] + 1j * grid[None, :])[..., None]
        hs.append(gaussgem.graphs._generators(2, ((1, 2),), weights))  # a scan2-like (9, 9, 4, 4) stack
        xy = np.stack([1j * grid[:, None] + 0.0 * grid, 0.0 * grid[:, None] + 1j * grid, np.ones((9, 9))], -1)
        hs.append(gaussgem.graphs._generators(3, ((1, 2), (2, 3), (1, 3)), xy))
        for h in hs:
            symplectic_from_hamiltonian(h)
            got, want = generators.pop(), build_omega(h.shape[-1] // 2) @ h
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestVacuum:
    def test_single_mode(self):
        assert np.array_equal(vacuum_state(1), [[0.5, 0.0], [0.0, 0.5]])

    def test_three_modes(self):
        assert np.array_equal(vacuum_state(3), 0.5 * np.eye(6))

    def test_reduced_purity_is_one(self):
        gamma = vacuum_state(4)
        for mode in range(1, 5):
            assert purity(reduced_covariance(gamma, mode)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            vacuum_state(0)


class TestEvolveCovariance:
    def test_identity_leaves_state(self, rng):
        gamma = vacuum_state(2)
        assert np.allclose(evolve_covariance(gamma, np.eye(4)), gamma)

    def test_vacuum_evolves_to_half_ssT(self, rng):
        h = rng.uniform(-1, 1, (4, 4))
        h = 0.5 * (h + h.T)
        S = symplectic_from_hamiltonian(h)
        out = evolve_covariance(vacuum_state(2), S)
        assert np.allclose(out, 0.5 * S @ S.T, atol=1e-13)

    def test_local_symplectics_preserve_purity(self, rng):
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 0.4 + 0.9j),)))
        for _ in range(20):
            S = random_local_symplectic(rng, 2)
            _, residual = check_pure(evolve_covariance(gamma, S))
            assert residual < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            evolve_covariance(vacuum_state(2), np.eye(2))

    def test_overflow_raises_without_warning(self):
        # pytest turns a leaked RuntimeWarning into a failure.
        with pytest.raises(NumericOverflowError, match="overflow"):
            evolve_covariance(vacuum_state(2), 1e200 * np.eye(4))
        stack = np.stack([np.eye(4), 1e200 * np.eye(4)])
        with pytest.raises(NumericOverflowError):
            evolve_covariance(vacuum_state(2), stack)


class TestReducedCovariance:
    def test_vacuum_block(self):
        assert np.array_equal(reduced_covariance(vacuum_state(3), 2), 0.5 * np.eye(2))

    def test_two_mode_squeezed_reduction_matches_fock(self):
        r = 0.5
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
        block = reduced_covariance(gamma, 1)
        psi = two_mode_squeezed_state(r, cutoff=30)
        ops = quadrature_ops_two_mode(30)
        fock_gamma = fock_covariance(psi, ops)
        assert np.allclose(block, fock_gamma[:2, :2], atol=1e-8)
        assert np.allclose(block, np.cosh(2 * r) / 2 * np.eye(2), atol=1e-12)

    def test_blocks_symmetric_for_random_states(self, rng):
        from conftest import random_graph_spec

        for _ in range(5):
            spec = random_graph_spec(rng, 3)
            gamma = graph_state_covariance(spec)
            for mode in range(1, 4):
                block = reduced_covariance(gamma, mode)
                assert block[0, 1] == pytest.approx(block[1, 0], abs=1e-14)


class TestPurity:
    def test_vacuum(self):
        assert purity(vacuum_state(1)) == pytest.approx(1.0, abs=1e-15)
        assert purity(vacuum_state(3)) == pytest.approx(1.0, abs=1e-13)

    def test_isotropic_single_mode(self):
        assert purity(1.5 * np.eye(2)) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_thermal_reduction_of_squeezed_pair(self):
        # Reduced state of the r=1 squeezed pair is thermal; its purity is
        # 1/cosh(2r), cross-checked against the truncated Fock computation.
        r, cutoff = 1.0, 40
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 1j * r),)))
        value = purity(reduced_covariance(gamma, 1))
        fock = fock_reduced_purity(two_mode_squeezed_state(r, cutoff), cutoff)
        assert value == pytest.approx(fock, abs=1e-8)
        assert value == pytest.approx(1.0 / np.cosh(2.0), abs=1e-12)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            purity(0.1 * np.eye(2))

    def test_single_mode_uncertainty_rejected(self):
        # det(2 Gamma) = 5.76 clears the global bound, but mode 1 has det 0.09 < 1/4.
        with pytest.raises(UnphysicalStateError, match="mode 1"):
            purity(np.diag([0.3, 0.3, 2.0, 2.0]))

    @pytest.mark.parametrize("diagonal", [[-1.0, -1.0], [-1.0, -1.0, 2.0, 2.0]])
    def test_not_positive_definite_rejected(self, diagonal):
        # det(2 Gamma) is positive here, but Gamma is no covariance.
        with pytest.raises(UnphysicalStateError, match="positive definite"):
            purity(np.diag(diagonal))

    def test_asymmetric_rejected(self):
        # The Cholesky factor reads only the lower triangle; without a symmetry
        # test the 5.0 above the diagonal goes unseen and the purity comes out 1.
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            purity(np.array([[0.5, 5.0], [0.0, 0.5]]))

    def test_clamped_at_one(self):
        # Rounding can push det a hair under the bound; the clamp absorbs it.
        eps = 1e-12
        assert purity((0.5 - eps) * np.eye(2)) == 1.0

    def test_no_underflow_at_600_modes(self):
        # Vacuum except one mode at 2 I: det Gamma and (1/4)^600 both
        # underflow as plain floats, but the purity is 1/4.
        gamma = vacuum_state(600)
        gamma[:2, :2] = 2.0 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert purity(gamma) == pytest.approx(0.25, rel=1e-14)

    def test_unphysical_rejected_at_600_modes(self):
        with pytest.raises(UnphysicalStateError):
            purity(0.49 * np.eye(1200))


class TestCheckPure:
    def test_vacuum_residual_zero(self):
        ok, residual = check_pure(vacuum_state(2))
        assert ok and residual == 0.0

    def test_prepared_states_pure(self, rng):
        for _ in range(10):
            h = rng.uniform(-1, 1, (6, 6))
            h = 0.5 * (h + h.T)
            S = symplectic_from_hamiltonian(h)
            ok, residual = check_pure(0.5 * S @ S.T)
            assert ok and residual < 1e-9

    def test_thermal_not_pure(self):
        ok, residual = check_pure(np.eye(2))
        assert not ok
        assert residual == pytest.approx(0.75, abs=1e-15)

    def test_verdict_is_the_gate_verdict(self):
        # A squeezed pure state whose raw residual exceeds the unscaled 1e-9:
        # the scaled bound accepts it, in check_pure as in require_pure.
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, 5j),)))
        ok, residual = check_pure(gamma)
        assert residual > DEFAULT_PURITY_TOL
        assert ok is True
        require_pure(gamma)

    def test_nan_covariance_fails(self):
        ok, residual = check_pure(np.full((4, 4), np.nan))
        assert ok is False and np.isnan(residual)


class TestRequirePure:
    def test_nan_covariance_rejected(self):
        with pytest.raises(UnphysicalStateError, match="not pure"):
            require_pure(np.full((4, 4), np.nan))
        with pytest.raises(UnphysicalStateError):
            gem_from_purity(np.full((4, 4), np.nan))

    def test_stack_with_one_nan_slice_names_it(self):
        stack = np.stack([vacuum_state(2)] * 3)
        stack[1, 0, 3] = stack[1, 3, 0] = np.nan
        with pytest.raises(UnphysicalStateError, match=r"stack index \(1,\)"):
            require_pure(stack)

    def test_overflowing_scale_rejected(self):
        # ||Gamma||_1^2 overflows to inf, so the scaled bound would accept any
        # finite residual (here 1e154); a slice needs a finite bound to pass.
        gamma = vacuum_state(2)
        gamma[0, 2] = gamma[2, 0] = 2e154
        with pytest.raises(UnphysicalStateError, match="overflows double precision"):
            require_pure(gamma)
        with pytest.raises(UnphysicalStateError):
            gem_from_purity(gamma)

    @pytest.mark.parametrize(
        "route",
        [gem_from_purity, metric_g, moments_from_covariance, mode_purities, check_pure, require_pure, PureState, purity],
    )
    def test_zero_mode_covariance_rejected(self, route):
        with pytest.raises(InvalidArgumentError, match="N >= 1"):
            route(np.zeros((0, 0)))
        if route is not purity:  # an empty stack of 4 x 4 covariances is still a stack
            route(np.zeros((0, 4, 4)))

    def test_no_public_callable_takes_tol(self):
        for name in gaussgem.__all__:
            obj = getattr(gaussgem, name)
            if inspect.isfunction(obj):
                assert "tol" not in inspect.signature(obj).parameters, name


class TestInvariants:
    def test_symplectic_defect_bound_at_norm_five(self, rng):
        # ||h||_2 up to 5 is the documented operating range.
        omega = build_omega(3)
        for _ in range(50):
            h = rng.uniform(-1, 1, (6, 6))
            h = 0.5 * (h + h.T)
            h *= 5.0 / np.linalg.norm(h, 2)
            S = symplectic_from_hamiltonian(h)
            assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-10

    def test_purity_residual_bound_at_norm_five(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            h = rng.uniform(-1, 1, (2 * n, 2 * n))
            h = 0.5 * (h + h.T)
            h *= 5.0 / np.linalg.norm(h, 2) * rng.uniform(0.2, 1.0)
            S = symplectic_from_hamiltonian(h)
            gamma = evolve_covariance(vacuum_state(n), S)
            _, residual = check_pure(gamma)
            assert residual < 1e-9

    def test_wick_four_point_matches_fock(self):
        # Pairing sums of C = Gamma + (i/2) Omega against the truncated
        # Fock-space four-point functions of the squeezed pair.
        r, cutoff = 0.6, 32
        gamma = graph_state_covariance(GraphSpec(2, ((1, 2, -1j * r),)))
        psi = two_mode_squeezed_state(r, cutoff)
        ops = quadrature_ops_two_mode(cutoff)
        # Same state: the phase-space pipeline at weight -i r realizes the
        # +r squeezed pair.  Two-point agreement is part of the oracle.
        assert np.allclose(gamma, fock_covariance(psi, ops), atol=1e-7)
        C = gamma + 0.5j * build_omega(2)
        worst = 0.0
        for A in range(4):
            for B in range(4):
                for Cc in range(4):
                    for D in range(4):
                        fock = fock_four_point(psi, ops, A, B, Cc, D)
                        wick = C[A, B] * C[Cc, D] + C[A, Cc] * C[B, D] + C[A, D] * C[B, Cc]
                        worst = max(worst, abs(fock - wick) / max(abs(wick), 1.0))
        assert worst < 1e-6
