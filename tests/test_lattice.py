"""Tests for the lattice field ground state and its asymptotics."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gaussgem import (
    BogoliubovMatrices,
    DivergenceError,
    InvalidArgumentError,
    LatticeFieldConfig,
    NumericOverflowError,
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
    require_pure,
)
from gaussgem import lattice
from gaussgem.core import _purity_residual
from gaussgem.lattice import _DEFECT_TILE, _fourier_basis, _sym_antisym_defects
from oracles import (
    bogoliubov_by_loops,
    bogoliubov_residuals_eight_products,
    elliptic_by_quadrature,
    field_covariance_by_loops,
)

EPS = np.finfo(float).eps


@pytest.fixture(autouse=True)
def _forty_digits():
    """Each test here computes its mpmath references at 40 digits, or more under its own ``workdps``.

    Scoped to the test, so the precision does not carry over to other test files.
    """
    with mpmath.workdps(40):
        yield


def _mp_dispersion(k, n, mass, radius):
    N = 2 * n + 1
    delta = 2 * mpmath.pi * radius / N
    return mpmath.sqrt(mass**2 + 4 * mpmath.sin(mpmath.pi * k / N) ** 2 / delta**2)


def _mp_gem_exact(n, mass, radius):
    N = 2 * n + 1
    omegas = [_mp_dispersion(k, n, mpmath.mpf(mass), mpmath.mpf(radius)) for k in range(1, n + 1)]
    bracket = mpmath.mpf(1)
    bracket += 2 * mpmath.fsum(mass / w + w / mass for w in omegas)
    bracket += 4 * mpmath.fsum(omegas) * mpmath.fsum(1 / w for w in omegas)
    return bracket / (32 * N) - mpmath.mpf(N) / 32


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            LatticeFieldConfig(n=-1, mass=1.0, radius=1.0)
        with pytest.raises(InvalidArgumentError):
            LatticeFieldConfig(n=1, mass=0.0, radius=1.0)
        with pytest.raises(InvalidArgumentError):
            LatticeFieldConfig(n=1, mass=1.0, radius=-2.0)

    def test_n_past_largest_array_size(self):
        # N = 2n + 1 past numpy's largest array size: numpy would refuse it
        # before allocating anything, so the config refuses it first.
        with pytest.raises(InvalidArgumentError, match=f"n = {10**20} is too large"):
            LatticeFieldConfig(n=10**20, mass=1.0, radius=1.0)
        with pytest.raises(InvalidArgumentError, match=f"n = {10**20} is too large"):
            LatticeFieldConfig.from_modes(2 * 10**20 + 1, mass=1.0, radius=1.0)

    def test_n_past_largest_array_size_in_bytes(self):
        # An array of N float64 values takes 8N bytes; numpy refuses more than
        # intp max bytes, so the last accepted n has 8(2n + 1) <= 2^63 - 1.
        last = 576460752303423487
        assert 8 * (2 * last + 1) <= np.iinfo(np.intp).max < 8 * (2 * last + 3)
        for n in (last, np.int64(last)):
            assert LatticeFieldConfig(n=n, mass=1.0, radius=1.0).num_modes == 2 * last + 1
        assert LatticeFieldConfig.from_modes(2 * last + 1, mass=1.0, radius=1.0).n == last
        for n in (last + 1, 4611686018427387903):
            with pytest.raises(InvalidArgumentError, match=f"n = {n} is too large"):
                LatticeFieldConfig(n=n, mass=1.0, radius=1.0)
            with pytest.raises(InvalidArgumentError, match=f"n = {n} is too large"):
                LatticeFieldConfig.from_modes(2 * n + 1, mass=1.0, radius=1.0)

    def test_from_modes_rejects_even(self):
        with pytest.raises(InvalidArgumentError):
            LatticeFieldConfig.from_modes(4, mass=1.0, radius=1.0)

    def test_only_integers_count(self):
        # bool is an int subclass, but True is no mode number; a float site index is none either.
        cfg = LatticeFieldConfig(n=2, mass=1.0, radius=1.0)
        b = bogoliubov_matrices(cfg)
        calls = [
            lambda: LatticeFieldConfig(n=True, mass=1.0, radius=1.0),
            lambda: LatticeFieldConfig.from_modes(True, mass=1.0, radius=1.0),
            lambda: dispersion(True, cfg),
            lambda: gem_field_asymptotic(True, 1.0, 0),
            lambda: reduced_det_from_xy(b, True),
            lambda: reduced_det_from_xy(b, 1.5),
        ]
        for call in calls:
            with pytest.raises(InvalidArgumentError):
                call()

    def test_from_modes_roundtrip(self):
        cfg = LatticeFieldConfig.from_modes(7, mass=0.5, radius=2.0)
        assert cfg.n == 3 and cfg.num_modes == 7
        assert cfg.tau == pytest.approx(1.0)


class TestDispersion:
    def test_zero_mode_is_mass(self):
        cfg = LatticeFieldConfig(n=3, mass=0.7, radius=1.3)
        assert dispersion(0, cfg) == pytest.approx(0.7, abs=1e-15)

    def test_three_site_value_high_precision(self):
        cfg = LatticeFieldConfig(n=1, mass=1.0, radius=1.0)
        want = float(_mp_dispersion(1, 1, mpmath.mpf(1), mpmath.mpf(1)))
        assert dispersion(1, cfg) == pytest.approx(want, abs=1e-14)
        assert dispersion(1, cfg) == pytest.approx(1.297659, abs=1e-6)

    def test_monotone_in_k(self):
        cfg = LatticeFieldConfig(n=10, mass=0.4, radius=1.7)
        values = [dispersion(k, cfg) for k in range(0, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        cfg = LatticeFieldConfig(n=2, mass=1.0, radius=1.0)
        with pytest.raises(InvalidArgumentError):
            dispersion(3, cfg)
        with pytest.raises(InvalidArgumentError):
            dispersion(-1, cfg)


class TestBogoliubov:
    @pytest.mark.parametrize("n,mass,radius", [(1, 1.0, 1.0), (2, 1.0, 1.0), (10, 0.5, 2.0), (10, 10.0, 0.5)])
    def test_symplectic_identities(self, n, mass, radius):
        b = bogoliubov_matrices(LatticeFieldConfig(n=n, mass=mass, radius=radius))
        for name, value in bogoliubov_residuals(b).items():
            assert value < 1e-10, name

    def test_large_mass_limit(self):
        # omega_k/omega -> 1 kills Y; X becomes a real orthogonal Fourier map.
        b = bogoliubov_matrices(LatticeFieldConfig(n=2, mass=1e8, radius=1.0))
        assert np.max(np.abs(b.y)) < 1e-7
        assert np.max(np.abs(b.x @ b.x.T - np.eye(5))) < 1e-7

    def test_occupation_diagonal_translation_invariant(self):
        cfg = LatticeFieldConfig(n=1, mass=1.0, radius=1.0)
        b = bogoliubov_matrices(cfg)
        diag = np.diag(b.x.T @ b.x + b.y.T @ b.y)
        assert np.max(np.abs(diag - diag[0])) < 1e-13
        # Against the mode-sum expression (1/2N)[m/w + w/m + 2 sum(w_k/w + w/w_k)].
        N = cfg.num_modes
        w_eff = math.sqrt(cfg.mass**2 + 2.0 / cfg.spacing**2)
        w1 = dispersion(1, cfg)
        want = (cfg.mass / w_eff + w_eff / cfg.mass + 2 * (w1 / w_eff + w_eff / w1)) / (2 * N)
        assert diag[0] == pytest.approx(want, abs=1e-13)


def _residual_cases(N):
    """(X, Y) pairs with defects from roundoff to O(N): random, Y scaled, one entry moved."""
    b = bogoliubov_matrices(LatticeFieldConfig.from_modes(N, mass=1.3, radius=0.9))
    rng = np.random.default_rng(N)
    moved = b.x.copy()
    moved[N // 3, N // 2] += 1e-9
    return {
        "random": (rng.normal(size=(N, N)), rng.normal(size=(N, N))),
        "y-times-1.001": (b.x, 1.001 * b.y),
        "x-entry-plus-1e-9": (moved, b.y),
    }


class TestBogoliubovResidualsTwoProducts:
    """The two-product residuals against the eight-product oracle.

    Both evaluate the same four defects; they differ by the roundoff of the
    products, about 1e-13 on lattice-sized entries, so defects agree to
    1e-12 relative above an absolute floor of 1e-12.  The moved entry makes
    defects near 1e-10, which the floor still resolves to 1%.
    """

    @pytest.mark.parametrize("case", ["random", "y-times-1.001", "x-entry-plus-1e-9"])
    @pytest.mark.parametrize("N", [5, 101, 401])
    def test_matches_eight_products(self, N, case):
        x, y = _residual_cases(N)[case]
        got = bogoliubov_residuals(BogoliubovMatrices(x=x, y=y))
        want = bogoliubov_residuals_eight_products(x, y)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-12, abs=1e-12), name
        assert max(want.values()) > 1e-11  # every case breaks at least one identity

    def test_overflowing_products_raise(self):
        rng = np.random.default_rng(7)
        x, y = 1e160 * rng.normal(size=(6, 6)), 1e160 * rng.normal(size=(6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="overflow"):
                bogoliubov_residuals(BogoliubovMatrices(x=x, y=y))


class TestBogoliubovResidualTiles:
    """The tile-pair defects against the dense N x N expressions they replaced.

    A max does not depend on the order it is taken in, so the tiles must
    give the dense maxima exactly, and a NaN in any tile must reach them.
    """

    @pytest.mark.parametrize("N", [1, 5, _DEFECT_TILE, _DEFECT_TILE + 1, 801])
    def test_equal_to_dense_defects(self, N):
        rng = np.random.default_rng(N)
        r = np.eye(N) + 1e-3 * rng.normal(size=(N, N))
        want = 0.5 * np.max(np.abs(r + r.T - 2.0 * np.eye(N))), 0.5 * np.max(np.abs(r.T - r))
        assert _sym_antisym_defects(r) == want
        x, y = r, 1e-3 * rng.normal(size=(N, N))
        alpha, beta = x + y, x - y
        dense = [alpha @ beta.T, alpha.T @ beta]
        want = [0.5 * np.max(np.abs(d)) for R in dense for d in (R + R.T - 2.0 * np.eye(N), R.T - R)]
        assert list(bogoliubov_residuals(BogoliubovMatrices(x=x, y=y)).values()) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_entry_past_the_first_tile_raises(self, where, bad):
        # Three tiles a side; the entry's row and column of R lie in the second and third.
        N = 2 * _DEFECT_TILE + 44
        x, y = np.eye(N), np.zeros((N, N))
        (x if where == "x" else y)[N - 50, N - 40] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="bogoliubov_residuals overflows"):
                bogoliubov_residuals(BogoliubovMatrices(x=x, y=y))


class TestFinitenessOnLinearData:
    """field_covariance and bogoliubov_matrices judge finiteness on the O(N) data that fixes their result.

    A non-finite ring or row factor must still raise, named after the public
    function, through every caller.
    """

    CFG = LatticeFieldConfig(n=3, mass=1.0, radius=1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ring(self, bad, monkeypatch):
        ring = lattice._correlator_ring

        def poisoned(cfg):
            out = ring(cfg)
            out[1, -1] = bad
            return out

        monkeypatch.setattr(lattice, "_correlator_ring", poisoned)
        for build in (field_covariance, gem_field_pipeline):
            with pytest.raises(NumericOverflowError, match="field_covariance overflows"):
                build(self.CFG)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_row_factors(self, bad, monkeypatch):
        factors = lattice._row_factors

        def poisoned(cfg):
            factor_x, factor_y = factors(cfg)
            factor_y[-1] = bad
            return factor_x, factor_y

        monkeypatch.setattr(lattice, "_row_factors", poisoned)
        with pytest.raises(NumericOverflowError, match="bogoliubov_matrices overflows"):
            bogoliubov_matrices(self.CFG)


class TestFourierRowsMatchLoops:
    """The FFT-built covariance and gathered Fourier rows against the per-k loops they replaced.

    The loops evaluate cos and sin at the unreduced angles 2 pi k a / N, up
    to 2 pi n < pi N, whose rounding reaches eps pi N.  Relative to the
    largest entry, the Bogoliubov rows agree within eps pi N (measured: at
    most 1.8 eps N) and the covariance, where the row errors average out,
    within eps N (measured: at most 0.52 eps N).  Which side holds the error
    is settled against mpmath in :class:`TestLatticeAgainstMpmath`.
    """

    CONFIGS = [(0, 1.0, 1.0), (1, 1.0, 1.0), (7, 0.3, 2.7), (40, 10.0, 0.5), (150, 1.0, 1.0)]

    @pytest.mark.parametrize("n,mass,radius", CONFIGS)
    def test_field_covariance(self, n, mass, radius):
        cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
        gamma, want = field_covariance(cfg), field_covariance_by_loops(cfg)
        bound = EPS * cfg.num_modes * np.max(np.abs(want))
        assert np.max(np.abs(gamma - want)) <= bound

    @pytest.mark.parametrize("n,mass,radius", CONFIGS)
    def test_bogoliubov_matrices(self, n, mass, radius):
        cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
        b = bogoliubov_matrices(cfg)
        for got, want in zip((b.x, b.y), bogoliubov_by_loops(cfg)):
            assert np.max(np.abs(got - want)) <= EPS * math.pi * cfg.num_modes * np.max(np.abs(want))

    def test_dispersion_matches_vector_formula(self):
        cfg = LatticeFieldConfig(n=25, mass=0.7, radius=1.9)
        for k in range(cfg.n + 1):
            s = math.sin(math.pi * k / cfg.num_modes)
            assert dispersion(k, cfg) == math.sqrt(cfg.mass**2 + 4.0 * s * s / cfg.spacing**2)


def _mp_correlation_rows(cfg):
    """c_q(d), c_p(d) for d = 0..N-1: (1/N) sum over all N modes of the variance times cos(2 pi k d / N)."""
    N, n = cfg.num_modes, cfg.n
    mass, radius = mpmath.mpf(cfg.mass), mpmath.mpf(cfg.radius)
    delta = 2 * mpmath.pi * radius / N
    freqs = [mass] + [_mp_dispersion(k, n, mass, radius) for k in range(1, n + 1)]
    rows = []
    for var in ([delta / (2 * w) for w in freqs], [w / (2 * delta) for w in freqs]):
        rows.append([
            (var[0] + 2 * mpmath.fsum(var[k] * mpmath.cos(2 * mpmath.pi * k * d / N) for k in range(1, n + 1))) / N
            for d in range(N)
        ])
    return rows


def _hi_lo(values):
    """Each mpmath value as an unevaluated sum of two doubles, hi + lo."""
    hi = np.array([float(v) for v in values])
    return hi, np.array([float(v - mpmath.mpf(h)) for v, h in zip(values, hi)])


class TestLatticeAgainstMpmath:
    """The lattice constructions against 40-digit mpmath.

    The matmul construction's error grew with N (3.3e-16, 1.2e-15, 6.2e-15
    and 1.4e-14 of max |Gamma| at n = 1, 7, 40, 100), and so did that of
    Fourier rows evaluated at unreduced angles (4.5e-15, 3.9e-14 and 1.9e-13
    at n = 7, 40, 150).
    """

    @pytest.mark.parametrize("n,mass,radius", [(1, 1.0, 1.0), (7, 0.3, 2.7), (40, 10.0, 0.5), (100, 1.0, 1.0)])
    def test_field_covariance(self, n, mass, radius):
        cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
        N = cfg.num_modes
        gamma = field_covariance(cfg)
        sites = np.arange(N)
        lag = (sites[None, :] - sites[:, None]) % N
        worst = 0.0
        for block, row in zip((gamma[0::2, 0::2], gamma[1::2, 1::2]), _mp_correlation_rows(cfg)):
            hi, lo = _hi_lo(row)
            worst = max(worst, np.max(np.abs((block - hi[lag]) - lo[lag])))
        assert worst <= 2e-16 * np.max(np.abs(gamma))
        assert not gamma[0::2, 1::2].any() and not gamma[1::2, 0::2].any()

    @pytest.mark.parametrize("n", [7, 40, 150])
    def test_fourier_rows(self, n):
        cfg = LatticeFieldConfig(n=n, mass=1.0, radius=1.0)
        N = cfg.num_modes
        basis = _fourier_basis(cfg)
        cos_sin = [mpmath.cos_sin(2 * mpmath.pi * k * a / N) for k in range(1, n + 1) for a in range(1, N + 1)]
        want = np.array(cos_sin, dtype=float).reshape(n, N, 2)
        # Rounding the reference to double adds at most 5.6e-17.
        assert np.max(np.abs(basis[1 : n + 1] - want[..., 0])) <= 1.5e-15
        assert np.max(np.abs(basis[n + 1 :] - want[..., 1])) <= 1.5e-15
        assert np.all(basis[0] == 1.0)

    @pytest.mark.parametrize("tau", [1e-6, 0.01, 1.0, 30.0])
    @pytest.mark.parametrize("n", [1, 25, 100, 400])
    def test_pipeline_envelope(self, n, tau):
        # The docstring's envelope: below 9 eps (N/4 + 8 gem), 8.7 at worst
        # (n = 400, tau = 0.01); the bound leaves room for another FFT's rounding.
        with mpmath.workdps(50):
            want = _mp_gem_exact(n, tau, 1.0)
            got = gem_field_pipeline(LatticeFieldConfig(n=n, mass=tau, radius=1.0))
            error = float(abs(mpmath.mpf(got) - want))
        assert error <= 10.0 * EPS * ((2 * n + 1) / 4.0 + 8.0 * float(want))

    @pytest.mark.parametrize("n,mass,radius", [(0, 1.0, 1.0), (1, 0.7, 1.3), (20, 0.3, 2.7), (200, 1e-160, 1.0)])
    def test_translation_invariance_is_exact(self, n, mass, radius):
        cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
        gamma, N = field_covariance(cfg), cfg.num_modes
        i, j = np.meshgrid(np.arange(2 * N), np.arange(2 * N), indexing="ij")
        shifted = gamma[(i + 2) % (2 * N), (j + 2) % (2 * N)]  # every site moved by one
        assert np.array_equal(shifted, gamma)
        assert np.array_equal(gamma, gamma.T)


class TestReducedDeterminant:
    def test_three_site_value(self):
        cfg = LatticeFieldConfig(n=1, mass=1.0, radius=1.0)
        b = bogoliubov_matrices(cfg)
        w1 = _mp_dispersion(1, 1, mpmath.mpf(1), mpmath.mpf(1))
        bracket = 1 + 2 * (1 / w1 + w1) + 4
        want = float(bracket / 36)
        assert reduced_det_from_xy(b, 1) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.2537932, abs=1e-7)

    def test_translation_invariance(self):
        cfg = LatticeFieldConfig(n=5, mass=0.8, radius=1.2)
        b = bogoliubov_matrices(cfg)
        values = [reduced_det_from_xy(b, mode) for mode in range(1, cfg.num_modes + 1)]
        assert max(values) - min(values) < 1e-12

    def test_matches_bracket_formula(self):
        for (n, mass, radius) in [(1, 1.0, 1.0), (4, 0.3, 2.0), (7, 5.0, 0.4)]:
            cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
            b = bogoliubov_matrices(cfg)
            want = float(_mp_gem_exact(n, mass, radius) * 32 * cfg.num_modes + cfg.num_modes**2)
            want /= 4.0 * cfg.num_modes**2  # invert the measure normalization back to det
            assert reduced_det_from_xy(b, 1) == pytest.approx(want, abs=1e-10)

    def test_large_mass_limit(self):
        cfg = LatticeFieldConfig(n=2, mass=1e6, radius=1.0)
        b = bogoliubov_matrices(cfg)
        assert reduced_det_from_xy(b, 1) == pytest.approx(0.25, abs=1e-9)


class TestFieldMeasure:
    def test_three_site_value(self):
        cfg = LatticeFieldConfig(n=1, mass=1.0, radius=1.0)
        want = float(_mp_gem_exact(1, 1, 1))
        assert gem_field_exact(cfg) == pytest.approx(want, abs=1e-15)
        assert gem_field_exact(cfg) == pytest.approx(1.42244e-3, abs=1e-8)

    @pytest.mark.parametrize("mass", [1e4, 1e6])
    @pytest.mark.parametrize("n", [1, 5, 25, 400])
    def test_large_mass_against_mpmath(self, n, mass):
        # The measure lies far below N eps here, so a form that subtracts N/32
        # loses all of it (0.0 for 1.7e-25 at n = 3, mass 1e6); the reference
        # subtracts it too, so it runs at 60 digits.
        with mpmath.workdps(60):
            want = float(_mp_gem_exact(n, mass, 1.0))
        got = gem_field_exact(LatticeFieldConfig(n=n, mass=mass, radius=1.0))
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-15)

    def test_large_mass_decay(self):
        values = [gem_field_exact(LatticeFieldConfig(n=1, mass=m, radius=1.0)) for m in (10.0, 100.0)]
        assert values[1] < 1e-6
        assert values[1] < values[0]

    def test_small_mass_law(self):
        cfg = LatticeFieldConfig(n=50, mass=1e-4, radius=1.0)
        law = 1.0 / (math.tan(math.pi / (2 * cfg.num_modes)) * 32 * math.pi * cfg.radius * cfg.mass)
        assert gem_field_exact(cfg) == pytest.approx(law, rel=1e-2)

    def test_pipeline_states_are_pure(self):
        gamma = field_covariance(LatticeFieldConfig(n=3, mass=0.7, radius=1.1))
        require_pure(gamma)
        assert _purity_residual(gamma) < 1e-12

    def test_dual_route_quick(self):
        for (n, mass, radius) in [(1, 1.0, 1.0), (10, 0.5, 2.0)]:
            cfg = LatticeFieldConfig(n=n, mass=mass, radius=radius)
            assert gem_field_pipeline(cfg) == pytest.approx(gem_field_exact(cfg), abs=1e-8)

    def test_dual_route_and_identities_grid(self):
        for N in (3, 5, 21, 101):
            for mass in (0.1, 1.0, 10.0):
                for radius in (0.5, 1.0, 2.0):
                    cfg = LatticeFieldConfig.from_modes(N, mass=mass, radius=radius)
                    exact = gem_field_exact(cfg)
                    assert gem_field_pipeline(cfg) == pytest.approx(exact, abs=max(1e-8, 1e-12 * abs(exact)))
                    residuals = bogoliubov_residuals(bogoliubov_matrices(cfg))
                    assert all(v < 1e-10 for v in residuals.values()), (N, mass, radius, residuals)

    def test_pipeline_vacuum_limit(self):
        cfg = LatticeFieldConfig(n=1, mass=1e4, radius=1.0)
        assert gem_field_pipeline(cfg) == pytest.approx(0.0, abs=1e-8)

    def test_dimensionless_collapse(self):
        a = gem_field_exact(LatticeFieldConfig(n=10, mass=2.0, radius=0.5))
        b = gem_field_exact(LatticeFieldConfig(n=10, mass=1.0, radius=1.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_in_mass(self):
        masses = np.linspace(1.0, 100.0, 30)
        values = [gem_field_exact(LatticeFieldConfig(n=10, mass=float(m), radius=1.0)) for m in masses]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestExactSumsMemory:
    """gem_field_exact holds three arrays of n floats; a host that cannot allocate them is an input error.

    The allocation is made to fail: a huge n must never be allocated here.
    """

    # The first allocation fails at a huge n; the later two at a small n, whose first one succeeds.
    @pytest.mark.parametrize("allocator, n", [("arange", 10**12), ("empty_like", 5)])
    def test_failed_allocation_raises_invalid_argument(self, allocator, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        cfg = LatticeFieldConfig(n=n, mass=1.0, radius=1.0)
        monkeypatch.setattr(np, allocator, refuse)
        with pytest.raises(InvalidArgumentError, match=f"n = {cfg.n} is too large for this host") as info:
            gem_field_exact(cfg)
        assert f"{24 * cfg.n} bytes" in str(info.value)
        assert isinstance(info.value.__cause__, MemoryError)


class TestAsymptotics:
    def test_fixed_coefficients(self):
        for p in (0, 1):
            for tau in (0.5, 1.0, 3.0):
                c = asymptotic_coefficients(tau, p)
                assert c.kappa2 == pytest.approx(1.0 / (16 * math.pi), abs=1e-15)
                assert c.kappa4 == pytest.approx(1.0 / (4 * math.pi**2), abs=1e-15)

    def test_kappa1_value_at_unit_tau(self):
        want = float(
            (1 / mpmath.sqrt(2) + 1 - 2 * mpmath.log(mpmath.pi) + mpmath.log(64) + 2)
            / (32 * mpmath.pi)
        )
        assert asymptotic_coefficients(1.0, 0).kappa1 == pytest.approx(want, abs=1e-15)
        assert asymptotic_coefficients(1.0, 0).kappa1 == pytest.approx(0.05547, abs=1e-5)

    def test_orders_agree_at_two_decimals(self):
        # Successive truncation orders land on the same first two decimals.
        k1_p0 = asymptotic_coefficients(1.0, 0).kappa1
        k1_p1 = asymptotic_coefficients(1.0, 1).kappa1
        assert abs(k1_p0 - k1_p1) < 5e-3

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            asymptotic_coefficients(0.0, 0)
        with pytest.raises(InvalidArgumentError):
            asymptotic_coefficients(1.0, 2)
        with pytest.raises(InvalidArgumentError):
            gem_field_asymptotic(0, 1.0, 0)

    def test_relative_error_decreases_p0(self):
        # Calibrated against the exact sums before freezing: the relative
        # errors at tau = 1, p = 0 are 0.3755, 0.2858, 0.2302, 0.1929 for
        # n = 50, 100, 200, 400.  The truncation's running coefficients are
        # crude, so agreement is slow but strictly monotone.
        rels = []
        for n in (50, 100, 200, 400):
            exact = gem_field_exact(LatticeFieldConfig(n=n, mass=1.0, radius=1.0))
            asym = gem_field_asymptotic(n, 1.0, 0)
            rels.append(abs(asym - exact) / exact)
        assert all(a > b for a, b in zip(rels, rels[1:]))
        assert rels[0] < 0.38
        assert rels[-1] < 0.20

    def test_relative_error_p1_at_500(self):
        # Calibrated: 0.0907 at n = 500, tau = 1.
        exact = gem_field_exact(LatticeFieldConfig(n=500, mass=1.0, radius=1.0))
        asym = gem_field_asymptotic(500, 1.0, 1)
        assert abs(asym - exact) / exact < 0.10

    def test_per_mode_log_growth_bounded(self):
        # Per-mode measure grows like ln(n)/(8 pi^2); the remainder settles
        # to a constant (about -0.0194 at tau = 1).
        remainders = []
        for n in (100, 1000, 10000):
            cfg = LatticeFieldConfig(n=n, mass=1.0, radius=1.0)
            remainders.append(gem_field_exact(cfg) / cfg.num_modes - math.log(n) / (8 * math.pi**2))
        assert all(abs(r) < 0.05 for r in remainders)
        assert abs(remainders[-1] - remainders[-2]) < 1e-4


CONFIG_ENTRY_POINTS = {
    "dispersion": lambda cfg: dispersion(1, cfg),
    "bogoliubov_matrices": bogoliubov_matrices,
    "reduced_det_from_xy": lambda cfg: reduced_det_from_xy(bogoliubov_matrices(cfg), 1),
    "gem_field_exact": gem_field_exact,
    "field_covariance": field_covariance,
    "gem_field_pipeline": gem_field_pipeline,
}


class TestDoubleRange:
    """Masses and radii whose derived quantities leave double range raise one typed error.

    Before, Python floats raised OverflowError or ZeroDivisionError, numpy
    warned (a failure under this suite's warning filter), or inf came back.
    """

    @pytest.mark.parametrize("name", sorted(CONFIG_ENTRY_POINTS))
    @pytest.mark.parametrize("mass, radius", [(1e200, 1.0), (1e-300, 1e300), (1.0, 1e-320)])
    def test_config_entry_points(self, name, mass, radius):
        with pytest.raises(NumericOverflowError, match="overflow"):
            CONFIG_ENTRY_POINTS[name](LatticeFieldConfig(n=3, mass=mass, radius=radius))

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("tau", [1e200, 1e-320])
    def test_asymptotics(self, tau, p):
        with pytest.raises(NumericOverflowError, match="overflow"):
            asymptotic_coefficients(tau, p)
        with pytest.raises(NumericOverflowError, match="overflow"):
            gem_field_asymptotic(3, tau, p)

    @pytest.mark.parametrize("mass, radius", [(1e-200, 1e-200), (1e200, 1e200)])
    def test_tau_leaving_double_range(self, mass, radius):
        # Both inputs are valid; only their product leaves double range.
        cfg = LatticeFieldConfig(n=3, mass=mass, radius=radius)
        with pytest.raises(NumericOverflowError, match="tau"):
            cfg.tau

    def test_tiny_mass_pipeline_is_finite_and_exact(self):
        cfg = LatticeFieldConfig(n=3, mass=1e-300, radius=1.0)
        assert gem_field_pipeline(cfg) == pytest.approx(gem_field_exact(cfg), rel=1e-13)


class TestCompleteElliptic:
    def test_zero_parameter(self):
        assert complete_elliptic("K", 0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert complete_elliptic("E", 0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    @pytest.mark.parametrize("m", [-1.0, -5.0, -1000.0, 0.3, 0.9])
    def test_against_quadrature(self, m):
        assert complete_elliptic("K", m) == pytest.approx(elliptic_by_quadrature("K", m), abs=1e-10)
        assert complete_elliptic("E", m) == pytest.approx(elliptic_by_quadrature("E", m), abs=1e-10)

    @pytest.mark.parametrize("m", [-2.0, 0.5])
    def test_against_mpmath(self, m):
        assert complete_elliptic("K", m) == pytest.approx(float(mpmath.ellipk(m)), abs=1e-12)
        assert complete_elliptic("E", m) == pytest.approx(float(mpmath.ellipe(m)), abs=1e-12)

    @pytest.mark.parametrize("m", [-1e4, -1e8, -1e12, -1e16, -1e17, -1e300])
    def test_large_negative_parameter_against_mpmath(self, m):
        # u/(1+u) rounds to 1 from u = 1e16 on; K(-u) stays finite and accurate there.
        assert complete_elliptic("K", m) == pytest.approx(float(mpmath.ellipk(m)), rel=1e-13)
        assert complete_elliptic("E", m) == pytest.approx(float(mpmath.ellipe(m)), rel=1e-13)

    @pytest.mark.parametrize("m", [round(0.05 * k, 2) for k in range(20)] + [-0.5, -1e4, 0.999])
    def test_full_precision_against_mpmath(self, m):
        # The AGM must stop once a and b agree to rounding: run on to 64 steps,
        # it adds 2^j c^2 terms of an ulp-sized c and puts E(0.5) 7.8e-14 off.
        for kind, reference in (("K", mpmath.ellipk), ("E", mpmath.ellipe)):
            with mpmath.workdps(40):
                want = reference(m)
            assert abs(complete_elliptic(kind, m) - want) <= 1e-15 * abs(want)

    def test_large_negative_parameter_growth(self):
        # E(pi/2 | -L) ~ sqrt(L): the integrand is dominated by sqrt(L)|sin|.
        for L in (1e4, 1e8):
            ratio = complete_elliptic("E", -L) / math.sqrt(L)
            assert ratio == pytest.approx(1.0, abs=2e-2 if L > 1e6 else 2e-1)

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            complete_elliptic("K", 1.0)
        assert complete_elliptic("E", 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_invalid_inputs(self):
        for kind in ("Q", "k", "F"):
            with pytest.raises(InvalidArgumentError):
                complete_elliptic(kind, 0.5)
        with pytest.raises(InvalidArgumentError):
            complete_elliptic("K", 2.0)
