"""Each high-precision reference helper against a closed form.

The checks run at a caller precision of 15 digits and ask the helper for
60, so they also show that a helper keeps its own precision.  At n = 1 the
lattice has N = 3 sites and one mode pair, with
omega_1^2 = m^2 + (4/delta^2) sin^2(pi/3) = m^2 + 27/(4 pi^2 R^2).  The
two-mode graph state of weight w = i r has mode blocks cosh(2r) I / 2, so
gem = sinh^2(2r) / 16 and the log negativity is 2r.
"""

import mpmath
import numpy as np
import pytest

import reference
from gaussgem import LatticeFieldConfig

MASS, RADIUS = 0.5, 2.0


@pytest.fixture(autouse=True)
def _fifteen_digits():
    with mpmath.workdps(15):
        yield


def _omega_three_sites():
    """omega_1 at n = 1 in closed form, at 60 digits."""
    with mpmath.workdps(60):
        m, R = mpmath.mpf(MASS), mpmath.mpf(RADIUS)
        return mpmath.sqrt(m**2 + 27 / (4 * mpmath.pi**2 * R**2))


def _within(got, want, digits=55):
    with mpmath.workdps(60):
        return abs(got - want) <= mpmath.mpf(10) ** -digits * abs(want)


def test_field_dispersion_three_sites():
    assert _within(reference.field_dispersion(1, 1, MASS, RADIUS, dps=60), _omega_three_sites())
    assert mpmath.mp.dps == 15


def test_field_gem_exact_three_sites():
    # One mode pair: the bracket is 5 + 2(m/w + w/m), so gem = (w - m)^2 / (48 m w).
    w = _omega_three_sites()
    with mpmath.workdps(60):
        want = (w - MASS) ** 2 / (48 * MASS * w)
    assert _within(reference.field_gem_exact(1, MASS, RADIUS, dps=60), want, digits=50)


def test_field_correlation_rows_three_sites():
    # cos(2 pi / 3) = cos(4 pi / 3) = -1/2: lag 0 adds the three variances, lags 1 and 2 take m's minus w's.
    w = _omega_three_sites()
    with mpmath.workdps(60):
        m, delta = mpmath.mpf(MASS), 2 * mpmath.pi * RADIUS / 3
        c_q = [delta * (1 / m + 2 / w) / 6] + 2 * [delta * (1 / m - 1 / w) / 6]
        c_p = [(m + 2 * w) / (6 * delta)] + 2 * [(m - w) / (6 * delta)]
    rows = reference.field_correlation_rows(LatticeFieldConfig(n=1, mass=MASS, radius=RADIUS), dps=60)
    for got_row, want_row in zip(rows, (c_q, c_p)):
        assert all(_within(g, v, digits=50) for g, v in zip(got_row, want_row))


def test_hi_lo_one_third():
    # float(1/3) = (2^54 - 1) / (3 * 2^54), so 1/3 - float(1/3) = 2^-54 / 3; 1/2 is a double.
    with mpmath.workdps(60):
        values = [mpmath.mpf(1) / 3, mpmath.mpf(1) / 2]
    hi, lo = reference.hi_lo(values, dps=60)
    assert np.array_equal(hi, [1 / 3, 0.5])
    assert np.array_equal(lo, [2.0**-54 / 3, 0.0])


@pytest.mark.parametrize("r", [1e-6, 0.5, 6.0, 100.0])
def test_graph_two_mode_squeezed(r):
    # At r = 1e-6, det Gamma_m - 1/4 ~ r^2 cancels about 12 of the 60 digits.
    gamma = reference.graph_covariance(2, [(1, 2, 1j * r)], dps=60)
    with mpmath.workdps(60):
        r = mpmath.mpf(r)
        gem, logneg = mpmath.sinh(2 * r) ** 2 / 16, 2 * r
    assert _within(reference.gem_purity_form(gamma, dps=60), gem, digits=45)
    assert _within(reference.log_negativity_two_mode(gamma, dps=60), logneg, digits=45)
    assert mpmath.mp.dps == 15
