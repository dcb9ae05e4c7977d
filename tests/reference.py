"""High-precision references for the tests, in mpmath.

Every helper takes its precision as ``dps`` (decimal digits, default
``DPS``) and runs all of its mpmath arithmetic under ``mpmath.workdps(dps)``,
so its value does not depend on the precision its caller runs at.  A
returned mpf keeps the digits it was computed with; arithmetic on it runs at
the caller's precision.  Nothing here calls gaussgem: a lattice helper reads
only n, mass and radius, from the numbers or the config it is given.
``test_reference.py`` checks each helper against a closed form.

Lattice field (see ``gaussgem.lattice``): N = 2n + 1 sites on a circle of
radius R, spacing delta = 2 pi R / N, mass m.

Graph states (see ``gaussgem.graphs``): N modes, quadratures ordered
(q1, p1, ..., qN, pN), edges as (i, j, w) triples with 1 <= i < j <= N and
complex weight w.  The generator h has the block [[Re w, -Im w], [-Im w, Re w]]
at (i, j) and at (j, i), S = exp(Omega h) with Omega the block diagonal of
[[0, 1], [-1, 0]], and the state's covariance is Gamma = S S^T / 2.
"""

import mpmath
import numpy as np

#: Default precision of every helper, in decimal digits.
DPS = 40


def field_dispersion(k, n, mass, radius, *, dps=DPS):
    """omega_k = sqrt(m^2 + (4/delta^2) sin^2(pi k / N))."""
    with mpmath.workdps(dps):
        N = 2 * n + 1
        mass, radius = mpmath.mpf(mass), mpmath.mpf(radius)
        delta = 2 * mpmath.pi * radius / N
        return mpmath.sqrt(mass**2 + 4 * mpmath.sin(mpmath.pi * k / N) ** 2 / delta**2)


def field_gem_exact(n, mass, radius, *, dps=DPS):
    """(1/32N) [1 + 2 sum_k (m/omega_k + omega_k/m) + 4 sum_{k,k'} omega_k/omega_k'] - N/32, k = 1..n.

    The last step subtracts N/32, so the value keeps about dps minus
    log10(N / (32 gem)) digits; at large mass take more.
    """
    with mpmath.workdps(dps):
        N = 2 * n + 1
        mass = mpmath.mpf(mass)
        omegas = [field_dispersion(k, n, mass, radius, dps=dps) for k in range(1, n + 1)]
        bracket = mpmath.mpf(1)
        bracket += 2 * mpmath.fsum(mass / w + w / mass for w in omegas)
        bracket += 4 * mpmath.fsum(omegas) * mpmath.fsum(1 / w for w in omegas)
        return bracket / (32 * N) - mpmath.mpf(N) / 32


def field_correlation_rows(cfg, *, dps=DPS):
    """c_q(d), c_p(d) for d = 0..N-1: (1/N) sum over all N modes of the variance times cos(2 pi k d / N).

    The mode variances are <q^2> = delta/(2 w) and <p^2> = w/(2 delta), w = m
    for the zero mode and omega_k for the modes +-k.
    """
    with mpmath.workdps(dps):
        N, n = cfg.num_modes, cfg.n
        mass, radius = mpmath.mpf(cfg.mass), mpmath.mpf(cfg.radius)
        delta = 2 * mpmath.pi * radius / N
        freqs = [mass] + [field_dispersion(k, n, mass, radius, dps=dps) for k in range(1, n + 1)]
        rows = []
        for var in ([delta / (2 * w) for w in freqs], [w / (2 * delta) for w in freqs]):
            rows.append([
                (var[0] + 2 * mpmath.fsum(var[k] * mpmath.cos(2 * mpmath.pi * k * d / N) for k in range(1, n + 1))) / N
                for d in range(N)
            ])
        return rows


def hi_lo(values, *, dps=DPS):
    """Each mpmath value as an unevaluated sum of two doubles, hi + lo."""
    with mpmath.workdps(dps):
        hi = np.array([float(v) for v in values])
        return hi, np.array([float(v - mpmath.mpf(h)) for v, h in zip(values, hi)])


def graph_generator(num_modes, edges, *, dps=DPS):
    """The 2N x 2N generator h of a graph, as an mpmath matrix."""
    with mpmath.workdps(dps):
        h = mpmath.zeros(2 * num_modes)
        for i, j, w in edges:
            w = mpmath.mpc(w)
            for a, b in ((2 * i - 2, 2 * j - 2), (2 * j - 2, 2 * i - 2)):
                h[a, b] = h[a + 1, b + 1] = w.real
                h[a, b + 1] = h[a + 1, b] = -w.imag
        return h


def graph_covariance(num_modes, edges, *, dps=DPS):
    """Gamma = S S^T / 2 with S = mpmath.expm(Omega h), as an mpmath matrix."""
    with mpmath.workdps(dps):
        omega = mpmath.zeros(2 * num_modes)
        for m in range(num_modes):
            omega[2 * m, 2 * m + 1], omega[2 * m + 1, 2 * m] = 1, -1
        S = mpmath.expm(omega * graph_generator(num_modes, edges, dps=dps))
        return S * S.T / 2


def _mode_det(gamma, m):
    """det of mode m's 2 x 2 diagonal block (0-based), at the caller's precision."""
    a = 2 * m
    return gamma[a, a] * gamma[a + 1, a + 1] - gamma[a, a + 1] * gamma[a + 1, a]


def gem_purity_form(gamma, *, dps=DPS):
    """(1/32) sum_m [P_m^-2 - 1] with P_m = 1 / (2 sqrt(det Gamma_m)), i.e. (1/8) sum_m (det Gamma_m - 1/4)."""
    with mpmath.workdps(dps):
        return mpmath.fsum(_mode_det(gamma, m) - mpmath.mpf(1) / 4 for m in range(gamma.rows // 2)) / 8


def log_negativity_two_mode(gamma, *, dps=DPS):
    """-ln(2 nu~) of a pure two-mode state, from mode 1's block: ln(2 sqrt(d) + 2 sqrt(d - 1/4)), d = det Gamma_11.

    nu~ = sqrt(d) - sqrt(d - 1/4) for a pure state (Adesso and Illuminati,
    J. Phys. A 40, 7821 (2007)); its reciprocal form sums two non-negative
    terms, so nothing cancels at strong squeezing.
    """
    with mpmath.workdps(dps):
        d = _mode_det(gamma, 0)
        return mpmath.log(2 * mpmath.sqrt(d) + 2 * mpmath.sqrt(d - mpmath.mpf(1) / 4))
