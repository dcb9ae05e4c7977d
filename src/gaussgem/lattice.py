"""Discretized Klein-Gordon ground state on a circle and its measure.

The field lives on N = 2n + 1 equally spaced points of a circle of radius R,
lattice spacing delta = 2 pi R / N, with mass m (c = hbar = 1).  Normal modes
carry frequencies

    omega_k = sqrt(m^2 + (4/delta^2) sin^2(pi k / N)),   k = 0..n,

and the ground state is Gaussian.  Two independent routes to the measure are
implemented: the closed form in the mode sums (exact, O(n)), and a dense
position-basis covariance matrix pushed through the generic purity machinery;
they must agree.  Translation invariance makes that covariance circulant, so
it is built from one inverse FFT of the mode variances and filled in O(N^2).
The large-n behavior follows kappa1 + kappa2 ln n + kappa3 n + kappa4 n ln n
with kappa2 = 1/(16 pi) and kappa4 = 1/(4 pi^2) independent of mass, radius
and the sum-to-integral truncation order p.

A mass or radius whose derived frequencies, variances or coefficients leave
double range makes every entry point below raise ``NumericOverflowError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .core import _is_finite_real, _is_integer, _pure_by_construction, _require_mode_count
from .errors import DivergenceError, InvalidArgumentError, NumericOverflowError
from .measure import gem_from_purity

__all__ = [
    "AsymptoticCoefficients",
    "BogoliubovMatrices",
    "LatticeFieldConfig",
    "asymptotic_coefficients",
    "bogoliubov_matrices",
    "bogoliubov_residuals",
    "complete_elliptic",
    "dispersion",
    "field_covariance",
    "gem_field_asymptotic",
    "gem_field_exact",
    "gem_field_pipeline",
    "reduced_det_from_xy",
]


def _all_finite(value) -> bool:
    """Whether every number in a lattice result is finite: a float, an array, a dict or a record."""
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in fields(value))
    return bool(np.isfinite(value).all())


def _within_double_range(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, raising NumericOverflowError that names ``name`` where it leaves double range.

    Python floats raise OverflowError or ZeroDivisionError there, numpy would
    warn, and some products turn into inf without either; all three end in
    the one typed error.  A public function whose O(N^2) result is fixed by
    O(N) data calls its helper for that data through here and builds the rest
    from finite numbers without arithmetic that can leave double range.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value = fn(*args, **kwargs)
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        raise NumericOverflowError(f"{name} overflows double precision at this mass and radius") from exc
    if not _all_finite(value):
        raise NumericOverflowError(f"{name} overflows double precision at this mass and radius")
    return value


def _in_double_range(fn):
    """Make ``fn`` raise NumericOverflowError, named after it, where its arithmetic leaves double range."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        return _within_double_range(fn.__name__, fn, *args, **kwargs)

    return checked


@dataclass(frozen=True)
class LatticeFieldConfig:
    """Odd-size lattice: n pairs of rotating modes plus the zero mode.

    Attributes:
        n: non-negative integer, N = 2n + 1 lattice sites; an array of N
            float64 values, 8N bytes, must not exceed ``np.iinfo(np.intp).max``,
            numpy's largest array size in bytes.
        mass: field mass, a finite real number > 0 (inverse length).
        radius: circle radius, a finite real number > 0 (length).
    """

    n: int
    mass: float
    radius: float

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 0:
            raise InvalidArgumentError(f"n must be a non-negative integer, got {self.n!r}")
        if 8 * (2 * int(self.n) + 1) > np.iinfo(np.intp).max:
            raise InvalidArgumentError(
                f"n = {self.n} is too large: N = 2n + 1 float64 values exceed numpy's largest array size, "
                f"{np.iinfo(np.intp).max} bytes"
            )
        if not (_is_finite_real(self.mass) and self.mass > 0):
            raise InvalidArgumentError(f"mass must be a positive real number, got {self.mass!r}")
        if not (_is_finite_real(self.radius) and self.radius > 0):
            raise InvalidArgumentError(f"radius must be a positive real number, got {self.radius!r}")

    @property
    def num_modes(self) -> int:
        return 2 * self.n + 1

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi * self.radius / self.num_modes

    @property
    def tau(self) -> float:
        """Dimensionless mass-radius combination; the measure depends on (n, tau) only.

        Raises:
            NumericOverflowError: the product of a valid mass and radius
                underflows to 0 or overflows to inf.
        """
        tau = self.mass * self.radius
        if not (math.isfinite(tau) and tau > 0.0):
            raise NumericOverflowError(
                f"tau = mass * radius leaves double precision at mass {self.mass!r}, radius {self.radius!r}"
            )
        return tau

    @classmethod
    def from_modes(cls, num_modes: int, mass: float, radius: float) -> "LatticeFieldConfig":
        """Build from the site count N, which must be odd."""
        _require_mode_count(num_modes)
        if num_modes % 2 == 0:
            raise InvalidArgumentError(
                f"mode count must be odd (N = 2n + 1); got even N = {num_modes}"
            )
        return cls(n=(num_modes - 1) // 2, mass=mass, radius=radius)


@dataclass(frozen=True)
class BogoliubovMatrices:
    """Real N x N blocks of the site -> normal-mode Bogoliubov transformation.

    Row 0 is the zero mode, rows 1..n the cosine modes, rows n+1..2n the sine
    modes; columns are lattice sites a = 1..N.  The pair satisfies
    X X^T - Y Y^T = I, X Y^T = Y X^T, X^T X - Y^T Y = I, X^T Y = Y^T X.
    """

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Running coefficients of the large-n expansion at truncation order p."""

    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    p: int
    tau: float


def _omega(cfg: LatticeFieldConfig, k) -> np.ndarray:
    """omega_k for a mode number k or an array of them; :func:`dispersion` checks k."""
    s = np.sin(np.pi * k / cfg.num_modes)
    return np.sqrt(cfg.mass**2 + 4.0 * s * s / cfg.spacing**2)


@_in_double_range
def dispersion(k: int, cfg: LatticeFieldConfig) -> float:
    """Normal-mode frequency omega_k, monotone in k with omega_0 = mass."""
    if not _is_integer(k) or not 0 <= k <= cfg.n:
        raise InvalidArgumentError(f"mode number {k!r} outside 0..{cfg.n}")
    return float(_omega(cfg, k))


def _fourier_basis(cfg: LatticeFieldConfig) -> np.ndarray:
    """Unnormalized real Fourier rows over the sites a = 1..N.

    Rows as in :class:`BogoliubovMatrices`: ones, cos(2 pi k a / N), sin(2 pi k a / N).
    The angle is 2 pi j / N with j = k a mod N, so every entry is gathered
    from one table of the N phases 2 pi j / N, all below 2 pi; against
    40-digit mpmath each entry is within 1e-15 of its exact value, and every
    entry lies in [-1, 1].
    """
    N, n = cfg.num_modes, cfg.n
    j = np.multiply.outer(np.arange(1, n + 1), np.arange(1, N + 1))
    j %= N
    phase = 2.0 * np.pi * np.arange(N) / N
    basis = np.empty((N, N))
    basis[0] = 1.0
    basis[1 : n + 1] = np.cos(phase)[j]
    basis[n + 1 :] = np.sin(phase)[j]
    return basis


def _row_factors(cfg: LatticeFieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """X's and Y's unnormalized row factors sqrt(f/w) + sqrt(w/f) and sqrt(w/f) - sqrt(f/w).

    f is each Fourier row's frequency (m for the ones row, omega_k for the
    cosine and sine rows of mode k) and w = sqrt(m^2 + 2/delta^2); the second
    factor carries Y's overall minus sign.
    """
    omegas = _omega(cfg, np.arange(1, cfg.n + 1))
    freqs = np.concatenate([[cfg.mass], omegas, omegas])
    w_eff = math.sqrt(cfg.mass**2 + 2.0 / cfg.spacing**2)
    up, down = np.sqrt(freqs / w_eff), np.sqrt(w_eff / freqs)
    return up + down, down - up


def bogoliubov_matrices(cfg: LatticeFieldConfig) -> BogoliubovMatrices:
    """X and Y of the site-operator -> normal-mode-operator transformation.

    Zero-mode row: (1/2)(sqrt(m/w) +- sqrt(w/m)) / sqrt(N) with w the
    effective on-site frequency sqrt(m^2 + 2/delta^2).  Cosine and sine rows
    carry (1/sqrt 2)(sqrt(omega_k/w) +- sqrt(w/omega_k)) times the
    corresponding Fourier factor; Y has an overall minus sign.  The sine rows
    mirror the cosine rows exactly (same +- pattern), which is what the four
    symplectic identities force.  Against 40-digit mpmath every entry of X
    and Y is within 1e-15 of max |X| for n up to 150.

    Finiteness is judged on the 2N row factors alone, which is the verdict on
    X and Y: every Fourier entry lies in [-1, 1] and the normalization only
    divides, so finite factors give finite X and Y; and each row's entry at
    site a = N is exactly 1 or 0, which an inf or NaN factor turns into inf
    or NaN.
    """
    factor_x, factor_y = _within_double_range("bogoliubov_matrices", _row_factors, cfg)
    basis = _fourier_basis(cfg)
    X, Y = basis * factor_x[:, None], basis * factor_y[:, None]
    for M in (X, Y):
        M[0] *= 0.5
        M[1:] /= math.sqrt(2.0)
        M /= math.sqrt(cfg.num_modes)
    return BogoliubovMatrices(x=X, y=Y)


_DEFECT_TILE = 128


def _sym_antisym_defects(r: np.ndarray) -> tuple[float, float]:
    """max |(R + R^T)/2 - I| and max |(R^T - R)/2|, one pair of tiles at a time.

    |R + R^T - 2I| and |R^T - R| are symmetric, so the tile pairs A = R[I, J],
    B = R[J, I]^T with I <= J cover every entry: A + B and B - A are the
    dense sums entry for entry, formed in one tile of scratch.  np.max over
    the tile maxima returns NaN if any tile held one, as the dense max did.
    """
    N, t = r.shape[0], _DEFECT_TILE
    scratch = np.empty(min(N, t) ** 2)
    sym, anti = [], []
    for i in range(0, N, t):
        for j in range(i, N, t):
            a, b = r[i : i + t, j : j + t], r[j : j + t, i : i + t].T
            s = scratch[: a.size].reshape(a.shape)
            np.add(a, b, out=s)
            if i == j:
                s.flat[:: s.shape[0] + 1] -= 2.0
            sym.append(np.max(np.abs(s, out=s)))
            np.subtract(b, a, out=s)
            anti.append(np.max(np.abs(s, out=s)))
    return 0.5 * float(np.max(sym)), 0.5 * float(np.max(anti))


@_in_double_range
def bogoliubov_residuals(b: BogoliubovMatrices) -> dict:
    """Max-norm defects of the four symplectic identities of (X, Y).

    With alpha = X + Y, beta = X - Y, R = alpha beta^T and R' = alpha^T beta,
    exactly for any real X and Y:

        X X^T - Y Y^T = (R + R^T)/2,     X Y^T - Y X^T = (R^T - R)/2,
        X^T X - Y^T Y = (R' + R'^T)/2,   X^T Y - Y^T X = (R'^T - R')/2,

    so two N x N products check all four identities.  Each product is reduced
    to its two maxima, tile by tile with no N x N scratch, before the next one
    is formed in the same buffer.  Finiteness is judged on the four maxima: a
    NaN or inf anywhere in a product reaches its maxima, and one in X or Y
    reaches a product.
    """
    alpha, beta = b.x + b.y, b.x - b.y
    r = alpha @ beta.T
    xxt_yyt, xyt_yxt = _sym_antisym_defects(r)
    np.matmul(alpha.T, beta, out=r)
    xtx_yty, xty_ytx = _sym_antisym_defects(r)
    return {"XXt_YYt": xxt_yyt, "XYt_YXt": xyt_yxt, "XtX_YtY": xtx_yty, "XtY_YtX": xty_ytx}


@_in_double_range
def reduced_det_from_xy(b: BogoliubovMatrices, mode: int) -> float:
    """det of the reduced single-site covariance from the Bogoliubov data.

    (1/4)(Y^T Y + X^T X)_aa^2 - [(Y^T X)_aa^2 + (X^T Y)_aa^2] / 2 for site
    ``mode`` (1-based); identical for every site by translation invariance.
    """
    N = b.x.shape[0]
    if not _is_integer(mode) or not 1 <= mode <= N:
        raise InvalidArgumentError(f"site index {mode} outside 1..{N}")
    x, y = b.x[:, mode - 1], b.y[:, mode - 1]
    xx_yy = float(x @ x + y @ y)
    xy = float(y @ x)  # (Y^T X)_aa = (X^T Y)_aa, so the mean of their squares is xy^2
    return 0.25 * xx_yy**2 - xy**2


@_in_double_range
def gem_field_exact(cfg: LatticeFieldConfig) -> float:
    """Closed-form measure of the lattice ground state.

    (1/32N) [1 + 2 sum_k (m/omega_k + omega_k/m) + 4 sum_{k,k'} omega_k/omega_k'] - N/32,
    summed as non-negative terms so that nothing cancels at large tau: with
    d_k = omega_k - m = (4/delta^2) sin^2(pi k/N) / (omega_k + m) and d their mean,

        gem = [sum_k d_k^2/(m omega_k) + 2n/(m + d) sum_k (d_k - d)^2/omega_k] / (16N).

    It holds exactly three float arrays of length n, 24n bytes, and
    evaluates in place in them.  Finiteness is judged on the returned value,
    which every term reaches through the three sums.

    Raises:
        InvalidArgumentError: numpy cannot allocate the three arrays (MemoryError).
    """
    N, n, m = cfg.num_modes, cfg.n, cfg.mass
    if n == 0:
        return 0.0
    try:
        buf = np.arange(1, n + 1, dtype=float)
        omegas, work = np.empty_like(buf), np.empty_like(buf)
    except MemoryError as exc:
        raise InvalidArgumentError(
            f"n = {n} is too large for this host: the mode sums need three arrays of n floats, {24 * n} bytes"
        ) from exc
    buf *= np.pi
    buf /= N
    np.sin(buf, out=buf)
    buf *= buf
    buf *= 4.0
    buf /= cfg.spacing**2  # omega_k^2 - m^2
    np.add(buf, m**2, out=omegas)  # m**2 raises past double range, where m * m gives inf
    np.sqrt(omegas, out=omegas)
    np.add(omegas, m, out=work)
    buf /= work  # d_k
    d_mean = float(np.sum(buf)) / n
    np.multiply(buf, buf, out=work)
    work /= omegas
    own = float(np.sum(work)) / m
    np.subtract(buf, d_mean, out=work)
    work *= work
    work /= omegas
    return (own + 2.0 * n / (m + d_mean) * float(np.sum(work))) / (16.0 * N)


def _correlator_ring(cfg: LatticeFieldConfig) -> np.ndarray:
    """c_q and c_p at the lags 0..N-1, a 2 x N array, as :func:`field_covariance` builds them."""
    N, n = cfg.num_modes, cfg.n
    freqs = np.concatenate([[cfg.mass], _omega(cfg, np.arange(1, n + 1))])
    rows = np.fft.irfft(np.stack([cfg.spacing / (2.0 * freqs), freqs / (2.0 * cfg.spacing)]), N)
    return np.concatenate([rows[:, : n + 1], rows[:, n:0:-1]], axis=1)


def field_covariance(cfg: LatticeFieldConfig) -> np.ndarray:
    """Position-basis 2N x 2N ground-state covariance matrix.

    Each normal mode is a harmonic oscillator with <q^2> = delta/(2 w) and
    <p^2> = w/(2 delta).  On the circle both site blocks are circulant:
    Gamma_qq[i, j] = c_q[d] at the lag d = (j - i) mod N, where c_q is the
    inverse DFT of the N mode variances, and likewise Gamma_pp with c_p.  One
    real inverse FFT of the variances of k = 0..n gives both rows.  Lags d and
    N - d are the same distance on the circle, so the rows are mirrored about
    n before the fill, and Gamma is symmetric and translation invariant bit
    for bit.  Against 40-digit mpmath its max entry error is below 2e-16 of
    max |Gamma| for n up to 100.

    Finiteness is judged on the 2N ring entries c_q, c_p, which is the
    verdict on Gamma: the fill only copies, every entry of Gamma is a ring
    entry or 0.0, and row 0 of each block holds the whole ring.
    """
    N = cfg.num_modes
    ring = _within_double_range("field_covariance", _correlator_ring, cfg)
    # Window N - i of the doubled ring is row i of the block: ring[(j - i) mod N].
    blocks = np.lib.stride_tricks.sliding_window_view(np.tile(ring, 2), N, axis=1)[:, N:0:-1]
    gamma = np.zeros((2 * N, 2 * N))
    gamma[0::2, 0::2] = blocks[0]
    gamma[1::2, 1::2] = blocks[1]
    return gamma


@_in_double_range
def gem_field_pipeline(cfg: LatticeFieldConfig) -> float:
    """Measure of the ground state through the generic covariance machinery.

    Builds the dense position-basis covariance with :func:`field_covariance`
    and evaluates the purity route; an independent check on
    :func:`gem_field_exact`, which it never calls.  The state is an
    orthogonal Fourier map of oscillator ground states, so it is pure by
    construction: it skips the O(N^3) purity residual, which would also call
    it impure once ||Gamma||_1^2 overflows.  The covariance is accurate to
    2e-16 of its largest entry; the error comes from the sum of
    det Gamma_m - 1/4, which cancels.  Against 50-digit mpmath, for n up to
    400 and tau from 1e-6 to 30, the absolute error stayed below
    9 eps sum_m det Gamma_m = 9 eps (N/4 + 8 gem), with 8.7 eps at n = 400,
    tau = 0.01.  So where gem falls below N eps (large tau) the value keeps
    no relative accuracy and can come out negative.
    """
    return gem_from_purity(_pure_by_construction(field_covariance(cfg)))


@_in_double_range
def asymptotic_coefficients(tau: float, p: int) -> AsymptoticCoefficients:
    """Running large-n coefficients at truncation order p in {0, 1}.

    kappa2 = 1/(16 pi) and kappa4 = 1/(4 pi^2) for every (tau, p); kappa1 and
    kappa3 depend on both.  These are the paper's coefficients, and only kappa4
    agrees with the large-n expansion of the exact mode sums, which gives
    kappa2 = 1/(8 pi^2) = 0.01267, not 1/(16 pi) = 0.01989, and at tau = 1 a
    fitted kappa3 of -0.0388, against -0.0172 (p = 0) and -0.0282 (p = 1) here.
    :func:`gem_field_asymptotic` therefore converges to :func:`gem_field_exact`
    only like 1/ln n.

    Raises:
        InvalidArgumentError: tau not a finite real number > 0, or p outside {0, 1}.
    """
    if not (_is_finite_real(tau) and tau > 0):
        raise InvalidArgumentError(f"tau must be a positive real number, got {tau!r}")
    if p not in (0, 1):
        raise InvalidArgumentError(f"truncation order must be 0 or 1, got {p!r}")
    kappa2 = 1.0 / (16.0 * math.pi)
    kappa4 = 1.0 / (4.0 * math.pi**2)
    base = (1.0 / math.sqrt(tau**2 + 1.0) + 1.0 / tau - 2.0 * math.log(tau)
            - 2.0 * math.log(math.pi) + math.log(64.0))
    if p == 0:
        kappa1 = (base + 2.0) / (32.0 * math.pi)
        kappa3 = (base - math.pi**2 / 2.0) / (8.0 * math.pi**2)
    else:
        c = (tau**2 + 1.0) ** -1.5
        kappa1 = (6.0 * (base + 2.0) + c) / (192.0 * math.pi)
        # 28 pi^2, not the 48 pi^2 of kappa1's pattern: at tau = 1 it is nearer a large-n fit.
        kappa3 = (6.0 * (base - math.pi**2 / 2.0) + c) / (28.0 * math.pi**2)
    return AsymptoticCoefficients(kappa1=kappa1, kappa2=kappa2, kappa3=kappa3, kappa4=kappa4, p=p, tau=tau)


@_in_double_range
def gem_field_asymptotic(n: int, tau: float, p: int) -> float:
    """kappa1 + kappa2 ln n + kappa3 n + kappa4 n ln n at the given order.

    With the coefficients of :func:`asymptotic_coefficients` the law lies
    above :func:`gem_field_exact` by 19.3% at n = 400, 11.1% at n = 1e4 and
    6.9% at n = 1e6 (tau = 1, p = 0): the relative error falls only like
    1/ln n, because kappa2 and kappa3 differ from the exact sums' values.
    """
    if not _is_integer(n) or n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    c = asymptotic_coefficients(tau, p)
    ln = math.log(n)
    return c.kappa1 + c.kappa2 * ln + c.kappa3 * n + c.kappa4 * n * ln


def complete_elliptic(kind: str, parameter: float) -> float:
    """Complete elliptic integral K(m) (``kind="K"``) or E(m) (``kind="E"``), any parameter m <= 1.

    Evaluated by the arithmetic-geometric mean; negative parameters (the
    regime m = -(2n / m pi R)^2 of the continuum limit) go through the
    imaginary-modulus transformation

        K(-u) = K(u/(1+u)) / sqrt(1+u),   E(-u) = sqrt(1+u) E(u/(1+u)).

    The AGM starts from the complementary parameter 1/(1+u) itself, so K
    keeps full relative accuracy where u/(1+u) rounds to 1.

    Raises:
        DivergenceError: K requested at m >= 1.
        InvalidArgumentError: ``kind`` other than "K" or "E", or no finite real parameter <= 1.
    """
    if kind not in ("K", "E"):
        raise InvalidArgumentError(f"kind must be 'K' or 'E', got {kind!r}")
    if not (_is_finite_real(parameter) and parameter <= 1.0):
        raise InvalidArgumentError(f"parameter must be a finite real number <= 1, got {parameter!r}")
    m = float(parameter)
    if kind == "K" and m == 1.0:
        raise DivergenceError("K(m) diverges at m = 1")
    if kind == "E" and m == 1.0:
        return 1.0
    if m < 0.0:
        u = -m
        k_val, e_val = _agm_pair(u / (1.0 + u), 1.0 / (1.0 + u))
        return k_val / math.sqrt(1.0 + u) if kind == "K" else e_val * math.sqrt(1.0 + u)
    k_val, e_val = _agm_pair(m, 1.0 - m)
    return k_val if kind == "K" else e_val


def _agm_pair(m: float, complement: float) -> tuple[float, float]:
    """K(m) and E(m) for 0 <= m < 1 by the arithmetic-geometric mean.

    K = pi / (2 agm(1, sqrt(1-m))); E = K (1 - sum 2^{j-1} c_j^2) with
    c_0^2 = m and c_{j+1} = (a_j - b_j)/2.  Converges quadratically and
    stops once a and b agree to rounding: past that point c stays at an ulp
    while its weight 2^j keeps doubling, so further terms would add only
    rounding noise to E.  The caller passes 1 - m as ``complement``, computed
    without forming 1 - m where m is close to 1.
    """
    a, b = 1.0, math.sqrt(complement)
    terms = [0.5 * m]  # 2^{-1} c_0^2
    weight = 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        weight *= 2.0
        terms.append(weight * c * c)
        if a - b <= 2.0**-52 * a:
            break
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - math.fsum(terms))
