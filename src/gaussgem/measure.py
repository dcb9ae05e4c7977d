"""Local-sp(2,R) metric machinery and the entanglement measure itself.

Each mode carries the three Hermitian quadratic generators

    T1 = (q^2 - p^2)/4,   T2 = -(qp + pq)/4,   T3 = (q^2 + p^2)/4,

which close the sp(2,R) algebra [T1,T2] = -i T3, [T2,T3] = i T1,
[T3,T1] = i T2.  The restriction of the Fubini-Study metric to the orbit of
local one-mode Gaussian unitaries has components g[(mode,i),(mode',j)]
expressible entirely in covariance-matrix entries; contracting the
mode-diagonal blocks with the inverse Killing form of sp(2,R) and subtracting
the separable baseline N/8 yields the entanglement measure.  The same number
comes out of the reduced single-mode purities,

    measure = (1/8) sum_mode [det Gamma^(mode) - 1/4],

which is the cheap production route; the metric route exists as an
independent cross-check of the whole construction.

Metric tensors are stored as dense 3N x 3N symmetric arrays with row index
3*(mode-1) + (i-1) for generator i of the given mode.

Every route also takes a (..., 2N, 2N) stack and keeps its leading axes:
each slice is bit-identical to the one-state call, where a float stays a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_PURITY_TOL, build_omega, require_pure
from .errors import InvalidArgumentError, UnphysicalStateError

# Structure constants of sp(2,R) in the T1,T2,T3 basis: [T_i, T_j] = c[i,j,k] T_k.
_STRUCTURE = np.zeros((3, 3, 3), dtype=complex)
_STRUCTURE[0, 1, 2] = -1j
_STRUCTURE[1, 0, 2] = 1j
_STRUCTURE[1, 2, 0] = 1j
_STRUCTURE[2, 1, 0] = -1j
_STRUCTURE[2, 0, 1] = 1j
_STRUCTURE[0, 2, 1] = -1j


@dataclass(frozen=True)
class Sp2KillingForm:
    """Killing form of sp(2,R) and its inverse, in the T1,T2,T3 basis."""

    matrix: np.ndarray
    inverse: np.ndarray


def killing_form_sp2() -> Sp2KillingForm:
    """Killing form kappa_ij = Tr(ad_i o ad_j) = 2 diag(-1, -1, 1).

    Recomputed from the structure constants on every call and checked against
    the closed form, so a sign-convention drift in the algebra constants
    cannot pass silently.  :func:`killing_contraction` uses the copy computed
    once at import.
    """
    ad = [np.array([[_STRUCTURE[i, j, k] for j in range(3)] for k in range(3)]) for i in range(3)]
    kappa = np.array([[np.trace(ad[i] @ ad[j]) for j in range(3)] for i in range(3)])
    if np.max(np.abs(kappa.imag)) > 1e-14:
        raise AssertionError("Killing form acquired an imaginary part")
    kappa = kappa.real
    expected = 2.0 * np.diag([-1.0, -1.0, 1.0])
    if not np.allclose(kappa, expected, atol=1e-14):
        raise AssertionError(f"structure constants give {kappa}, expected {expected}")
    return Sp2KillingForm(matrix=kappa, inverse=np.linalg.inv(kappa))


_KILLING_INVERSE = killing_form_sp2().inverse


@dataclass(frozen=True)
class MomentTable:
    """First and second moments of the local generators in a Gaussian state.

    ``first[..., m, i]`` is <T_(m,i)>; ``second[..., m, n, i, j]`` is the
    symmetrized real part of <T_(m,i) T_(n,j)> (the value entering the metric;
    the imaginary part cancels between the (m,i),(n,j) and (n,j),(m,i)
    orders).  Mode axes are 0-based here; leading axes index a stack.
    """

    first: np.ndarray
    second: np.ndarray

    @property
    def num_modes(self) -> int:
        return self.first.shape[-2]


@dataclass(frozen=True)
class MetricTensor:
    """Restricted Fubini-Study metric g, or its shifted form h.

    ``matrix`` is (..., 3N, 3N), each slice symmetric under
    ((mode,i) <-> (mode',j)).
    """

    matrix: np.ndarray

    @property
    def num_modes(self) -> int:
        return self.matrix.shape[-1] // 3

    def component(self, mode_a: int, gen_a: int, mode_b: int, gen_b: int) -> float | np.ndarray:
        """Entry for (mode_a, T_gen_a) x (mode_b, T_gen_b); all indices 1-based."""
        for mode in (mode_a, mode_b):
            if not 1 <= mode <= self.num_modes:
                raise InvalidArgumentError(f"mode index {mode} outside 1..{self.num_modes}")
        for gen in (gen_a, gen_b):
            if not 1 <= gen <= 3:
                raise InvalidArgumentError(f"generator index {gen} outside 1..3")
        entry = self.matrix[..., 3 * (mode_a - 1) + gen_a - 1, 3 * (mode_b - 1) + gen_b - 1]
        return float(entry) if entry.ndim == 0 else entry

    def mode_block(self, mode_a: int, mode_b: int) -> np.ndarray:
        """3x3 generator block for a mode pair (1-based)."""
        a, b = 3 * (mode_a - 1), 3 * (mode_b - 1)
        return self.matrix[..., a : a + 3, b : b + 3].copy()


def _quadrature_blocks(gamma: np.ndarray):
    """Split Gamma into (..., N, N) matrices Qq, Pp, Pq (Pq[m,n] = Gamma_{p_m, q_n})."""
    return gamma[..., 0::2, 0::2], gamma[..., 1::2, 1::2], gamma[..., 1::2, 0::2]


def _assemble(num_modes: int, families: dict) -> np.ndarray:
    """Build the symmetric (..., 3N, 3N) metric from family matrices F^{ij} (i <= j).

    ``families[(i, j)][..., m, n]`` holds the ((m,i),(n,j)) component family.
    The (j, i) families follow from the overall symmetry of the tensor;
    diagonal families are symmetrized over the mode pair.
    """
    lead = np.broadcast_shapes(*(F.shape[:-2] for F in families.values()))
    M = np.zeros(lead + (num_modes, 3, num_modes, 3))  # M[..., m, i, n, j] is entry (3m + i, 3n + j)
    for (i, j), F in families.items():
        FT = F.swapaxes(-1, -2)
        if i == j:
            F = FT = 0.5 * (F + FT)
        M[..., :, i, :, j] = F
        M[..., :, j, :, i] = FT
    return M.reshape(lead + (3 * num_modes, 3 * num_modes))


def moments_from_covariance(gamma: np.ndarray) -> MomentTable:
    """Generator moments of a pure Gaussian state via Wick pairings.

    Two-point data enters as C = Gamma + (i/2) Omega; four-point functions are
    the three-pairing sums of C, and the second-moment table stores the
    symmetrized real parts.

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    gamma = require_pure(gamma)
    num_modes = gamma.shape[-1] // 2
    C = gamma + 0.5j * build_omega(num_modes)
    Cqq, Cpp, Cpq, Cqp = C[..., 0::2, 0::2], C[..., 1::2, 1::2], C[..., 1::2, 0::2], C[..., 0::2, 1::2]
    dq = np.diagonal(Cqq, 0, -2, -1)
    dp = np.diagonal(Cpp, 0, -2, -1)
    dcross = np.diagonal(Cpq, 0, -2, -1) + np.diagonal(Cqp, 0, -2, -1)  # = 2 Gamma_{pq} per mode

    first = np.stack([(dq - dp).real / 4.0, -dcross.real / 4.0, (dq + dp).real / 4.0], axis=-1)

    out = lambda u, v: u[..., :, None] * v[..., None, :]
    second = np.empty((3, 3) + C.shape[:-2] + (num_modes, num_modes), dtype=complex)
    second[0, 0] = (2 * Cpp**2 - 2 * Cpq**2 - 2 * Cqp**2 + out(dp - dq, dp - dq) + 2 * Cqq**2) / 16
    second[0, 1] = (4 * Cpp * Cpq - 4 * Cqq * Cqp + out(dp - dq, dcross)) / 16
    second[0, 2] = (-2 * Cpp**2 - 2 * Cpq**2 + 2 * (Cqp**2 + Cqq**2) - out(dp - dq, dp + dq)) / 16
    second[1, 0] = (4 * Cpp * Cqp - 4 * Cqq * Cpq + out(dcross, dp - dq)) / 16
    second[1, 1] = (4 * (Cpq * Cqp + Cpp * Cqq) + out(dcross, dcross)) / 16
    second[1, 2] = (-4 * (Cpp * Cqp + Cqq * Cpq) - out(dcross, dp + dq)) / 16
    second[2, 0] = (-2 * Cpp**2 + 2 * Cpq**2 - 2 * Cqp**2 - out(dp + dq, dp - dq) + 2 * Cqq**2) / 16
    second[2, 1] = (-4 * Cpp * Cpq - 4 * Cqq * Cqp - out(dp + dq, dcross)) / 16
    second[2, 2] = (2 * Cpp**2 + 2 * Cpq**2 + 2 * (Cqp**2 + Cqq**2) + out(dp + dq, dp + dq)) / 16

    # Symmetrized real part; <T_(n,j) T_(m,i)> is the conjugate of
    # <T_(m,i) T_(n,j)>, so the average is real by construction.
    sym = 0.5 * (second + second.swapaxes(0, 1).swapaxes(-1, -2))
    return MomentTable(first=first, second=np.moveaxis(sym.real, (0, 1), (-2, -1)))


def metric_from_moments(moments: MomentTable) -> MetricTensor:
    """Metric assembly g = -(M_ij + M_ji)/2 + M_i M_j from a moment table."""
    n = moments.num_modes
    first = moments.first
    # Entry [..., m, n, i, j] is component ((m, i), (n, j)); reorder to [..., m, i, n, j].
    M = -moments.second + first[..., :, None, :, None] * first[..., None, :, None, :]
    M = M.swapaxes(-3, -2).reshape(first.shape[:-2] + (3 * n, 3 * n))
    return MetricTensor(0.5 * (M + M.swapaxes(-1, -2)))


def metric_g(gamma: np.ndarray) -> MetricTensor:
    """Restricted Fubini-Study metric of a pure state, from the closed forms.

    Agrees entrywise with :func:`metric_from_moments` applied to
    :func:`moments_from_covariance`; the closed forms skip the complex
    intermediates.

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    gamma = require_pure(gamma)
    num_modes = gamma.shape[-1] // 2
    Qq, Pp, Pq = _quadrature_blocks(gamma)
    Qp = Pq.swapaxes(-1, -2)  # Qp[m, n] = Gamma_{q_m, p_n} = Gamma_{p_n, q_m}
    eye = np.eye(num_modes)
    fams = {
        (0, 0): (-Pp**2 + Pq**2 + Qp**2 - Qq**2) / 8.0 - eye / 16.0,
        (0, 1): (Qq * Qp - Pp * Pq) / 4.0,
        (0, 2): (Pp**2 + Pq**2 - Qp**2 - Qq**2) / 8.0,
        (1, 1): (-eye - 4.0 * (Pq * Qp + Pp * Qq)) / 16.0,
        (1, 2): (Pp * Qp + Qq * Pq) / 4.0,
        (2, 2): (eye - 2.0 * (Pp**2 + Pq**2 + Qp**2 + Qq**2)) / 16.0,
    }
    return MetricTensor(_assemble(num_modes, fams))


def metric_h(gamma: np.ndarray) -> MetricTensor:
    """Shifted metric h = g - g[separable reference], entrywise closed forms.

    The reference is the pure product state sharing each mode's diagonal
    covariance data, which removes the separable contribution at the level of
    the tensor: all mode-diagonal blocks vanish on separable states, and the
    Killing contraction of h equals the entanglement measure directly.

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    gamma = require_pure(gamma)
    num_modes = gamma.shape[-1] // 2
    Qq, Pp, Pq = _quadrature_blocks(gamma)
    Qp = Pq.swapaxes(-1, -2)
    dq = np.diagonal(Qq, 0, -2, -1)
    dp = np.diagonal(Pp, 0, -2, -1)
    c = np.diagonal(Pq, 0, -2, -1)
    eye = np.eye(num_modes)
    ones = np.ones((num_modes, num_modes))
    col = lambda v: v[..., :, None]  # mode-m data broadcast across n
    fams = {
        (0, 0): (-Pp**2 + Pq**2 + Qp**2 - Qq**2 + col((dp - dq) ** 2) + ones - eye / 2.0) / 8.0,
        (0, 1): (-Pp * Pq + Qq * Qp + col(c * (dp - dq))) / 4.0,
        (0, 2): (Pp**2 - col(dp**2) + Pq**2 - Qp**2 - Qq**2 + col(dq**2)) / 8.0,
        (1, 1): (-Pq * Qp - Pp * Qq + 2.0 * col(dp * dq) - eye / 4.0) / 4.0,
        (1, 2): (Pp * Qp + Qq * Pq - col(c * (dp + dq))) / 4.0,
        # Subtracting the separable reference from the (3,3) family gives twice
        # the naive half-sum; spelled out so the Killing contraction of h
        # reproduces the purity route exactly.
        (2, 2): (-Pp**2 - Pq**2 - Qp**2 - Qq**2 + col((dp + dq) ** 2) - ones + eye / 2.0) / 8.0,
    }
    return MetricTensor(_assemble(num_modes, fams))


def killing_contraction(metric: MetricTensor) -> float | np.ndarray:
    """Sum over modes of kappa^{ij} g[(m,i),(m,j)] (mode-diagonal blocks only).

    The Killing form of the direct-sum algebra is block diagonal across modes,
    so cross-mode blocks never enter the contraction.
    """
    n = metric.num_modes
    M = metric.matrix.reshape(metric.matrix.shape[:-2] + (n, 3, n, 3))
    blocks = np.moveaxis(np.diagonal(M, 0, -4, -2), -1, -3)  # (..., n, 3, 3) mode-diagonal blocks
    # cumsum adds the per-mode terms in mode order, as a running sum does.
    total = (blocks * _KILLING_INVERSE).sum(axis=(-2, -1)).cumsum(axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


def gem_from_metric(gamma: np.ndarray) -> float | np.ndarray:
    """Entanglement measure via the Killing contraction of the metric.

    Equals killing_contraction(metric_g) - N/8; the subtraction is the
    separable baseline, so the result vanishes on product states.  Identical
    (up to rounding) to contracting metric_h without any subtraction.
    The purity gate runs once, inside :func:`metric_g`.
    """
    metric = metric_g(gamma)
    return killing_contraction(metric) - metric.num_modes / 8.0


def _mode_dets(gamma: np.ndarray) -> np.ndarray:
    """det Gamma^(mode) of every mode-diagonal 2x2 block, shape (..., N)."""
    rows = np.arange(gamma.shape[-1]).reshape(-1, 2, 1)  # rows 2m, 2m + 1 of mode m
    # One stacked det over the (..., N, 2, 2) mode blocks; it runs the same
    # LAPACK call per block as a det of each block on its own.
    return np.linalg.det(gamma[..., rows, rows.reshape(-1, 1, 2)])


def gem_from_purity(gamma: np.ndarray) -> float | np.ndarray:
    """Entanglement measure from reduced purities.

    (1/32) sum_mode [P(rho^(mode))^-2 - 1] = (1/8) sum_mode [det Gamma^(mode) - 1/4].
    Non-negative for every pure state and zero exactly on product states.

    Returns a float for a 2N x 2N covariance and an array of shape (...) for
    a (..., 2N, 2N) stack; every slice must pass the purity gate.
    """
    dets = _mode_dets(require_pure(gamma))
    # cumsum adds in mode order, as a running sum does; np.sum would add pairwise.
    total = (dets - 0.25).cumsum(axis=-1)[..., -1] / 8.0
    return float(total) if np.ndim(total) == 0 else total


def mode_purities(gamma: np.ndarray) -> list[float] | np.ndarray:
    """Reduced single-mode purities 1/(2 sqrt(det Gamma^(mode))), one per mode, clamped to 1.

    A list of N floats for one state; an array of shape (..., N) for a stack.

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check, or a reduced
            det lies below the uncertainty bound 1/4 by more than ``DEFAULT_PURITY_TOL``.
    """
    dets = _mode_dets(require_pure(gamma))
    if (dets < 0.25 - DEFAULT_PURITY_TOL).any():
        raise UnphysicalStateError(f"reduced det {dets.min()} below the uncertainty bound 0.25")
    purities = np.minimum(1.0, 0.5 / np.sqrt(np.maximum(dets, 0.25)))
    return purities.tolist() if purities.ndim == 1 else purities
