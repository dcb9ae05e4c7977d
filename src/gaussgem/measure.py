"""Local-sp(2,R) metric machinery and the entanglement measure itself.

Each mode carries the three Hermitian quadratic generators

    T1 = (q^2 - p^2)/4,   T2 = -(qp + pq)/4,   T3 = (q^2 + p^2)/4,

defined once, as ``_GENERATORS``: T_i = xi^T A_i xi / 2 with xi = (q, p).
Everything built on the generators is derived from those three 2x2 matrices:
the sp(2,R) structure constants, [T1,T2] = -i T3, [T2,T3] = i T1,
[T3,T1] = i T2, and the Wick sums of the moment tables.  Those sums run in
real arithmetic: with the two-point function C = Gamma + (i/2) Omega,
Re(C_ac C_bd) = Gamma_ac Gamma_bd - omega_ac omega_bd / 4, so the moments are
weighted sums of products of Gamma's quadrature planes plus one constant 3x3
table on each mode-diagonal block, derived from the generators and the
one-mode symplectic form.  A moment table keeps the first moments and these
connected Wick sums; the full second moments are derived from them on
request.  The restriction of the Fubini-Study metric to the orbit of local
one-mode Gaussian unitaries has components g[(mode,i),(mode',j)], minus the
symmetrized connected moments, expressible entirely in covariance-matrix
entries; contracting the mode-diagonal blocks with the inverse Killing form
of sp(2,R) and subtracting the separable baseline N/8 yields the
entanglement measure.  The same number comes out of the reduced single-mode
purities,

    measure = (1/8) sum_mode [det Gamma^(mode) - 1/4],

which is the cheap production route; the metric route exists as an
independent cross-check of the whole construction.

A metric tensor is stored as its six component families F^{ij}, i <= j,
each an N x N array over the mode pair; the dense symmetric 3N x 3N matrix,
with row index 3*(mode-1) + (i-1) for generator i of the given mode, is
assembled from them only when read.  The Killing form is diagonal in the
T1, T2, T3 basis, so the Killing contraction reads the diagonals of the
three families F^{00}, F^{11}, F^{22} alone, and :func:`gem_from_metric`
evaluates the closed forms on the diagonals of Gamma's quadrature blocks
without forming any N x N array.

Every route also takes a (..., 2N, 2N) stack and keeps its leading axes:
each slice is bit-identical to the one-state call, where a float stays a float.
Wherever a route takes an array it also takes a ``core.PureState``: an array
passes the purity gate once per call, a state has passed it already.  The
graph builders return such states, gated once at build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_PURITY_TOL, _mode_dets, build_omega, require_pure
from .errors import UnphysicalStateError

__all__ = [
    "MetricTensor",
    "MomentTable",
    "gem_from_metric",
    "gem_from_purity",
    "killing_contraction",
    "killing_form_sp2",
    "metric_from_moments",
    "metric_g",
    "metric_h",
    "mode_purities",
    "moments_from_covariance",
]

# A_i with T_i = xi^T A_i xi / 2, xi = (q, p): A1 = diag(1, -1)/2, A2 = -sigma_x/2, A3 = I/2.
_GENERATORS = 0.5 * np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [-1.0, 0.0]], np.eye(2)])


def _structure_constants() -> np.ndarray:
    """c[i, j, k] with [T_i, T_j] = c[i, j, k] T_k, projected with tr(A_k A_l) = delta_kl / 2.

    [xi_a, xi_b] = i omega_ab gives [T_i, T_j] = (i/2) xi^T (A_i omega A_j - A_j omega A_i) xi.
    """
    product = _GENERATORS[:, None] @ build_omega(1) @ _GENERATORS[None, :]  # A_i omega A_j
    return 2j * np.einsum("kab,ijab->ijk", _GENERATORS, product - product.swapaxes(0, 1))


_STRUCTURE = _structure_constants()


def killing_form_sp2() -> np.ndarray:
    """Killing form kappa_ij = Tr(ad_i o ad_j) = 2 diag(-1, -1, 1), a 3x3 array in the T1,T2,T3 basis.

    Recomputed from the structure constants on every call and checked against
    the closed form, so a sign-convention drift in the generator matrices,
    which the moment tables use as well, cannot pass silently.
    :func:`killing_contraction` uses the inverse computed once at import,
    where it is checked to be diagonal, and reads only that diagonal.
    """
    kappa = np.einsum("ilk,jkl->ij", _STRUCTURE, _STRUCTURE)  # (ad_i)_kl = c[i, l, k]
    if np.max(np.abs(kappa.imag)) > 1e-14:
        raise AssertionError("Killing form acquired an imaginary part")
    kappa = kappa.real
    expected = 2.0 * np.diag([-1.0, -1.0, 1.0])
    if not np.allclose(kappa, expected, atol=1e-14):
        raise AssertionError(f"structure constants give {kappa}, expected {expected}")
    return kappa


_KILLING_INVERSE = np.linalg.inv(killing_form_sp2())
if np.count_nonzero(_KILLING_INVERSE - np.diag(np.diagonal(_KILLING_INVERSE))):
    raise AssertionError(f"inverse Killing form {_KILLING_INVERSE} is not diagonal")


@dataclass(frozen=True)
class MomentTable:
    """First moments and connected second moments of the local generators in a Gaussian state.

    ``first[..., m, i]`` is <T_(m,i)>; ``connected[..., m, n, i, j]`` is the
    symmetrized real part of <T_(m,i) T_(n,j)> - <T_(m,i)><T_(n,j)>, the Wick
    sum, which is what the metric needs (the imaginary part cancels between
    the (m,i),(n,j) and (n,j),(m,i) orders).  Mode axes are 0-based here;
    leading axes index a stack.
    """

    first: np.ndarray
    connected: np.ndarray

    @property
    def second(self) -> np.ndarray:
        """The full second moments, connected + <T_(m,i)><T_(n,j)>, formed on each access."""
        first = self.first
        return self.connected + first[..., :, None, :, None] * first[..., None, :, None, :]


@dataclass(frozen=True)
class MetricTensor:
    """Restricted Fubini-Study metric g, or its shifted form h, as its component families.

    ``families[(i, j)][..., m, n]``, i <= j, is exactly the ((m,i),(n,j))
    component, an (..., N, N) array, so ``families[(i, j)]`` equals
    ``matrix[..., i::3, j::3]`` bit for bit and each F^{ii} is symmetric over
    the mode pair; the (j, i) families follow from the symmetry of the
    tensor.  Leading axes index a stack.
    """

    families: dict

    @property
    def num_modes(self) -> int:
        return self.families[0, 0].shape[-1]

    @property
    def matrix(self) -> np.ndarray:
        """The (..., 3N, 3N) tensor, each slice symmetric under ((mode,i) <-> (mode',j)).

        Row 3*(mode-1) + (i-1) is generator i of ``mode``.  Assembled from the
        families on each read, as a new array.
        """
        return _assemble(self.num_modes, self.families)


def _quadrature_blocks(gamma: np.ndarray):
    """Split Gamma into (..., N, N) views Qq, Pp, Pq, Qp (Pq[m,n] = Gamma_{p_m, q_n}).

    Qp[m, n] = Gamma_{q_m, p_n} = Gamma_{p_n, q_m} is the transposed view of Pq.
    """
    Pq = gamma[..., 1::2, 0::2]
    return gamma[..., 0::2, 0::2], gamma[..., 1::2, 1::2], Pq, Pq.swapaxes(-1, -2)


def _assemble(num_modes: int, families: dict) -> np.ndarray:
    """Build the symmetric (..., 3N, 3N) metric from family matrices F^{ij} (i <= j).

    ``families[(i, j)][..., m, n]`` holds the ((m,i),(n,j)) component family.
    The (j, i) families follow from the overall symmetry of the tensor;
    diagonal families are symmetrized over the mode pair, which leaves the
    routes' families, already symmetric, bit for bit as they are.  The six
    families write all nine generator slots, so the result needs no zero fill.
    """
    lead = np.broadcast_shapes(*(F.shape[:-2] for F in families.values()))
    M = np.empty(lead + (num_modes, 3, num_modes, 3))  # M[..., m, i, n, j] is entry (3m + i, 3n + j)
    for (i, j), F in families.items():
        FT = F.swapaxes(-1, -2)
        if i == j:
            F = FT = 0.5 * (F + FT)
        M[..., :, i, :, j] = F
        M[..., :, j, :, i] = FT
    return M.reshape(lead + (3 * num_modes, 3 * num_modes))


# Entry [i, j, a, b, c, d] = A_i[a, b] A_j[c, d] / 2, the Wick weight of C_ac C_bd.
_WICK_WEIGHTS = 0.5 * np.einsum("iab,jcd->ijabcd", _GENERATORS, _GENERATORS)

# Re(C_ac C_bd) = Gamma_ac Gamma_bd - omega_ac omega_bd / 4, and Omega is block diagonal, so
# the omega part of the Wick sum is one 3x3 table [i, j], added to every mode-diagonal block.
_WICK_OMEGA = -0.25 * np.einsum("ijabcd,ac,bd->ij", _WICK_WEIGHTS, build_omega(1), build_omega(1))

# (u, v), u <= v: the 10 distinct products of Gamma's 4 quadrature planes, plane u = 2a + c.
_PLANE_PAIRS = [(u, v) for u in range(4) for v in range(u, 4)]


def _wick_terms() -> tuple:
    """The Gamma part of the Wick sum as ((i, j), ((weight, (u, v)), ...)) over nonzero weights.

    Plane u = 2a + c is Gamma's (a, c) quadrature block.  C_ac C_bd and
    C_bd C_ac are the same product of planes, so the weights of the two
    orders are added and only the pairs u <= v remain.
    """
    by_planes = _WICK_WEIGHTS.transpose(0, 1, 2, 4, 3, 5).reshape(3, 3, 4, 4)  # [i, j, 2a + c, 2b + d]
    folded = np.triu(by_planes + np.triu(by_planes.swapaxes(-1, -2), 1))
    terms = {}
    for (i, j, u, v), weight in zip(np.argwhere(folded).tolist(), folded[folded != 0].tolist()):
        terms.setdefault((i, j), []).append((weight, (u, v)))
    return tuple((ij, tuple(pair_terms)) for ij, pair_terms in terms.items())


_WICK_TERMS = _wick_terms()


def moments_from_covariance(gamma: np.ndarray) -> MomentTable:
    """Generator moments of a pure Gaussian state via Wick's theorem, in real arithmetic.

    With C = Gamma + (i/2) Omega and C^{mn} its (m, n) 2x2 block,
    <T_(m,i)> = tr(A_i Gamma^{mm}) / 2 and
    <T_(m,i) T_(n,j)> - <T_(m,i)><T_(n,j)> = (1/2) sum A_i[a,b] A_j[c,d] C^{mn}_ac C^{mn}_bd,
    one contraction of ``_WICK_WEIGHTS``, a 9 x 16 weight table.  Since C^T is
    the conjugate of C, the real part of that sum is the symmetrized real part
    the table stores as ``connected``, and
    Re(C_ac C_bd) = Gamma_ac Gamma_bd - omega_ac omega_bd / 4.
    The Gamma part is a weighted sum of the 10 distinct products of Gamma's
    quadrature planes; the omega part lives on the m = n blocks only, as the
    constant 3x3 table ``_WICK_OMEGA`` derived from the generators and
    ``build_omega(1)``.  Both are elementwise, so each stack slice is
    bit-identical to the one-state call.

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    gamma = require_pure(gamma)
    num_modes = gamma.shape[-1] // 2
    lead = gamma.shape[:-2]
    # The table outlives this call; taken before the temporaries, it does not sit above their
    # freed memory on the heap (allocated last, it raised the peak RSS of a loop over random
    # N = 96 graph states by 0.5 MB under glibc malloc).
    connected = np.empty((3, 3) + lead + (num_modes, num_modes))
    # planes[a, c][..., m, n] = Gamma^{mn}_ac, copied once so the products below read contiguous memory
    planes = np.ascontiguousarray(np.moveaxis(gamma.reshape(lead + (num_modes, 2) * 2), (-3, -1), (0, 1)))
    first = np.moveaxis(0.5 * np.tensordot(_GENERATORS, np.diagonal(planes, 0, -2, -1), axes=2), 0, -1)
    flat = planes.reshape((4,) + planes.shape[2:])
    products = {(u, v): flat[u] * flat[v] for u, v in _PLANE_PAIRS}
    for (i, j), ((weight, pair), *rest) in _WICK_TERMS:
        entry = np.multiply(weight, products[pair], out=connected[i, j])
        for weight, pair in rest:
            entry += weight * products[pair]
    # Every (m, m) entry of the contiguous (3, 3, ..., N, N) table, one row per (i, j).
    connected.reshape(3, 3, -1, num_modes * num_modes)[..., :: num_modes + 1] += _WICK_OMEGA[:, :, None, None]
    return MomentTable(first=first, connected=np.moveaxis(connected, (0, 1), (-2, -1)))


def metric_from_moments(moments: MomentTable) -> MetricTensor:
    """Metric g[(m,i),(n,j)] = -(K[m,n,i,j] + K[n,m,j,i])/2 from the connected moments K.

    Family F^{ij} = -(K^{ij} + (K^{ji})^T)/2 with K^{ij}[m, n] = K[m, n, i, j];
    the diagonal families come out symmetric bit for bit, as addition commutes.
    """
    K = moments.connected
    return MetricTensor(
        {(i, j): -0.5 * (K[..., i, j] + K[..., j, i].swapaxes(-1, -2)) for i in range(3) for j in range(i, 3)}
    )


def _g_families(Qq, Pp, Pq, Qp, eye) -> dict:
    """The closed-form families of g from Gamma's quadrature blocks, all elementwise.

    Takes the (..., N, N) blocks with ``eye = np.eye(N)``, or their (..., N)
    diagonals with ``eye = 1.0``, which gives the diagonals of the families
    bit for bit.
    """
    return {
        (0, 0): (-Pp**2 + Pq**2 + Qp**2 - Qq**2) / 8.0 - eye / 16.0,
        (0, 1): (Qq * Qp - Pp * Pq) / 4.0,
        (0, 2): (Pp**2 + Pq**2 - Qp**2 - Qq**2) / 8.0,
        (1, 1): (-eye - 4.0 * (Pq * Qp + Pp * Qq)) / 16.0,
        (1, 2): (Pp * Qp + Qq * Pq) / 4.0,
        (2, 2): (eye - 2.0 * (Pp**2 + Pq**2 + Qp**2 + Qq**2)) / 16.0,
    }


def _closed_tensor(families: dict) -> MetricTensor:
    """The tensor of closed-form families, each F^{ii} replaced by its symmetric part 0.5 (F + F^T).

    A closed form need not be symmetric in (m, n) as written (metric_h's
    mode-m shifts depend on m alone); its symmetric part is the component.
    Its mode diagonal keeps its bits, as 0.5 (x + x) = x, and so does the
    assembled matrix, which symmetrizes the same way.
    """
    return MetricTensor({(i, j): 0.5 * (F + F.swapaxes(-1, -2)) if i == j else F for (i, j), F in families.items()})


def metric_g(gamma: np.ndarray) -> MetricTensor:
    """Restricted Fubini-Study metric of a pure state, from the closed forms.

    Agrees entrywise with :func:`metric_from_moments` applied to
    :func:`moments_from_covariance`; the closed forms skip the moment table.

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    gamma = require_pure(gamma)
    return _closed_tensor(_g_families(*_quadrature_blocks(gamma), np.eye(gamma.shape[-1] // 2)))


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
    Qq, Pp, Pq, Qp = _quadrature_blocks(gamma)
    # Mode-m data as (..., N, 1) columns, broadcast across n.
    dq, dp, c = (np.diagonal(X, 0, -2, -1)[..., :, None] for X in (Qq, Pp, Pq))
    eye = np.eye(gamma.shape[-1] // 2)
    return _closed_tensor({
        (0, 0): (-Pp**2 + Pq**2 + Qp**2 - Qq**2 + (dp - dq) ** 2 + 1.0 - eye / 2.0) / 8.0,
        (0, 1): (-Pp * Pq + Qq * Qp + c * (dp - dq)) / 4.0,
        (0, 2): (Pp**2 - dp**2 + Pq**2 - Qp**2 - Qq**2 + dq**2) / 8.0,
        (1, 1): (-Pq * Qp - Pp * Qq + 2.0 * (dp * dq) - eye / 4.0) / 4.0,
        (1, 2): (Pp * Qp + Qq * Pq - c * (dp + dq)) / 4.0,
        # Subtracting the separable reference from the (3,3) family gives twice
        # the naive half-sum; spelled out so the Killing contraction of h
        # reproduces the purity route exactly.
        (2, 2): (-Pp**2 - Pq**2 - Qp**2 - Qq**2 + (dp + dq) ** 2 - 1.0 + eye / 2.0) / 8.0,
    })


def _contract_diagonals(d00, d11, d22) -> float | np.ndarray:
    """Sum over modes of kappa^{ii} g[(m,i),(m,i)] from the (..., N) diagonals of F^{00}, F^{11}, F^{22}.

    kappa^{-1} is diagonal (checked at import), so no other component enters.
    """
    k00, k11, k22 = np.diagonal(_KILLING_INVERSE)
    # cumsum adds the per-mode terms in mode order, as a running sum does.
    total = (k00 * d00 + k11 * d11 + k22 * d22).cumsum(axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


def killing_contraction(metric: MetricTensor) -> float | np.ndarray:
    """Sum over modes of kappa^{ij} g[(m,i),(m,j)] (mode-diagonal blocks only).

    The Killing form of the direct-sum algebra is block diagonal across modes,
    so cross-mode blocks never enter the contraction, and within a mode it is
    2 diag(-1, -1, 1), so only the i = j terms do: the contraction reads the
    diagonals of F^{00}, F^{11} and F^{22} and never assembles
    :attr:`MetricTensor.matrix`.
    """
    return _contract_diagonals(*(np.diagonal(metric.families[i, i], 0, -2, -1) for i in range(3)))


def gem_from_metric(gamma: np.ndarray) -> float | np.ndarray:
    """Entanglement measure via the Killing contraction of the metric.

    Equals killing_contraction(metric_g) - N/8, bit for bit; the subtraction
    is the separable baseline, so the result vanishes on product states.
    Identical (up to rounding) to contracting metric_h without any
    subtraction.  Only the mode-diagonal blocks enter, so the closed forms of
    :func:`metric_g` are evaluated on the diagonals of Gamma's quadrature
    blocks alone, and the contraction reads the F^{00}, F^{11} and F^{22}
    diagonals; no N x N array is formed.  An array passes the purity gate
    once, here.
    """
    gamma = require_pure(gamma)
    families = _g_families(*(np.diagonal(X, 0, -2, -1) for X in _quadrature_blocks(gamma)), 1.0)
    return _contract_diagonals(*(families[i, i] for i in range(3))) - (gamma.shape[-1] // 2) / 8.0


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
