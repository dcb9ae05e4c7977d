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
one-mode symplectic form.  A moment table holds the first moments and these
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

A metric tensor is kept as the gated Gamma and its route's own formula
table: the six component families F^{ij}, i <= j, each an N x N array over
the mode pair, written as elementwise forms in Gamma's quadrature blocks.
Nothing is evaluated until read.  Reading the families evaluates the forms
on the full blocks; the dense symmetric 3N x 3N matrix, with row index
3*(mode-1) + (i-1) for generator i of the given mode, is assembled from
them.  The Killing form is diagonal in the T1, T2, T3 basis, so the Killing
contraction asks the tensor for F^{00}, F^{11} and F^{22} alone, and the
tensor evaluates those three forms on the diagonals of Gamma's quadrature
blocks, which gives the families' diagonals bit for bit without forming any
N x N array.  A moment table is kept the same way, and
:func:`gem_from_metric` evaluates the same three forms of the metric's table
directly.

Every route also takes a (..., 2N, 2N) stack and keeps its leading axes:
each slice is bit-identical to the one-state call, where a float stays a float.
Wherever a route takes an array it also takes a ``core.PureState``: an array
passes the purity gate once per call, a state has passed it already.  The
graph builders return such states, gated once at build.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_PURITY_TOL, PureState, _mode_dets, build_omega, require_pure
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


#: The six component families F^{ij}, i <= j, and the three the Killing contraction reads.
_FAMILIES = tuple((i, j) for i in range(3) for j in range(i, 3))
_KILLING = ((0, 0), (1, 1), (2, 2))


@dataclass(frozen=True)
class _Deferred:
    """A route's result kept unevaluated: its source and the route's own formula table.

    ``_table(_source, keys, diagonal)`` evaluates the entries named by
    ``keys``, elementwise in Gamma's quadrature blocks: on the full
    (..., N, N) planes, or, with ``diagonal``, on their (..., N) mode
    diagonals, which gives each entry's mode diagonal bit for bit.  Each
    read evaluates afresh into new arrays; nothing is cached.
    """

    _source: object
    _table: Callable

    def _evaluate(self, keys, diagonal: bool) -> dict:
        return self._table(self._source, keys, diagonal)


@dataclass(frozen=True)
class MomentTable(_Deferred):
    """First moments and connected second moments of the local generators in a Gaussian state.

    ``first[..., m, i]`` is <T_(m,i)>; ``connected[..., m, n, i, j]`` is the
    symmetrized real part of <T_(m,i) T_(n,j)> - <T_(m,i)><T_(n,j)>, the Wick
    sum, which is what the metric needs (the imaginary part cancels between
    the (m,i),(n,j) and (n,j),(m,i) orders).  Mode axes are 0-based here;
    leading axes index a stack.

    The table keeps the gated Gamma, read-only, and the moment route's Wick
    table.  ``first``, ``connected`` and ``second`` are evaluated on every
    read and returned as new arrays; :func:`metric_from_moments` reads the
    connected moments the same way, on the mode diagonals alone when only
    they are needed.
    """

    @property
    def first(self) -> np.ndarray:
        """<T_(m,i)>, an (..., N, 3) array, read off the mode-diagonal blocks."""
        return self._evaluate(("first",), True)["first"]

    @property
    def connected(self) -> np.ndarray:
        """The (..., N, N, 3, 3) connected moments, evaluated on Gamma's planes."""
        K = self._evaluate(_WICK_KEYS, False)
        return np.moveaxis(np.array([[K[i, j] for j in range(3)] for i in range(3)]), (0, 1), (-2, -1))

    @property
    def second(self) -> np.ndarray:
        """The full second moments, connected + <T_(m,i)><T_(n,j)>."""
        first = self.first
        return self.connected + first[..., :, None, :, None] * first[..., None, :, None, :]


@dataclass(frozen=True, init=False)
class MetricTensor(_Deferred):
    """Restricted Fubini-Study metric g, or its shifted form h, as its component families.

    ``families[(i, j)][..., m, n]``, i <= j, is exactly the ((m,i),(n,j))
    component, an (..., N, N) array, so ``families[(i, j)]`` equals
    ``matrix[..., i::3, j::3]`` bit for bit and each F^{ii} is symmetric over
    the mode pair; the (j, i) families follow from the symmetry of the
    tensor.  Leading axes index a stack.

    A route's tensor keeps the gated Gamma, read-only, and the route's own
    formula table.  ``families`` and ``matrix`` evaluate all six forms on
    Gamma's planes on every read and return new arrays;
    :func:`killing_contraction` evaluates F^{00}, F^{11} and F^{22} alone, on
    the mode diagonals.  ``MetricTensor(families)`` keeps read-only copies of
    six explicit families and contracts their diagonals.
    """

    def __init__(self, families: dict):
        super().__init__({key: _read_only(np.array(F)) for key, F in families.items()}, _given)

    @classmethod
    def _of(cls, source, table) -> MetricTensor:
        """A route's tensor: ``source`` read through ``table``, without the copies ``MetricTensor(families)`` takes."""
        tensor = object.__new__(cls)
        _Deferred.__init__(tensor, source, table)
        return tensor

    @property
    def num_modes(self) -> int:
        return self._evaluate(((0, 0),), True)[0, 0].shape[-1]

    @property
    def families(self) -> dict:
        """The six (..., N, N) families F^{ij}, i <= j, evaluated on each read as new arrays."""
        return self._evaluate(_FAMILIES, False)

    @property
    def matrix(self) -> np.ndarray:
        """The (..., 3N, 3N) tensor, each slice symmetric under ((mode,i) <-> (mode',j)).

        Row 3*(mode-1) + (i-1) is generator i of ``mode``.  Assembled from the
        families on each read, as a new array.
        """
        families = self.families
        return _assemble(families[0, 0].shape[-1], families)


def _given(families: dict, keys, diagonal: bool) -> dict:
    """The table of ``MetricTensor(families)``: copies of the families, or views of their mode diagonals."""
    if diagonal:
        return {key: np.diagonal(families[key], 0, -2, -1) for key in keys}
    return {key: families[key].copy() for key in keys}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _snapshot(gamma: np.ndarray | PureState) -> np.ndarray:
    """Gamma, gated once, as an array no caller can change: a state's own read-only matrix, else a read-only copy."""
    gated = require_pure(gamma)
    return gated if isinstance(gamma, PureState) else _read_only(gated.copy())


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


def _wick_terms() -> dict:
    """The Gamma part of the Wick sum as (i, j) -> ((weight, (u, v)), ...) over nonzero weights.

    Plane u = 2a + c is Gamma's (a, c) quadrature block.  C_ac C_bd and
    C_bd C_ac are the same product of planes, so the weights of the two
    orders are added and only the pairs u <= v remain.
    """
    by_planes = _WICK_WEIGHTS.transpose(0, 1, 2, 4, 3, 5).reshape(3, 3, 4, 4)  # [i, j, 2a + c, 2b + d]
    folded = np.triu(by_planes + np.triu(by_planes.swapaxes(-1, -2), 1))
    terms = {}
    for (i, j, u, v), weight in zip(np.argwhere(folded).tolist(), folded[folded != 0].tolist()):
        terms.setdefault((i, j), []).append((weight, (u, v)))
    return {ij: tuple(pair_terms) for ij, pair_terms in terms.items()}


_WICK_TERMS = _wick_terms()
_WICK_KEYS = tuple((i, j) for i in range(3) for j in range(3))


def _wick_table(gamma: np.ndarray, keys, diagonal: bool) -> dict:
    """The moment route's formula table, on Gamma's quadrature planes or on their mode diagonals.

    Entry "first" is the (..., N, 3) array of first moments, read off the
    mode-diagonal blocks either way.  Entry (i, j) is the connected moment
    K^{ij}[..., m, n] = connected[..., m, n, i, j]: the weighted plane
    products of ``_WICK_TERMS[i, j]``, then ``_WICK_OMEGA[i, j]`` added on
    the m = n entries.  Both are elementwise, so on the diagonals each (i, j)
    gives the (..., N) mode diagonal of K^{ij} bit for bit.
    """
    num_modes = gamma.shape[-1] // 2
    # planes[a, c][..., m, n] = Gamma^{mn}_ac; on the planes, copied once so the products read contiguous memory.
    planes = np.moveaxis(gamma.reshape(gamma.shape[:-2] + (num_modes, 2) * 2), (-3, -1), (0, 1))
    planes = np.diagonal(planes, 0, -2, -1) if diagonal else np.ascontiguousarray(planes)
    entries = {}
    if "first" in keys:
        mode_blocks = planes if diagonal else np.diagonal(planes, 0, -2, -1)
        entries["first"] = np.moveaxis(0.5 * np.tensordot(_GENERATORS, mode_blocks, axes=2), 0, -1)
    flat = planes.reshape((4,) + planes.shape[2:])
    products = {(u, v): flat[u] * flat[v] for u, v in _PLANE_PAIRS}
    for key in (key for key in keys if key != "first"):
        (weight, pair), *rest = _WICK_TERMS[key]
        entry = weight * products[pair]
        for weight, pair in rest:
            entry += weight * products[pair]
        if diagonal:
            entry += _WICK_OMEGA[key]
        else:  # every (m, m) entry of the contiguous (..., N, N) sum
            entry.reshape(entry.shape[:-2] + (-1,))[..., :: num_modes + 1] += _WICK_OMEGA[key]
        entries[key] = entry
    return entries


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
    bit-identical to the one-state call.  The table keeps the gated Gamma and
    evaluates these sums when read (:class:`MomentTable`).

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    return MomentTable(_snapshot(gamma), _wick_table)


def _moment_metric_table(moments: MomentTable, keys, diagonal: bool) -> dict:
    """metric_from_moments' formula table: F^{ij} = -(K^{ij} + (K^{ji})^T)/2 from the table's connected moments.

    The diagonal families come out symmetric bit for bit, as addition
    commutes; on the mode diagonals the transpose is the identity.
    """
    K = moments._evaluate({key for i, j in keys for key in ((i, j), (j, i))}, diagonal)
    transpose = (lambda X: X) if diagonal else (lambda X: X.swapaxes(-1, -2))
    return {(i, j): -0.5 * (K[i, j] + transpose(K[j, i])) for i, j in keys}


def metric_from_moments(moments: MomentTable) -> MetricTensor:
    """Metric g[(m,i),(n,j)] = -(K[m,n,i,j] + K[n,m,j,i])/2 from the connected moments K.

    Family F^{ij} = -(K^{ij} + (K^{ji})^T)/2 with K^{ij}[m, n] = K[m, n, i, j],
    evaluated from the moment table whenever the tensor is read.
    """
    return MetricTensor._of(moments, _moment_metric_table)


def _blocks(gamma: np.ndarray, diagonal: bool) -> tuple:
    """Qq, Pp, Pq, Qp and the mode identity, as the closed forms read them.

    The (..., N, N) quadrature blocks with ``np.eye(N)``, or, with
    ``diagonal``, their (..., N) mode diagonals with 1.0.
    """
    blocks = _quadrature_blocks(gamma)
    if diagonal:
        return (*(np.diagonal(X, 0, -2, -1) for X in blocks), 1.0)
    return (*blocks, np.eye(gamma.shape[-1] // 2))


def _closed(forms: dict, keys, diagonal: bool) -> dict:
    """The closed forms named by ``keys``; on the planes each F^{ii} becomes its symmetric part 0.5 (F + F^T).

    A closed form need not be symmetric in (m, n) as written (metric_h's
    mode-m shifts depend on m alone); its symmetric part is the component.
    On the mode diagonals the form already gives the component's diagonal,
    as 0.5 (x + x) = x, and so does the assembled matrix, which symmetrizes
    the same way.
    """
    families = {}
    for i, j in keys:
        F = forms[i, j]()
        families[i, j] = 0.5 * (F + F.swapaxes(-1, -2)) if i == j and not diagonal else F
    return families


def _g_table(gamma: np.ndarray, keys, diagonal: bool) -> dict:
    """metric_g's formula table: the closed-form families of g, elementwise in Gamma's quadrature blocks."""
    Qq, Pp, Pq, Qp, eye = _blocks(gamma, diagonal)
    return _closed({
        (0, 0): lambda: (-Pp**2 + Pq**2 + Qp**2 - Qq**2) / 8.0 - eye / 16.0,
        (0, 1): lambda: (Qq * Qp - Pp * Pq) / 4.0,
        (0, 2): lambda: (Pp**2 + Pq**2 - Qp**2 - Qq**2) / 8.0,
        (1, 1): lambda: (-eye - 4.0 * (Pq * Qp + Pp * Qq)) / 16.0,
        (1, 2): lambda: (Pp * Qp + Qq * Pq) / 4.0,
        (2, 2): lambda: (eye - 2.0 * (Pp**2 + Pq**2 + Qp**2 + Qq**2)) / 16.0,
    }, keys, diagonal)


def metric_g(gamma: np.ndarray) -> MetricTensor:
    """Restricted Fubini-Study metric of a pure state, from the closed forms.

    Agrees entrywise with :func:`metric_from_moments` applied to
    :func:`moments_from_covariance`; the closed forms skip the moment table.
    The tensor keeps the gated Gamma and evaluates the forms when read
    (:class:`MetricTensor`).

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    return MetricTensor._of(_snapshot(gamma), _g_table)


def _h_table(gamma: np.ndarray, keys, diagonal: bool) -> dict:
    """metric_h's formula table: the closed-form families of h, elementwise in the blocks and each mode's own data."""
    Qq, Pp, Pq, Qp, eye = _blocks(gamma, diagonal)
    # Mode-m data: (..., N, 1) columns broadcast across n on the planes; the diagonals themselves on the diagonals.
    dq, dp, c = (Qq, Pp, Pq) if diagonal else (np.diagonal(X, 0, -2, -1)[..., :, None] for X in (Qq, Pp, Pq))
    return _closed({
        (0, 0): lambda: (-Pp**2 + Pq**2 + Qp**2 - Qq**2 + (dp - dq) ** 2 + 1.0 - eye / 2.0) / 8.0,
        (0, 1): lambda: (-Pp * Pq + Qq * Qp + c * (dp - dq)) / 4.0,
        (0, 2): lambda: (Pp**2 - dp**2 + Pq**2 - Qp**2 - Qq**2 + dq**2) / 8.0,
        (1, 1): lambda: (-Pq * Qp - Pp * Qq + 2.0 * (dp * dq) - eye / 4.0) / 4.0,
        (1, 2): lambda: (Pp * Qp + Qq * Pq - c * (dp + dq)) / 4.0,
        # Subtracting the separable reference from the (3,3) family gives twice
        # the naive half-sum; spelled out so the Killing contraction of h
        # reproduces the purity route exactly.
        (2, 2): lambda: (-Pp**2 - Pq**2 - Qp**2 - Qq**2 + (dp + dq) ** 2 - 1.0 + eye / 2.0) / 8.0,
    }, keys, diagonal)


def metric_h(gamma: np.ndarray) -> MetricTensor:
    """Shifted metric h = g - g[separable reference], entrywise closed forms.

    The reference is the pure product state sharing each mode's diagonal
    covariance data, which removes the separable contribution at the level of
    the tensor: all mode-diagonal blocks vanish on separable states, and the
    Killing contraction of h equals the entanglement measure directly.  The
    tensor keeps the gated Gamma and evaluates the forms when read
    (:class:`MetricTensor`).

    Raises:
        UnphysicalStateError: ``gamma`` fails the purity check.
    """
    return MetricTensor._of(_snapshot(gamma), _h_table)


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
    2 diag(-1, -1, 1), so only the i = j terms do: the contraction asks the
    tensor for F^{00}, F^{11} and F^{22} on the mode diagonals alone.  A
    route's tensor evaluates just those three forms, on the (..., N)
    diagonals of Gamma's blocks, so no N x N array is formed.
    """
    diagonals = metric._evaluate(_KILLING, True)
    return _contract_diagonals(*(diagonals[key] for key in _KILLING))


def gem_from_metric(gamma: np.ndarray) -> float | np.ndarray:
    """Entanglement measure via the Killing contraction of the metric.

    Equals killing_contraction(metric_g) - N/8, bit for bit; the subtraction
    is the separable baseline, so the result vanishes on product states.
    Identical (up to rounding) to contracting metric_h without any
    subtraction.  Only the mode-diagonal blocks enter, so the F^{00}, F^{11}
    and F^{22} forms of :func:`metric_g`'s table are evaluated on the
    diagonals of Gamma's quadrature blocks alone; no N x N array is formed.
    An array passes the purity gate once, here.
    """
    gamma = require_pure(gamma)
    diagonals = _g_table(gamma, _KILLING, True)
    return _contract_diagonals(*(diagonals[key] for key in _KILLING)) - (gamma.shape[-1] // 2) / 8.0


def gem_from_purity(gamma: np.ndarray) -> float | np.ndarray:
    """Entanglement measure from reduced purities.

    (1/32) sum_mode [P(rho^(mode))^-2 - 1] = (1/8) sum_mode [det Gamma^(mode) - 1/4].
    Every physical state has det Gamma^(mode) >= 1/4, so the exact value is
    non-negative, and zero exactly on product states.  The computed value
    carries the rounding of the dets, about eps * sum_mode det Gamma^(mode),
    and is not clamped: a product state can read a little below zero, as
    the beamsplitter on the vacuum of graph_state_covariance(GraphSpec(3,
    ((1, 3, 1+0j),))) reads -6.9e-18.

    Returns a float for a 2N x 2N covariance and an array of shape (...) for
    a (..., 2N, 2N) stack; every slice must pass the purity gate.
    """
    dets = _mode_dets(require_pure(gamma))
    # accumulate adds in mode order, as a running sum does; np.sum would add pairwise.
    total = np.add.accumulate(dets - 0.25, axis=-1)[..., -1] / 8.0
    return float(total) if total.ndim == 0 else total


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
