"""Graph-coupled Gaussian states and their closed-form entanglement values.

A graph on N modes with complex edge weights A_{mn} defines the quadratic
generator h whose (m, n) block (m != n) is

    [[ Re A_mn, -Im A_mn ],
     [ -Im A_mn, Re A_mn ]],

zero on the diagonal.  The state is prepared from vacuum through the
symplectic S = exp(Omega h), giving the covariance Gamma = S S^T / 2.  A
purely real weight is a beamsplitter coupling and creates no entanglement;
the imaginary part squeezes.

For two modes and for the two connected three-mode topologies (triangle and
two-edge path) the measure has closed forms in the polar weight
w = r e^{i phi}.  Each is a polynomial in sin^2 phi, u = cos 2 phi (or 2u)
and one continued function, sin^2(s sqrt(u)) / u.  For u < 0 the
continuation sin(ix) = i sinh(x) keeps it real, and the rays u = 0 are
removable limits; ``_sin_sq_over`` is the one place that handles both, with
real arithmetic rather than complex.  A closed form whose value exceeds
double precision raises ``NumericOverflowError``, and so does one whose
phase s sqrt(u) reaches 2^53 on the u > 0 side: there neighbouring doubles
lie 2 rad apart, so sin carries no significant digit.  Below that limit the
rounding of the phase still costs relative accuracy, growing like
eps s sqrt(u): against 60-digit mpmath at phi = 0.3, ``gem_two_mode_closed``
is 1.9e-7 off at r = 1e10, 1.1e-3 at 1e13 and 9.8% at 1e15, and returns
those values.  The u < 0 side and the ray series carry no such
amplification.

An edge weight is a Python or numpy int, float or complex, never a bool,
whose modulus r and phase phi are finite; a string, ``None`` or an integer
past double range is none.  ``GraphSpec``, ``graph_state_covariances`` and
the closed forms judge weights by this one rule, in ``_weights``, and raise
``InvalidArgumentError`` for anything else.

The closed forms work elementwise.  Each takes one ``PolarCoupling`` and
returns a float, or a whole array of complex weights and returns an array
of its shape; the float is the array code at size 1, so entry k of an
array result equals the call on entry k's polar form bit for bit.  A scan
grid is therefore one call per closed form, with no Python loop over its
points, and an error names the first offending point in flat order.

``graph_state_covariances`` prepares one topology under a whole array of
weights as a single (..., 2N, 2N) stack; each slice equals the one-state
``graph_state_covariance`` bit for bit.  Both builders return a
``core.PureState``: each runs the purity gate once, on the covariance or
stack it has just built, and keeps that array as the state's read-only
``gamma`` without a copy, so the routes that take the state judge it no
more.  The gate is also the graph states' overflow detector.  A covariance
with a non-finite entry raises ``NumericOverflowError`` before it runs; one
that is finite while ||Gamma||_1^2 overflows, as at weight 180i on one
edge, fails it with ``UnphysicalStateError``.

The two-mode baseline, the log negativity, is read from the state rather
than from a closed form: for a pure state it is arcsinh(2 sqrt(-det Gamma_12))
of the off-diagonal block, elementwise over a stack, with no eigensolve.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PureState,
    _at_stack_index,
    _is_finite_real,
    _is_integer,
    _is_number,
    _omega_times,
    _pure_by_construction,
    _require_mode_count,
    _symmetrized,
    matrix_exponential,
    require_pure,
)
from .errors import DivisionByZeroError, InvalidArgumentError, NumericOverflowError
from .measure import MetricTensor, gem_from_purity

__all__ = [
    "GraphSpec",
    "PolarCoupling",
    "compact_gem_two_mode",
    "gem_ratio_small_r",
    "gem_three_mode_g1",
    "gem_three_mode_g2",
    "gem_two_mode_closed",
    "graph_state_covariance",
    "graph_state_covariances",
    "hamiltonian_from_graph",
    "log_negativity_two_mode",
    "two_mode_metric_closed",
]

#: Series window around the removable rays cos(2 phi) = 0, on |u| max(s^2, 1).
_RAY_WINDOW = 1e-6

#: Phase s sqrt(u) from which neighbouring doubles lie 2 rad apart.
_PHASE_LIMIT = 2.0**53


@dataclass(frozen=True)
class PolarCoupling:
    """Edge weight in polar form, w = r e^{i phi} with r >= 0, kept as two Python floats.

    Raises:
        InvalidArgumentError: r or phi is not a finite real number, as
            ``core._is_number`` judges numbers, or r < 0.
    """

    r: float
    phi: float

    def __post_init__(self):
        if not (_is_finite_real(self.r) and _is_finite_real(self.phi) and self.r >= 0):
            raise InvalidArgumentError(f"polar coupling needs finite real r >= 0 and phi, got {self.r!r}, {self.phi!r}")
        # Doubles, so the closed forms compute in double precision whatever number type came in.
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def weight(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)


def _weights(values) -> np.ndarray:
    """``values`` as a complex array of their shape, once each entry is judged an edge weight.

    An ndarray of numeric dtype is judged by its dtype alone, anything else
    entry by entry, because numpy reads a bool or a string inside a list as
    a number.  Raises InvalidArgumentError for the first entry, in flat
    order, that is no edge weight (see the module docstring).
    """
    if not (isinstance(values, np.ndarray) and _is_number(values)):
        try:
            entries = np.asarray(values, dtype=object)
            for k, entry in enumerate(entries.flat):
                if not _is_number(entry):
                    raise TypeError(f"got {type(entry).__name__} at index {k}")
            values = entries.astype(complex)
        except (TypeError, ValueError, OverflowError) as exc:  # no number, a ragged list, an integer past double range
            raise InvalidArgumentError(f"edge weights must be numbers in double range: {exc}") from exc
    weights = values.astype(complex, copy=False)
    with np.errstate(over="ignore"):  # a modulus past double range is the fault sought
        k = _first_fault(np.abs(weights))
    if k is not None:
        raise InvalidArgumentError(f"edge weights need finite r and phi, got {complex(weights.flat[k])} at index {k}")
    return weights


def _validated_pairs(num_modes, pairs) -> tuple:
    """Edge pairs (i, j) checked as 1 <= i < j <= num_modes, integer, no repeats."""
    _require_mode_count(num_modes)
    seen = {}  # insertion-ordered set
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"edge {pair!r} is not an (i, j) pair") from exc
        if not (_is_integer(i) and _is_integer(j)):
            raise InvalidArgumentError(f"edge endpoints must be integers, got ({i!r}, {j!r})")
        if i == j:
            raise InvalidArgumentError(f"self-loop on mode {i} is not allowed")
        if not (1 <= i < j <= num_modes):
            raise InvalidArgumentError(f"edge ({i}, {j}) must satisfy 1 <= i < j <= {num_modes}")
        if (i, j) in seen:
            raise InvalidArgumentError(f"duplicate edge ({i}, {j})")
        seen[int(i), int(j)] = None
    return tuple(seen)


@dataclass(frozen=True)
class GraphSpec:
    """Mode count plus undirected weighted edges (i < j, 1-based, no loops); weights are stored as complex.

    Raises:
        InvalidArgumentError: a bad mode count or edge, or a weight that is
            no edge weight (see the module docstring).
    """

    num_modes: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        try:
            triples = [(i, j, w) for i, j, w in self.edges]
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"edges must be (i, j, weight) triples: {exc}") from exc
        pairs = _validated_pairs(self.num_modes, [(i, j) for i, j, _ in triples])
        # One object per edge, so that a list given as a weight stays one entry.
        weights = _weights(np.fromiter((w for _, _, w in triples), dtype=object, count=len(triples)))
        object.__setattr__(self, "edges", tuple((i, j, w) for (i, j), w in zip(pairs, weights.tolist())))

    @property
    def pairs(self) -> tuple:
        """The edges' (i, j) pairs, in edge order."""
        return tuple((i, j) for i, j, _ in self.edges)

    @property
    def weights(self) -> np.ndarray:
        """The edges' weights as a complex array of shape (E,), in edge order."""
        return np.array([w for _, _, w in self.edges], dtype=complex)

    @classmethod
    def with_uniform_weight(cls, num_modes: int, pairs, weight: complex) -> "GraphSpec":
        """Same topology, every edge carrying ``weight``."""
        return cls(num_modes, tuple((i, j, weight) for (i, j) in pairs))


@functools.lru_cache(maxsize=8)
def _block_positions(num_modes: int, pairs: tuple) -> np.ndarray:
    """(2, E, 4) flat positions in a 2N x 2N matrix of each edge's (i, j) block and its mirror (j, i), row by row."""
    n = 2 * num_modes
    corners = 2 * (np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1)  # (a, b) = (2(i - 1), 2(j - 1))
    offsets = np.array([0, 1, n, n + 1])
    positions = np.stack([corners[:, 0] * n + corners[:, 1], corners[:, 1] * n + corners[:, 0]])
    positions = positions[..., None] + offsets
    positions.setflags(write=False)
    return positions


def _generators(num_modes: int, pairs: tuple, weights: np.ndarray) -> np.ndarray:
    """(..., 2N, 2N) generator stack h for validated pairs and complex weights (..., E).

    Each edge's block [[Re w, -Im w], [-Im w, Re w]] goes to (i, j) and to
    its mirror (j, i) in one scatter; the block is symmetric, so both take
    the same four values.  Every entry is one part of one weight or its
    negation, so the stack equals a block-by-block construction exactly.
    """
    values = np.empty(weights.shape + (4,))  # each edge's block, row by row
    values[..., 0] = values[..., 3] = weights.real
    values[..., 1] = values[..., 2] = -weights.imag
    n = 2 * num_modes
    h = np.zeros(weights.shape[:-1] + (n * n,))
    h[..., _block_positions(num_modes, pairs)] = values[..., None, :, :]
    return h.reshape(weights.shape[:-1] + (n, n))


def _covariances(num_modes: int, pairs: tuple, weights: np.ndarray) -> np.ndarray:
    """S S^T / 2 for S = exp(Omega h): the vacuum I/2 evolved, in one product.

    The generator skips ``symplectic_from_hamiltonian``'s symmetry check:
    ``_generators`` writes each edge block and its mirror from the same
    values, so h is exactly symmetric, and finite since ``_weights`` judged
    the weights.  ``matrix_exponential`` still judges its input and output.
    """
    S = matrix_exponential(_omega_times(_generators(num_modes, pairs, weights)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _symmetrized
        return _symmetrized((0.5 * S) @ S.swapaxes(-1, -2))


def graph_state_covariances(num_modes: int, pairs, weights) -> PureState:
    """Covariances S S^T / 2 of one graph topology under a whole array of weights, gated once.

    Args:
        num_modes: mode count N.
        pairs: the E edges as (i, j) pairs, checked as :class:`GraphSpec` checks them.
        weights: complex array of shape (..., E); ``weights[..., e]`` is the
            weight of edge ``pairs[e]``.

    Returns:
        A :class:`PureState` whose read-only ``gamma`` is the (..., 2N, 2N)
        stack; slice k equals the ``gamma`` of ``graph_state_covariance`` of
        the graph carrying weights ``weights[k]``, bit for bit.

    Raises:
        InvalidArgumentError: bad topology, weights of the wrong shape, or an
            entry that is no edge weight (see the module docstring).
        NumericOverflowError: a state past double precision, as at weight 2**70.
        UnphysicalStateError: a slice fails the purity gate, as at weight 180i,
            where ||Gamma||_1^2 overflows; the message names the first such slice.
    """
    pairs = _validated_pairs(num_modes, pairs)
    weights = _weights(weights)
    if weights.ndim < 1 or weights.shape[-1] != len(pairs):
        raise InvalidArgumentError(
            f"weights must have shape (..., {len(pairs)}) for {len(pairs)} edges, got {weights.shape}"
        )
    return _pure_by_construction(require_pure(_covariances(num_modes, pairs, weights)))


def hamiltonian_from_graph(spec: GraphSpec) -> np.ndarray:
    """2N x 2N symmetric generator of the graph preparation unitary."""
    if not isinstance(spec, GraphSpec):
        raise InvalidArgumentError("hamiltonian_from_graph needs a GraphSpec")
    return _generators(spec.num_modes, spec.pairs, spec.weights)


def graph_state_covariance(spec: GraphSpec) -> PureState:
    """The graph state, S S^T / 2 with S = exp(Omega h), gated once as a :class:`PureState`.

    Raises:
        InvalidArgumentError: ``spec`` is not a :class:`GraphSpec`.
        NumericOverflowError: the covariance leaves double precision.
        UnphysicalStateError: the covariance fails the purity gate.
    """
    if not isinstance(spec, GraphSpec):
        raise InvalidArgumentError("graph_state_covariance needs a GraphSpec")
    return _pure_by_construction(require_pure(_covariances(spec.num_modes, spec.pairs, spec.weights)))


# --- analytic continuation helpers (piecewise real, elementwise) --------------

def _sin_sq_over(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sin^2(s sqrt(u)) / u elementwise, continued through u <= 0.

    Equals (1 - cos(2 s sqrt(u))) / (2u), an entire function of u; for u < 0
    the value is sinh^2(s sqrt(-u)) / (-u).  Where s^2 |u| is small a short
    series avoids the 0/0 evaluation; its window shrinks as s grows, so the
    truncated terms stay below rounding.  A point outside double precision
    comes out non-finite: inf or NaN where the value overflows (a finite
    sinh^2 divided by a small -u can), NaN where u > 0 and the phase
    s sqrt(u) is 2^53 or more, since sin of the rounded phase has no
    significant digit there.  :func:`_closed_form` names the fault.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # faults come out non-finite
        s2 = s * s
        phase = s * np.sqrt(u)  # NaN for u < 0
        value = np.where(
            np.abs(u) * np.maximum(s2, 1.0) < _RAY_WINDOW,
            s2 - s2 * s2 * u / 3.0 + 2.0 * s2**3 * u * u / 45.0,
            np.where(u > 0, np.sin(phase) ** 2 / u, np.sinh(s * np.sqrt(-u)) ** 2 / -u),
        )
        return np.where(phase >= _PHASE_LIMIT, np.nan, value)


def _first_fault(value: np.ndarray) -> int | None:
    """Flat index of the first non-finite entry of ``value``, or None."""
    finite = np.isfinite(value)
    return None if finite.all() else int(np.argmin(finite))


def _sin_phi_sq(phi: np.ndarray) -> np.ndarray:
    """sin^2(phi) elementwise, with the zeros at multiples of pi made exact.

    Purely real couplings carry no entanglement; phi equal to a floating
    point multiple of pi must therefore annihilate the closed forms exactly,
    not up to sin(pi) ~ 1e-16.
    """
    s = np.sin(phi)
    return np.where(np.abs(s) < 1e-12, 0.0, s * s)


def _closed_form(coupling, u_scale: float, s_scale: float, combine):
    """``combine(sin^2 phi, u, S)`` with S = ``_sin_sq_over(u, s)``, u = u_scale cos 2phi, s = s_scale r.

    ``coupling`` is a :class:`PolarCoupling`, giving a float, or an array of
    weights, giving an array of its shape.  A weight w = a + ib has
    r = np.hypot(a, b), which equals Python's abs(w), and phi = np.arctan2(b, a).
    """
    if isinstance(coupling, PolarCoupling):
        r, phi = np.array([coupling.r]), np.array([coupling.phi])
    else:
        w = _weights(coupling).ravel()
        r, phi = np.hypot(w.real, w.imag), np.arctan2(w.imag, w.real)
    with np.errstate(over="ignore", invalid="ignore"):  # a fault comes out non-finite, checked below
        u, s = u_scale * np.cos(2.0 * phi), s_scale * r
        S = _sin_sq_over(u, s)
        value = combine(_sin_phi_sq(phi), u, S)
    k = _first_fault(value)  # a non-finite S, or finite factors whose product overflows
    if k is not None:
        u, s = float(u[k]), float(s[k])
        if math.isfinite(S[k]):
            raise NumericOverflowError(f"closed form overflows double precision at r = {float(r[k]):.6g}")
        if u > 0 and s * math.sqrt(u) >= _PHASE_LIMIT:
            raise NumericOverflowError(
                f"closed form has no significant digit: phase s sqrt(u) = {s * math.sqrt(u):.6g} "
                f"is past 2^53 at s = {s:.6g}, u = {u:.6g}"
            )
        raise NumericOverflowError(
            f"closed form overflows double precision: sin^2(s sqrt(u)) / u at s = {s:.6g}, u = {u:.6g}"
        )
    return float(value[0]) if isinstance(coupling, PolarCoupling) else value.reshape(np.shape(coupling))


# --- closed forms (a PolarCoupling gives a float, an array of weights an array) ---

def gem_two_mode_closed(coupling: PolarCoupling | np.ndarray) -> float | np.ndarray:
    """Measure of the single-edge two-mode state: sin^2(phi) sin^2(2r sqrt(cos 2phi)) / (16 cos 2phi).

    Real couplings give exactly zero; at phi = +-pi/2 this is sinh^2(2r)/16.

    Raises:
        InvalidArgumentError: an entry of ``coupling`` that is no edge weight.
        NumericOverflowError: the first point, in flat order, whose value leaves double precision.
    """
    return _closed_form(coupling, 1.0, 2.0, lambda sin2, u, S: sin2 * S / 16.0)


def compact_gem_two_mode(nu: float, phi: float) -> float:
    """Bounded variant on the compactified two-mode family, in [0, 1).

    The edge modulus is constrained to tanh(nu) < 1 and the measure is
    renormalized by its supremum on that family,

        [P1^-2 + P2^-2 - 2] / (2 sinh^2 2) = 16 gem / sinh^2 2,

    so the value approaches 1 only in the limit nu -> inf at phi = +-pi/2.
    """
    if not _is_finite_real(nu) or nu < 0:
        raise InvalidArgumentError(f"compactified modulus parameter must be a finite real >= 0, got {nu!r}")
    return 16.0 * gem_two_mode_closed(PolarCoupling(math.tanh(nu), phi)) / math.sinh(2.0) ** 2


def gem_three_mode_g1(coupling: PolarCoupling | np.ndarray) -> float | np.ndarray:
    """Triangle graph with equal weights: (1/12) sin^2(phi) sec(2phi) sin^2(3r sqrt(cos 2phi)).

    Raises:
        InvalidArgumentError: an entry of ``coupling`` that is no edge weight.
        NumericOverflowError: the first point, in flat order, whose value leaves double precision.
    """
    return _closed_form(coupling, 1.0, 3.0, lambda sin2, u, S: sin2 * S / 12.0)


def gem_three_mode_g2(coupling: PolarCoupling | np.ndarray) -> float | np.ndarray:
    """Two-edge path with equal weights.

    (1/32) sin^2(phi) sec(2phi) sin^2(r v) (3 cos(2 r v) + 5) with
    v = sqrt(sin 4phi csc 2phi) = sqrt(2 cos 2phi).  Since
    3 cos(2x) + 5 = 8 - 6 sin^2 x, this is sin^2(phi) S (4 - 3 v^2 S) / 8
    with S = sin^2(r v) / v^2 and u = v^2 = sin(4 phi) csc(2 phi), continued as above.

    Raises:
        InvalidArgumentError: an entry of ``coupling`` that is no edge weight.
        NumericOverflowError: the first point, in flat order, whose value leaves double precision.
    """
    return _closed_form(coupling, 2.0, 1.0, lambda sin2, u, S: sin2 * S * (4.0 - 3.0 * u * S) / 8.0)


def gem_ratio_small_r(spec_a: GraphSpec, spec_b: GraphSpec, r: float) -> float:
    """Measure ratio of two topologies with every weight set to i*r.

    As r -> 0 each edge contributes r^2/4 at leading order, so the ratio tends
    to the edge-count ratio of the two graphs.

    Raises:
        InvalidArgumentError: r is not a finite real number, as ``core._is_number``
            judges numbers, or the graphs have different mode counts.
        DivisionByZeroError: the denominator state carries zero measure.
    """
    if not _is_finite_real(r):
        raise InvalidArgumentError(f"coupling modulus r must be a finite real number, got {r!r}")
    if spec_a.num_modes != spec_b.num_modes:
        raise InvalidArgumentError(f"graphs live on different mode counts: {spec_a.num_modes} vs {spec_b.num_modes}")
    w = 1j * r
    num, den = (
        gem_from_purity(graph_state_covariance(GraphSpec.with_uniform_weight(spec.num_modes, spec.pairs, w)))
        for spec in (spec_a, spec_b)
    )
    if den == 0.0:
        raise DivisionByZeroError("denominator graph has zero measure at this coupling")
    return num / den


def log_negativity_two_mode(gamma: np.ndarray | PureState) -> float | np.ndarray:
    """Logarithmic negativity -ln 2 nu~ of a pure two-mode state, from det Gamma_12.

    nu~ is the smaller symplectic eigenvalue of the partial transpose
    (momentum sign flip on mode 2); natural-log convention.  For a pure state
    nu~ = sqrt(d) - sqrt(d - 1/4) with d = det Gamma_11 (Adesso and
    Illuminati, J. Phys. A 40, 7821 (2007)), and purity gives
    d - 1/4 = -det Gamma_12, so with x = sqrt(-det Gamma_12)

        logneg = -ln(sqrt(4x^2 + 1) - 2x) = arcsinh(2x).

    The value reads only the off-diagonal block Gamma_12 and never the gem
    routes.  A graph state with a real weight is a beamsplitter on the vacuum:
    its Gamma_12 comes out antisymmetric, so det Gamma_12 >= 0 and the value
    is exactly 0 (seen on 26,000 real weights in [-50, 50]).  Against 60-digit
    mpmath states of the same weights it is within 1.3e-13 relative at
    w = 8i, 1.9e-14 at 6i, 2.4e-14 at 100i and 1 eps at 1e-6 i, and within
    5.1e-14 on 40 weights drawn uniformly from [-6, 6]^2 (numpy's
    ``default_rng(0)``).

    Returns a float for a 4 x 4 covariance and an array of shape (...) for a
    (..., 4, 4) stack, each slice equal to its one-state call; either may
    come as a ``PureState``.

    Raises:
        InvalidArgumentError: not a two-mode covariance.
        UnphysicalStateError: the state fails the purity gate.
        NumericOverflowError: det Gamma_12 is not finite.
    """
    shape = np.shape(gamma.gamma if isinstance(gamma, PureState) else gamma)
    if shape[-2:] != (4, 4):
        raise InvalidArgumentError(f"log negativity needs a two-mode covariance, got shape {shape}")
    gamma = require_pure(gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        det12 = gamma[..., 0, 2] * gamma[..., 1, 3] - gamma[..., 0, 3] * gamma[..., 1, 2]
    k = _first_fault(det12)
    if k is not None:
        where = _at_stack_index(k, det12.shape)
        raise NumericOverflowError(
            f"log negativity{where} overflows double precision: det Gamma_12 is not finite"
        )
    lognegs = np.arcsinh(2.0 * np.sqrt(np.maximum(-det12, 0.0)))
    return float(lognegs) if lognegs.ndim == 0 else lognegs


def two_mode_metric_closed(r: float, phi: float) -> MetricTensor:
    """Shifted metric of the two-mode graph state from its closed components.

    The matrix is built from five scalars A..E: each mode-diagonal block is
    diag(A, -A, -A) and the cross block [[B, 0, 0], [0, C, D], [0, D, E]],
    so the Killing contraction collapses to -A, which is exactly the
    two-mode closed-form measure.  The tensor's families are strided views
    of that symmetric 6 x 6 matrix, so ``.matrix`` reads it back bit for bit.
    """
    coupling = PolarCoupling(r, phi)  # finite r and phi, r >= 0, as every closed form takes them
    ssr2, ssr1 = (_closed_form(coupling, 1.0, k, lambda sin2, u, S: S) for k in (2.0, 1.0))
    s2 = float(_sin_phi_sq(np.array([coupling.phi]))[0])
    # (cos^2 phi - sin^2 phi cos(2r sqrt u)) / u, with 1 - cos(2r sqrt u) = 2 sin^2(r sqrt u)
    bracket = 1.0 + 2.0 * s2 * ssr1
    a_val = -s2 * ssr2 / 16.0
    b_val = (2.0 - s2 * ssr2) / 16.0
    c_val = s2 * ssr2 / 16.0 + bracket * bracket / 8.0
    d_val = -0.25 * math.sin(phi) * math.cos(phi) * bracket * ssr1
    e_val = 0.25 * s2 * ssr1 * (ssr1 + 1.0)
    if not all(map(math.isfinite, (c_val, d_val, e_val))):  # products of finite factors
        raise NumericOverflowError(f"closed metric overflows double precision at r = {r:.6g}")
    cross = np.array([[b_val, 0.0, 0.0], [0.0, c_val, d_val], [0.0, d_val, e_val]])
    M = np.kron(np.eye(2), np.diag([a_val, -a_val, -a_val])) + np.kron([[0.0, 1.0], [1.0, 0.0]], cross)
    return MetricTensor({(i, j): M[i::3, j::3] for i in range(3) for j in range(i, 3)})
