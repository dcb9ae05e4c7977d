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
lie 2 rad apart, so sin carries no significant digit.

``graph_state_covariances`` prepares one topology under a whole array of
weights as a single (..., 2N, 2N) stack; each slice equals the one-state
``graph_state_covariance`` bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PureState,
    _is_integer,
    _symmetrized,
    build_omega,
    require_pure,
    symplectic_from_hamiltonian,
)
from .errors import DivisionByZeroError, InvalidArgumentError, NumericOverflowError
from .measure import MetricTensor, _assemble, gem_from_purity

#: Series window around the removable rays cos(2 phi) = 0, on |u| max(s^2, 1).
_RAY_WINDOW = 1e-6

#: Phase s sqrt(u) from which neighbouring doubles lie 2 rad apart.
_PHASE_LIMIT = 2.0**53


@dataclass(frozen=True)
class PolarCoupling:
    """Edge weight in polar form, w = r e^{i phi} with r >= 0."""

    r: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise InvalidArgumentError("polar coupling needs finite r and phi")
        if self.r < 0:
            raise InvalidArgumentError(f"modulus must be non-negative, got {self.r}")

    @property
    def weight(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)

    @classmethod
    def from_complex(cls, w: complex) -> "PolarCoupling":
        return cls(abs(w), cmath.phase(w))


def _validated_pairs(num_modes, pairs) -> tuple:
    """Edge pairs (i, j) checked as 1 <= i < j <= num_modes, integer, no repeats."""
    if not _is_integer(num_modes) or num_modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {num_modes!r}")
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
            raise InvalidArgumentError(
                f"edge ({i}, {j}) must satisfy 1 <= i < j <= {num_modes}"
            )
        if (i, j) in seen:
            raise InvalidArgumentError(f"duplicate edge ({i}, {j})")
        seen[int(i), int(j)] = None
    return tuple(seen)


@dataclass(frozen=True)
class GraphSpec:
    """Mode count plus undirected weighted edges (i < j, 1-based, no loops)."""

    num_modes: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        triples = []
        for edge in self.edges:
            try:
                i, j, w = edge
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"edge {edge!r} is not an (i, j, weight) triple") from exc
            triples.append((i, j, w))
        pairs = _validated_pairs(self.num_modes, [(i, j) for i, j, _ in triples])
        weights = [complex(w) for _, _, w in triples]
        for (i, j), w in zip(pairs, weights):
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise InvalidArgumentError(f"edge ({i}, {j}) has non-finite weight {w}")
        object.__setattr__(self, "edges", tuple((i, j, w) for (i, j), w in zip(pairs, weights)))

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


def _generators(num_modes: int, pairs: tuple, weights: np.ndarray) -> np.ndarray:
    """(..., 2N, 2N) generator stack for validated pairs and complex weights (..., E)."""
    blocks = np.empty(weights.shape + (2, 2))  # [[Re w, -Im w], [-Im w, Re w]] per edge
    blocks[..., 0, 0] = blocks[..., 1, 1] = weights.real
    blocks[..., 0, 1] = blocks[..., 1, 0] = -weights.imag
    h = np.zeros(weights.shape[:-1] + (2 * num_modes, 2 * num_modes))
    for e, (i, j) in enumerate(pairs):
        a, b = 2 * (i - 1), 2 * (j - 1)
        h[..., a : a + 2, b : b + 2] = h[..., b : b + 2, a : a + 2] = blocks[..., e, :, :]
    return h


def _covariances(num_modes: int, pairs: tuple, weights: np.ndarray) -> np.ndarray:
    """S S^T / 2 for S = exp(Omega h): the vacuum I/2 evolved, in one product."""
    S = symplectic_from_hamiltonian(_generators(num_modes, pairs, weights))
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _symmetrized
        product = (0.5 * S) @ S.swapaxes(-1, -2)
    return _symmetrized(product)


def graph_state_covariances(num_modes: int, pairs, weights) -> np.ndarray:
    """Covariances S S^T / 2 of one graph topology under a whole array of weights.

    Args:
        num_modes: mode count N.
        pairs: the E edges as (i, j) pairs, checked as :class:`GraphSpec` checks them.
        weights: complex array of shape (..., E); ``weights[..., e]`` is the
            weight of edge ``pairs[e]``.

    Returns:
        (..., 2N, 2N) array; slice k equals ``graph_state_covariance`` of the
        graph carrying weights ``weights[k]``, bit for bit.

    Raises:
        InvalidArgumentError: bad topology, or weights of the wrong shape or
            with non-finite entries.
    """
    pairs = _validated_pairs(num_modes, pairs)
    weights = np.asarray(weights, dtype=complex)
    if weights.ndim < 1 or weights.shape[-1] != len(pairs):
        raise InvalidArgumentError(
            f"weights must have shape (..., {len(pairs)}) for {len(pairs)} edges, got {weights.shape}"
        )
    if not np.isfinite(weights).all():
        raise InvalidArgumentError("edge weights must be finite")
    return _covariances(num_modes, pairs, weights)


def hamiltonian_from_graph(spec: GraphSpec) -> np.ndarray:
    """2N x 2N symmetric generator of the graph preparation unitary."""
    if not isinstance(spec, GraphSpec):
        raise InvalidArgumentError("hamiltonian_from_graph needs a GraphSpec")
    return _generators(spec.num_modes, spec.pairs, spec.weights)


def graph_state_covariance(spec: GraphSpec) -> np.ndarray:
    """Pure covariance matrix S S^T / 2 of the graph state, S = exp(Omega h)."""
    if not isinstance(spec, GraphSpec):
        raise InvalidArgumentError("graph_state_covariance needs a GraphSpec")
    return _covariances(spec.num_modes, spec.pairs, spec.weights)


# --- analytic continuation helpers (piecewise real) -------------------------

def _sin_sq_over(u: float, s: float) -> float:
    """sin^2(s sqrt(u)) / u, continued through u <= 0.

    Equals (1 - cos(2 s sqrt(u))) / (2u), an entire function of u; for u < 0
    the value is sinh^2(s sqrt(-u)) / (-u).  Where s^2 |u| is small a short
    series avoids the 0/0 evaluation; its window shrinks as s grows, so the
    truncated terms stay below rounding.  A value past double precision,
    which a finite sinh^2 divided by a small -u can give, raises
    ``NumericOverflowError``; so does a phase s sqrt(u) >= 2^53 for u > 0,
    where sin of the rounded phase has no significant digit.
    """
    s2 = s * s
    try:
        if abs(u) * max(s2, 1.0) < _RAY_WINDOW:
            value = s2 - s2 * s2 * u / 3.0 + 2.0 * s2**3 * u * u / 45.0
        elif u > 0:
            phase = s * math.sqrt(u)
            if phase >= _PHASE_LIMIT:
                raise NumericOverflowError(
                    f"closed form has no significant digit: phase s sqrt(u) = {phase:.6g} "
                    f"is past 2^53 at s = {s:.6g}, u = {u:.6g}"
                )
            value = math.sin(phase) ** 2 / u
        else:
            value = math.sinh(s * math.sqrt(-u)) ** 2 / (-u)
    except OverflowError:  # sinh or a series power past range
        value = math.inf
    if not math.isfinite(value):
        raise NumericOverflowError(
            f"closed form overflows double precision: sin^2(s sqrt(u)) / u at s = {s:.6g}, u = {u:.6g}"
        )
    return value


def _sin_phi_sq(phi: float) -> float:
    """sin^2(phi) with the zeros at multiples of pi made exact.

    Purely real couplings carry no entanglement; phi equal to a floating
    point multiple of pi must therefore annihilate the closed forms exactly,
    not up to sin(pi) ~ 1e-16.
    """
    s = math.sin(phi)
    return 0.0 if abs(s) < 1e-12 else s * s


# --- closed forms ------------------------------------------------------------

def gem_two_mode_closed(coupling: PolarCoupling) -> float:
    """Measure of the single-edge two-mode state: sin^2(phi) sin^2(2r sqrt(cos 2phi)) / (16 cos 2phi).

    Real couplings give exactly zero; at phi = +-pi/2 this is sinh^2(2r)/16.
    """
    u = math.cos(2.0 * coupling.phi)
    return _sin_phi_sq(coupling.phi) * _sin_sq_over(u, 2.0 * coupling.r) / 16.0


def compact_gem_two_mode(nu: float, phi: float) -> float:
    """Bounded variant on the compactified two-mode family, in [0, 1).

    The edge modulus is constrained to tanh(nu) < 1 and the measure is
    renormalized by its supremum on that family,

        [P1^-2 + P2^-2 - 2] / (2 sinh^2 2) = 16 gem / sinh^2 2,

    so the value approaches 1 only in the limit nu -> inf at phi = +-pi/2.
    """
    if nu < 0:
        raise InvalidArgumentError(f"compactified modulus parameter must be >= 0, got {nu}")
    return 16.0 * gem_two_mode_closed(PolarCoupling(math.tanh(nu), phi)) / math.sinh(2.0) ** 2


def gem_three_mode_g1(coupling: PolarCoupling) -> float:
    """Triangle graph with equal weights: (1/12) sin^2(phi) sec(2phi) sin^2(3r sqrt(cos 2phi))."""
    u = math.cos(2.0 * coupling.phi)
    return _sin_phi_sq(coupling.phi) * _sin_sq_over(u, 3.0 * coupling.r) / 12.0


def gem_three_mode_g2(coupling: PolarCoupling) -> float:
    """Two-edge path with equal weights.

    (1/32) sin^2(phi) sec(2phi) sin^2(r v) (3 cos(2 r v) + 5) with
    v = sqrt(sin 4phi csc 2phi) = sqrt(2 cos 2phi).  Since
    3 cos(2x) + 5 = 8 - 6 sin^2 x, this is sin^2(phi) S (4 - 3 v^2 S) / 8
    with S = sin^2(r v) / v^2, continued as above.
    """
    u2 = 2.0 * math.cos(2.0 * coupling.phi)  # sin(4 phi) csc(2 phi)
    S = _sin_sq_over(u2, coupling.r)
    value = _sin_phi_sq(coupling.phi) * S * (4.0 - 3.0 * u2 * S) / 8.0
    if math.isinf(value):  # two finite factors can overflow
        raise NumericOverflowError(f"closed form overflows double precision at r = {coupling.r:.6g}")
    return value


def gem_ratio_small_r(spec_a: GraphSpec, spec_b: GraphSpec, r: float) -> float:
    """Measure ratio of two topologies with every weight set to i*r.

    As r -> 0 each edge contributes r^2/4 at leading order, so the ratio tends
    to the edge-count ratio of the two graphs.

    Raises:
        DivisionByZeroError: the denominator state carries zero measure.
    """
    if spec_a.num_modes != spec_b.num_modes:
        raise InvalidArgumentError(
            f"graphs live on different mode counts: {spec_a.num_modes} vs {spec_b.num_modes}"
        )
    w = 1j * r
    num, den = (
        gem_from_purity(graph_state_covariance(GraphSpec.with_uniform_weight(spec.num_modes, spec.pairs, w)))
        for spec in (spec_a, spec_b)
    )
    if den == 0.0:
        raise DivisionByZeroError("denominator graph has zero measure at this coupling")
    return num / den


def log_negativity_two_mode(gamma: np.ndarray | PureState) -> float | np.ndarray:
    """Logarithmic negativity max(0, -ln 2 nu-) of a pure two-mode state.

    nu- is the smallest symplectic eigenvalue of the partial transpose
    (momentum sign flip on mode 2); natural-log convention.  Returns a float
    for a 4 x 4 covariance and an array of shape (...) for a (..., 4, 4) stack;
    either may come as a ``PureState``.
    """
    shape = np.shape(gamma.gamma if isinstance(gamma, PureState) else gamma)
    if shape[-2:] != (4, 4):
        raise InvalidArgumentError(f"log negativity needs a two-mode covariance, got shape {shape}")
    gamma = require_pure(gamma)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    partial = flip @ gamma @ flip
    eigs = np.linalg.eigvals(1j * build_omega(2) @ partial)
    nu_min = np.min(np.abs(eigs), axis=-1)
    # math.log, not np.log: the two differ in the last bit on some inputs.
    lognegs = [max(0.0, -math.log(2.0 * nu)) for nu in nu_min.ravel().tolist()]
    return lognegs[0] if nu_min.ndim == 0 else np.reshape(lognegs, nu_min.shape)


def two_mode_metric_closed(r: float, phi: float) -> MetricTensor:
    """Shifted metric of the two-mode graph state from its closed components.

    The surviving generator families are built from five scalars A..E;
    diagonal mode blocks are diag(A, -A, -A), so the Killing contraction
    collapses to -A, which is exactly the two-mode closed-form measure.
    """
    u = math.cos(2.0 * phi)
    s2 = _sin_phi_sq(phi)
    ssr2 = _sin_sq_over(u, 2.0 * r)
    ssr1 = _sin_sq_over(u, r)
    # (cos^2 phi - sin^2 phi cos(2r sqrt u)) / u, with 1 - cos(2r sqrt u) = 2 sin^2(r sqrt u)
    bracket = 1.0 + 2.0 * s2 * ssr1
    a_val = -s2 * ssr2 / 16.0
    b_val = (2.0 - s2 * ssr2) / 16.0
    c_val = s2 * ssr2 / 16.0 + bracket * bracket / 8.0
    d_val = -0.25 * math.sin(phi) * math.cos(phi) * bracket * ssr1
    e_val = 0.25 * s2 * ssr1 * (ssr1 + 1.0)
    if not all(map(math.isfinite, (c_val, d_val, e_val))):  # products of finite factors
        raise NumericOverflowError(f"closed metric overflows double precision at r = {r:.6g}")
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    fams = {
        (0, 0): a_val * eye + b_val * off,
        (0, 1): np.zeros((2, 2)),
        (0, 2): np.zeros((2, 2)),
        (1, 1): -a_val * eye + c_val * off,
        (1, 2): d_val * off,
        (2, 2): -a_val * eye + e_val * off,
    }
    return MetricTensor(_assemble(2, fams))
