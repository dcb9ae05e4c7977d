"""Phase-space representation of pure multimode Gaussian states.

Quadratures are ordered mode by mode as (q1, p1, q2, p2, ..., qN, pN), in
units where hbar = 1 and the vacuum covariance matrix is I/2.  All states
handled here have zero first moments, so a state is a single 2N x 2N real
symmetric covariance matrix

    Gamma_AB = (1/2) <{xi_A, xi_B}>,

pure if and only if (Gamma Omega^{-1})^2 = -I/4, with Omega the symplectic
form of the commutation relations.  Everything in this module is a pure
function of its arguments; nothing mutates its inputs.

The state-level functions also take stacks: arrays of shape (..., 2N, 2N)
holding one matrix per leading index.  A stack is processed slice by slice
with the same arithmetic as a single matrix, so each slice of the result is
bit-identical to the single-matrix call, and a 2-D input returns exactly
what it always did.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericOverflowError, UnphysicalStateError

#: The purity gate's one threshold, on the residual max-norm |(Gamma Omega^-1)^2 + I/4|.
DEFAULT_PURITY_TOL = 1e-9


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, which JSON true/false become."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def build_omega(num_modes: int) -> np.ndarray:
    """Symplectic form: block-diagonal with ``num_modes`` copies of [[0,1],[-1,0]].

    Satisfies Omega^2 = -I and Omega^T = -Omega.

    Raises:
        InvalidArgumentError: if ``num_modes`` < 1.
    """
    if not _is_integer(num_modes) or num_modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {num_modes!r}")
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    # Entries (2m, 2m+1) and (2m+1, 2m) sit 4N + 2 apart in the flat array.
    omega.flat[1 :: 4 * num_modes + 2] = 1.0
    omega.flat[2 * num_modes :: 4 * num_modes + 2] = -1.0
    return omega


@functools.lru_cache(maxsize=4)
def _triangle_masks(n: int) -> np.ndarray:
    """(n*n, 2) float 0/1 columns selecting the strictly lower and strictly upper entries.

    Cached because building them costs more than the test itself on a 4 x 4;
    each entry holds 16 n^2 bytes (0.6 MB at n = 192).
    """
    below = np.subtract.outer(np.arange(n), np.arange(n)).ravel()
    masks = np.stack([below > 0, below < 0], axis=-1).astype(float)
    masks.setflags(write=False)
    return masks


_PADE_KERNELS = "scipy.linalg._matfuncs_expm"


def _pade_kernels():
    """scipy's compiled Pade kernels, loaded without importing ``scipy.linalg``.

    Returns the module in ``sys.modules`` if there is one (``import
    scipy.linalg`` puts it there, and a later such import reuses the one
    loaded here).  Otherwise it locates the extension file in scipy's
    ``linalg`` directory, without importing scipy, and executes it under
    its own name.  The extension needs only numpy's C API and the BLAS that
    scipy links; the Python package start-up of ``scipy.linalg`` costs more
    than the rest of a short CLI run.

    Raises:
        ImportError: scipy or its kernel extension is not installed.
    """
    kernels = sys.modules.get(_PADE_KERNELS)
    if kernels is not None:
        return kernels
    import importlib.machinery
    import importlib.util

    scipy_spec = importlib.util.find_spec("scipy")  # locates the package without importing it
    dirs = [os.path.join(p, "linalg") for p in scipy_spec.submodule_search_locations] if scipy_spec else []
    spec = importlib.machinery.PathFinder.find_spec(_PADE_KERNELS, dirs)
    if spec is None:
        raise ImportError(f"matrix_exponential needs the extension {_PADE_KERNELS}, not found in {dirs or sys.path}")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    sys.modules[_PADE_KERNELS] = kernels
    return kernels


def matrix_exponential(matrix: np.ndarray) -> np.ndarray:
    """exp(M) for a square real matrix, or for each slice of a (..., n, n) stack.

    Each slice equals ``scipy.linalg.expm`` of that slice bit for bit: the
    scaling-and-squaring Pade algorithm of Al-Mohy and Higham (SIAM J.
    Matrix Anal. Appl. 31, 970 (2009)), which handles the non-normal
    generators Omega @ h arising here without an eigendecomposition.  A 2-D
    matrix is a stack of one.  One vectorized test over the stack finds the
    slices with nothing below, or nothing above, the diagonal, which scipy
    treats apart (its ``bandwidth`` branch): diagonal ones, zero included,
    take scipy's formula ``np.diag(np.exp(np.diag(slice)))`` here, and the
    other triangular ones go through public ``scipy.linalg.expm``.  Every
    generic slice is copied into one reused (5, n, n) scratch array and goes
    through scipy's own kernels, ``pick_pade_structure`` (order m and
    scaling s) and ``pade_UV_calc`` (the Pade quotient) of
    ``scipy.linalg._matfuncs_expm``, then s squarings ``e = e @ e``, as
    ``expm``'s loop does, but without its per-slice Python wrapper.  The
    kernels are private; they are called with the interface of scipy 1.17,
    the floor in ``pyproject.toml``, and loaded on first use from their own
    extension file (:func:`_pade_kernels`), so only a non-diagonal
    triangular slice imports ``scipy.linalg``.

    Raises:
        InvalidArgumentError: non-square input or non-finite entries.
        NumericOverflowError: the exponential overflows to non-finite values.
        MemoryError, RuntimeError: a Pade kernel failed, as in ``scipy.linalg.expm``.
        ImportError: scipy's kernel extension is not installed.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidArgumentError(f"matrix_exponential needs a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidArgumentError("matrix_exponential needs finite entries")

    n = M.shape[-1]
    stack = M.reshape(math.prod(M.shape[:-2]), n, n)
    out = np.empty_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # Sums of |entries| below and above the diagonal: both nonzero makes a generic slice.
        sums = np.abs(stack).reshape(len(stack), n * n) @ _triangle_masks(n)
        generic = sums.all(axis=-1)
        indices = generic.nonzero()[0].tolist()
        if len(indices) < len(stack):
            diagonal = ~sums.any(axis=-1)
            for k in diagonal.nonzero()[0]:
                out[k] = np.diag(np.exp(np.diag(stack[k])))
            triangular = ~(generic | diagonal)
            if triangular.any():
                import scipy.linalg

                out[triangular] = scipy.linalg.expm(stack[triangular])
        kernels = _pade_kernels() if indices else None
        scratch = np.empty((5, n, n))
        for k in indices:
            scratch[0] = stack[k]
            m, s = kernels.pick_pade_structure(scratch)  # scales scratch[0] by 2^-s in place
            if m < 0:
                raise MemoryError(f"scipy's Pade kernel could not allocate its work space (error code {m})")
            info = kernels.pade_UV_calc(scratch, m)
            if info != 0:
                error = MemoryError if info <= -11 else RuntimeError
                raise error(f"scipy's Pade kernel failed with LAPACK error code {info}")
            e = scratch[0]
            for _ in range(s):
                e = e @ e
            out[k] = e
    if not np.isfinite(out).all():
        raise NumericOverflowError("matrix exponential overflowed for the given norm")
    return out.reshape(M.shape)


def _require_symmetric(matrix: np.ndarray, name: str) -> None:
    """InvalidArgumentError unless each slice passes np.allclose(slice, slice^T, atol=1e-12)."""
    # The test of np.allclose, without its per-call overhead.
    mT = matrix.swapaxes(-1, -2)
    if not (np.abs(matrix - mT) <= 1e-12 + 1e-5 * np.abs(mT)).all():
        raise InvalidArgumentError(f"{name} must be symmetric")


def symplectic_from_hamiltonian(h: np.ndarray) -> np.ndarray:
    """Symplectic transformation S = exp(Omega h) of a quadratic generator.

    ``h`` is the real symmetric coefficient matrix of (1/2) xi^T h xi.  The
    result satisfies S Omega S^T = Omega and det S = 1.

    Args:
        h: 2N x 2N real symmetric matrix, or a (..., 2N, 2N) stack of them;
            the result has the same shape.

    Raises:
        InvalidArgumentError: ``h`` is not 2N x 2N, or a slice is not symmetric.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] % 2:
        raise InvalidArgumentError(f"quadratic generator must be 2N x 2N, got shape {h.shape}")
    _require_symmetric(h, "quadratic generator")
    # Omega h only moves rows: row 2m is h's row 2m+1 and row 2m+1 is minus
    # row 2m.  Adding 0.0 turns each -0.0 into the +0.0 that the dense
    # product build_omega(N) @ h yields there, so the two agree bit for bit.
    generator = np.empty_like(h)
    generator[..., 0::2, :] = h[..., 1::2, :]
    np.negative(h[..., 0::2, :], out=generator[..., 1::2, :])
    generator += 0.0
    return matrix_exponential(generator)


def vacuum_state(num_modes: int) -> np.ndarray:
    """Covariance matrix I/2 of the ``num_modes``-mode vacuum."""
    if not _is_integer(num_modes) or num_modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {num_modes!r}")
    return 0.5 * np.eye(2 * num_modes)


def evolve_covariance(gamma: np.ndarray, symplectic: np.ndarray) -> np.ndarray:
    """Conjugate a covariance matrix: Gamma -> S Gamma S^T.

    Either argument may be a (..., 2N, 2N) stack; leading axes broadcast, so
    one covariance can be pushed through a whole stack of symplectics.

    Raises:
        InvalidArgumentError: the shapes do not match or do not broadcast.
        NumericOverflowError: S Gamma S^T has non-finite entries.
    """
    gamma = np.asarray(gamma, dtype=float)
    S = np.asarray(symplectic, dtype=float)
    mismatch = "covariance shape {} does not match symplectic shape {}"
    if min(gamma.ndim, S.ndim) < 2 or len({*gamma.shape[-2:], *S.shape[-2:]}) != 1:
        raise InvalidArgumentError(mismatch.format(gamma.shape, S.shape))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked by _symmetrized
            product = S @ gamma @ S.swapaxes(-1, -2)
    except ValueError as exc:  # leading axes that do not broadcast
        raise InvalidArgumentError(mismatch.format(gamma.shape, S.shape)) from exc
    return _symmetrized(product)


def _symmetrized(product: np.ndarray) -> np.ndarray:
    """(P + P^T) / 2 of an evolved covariance P = S Gamma S^T, checked finite.

    The caller forms P under ``np.errstate(over="ignore", invalid="ignore")``;
    an entry that overflowed there is caught here.

    Raises:
        NumericOverflowError: the result has non-finite entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.5 * (product + product.swapaxes(-1, -2))
    if not np.isfinite(out).all():
        raise NumericOverflowError("evolved covariance S Gamma S^T overflows double precision")
    return out


def _mode_dets(gamma: np.ndarray) -> np.ndarray:
    """det Gamma^(mode) of every mode-diagonal 2x2 block, shape (..., N)."""
    rows = np.arange(gamma.shape[-1]).reshape(-1, 2, 1)  # rows 2m, 2m + 1 of mode m
    # One stacked det over the (..., N, 2, 2) mode blocks; it runs the same
    # LAPACK call per block as a det of each block on its own.
    return np.linalg.det(gamma[..., rows, rows.reshape(-1, 1, 2)])


def purity(gamma: np.ndarray) -> float:
    """Purity tr(rho^2) of the Gaussian state with covariance ``gamma``.

    For an N-mode covariance this is (1/2)^N / sqrt(det Gamma); the single-mode
    case reduces to 1/(2 sqrt(det)).  It is computed from ln det(2 Gamma), read
    off the Cholesky factor of 2 Gamma, which does not underflow at large N and
    exists only for a positive-definite covariance.  det must not fall below
    the uncertainty bound by a relative 4 ``DEFAULT_PURITY_TOL`` (one mode:
    det >= 1/4 - tol), and no mode's 2x2 block may have det below
    1/4 - tol: det(2 Gamma) alone passes diag(0.3, 0.3, 2, 2), whose first
    mode has det 0.09.  The result is clamped to 1 to absorb rounding on
    pure states.

    Raises:
        InvalidArgumentError: ``gamma`` is not a symmetric 2N x 2N matrix with N >= 1.
        UnphysicalStateError: ``gamma`` is not positive definite, or its det
            or a mode's det lies below the uncertainty bound.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2 or not gamma.shape[0]:
        raise InvalidArgumentError(f"covariance must be 2N x 2N with N >= 1, got shape {gamma.shape}")
    _require_symmetric(gamma, "covariance")
    try:
        chol = np.linalg.cholesky(2.0 * gamma)
    except np.linalg.LinAlgError as exc:
        raise UnphysicalStateError("covariance is not positive definite") from exc
    excess = 2.0 * np.log(np.diagonal(chol)).sum()  # ln det(2 Gamma) = ln(det Gamma / (1/4)^N)
    if not excess >= np.log1p(-4.0 * DEFAULT_PURITY_TOL):
        raise UnphysicalStateError(f"det(Gamma) below the uncertainty bound: det(2 Gamma) = e^{excess:.6g}")
    dets = _mode_dets(gamma)
    if (dets < 0.25 - DEFAULT_PURITY_TOL).any():
        mode = int(np.argmin(dets))
        raise UnphysicalStateError(
            f"mode {mode + 1} violates the uncertainty bound: det Gamma_m = {dets[mode]:.6g} < 1/4"
        )
    return min(1.0, float(np.exp(-0.5 * excess)))


def _purity_residual(gamma: np.ndarray) -> np.ndarray:
    """||(Gamma Omega^-1)^2 + I/4||_max of each slice, as an array of shape (...)."""
    if gamma.ndim < 2 or gamma.shape[-1] != gamma.shape[-2] or gamma.shape[-1] % 2 or not gamma.shape[-1]:
        raise InvalidArgumentError(f"covariance must be 2N x 2N with N >= 1, got shape {gamma.shape}")
    # Gamma Omega^{-1} = -Gamma Omega only moves columns: column 2m is Gamma's
    # column 2m+1 and column 2m+1 is minus column 2m.  Every entry is one
    # entry of Gamma times +-1, so this equals the dense product exactly.
    J = np.empty_like(gamma)
    J[..., 0::2] = gamma[..., 1::2]
    J[..., 1::2] = -gamma[..., 0::2]
    # An overflowing product leaves an inf or NaN residual, which the gate rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(J @ J + 0.25 * np.eye(gamma.shape[-1])).max(axis=(-2, -1))


def _purity_verdict(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The purity gate on each slice: (passes, residual, scale), arrays of shape (...).

    The residual carries cancellation error that grows like ||Gamma||^2, so
    the bound is ``DEFAULT_PURITY_TOL`` times scale = max(1, ||Gamma||_1^2):
    strongly squeezed pure states pass, while mixed states, whose residuals
    are of the order of that scale, and NaN still fail.  An overflowing scale
    (a norm beyond 1e154) leaves the bound unscaled.  Scales are at least 1,
    so a residual below the unscaled bound passes whatever its scale; they
    are computed only when some residual is not, and are None otherwise.
    """
    residual = _purity_residual(gamma)
    passes = residual < DEFAULT_PURITY_TOL
    if passes.all():
        return passes, residual, None
    with np.errstate(over="ignore"):  # a norm beyond 1e154 scales the bound to inf
        scale = np.maximum(1.0, np.linalg.norm(gamma, 1, axis=(-2, -1)) ** 2)
    return residual < DEFAULT_PURITY_TOL * np.where(np.isfinite(scale), scale, 1.0), residual, scale


def check_pure(gamma: np.ndarray) -> tuple[bool, float]:
    """The purity gate's verdict, without raising.

    Returns:
        (is_pure, residual) where residual = ||(Gamma Omega^-1)^2 + I/4||_max
        and is_pure is the verdict of :func:`require_pure` on the same input.
        For a (..., 2N, 2N) stack both are arrays of shape (...), one entry
        per slice.
    """
    passes, residual, _ = _purity_verdict(np.asarray(gamma, dtype=float))
    return (bool(passes), float(residual)) if residual.ndim == 0 else (passes, residual)


def require_pure(gamma: np.ndarray | PureState) -> np.ndarray:
    """Validate purity and return ``gamma`` as a float array.

    A :class:`PureState` carries its verdict already: its ``gamma`` comes
    back unchanged and unjudged.  Any other input is judged here, from the
    verdict of :func:`check_pure`; a (..., 2N, 2N) stack is accepted only if
    every slice passes on its own.

    Raises:
        UnphysicalStateError: purity residual is NaN or exceeds the scaled
            tolerance; for a stack, the message names the first failing slice.
    """
    if isinstance(gamma, PureState):
        return gamma.gamma
    gamma = np.asarray(gamma, dtype=float)
    passes, residual, scale = _purity_verdict(gamma)
    if scale is None or passes.all():
        return gamma
    k = np.flatnonzero(~passes)[0]
    index = tuple(int(i) for i in np.unravel_index(k, gamma.shape[:-2]))
    where = f" at stack index {index}" if index else ""
    if np.isinf(scale.flat[k]):
        raise UnphysicalStateError(
            f"state{where} fails the purity gate: ||Gamma||_1^2 overflows double precision, "
            f"so the bound stays {DEFAULT_PURITY_TOL:.1e} (purity residual {residual.flat[k]:.3e})"
        )
    raise UnphysicalStateError(
        f"state{where} is not pure: purity residual {residual.flat[k]:.3e} exceeds "
        f"{DEFAULT_PURITY_TOL:.1e} (conditioning scale {scale.flat[k]:.3e})"
    )


@dataclass(frozen=True)
class PureState:
    """A covariance, or a (..., 2N, 2N) stack of them, that passed the purity gate.

    Construction runs :func:`require_pure` once and keeps a read-only copy of
    the gated matrix, so the verdict cannot go stale.  Every measure route
    takes a state wherever it takes an array, and does not judge it again.

    Raises:
        UnphysicalStateError: as :func:`require_pure` raises on ``gamma``.
    """

    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.array(require_pure(self.gamma))
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)


def _pure_by_construction(gamma: np.ndarray) -> PureState:
    """A :class:`PureState` for a covariance whose construction proves it pure.

    Runs no purity residual: the caller vouches for purity, and only
    finiteness is checked.  ``gamma`` must be a float array that no one else
    holds, as the state keeps it without a copy.

    Raises:
        NumericOverflowError: ``gamma`` has non-finite entries.
    """
    if not np.isfinite(gamma).all():
        raise NumericOverflowError("covariance of a built state has non-finite entries")
    state = object.__new__(PureState)  # skips __post_init__, which would gate
    object.__setattr__(state, "gamma", gamma)
    return state
