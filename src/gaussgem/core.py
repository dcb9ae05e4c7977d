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

import numpy as np

from .errors import InvalidArgumentError, NumericOverflowError, UnphysicalStateError

#: The purity gate's one threshold, on the residual max-norm |(Gamma Omega^-1)^2 + I/4|.
DEFAULT_PURITY_TOL = 1e-9


def q_index(mode: int) -> int:
    """0-based row/column of the position quadrature of ``mode`` (1-based)."""
    return 2 * (mode - 1)


def build_omega(num_modes: int) -> np.ndarray:
    """Symplectic form: block-diagonal with ``num_modes`` copies of [[0,1],[-1,0]].

    Satisfies Omega^2 = -I and Omega^T = -Omega.

    Raises:
        InvalidArgumentError: if ``num_modes`` < 1.
    """
    if not isinstance(num_modes, (int, np.integer)) or num_modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {num_modes!r}")
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    for m in range(num_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


def matrix_exponential(matrix: np.ndarray) -> np.ndarray:
    """exp(M) for a square real matrix, or for each slice of a (..., n, n) stack.

    Backed by scipy's scaling-and-squaring Pade implementation, which handles
    the non-normal generators Omega @ h arising here without relying on an
    eigendecomposition.  scipy is imported on first use, so commands that
    never exponentiate do not pay for loading it.

    Raises:
        InvalidArgumentError: non-square input or non-finite entries.
        NumericOverflowError: the exponential overflows to non-finite values.
    """
    import scipy.linalg

    M = np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidArgumentError(f"matrix_exponential needs a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidArgumentError("matrix_exponential needs finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(M)
    if not np.isfinite(out).all():
        raise NumericOverflowError("matrix exponential overflowed for the given norm")
    return out


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
    return matrix_exponential(build_omega(h.shape[-1] // 2) @ h)


def vacuum_state(num_modes: int) -> np.ndarray:
    """Covariance matrix I/2 of the ``num_modes``-mode vacuum."""
    if not isinstance(num_modes, (int, np.integer)) or num_modes < 1:
        raise InvalidArgumentError(f"mode count must be a positive integer, got {num_modes!r}")
    return 0.5 * np.eye(2 * num_modes)


def evolve_covariance(gamma: np.ndarray, symplectic: np.ndarray) -> np.ndarray:
    """Conjugate a covariance matrix: Gamma -> S Gamma S^T.

    Either argument may be a (..., 2N, 2N) stack; leading axes broadcast, so
    one covariance can be pushed through a whole stack of symplectics.
    """
    gamma = np.asarray(gamma, dtype=float)
    S = np.asarray(symplectic, dtype=float)
    mismatch = "covariance shape {} does not match symplectic shape {}"
    if min(gamma.ndim, S.ndim) < 2 or len({*gamma.shape[-2:], *S.shape[-2:]}) != 1:
        raise InvalidArgumentError(mismatch.format(gamma.shape, S.shape))
    try:
        out = S @ gamma @ S.swapaxes(-1, -2)
    except ValueError as exc:  # leading axes that do not broadcast
        raise InvalidArgumentError(mismatch.format(gamma.shape, S.shape)) from exc
    return 0.5 * (out + out.swapaxes(-1, -2))


def reduced_covariance(gamma: np.ndarray, mode: int) -> np.ndarray:
    """2x2 covariance block [[qq, qp], [pq, pp]] of a single mode (1-based)."""
    gamma = np.asarray(gamma, dtype=float)
    num_modes = gamma.shape[0] // 2
    if not 1 <= mode <= num_modes:
        raise InvalidArgumentError(f"mode index {mode} outside 1..{num_modes}")
    a = q_index(mode)
    return gamma[a : a + 2, a : a + 2].copy()


def purity(gamma: np.ndarray) -> float:
    """Purity tr(rho^2) of the Gaussian state with covariance ``gamma``.

    For an N-mode covariance this is (1/2)^N / sqrt(det Gamma); the single-mode
    case reduces to 1/(2 sqrt(det)).  It is computed from ln det(2 Gamma), read
    off the Cholesky factor of 2 Gamma, which does not underflow at large N and
    exists only for a positive-definite covariance.  det must not fall below
    the uncertainty bound by a relative 4 ``DEFAULT_PURITY_TOL`` (one mode:
    det >= 1/4 - tol).  The result is clamped to 1 to absorb rounding on pure
    states.

    Raises:
        InvalidArgumentError: ``gamma`` is not a symmetric 2N x 2N matrix.
        UnphysicalStateError: ``gamma`` is not positive definite, or its det
            lies below the uncertainty bound.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2:
        raise InvalidArgumentError(f"covariance must be 2N x 2N, got shape {gamma.shape}")
    _require_symmetric(gamma, "covariance")
    try:
        chol = np.linalg.cholesky(2.0 * gamma)
    except np.linalg.LinAlgError as exc:
        raise UnphysicalStateError("covariance is not positive definite") from exc
    excess = 2.0 * np.log(np.diagonal(chol)).sum()  # ln det(2 Gamma) = ln(det Gamma / (1/4)^N)
    if not excess >= np.log1p(-4.0 * DEFAULT_PURITY_TOL):
        raise UnphysicalStateError(f"det(Gamma) below the uncertainty bound: det(2 Gamma) = e^{excess:.6g}")
    return min(1.0, float(np.exp(-0.5 * excess)))


def _purity_residual(gamma: np.ndarray) -> np.ndarray:
    """||(Gamma Omega^-1)^2 + I/4||_max of each slice, as an array of shape (...)."""
    if gamma.ndim < 2 or gamma.shape[-1] != gamma.shape[-2] or gamma.shape[-1] % 2:
        raise InvalidArgumentError(f"covariance must be 2N x 2N, got shape {gamma.shape}")
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


def require_pure(gamma: np.ndarray) -> np.ndarray:
    """Validate purity and return ``gamma`` as a float array.

    Raises from the verdict of :func:`check_pure`.  A (..., 2N, 2N) stack is
    accepted only if every slice passes on its own.

    Raises:
        UnphysicalStateError: purity residual is NaN or exceeds the scaled
            tolerance; for a stack, the message names the first failing slice.
    """
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
