"""Independent reference implementations used to validate the library.

Nothing here calls into the phase-space code paths it is used to check:
the matrix exponential oracle is a plain rescaled Taylor series, the state
oracles work in a truncated Fock basis (the prepared graph state applies
exp(-iH) to the vacuum through scipy's sparse ``expm_multiply`` on the
Fock-space Hamiltonian, never forming a dense propagator), the moment oracles
spell out each of the nine generator-pair Wick sums by hand or contract all
16 complex products of the two-point function, the Bogoliubov
oracle forms each of the eight products of the symplectic identities on its
own, the lattice oracles build the Fourier rows one mode number at a time
and transport the mode variances with two dense products, and the elliptic
oracle is adaptive quadrature of the defining integral.
"""

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import expm as _scipy_expm
from scipy.sparse.linalg import expm_multiply


def taylor_expm(M, terms=30):
    """exp(M) by scaling-and-squaring of a truncated Taylor series."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.linalg.norm(M, 1)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25)))) if norm > 0.25 else 0
    A = M / 2.0**squarings
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def destroy(cutoff):
    """Single-mode annihilation operator on a ``cutoff``-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1)


def _sparse_quadrature_ops_two_mode(cutoff):
    """Sparse CSR (q1, p1, q2, p2) operators on the two-mode truncated Fock space."""
    a = destroy(cutoff)
    q = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    eye = sparse.identity(cutoff, format="csr")
    return [sparse.kron(q, eye, format="csr"), sparse.kron(p, eye, format="csr"),
            sparse.kron(eye, q, format="csr"), sparse.kron(eye, p, format="csr")]


def quadrature_ops_two_mode(cutoff):
    """Dense (q1, p1, q2, p2) operators on the two-mode truncated Fock space."""
    return [op.toarray() for op in _sparse_quadrature_ops_two_mode(cutoff)]


def two_mode_squeezed_state(r, cutoff):
    """exp[r (a1+ a2+ - a1 a2)] |00> from its Schmidt form, as a flat vector.

    Coefficients tanh(r)^n / cosh(r) on |n, n>; needs no operator
    exponential, so it is independent of every exponential routine in play.
    """
    lam = np.tanh(r)
    psi = np.zeros((cutoff, cutoff))
    psi[np.arange(cutoff), np.arange(cutoff)] = lam ** np.arange(cutoff)
    return (psi / np.cosh(r)).reshape(-1)


def single_mode_squeezed_state(r, cutoff):
    """exp[(r/2)(a+^2 - a^2)] |0>, giving <q^2> = e^{2r}/2."""
    a = destroy(cutoff)
    gen = 0.5 * r * (a.T @ a.T - a @ a)
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    return _scipy_expm(gen) @ vac

def prepared_graph_state(h, cutoff):
    """exp(-i H) |00> for the quadratic H = (1/2) xi^T h xi on two modes.

    The minus sign matches the S = exp(Omega h) phase-space convention:
    conjugating quadratures by exp(-iH) multiplies them by exp(Omega h).
    """
    if h.shape != (4, 4):
        raise ValueError("oracle handles two-mode generators only")
    ops = _sparse_quadrature_ops_two_mode(cutoff)
    H = sparse.csr_matrix((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for A in range(4):
        for B in range(4):
            if h[A, B] != 0.0:
                H = H + 0.5 * h[A, B] * (ops[A] @ ops[B])
    vac = np.zeros(cutoff * cutoff)
    vac[0] = 1.0
    return expm_multiply(-1j * H, vac)


def fock_covariance(psi, ops):
    """Symmetrized covariance matrix <{xi_A, xi_B}>/2 of a Fock-space vector."""
    n = len(ops)
    gamma = np.zeros((n, n))
    vecs = [op @ psi for op in ops]
    for A in range(n):
        for B in range(A, n):
            val = 0.5 * np.real(np.vdot(vecs[A], vecs[B]) + np.vdot(vecs[B], vecs[A]))
            gamma[A, B] = gamma[B, A] = val
    return gamma


def fock_four_point(psi, ops, A, B, C, D):
    """<psi| xi_A xi_B xi_C xi_D |psi> (operators Hermitian)."""
    left = ops[B] @ (ops[A] @ psi)
    right = ops[C] @ (ops[D] @ psi)
    return np.vdot(left, right)


def fock_reduced_purity(psi, cutoff):
    """tr(rho_1^2) after tracing out the second mode of a two-mode vector."""
    mat = psi.reshape(cutoff, cutoff)
    rho = mat @ mat.conj().T
    return float(np.real(np.trace(rho @ rho)))


def fock_expectation(psi, op):
    return np.vdot(psi, op @ psi)


def sp2_generator_ops_two_mode(cutoff):
    """T1, T2, T3 for each of two modes as dense Fock-space matrices.

    T1 = (q^2 - p^2)/4, T2 = -(qp + pq)/4, T3 = (q^2 + p^2)/4.
    Returns a list indexed by 3*(mode-1) + (i-1).
    """
    a = destroy(cutoff)
    q = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    t_ops = [
        (q @ q - p @ p) / 4.0,
        -(q @ p + p @ q) / 4.0,
        (q @ q + p @ p) / 4.0,
    ]
    eye = np.eye(cutoff)
    out = []
    for mode in range(2):
        for t in t_ops:
            out.append(np.kron(t, eye) if mode == 0 else np.kron(eye, t))
    return out


def fock_metric_two_mode(psi, cutoff):
    """Restricted Fubini-Study metric of a two-mode Fock vector.

    Directly from the generator moments, g = -Re<T_a T_b> + <T_a><T_b>,
    with no phase-space input at all: a from-scratch check of the whole
    covariance-based construction.
    """
    ops = sp2_generator_ops_two_mode(cutoff)
    vecs = [op @ psi for op in ops]
    firsts = [np.real(np.vdot(psi, v)) for v in vecs]
    g = np.zeros((6, 6))
    for a in range(6):
        for b in range(6):
            second = np.vdot(vecs[a], vecs[b])  # <psi| T_a T_b |psi>
            g[a, b] = -np.real(second) + firsts[a] * firsts[b]
    return 0.5 * (g + g.T)


def reduced_covariance(gamma, mode):
    """The 2x2 covariance block [[qq, qp], [pq, pp]] of ``mode`` (1-based), a slice of Gamma."""
    return np.asarray(gamma)[2 * mode - 2 : 2 * mode, 2 * mode - 2 : 2 * mode]


def moments_hand_expanded(gamma):
    """First and second generator moments of a pure (..., 2N, 2N) covariance, formula by formula.

    Each of the nine second-moment families is the three-pairing Wick sum of
    C = Gamma + (i/2) Omega for T1 = (q^2 - p^2)/4, T2 = -(qp + pq)/4 and
    T3 = (q^2 + p^2)/4, expanded by hand.  Returns ``(first, second)`` laid
    out as ``MomentTable``: first[..., m, i] and second[..., m, n, i, j].
    """
    gamma = np.asarray(gamma, dtype=float)
    num_modes = gamma.shape[-1] // 2
    omega = np.kron(np.eye(num_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    C = gamma + 0.5j * omega
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
    return first, np.moveaxis(sym.real, (0, 1), (-2, -1))


def moments_complex_wick(gamma):
    """First and second generator moments of a pure (..., 2N, 2N) covariance, in complex arithmetic.

    One contraction of the weights A_i[a,b] A_j[c,d] / 2 with all 16 products
    C^{mn}_ac C^{mn}_bd of the two-point function C = Gamma + (i/2) Omega,
    real part taken at the end.  Returns ``(first, second)`` laid out as
    ``MomentTable``: first[..., m, i] and second[..., m, n, i, j].
    """
    gamma = np.asarray(gamma, dtype=float)
    num_modes = gamma.shape[-1] // 2
    gens = 0.5 * np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [-1.0, 0.0]], np.eye(2)])
    weights = 0.5 * np.einsum("iab,jcd->ijabcd", gens, gens)
    C = gamma + 0.5j * np.kron(np.eye(num_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    planes = np.moveaxis(C.reshape(C.shape[:-2] + (num_modes, 2) * 2), (-3, -1), (0, 1))  # [a, c][..., m, n]
    first = np.moveaxis(0.5 * np.tensordot(gens, np.diagonal(planes, 0, -2, -1).real, axes=2), 0, -1)
    products = planes[:, None, :, None] * planes[None, :, None, :]  # [a, b, c, d] = C_ac C_bd
    connected = np.moveaxis(np.tensordot(weights, products, axes=4).real, (0, 1), (-2, -1))
    return first, connected + first[..., :, None, :, None] * first[..., None, :, None, :]


def bogoliubov_residuals_eight_products(x, y):
    """Max-norm defects of the four symplectic identities of (X, Y), one product per term."""
    eye = np.eye(x.shape[0])
    return {
        "XXt_YYt": float(np.max(np.abs(x @ x.T - y @ y.T - eye))),
        "XYt_YXt": float(np.max(np.abs(x @ y.T - y @ x.T))),
        "XtX_YtY": float(np.max(np.abs(x.T @ x - y.T @ y - eye))),
        "XtY_YtX": float(np.max(np.abs(x.T @ y - y.T @ x))),
    }


def _lattice_frequencies(cfg):
    """m, omega_1..n, omega_1..n: the frequency of each Fourier row."""
    s = np.sin(np.pi * np.arange(1, cfg.n + 1) / cfg.num_modes)
    omegas = np.sqrt(cfg.mass**2 + 4.0 * s * s / cfg.spacing**2)
    return np.concatenate([[cfg.mass], omegas, omegas])


def _fourier_rows_by_loops(cfg):
    """Real Fourier rows 1, cos(2 pi k a / N), sin(2 pi k a / N), one k at a time."""
    N, n = cfg.num_modes, cfg.n
    sites = np.arange(1, N + 1)
    rows = np.ones((N, N))
    for k in range(1, n + 1):
        angle = 2.0 * np.pi * k * sites / N
        rows[k] = np.cos(angle)
        rows[n + k] = np.sin(angle)
    return rows


def field_covariance_by_loops(cfg):
    """Lattice ground-state covariance as F^T diag(variances) F, F the orthonormal Fourier map."""
    N = cfg.num_modes
    fourier = np.sqrt(2.0 / N) * _fourier_rows_by_loops(cfg)
    fourier[0] = 1.0 / np.sqrt(N)
    freqs = _lattice_frequencies(cfg)
    gamma = np.zeros((2 * N, 2 * N))
    gamma[0::2, 0::2] = (fourier.T * (cfg.spacing / (2.0 * freqs))) @ fourier
    gamma[1::2, 1::2] = (fourier.T * (freqs / (2.0 * cfg.spacing))) @ fourier
    return gamma


def bogoliubov_by_loops(cfg):
    """(X, Y) of the lattice Bogoliubov map, one Fourier row at a time."""
    N = cfg.num_modes
    w_eff = np.sqrt(cfg.mass**2 + 2.0 / cfg.spacing**2)
    x, y = np.empty((N, N)), np.empty((N, N))
    for row, (f, w) in enumerate(zip(_fourier_rows_by_loops(cfg), _lattice_frequencies(cfg))):
        norm = (0.5 if row == 0 else 1.0 / np.sqrt(2.0)) / np.sqrt(N)
        x[row] = norm * (np.sqrt(w / w_eff) + np.sqrt(w_eff / w)) * f
        y[row] = -norm * (np.sqrt(w / w_eff) - np.sqrt(w_eff / w)) * f
    return x, y


def elliptic_by_quadrature(kind, m):
    """E(pi/2 | m) or K(m) by adaptive quadrature of the defining integral."""
    if kind == "K":
        f = lambda t: 1.0 / np.sqrt(1.0 - m * np.sin(t) ** 2)
    else:
        f = lambda t: np.sqrt(1.0 - m * np.sin(t) ** 2)
    val, _ = quad(f, 0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val
