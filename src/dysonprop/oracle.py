"""Independent ground-truth computations.

Nothing here touches the divided-difference machinery: eigensolves use a
hand-rolled cyclic Jacobi iteration, linear systems a partial-pivoted
Gauss-Jordan elimination, and series terms of every order a recursive
Legendre spectral integration of the time-ordered integrals, on the
Gauss-Legendre rule of ``gauss_legendre``.  These are the oracles every
other module is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from .model import SpectralModel, hamiltonian
from .propagator import OperatorMatrix

JACOBI_SWEEP_BUDGET = 30
_JACOBI_OFF_TOL = 1e-14
#: node cap of the series oracle: it bounds its n x n integration matrices
_MAX_NODES = 512
_NEWTON_BUDGET = 10


class NotHermitianError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


class SingularMatrixError(np.linalg.LinAlgError):
    pass


@dataclass
class EigenDecomposition:
    """Real eigenvalues (ascending) and unitary eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero the (p, q) entry of Hermitian ``a`` with a unitary plane rotation,
    accumulating the rotation into ``v`` (columns)."""
    apq = a[p, q]
    mag = abs(apq)
    if mag == 0.0:
        return
    phase = apq / mag
    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    # smaller-magnitude root of t^2 - 2*tau*t - 1 = 0, cancellation-free
    sg = np.sign(tau) if tau != 0 else 1.0
    t = -sg / (abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # unitary J with J[p,p]=c, J[p,q]=-s, J[q,p]=s*conj(phase), J[q,q]=c*conj(phase)
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * np.conj(phase) * col_q
    a[:, q] = -s * col_p + c * np.conj(phase) * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s * phase * row_q
    a[q, :] = -s * row_p + c * phase * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp + s * np.conj(phase) * vq
    v[:, q] = -s * vp + c * np.conj(phase) * vq


def hermitian_eigendecomposition(a) -> EigenDecomposition:
    """Cyclic Jacobi eigendecomposition of a dense Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > 1e-10 * scale:
        raise NotHermitianError("input is not Hermitian to 1e-10")
    work = (a + a.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    norm = float(np.linalg.norm(work))
    thresh = _JACOBI_OFF_TOL * max(norm, 1e-300)
    for _ in range(JACOBI_SWEEP_BUDGET):
        off = float(np.sqrt(np.sum(np.abs(work - np.diag(np.diag(work))) ** 2)))
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(work[p, q]) > thresh / max(n, 1):
                    _jacobi_rotate(work, v, p, q)
    else:
        off = float(np.sqrt(np.sum(np.abs(work - np.diag(np.diag(work))) ** 2)))
        if off > thresh:
            raise ConvergenceError(
                f"Jacobi sweeps exhausted (off-diagonal {off:.3e} > {thresh:.3e})"
            )
    values = np.real(np.diag(work))
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    # deterministic phase: largest-magnitude component real and positive
    for k in range(n):
        col = vectors[:, k]
        idx = int(np.argmax(np.abs(col)))
        ref = col[idx]
        if ref != 0:
            vectors[:, k] = col * (np.conj(ref) / abs(ref))
    return EigenDecomposition(values=values, vectors=vectors)


def exact_evolution(model: SpectralModel, t: float) -> OperatorMatrix:
    """e^{-iHt} via eigendecomposition; unitary to working accuracy."""
    dec = hermitian_eigendecomposition(hamiltonian(model))
    phases = np.exp(-1j * dec.values * t)
    u = (dec.vectors * phases) @ dec.vectors.conj().T
    return OperatorMatrix(u, {"t": t, "N": None, "exact": True})


def _legendre(n: int, x: np.ndarray):
    """P_n(x) by the three-term recurrence and P_n'(x) from P_(n-1), n >= 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        xp = x * p
        p_prev, p = p, xp + (k / (k + 1)) * (xp - p_prev)
    return p, n * (p_prev - x * p) / (1 - x * x)


def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the three-term recurrence, started from Tricomi's
    approximations (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652),
    over the nodes in [0, 1) at once, mirrored onto (-1, 0): O(n^2) work and
    O(n) memory.  The weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ValueError(f"need at least 1 node, got {n}")
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    x = np.cos(theta) * (1 - (n - 1) / (8 * n**3)
                         - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4))
    # after a step s Newton's error is x/(1-x^2) s^2 <= n^2 s^2: below
    # sqrt(eps)/n the nodes are at roundoff
    tol = np.sqrt(np.finfo(float).eps) / n
    for _ in range(_NEWTON_BUDGET):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= tol:
            break
    else:
        raise ConvergenceError(
            f"Gauss-Legendre Newton iteration did not converge for n = {n} "
            f"(last step {np.max(np.abs(step)):.3e} > {tol:.3e})")
    _, dp = _legendre(n, x)
    w = 2 / ((1 - x * x) * dp * dp)
    return np.concatenate((-x, x[::-1][n % 2:])), np.concatenate((w, w[::-1][n % 2:]))


def _dyson_terms(model: SpectralModel, l: int, t: float, npoints: int):
    """Yield the series terms of orders 0..l from one spectral-integration
    pass; see ``dyson_term_quadrature``."""
    if l < 0:
        raise ValueError(f"order must be >= 0, got {l}")
    if npoints < 16:
        raise ValueError("need at least 16 quadrature points")
    e = model.energies
    d = model.dim
    half_phase = abs(t) * float(np.ptp(e)) / 2.0
    n = max(npoints, int(np.ceil(half_phase)) + 24)
    if n > _MAX_NODES:
        raise ConvergenceError(
            f"series term cannot be resolved: it needs {n} nodes (|t|*dE = "
            f"{2.0 * half_phase:.3e}, npoints {npoints}), above the maximum {_MAX_NODES}")
    x, w = gauss_legendre(n)
    s = t * (x + 1.0) / 2.0
    # values at the nodes -> Legendre coefficients, by the Gauss rule itself
    to_coef = (np.arange(n) + 0.5)[:, np.newaxis] * legvander(x, n - 1).T * w
    # -i times the integral from 0 of the interpolant, at every node and at s = t
    integ = (-0.5j * t) * (
        legvander(np.append(x, 1.0), n) @ legint(np.eye(n), lbnd=-1) @ to_coef)
    v = np.exp(1j * s[:, np.newaxis, np.newaxis] * (e[:, np.newaxis] - e)) * model.h1
    u0 = np.exp(-1j * e * t)[:, np.newaxis]  # e^{-iH0 t} as a column
    # rows 0..n-1 hold b at the nodes, row n at s = t
    b = np.broadcast_to(np.eye(d, dtype=complex), (n + 1, d, d))
    for k in range(l + 1):
        if k:
            b = (integ @ (v @ b[:n]).reshape(n, d * d)).reshape(n + 1, d, d)
        yield OperatorMatrix(u0 * b[n], {"t": t, "l": k, "npoints": n})


def dyson_term_quadrature(
    model: SpectralModel, l: int, t: float, npoints: int = 64
) -> OperatorMatrix:
    """Order-l time-ordered integral by recursive Legendre spectral integration.

    The term is e^{-iH0 t} b_l(t), where b_0 = 1 and b_k(s) is -i times the
    integral of V(r) b_(k-1)(r) over [0, s], with V(r) = e^{iH0 r} H1 e^{-iH0 r}.
    Each b_k is held at n Gauss-Legendre nodes of [0, t] and integrated by the
    Legendre spectral integration matrix (Greengard, SIAM J. Numer. Anal. 28
    (1991) 1071): O(l (n^2 d^2 + n d^3)) for any order l >= 0.  The integrands
    oscillate up to the level spread dE, so n = max(npoints, ceil(|t| dE / 2) +
    24); n above _MAX_NODES raises ConvergenceError, not unresolved terms.
    """
    *_, term = _dyson_terms(model, l, t, npoints)
    return term


def linear_solve(a, b) -> np.ndarray:
    """Solve A X = B by Gauss-Jordan elimination with partial pivoting.

    Works on the augmented array [A | B] and never swaps rows: step k takes
    the largest |entry| of column k among the rows not yet used as pivots,
    scales that row and clears column k from every other row with one rank-1
    update.  The rows of X are then the right-hand blocks in pivot order.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, np.newaxis]
    if b.shape[0] != n:
        raise ValueError("B is not conformable with A")
    peak = max(float(np.max(np.abs(a))), 1e-300)
    aug = np.concatenate((a, b), axis=1)
    free = np.ones(n)  # 1.0 for rows not yet used as pivots
    order = []
    for k in range(n):
        mags = np.abs(aug[:, k]) * free
        p = int(np.argmax(mags))
        piv = mags[p]
        if piv <= 1e-14 * peak:
            cond = peak / max(piv, 1e-300)
            raise SingularMatrixError(
                f"matrix singular to working precision (condition >= {cond:.3e})"
            )
        free[p] = 0.0
        order.append(p)
        row = aug[p] / aug[p, k]
        aug -= aug[:, k, np.newaxis] * row
        aug[p] = row
    x = aug[order, n:]
    return x[:, 0] if squeeze else x
