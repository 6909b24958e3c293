"""Independent ground-truth computations.

Nothing here touches the divided-difference machinery: eigensolves use a
hand-rolled cyclic Jacobi iteration, linear systems a partial-pivoted LU,
and low-order series terms a nested Gauss-Legendre quadrature of the
time-ordered integrals.  These are the oracles every other module is
checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import SpectralModel, hamiltonian
from .propagator import OperatorMatrix

JACOBI_SWEEP_BUDGET = 30
_JACOBI_OFF_TOL = 1e-14


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


def exact_evolution(model_or_matrix, t: float) -> OperatorMatrix:
    """e^{-iHt} via eigendecomposition; unitary to working accuracy."""
    if isinstance(model_or_matrix, SpectralModel):
        h = hamiltonian(model_or_matrix)
    else:
        h = np.asarray(model_or_matrix, dtype=complex)
    dec = hermitian_eigendecomposition(h)
    phases = np.exp(-1j * dec.values * t)
    u = (dec.vectors * phases) @ dec.vectors.conj().T
    return OperatorMatrix(u, "propagator", {"t": t, "N": None, "exact": True})


def dyson_term_quadrature(
    model: SpectralModel, l: int, t: float, npoints: int = 64
) -> OperatorMatrix:
    """Order-l time-ordered integral evaluated by nested Gauss-Legendre.

    The ordered simplex 0 <= t_l <= ... <= t_1 <= t is mapped to the unit
    cube by t_k = t * u_1 * ... * u_k, keeping all quadrature nodes interior.
    The outer l-1 axes are looped over; the innermost axis is one block of
    npoints integrands, an (npoints, d, d) stack.  Arithmetic still grows as
    npoints**l, so l is capped at 3; memory is npoints * d**2 per block.
    """
    if l < 0 or l > 3:
        raise ValueError("quadrature oracle supports orders 0..3 only")
    e = model.energies
    d = model.dim
    if l == 0:
        return OperatorMatrix(
            np.diag(np.exp(-1j * e * t)), "series-term", {"t": t, "l": 0}
        )
    if npoints < 16:
        raise ValueError("need at least 16 quadrature points per axis")
    x, w = leggauss(npoints)
    u = (x + 1.0) / 2.0
    w = w / 2.0
    h1 = model.h1
    total = np.zeros((d, d), dtype=complex)
    powers = np.arange(l - 1, 0, -1)
    # row p holds t_0 = t, t_1, ..., t_l, t_(l+1) = 0 at innermost node p
    times = np.zeros((npoints, l + 2))
    times[:, 0] = t
    for outer in itertools.product(range(npoints), repeat=l - 1):
        # outer axes fixed, the innermost axis runs over all its nodes
        uo, wo = u[list(outer)], w[list(outer)]
        times[:, 1:l] = t * np.cumprod(uo)
        times[:, l] = t * np.prod(uo) * u
        # Jacobian t^l * u_1^(l-1) * ... * u_(l-1) times the product weight
        weight = t**l * np.prod(uo**powers) * np.prod(wo) * w
        # phases of the steps t_m - t_(m+1), shape (npoints, l+1, d)
        phases = np.exp(-1j * (times[:, :-1] - times[:, 1:])[:, :, np.newaxis] * e)
        # integrand: e^{-iH0(t - t1)} H1 e^{-iH0(t1 - t2)} ... H1 e^{-iH0 tl}
        stack = phases[:, 0, :, np.newaxis] * h1 * phases[:, np.newaxis, 1, :]
        for m in range(2, l + 1):
            stack = (stack @ h1) * phases[:, np.newaxis, m, :]
        total += np.einsum("p,pab->ab", weight, stack)
    total *= (-1j) ** l
    return OperatorMatrix(total, "series-term", {"t": t, "l": l, "npoints": npoints})


def linear_solve(a, b) -> np.ndarray:
    """Solve A X = B by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    if b.ndim == 1:
        b = b[:, np.newaxis]
        squeeze = True
    else:
        squeeze = False
    if b.shape[0] != n:
        raise ValueError("B is not conformable with A")
    peak = max(float(np.max(np.abs(a))), 1e-300)
    pivots = np.empty(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        piv = abs(a[p, k])
        pivots[k] = piv
        if piv <= 1e-14 * peak:
            cond = peak / max(piv, 1e-300)
            raise SingularMatrixError(
                f"matrix singular to working precision (condition >= {cond:.3e})"
            )
        if p != k:
            a[[k, p], :] = a[[p, k], :]
            b[[k, p], :] = b[[p, k], :]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, np.newaxis] * a[k, k:][np.newaxis, :]
        b[k + 1 :, :] -= factors[:, np.newaxis] * b[k, :][np.newaxis, :]
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k, :] = (b[k, :] - a[k, k + 1 :] @ x[k + 1 :, :]) / a[k, k]
    return x[:, 0] if squeeze else x
