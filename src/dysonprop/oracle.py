"""Independent ground-truth computations.

Nothing here touches the divided-difference machinery: eigensolves use a
hand-rolled round-robin Jacobi iteration, linear systems a partial-pivoted
Gauss-Jordan elimination, and series terms of every order a recursive
Legendre spectral integration of the time-ordered integrals, on the
Gauss-Legendre rule of ``gauss_legendre``.  These are the oracles every
other module is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from .model import (_MAX_ENTRIES, OperatorMatrix, SpectralModel, Unresolved, _check_phase, _count,
                    _finite, hamiltonian)

JACOBI_SWEEP_BUDGET = 30
_JACOBI_OFF_TOL = 1e-14
_NEWTON_BUDGET = 10


@dataclass
class EigenDecomposition:
    """Real eigenvalues (ascending) and unitary eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@functools.lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rounds of one Jacobi sweep in the round-robin ordering of Brent & Luk
    (SIAM J. Sci. Stat. Comput. 6 (1985) 69), built once per n: row r of p < q
    holds the disjoint pairs of round r, and row r of pos their flat positions
    (p, p), (p, q), (q, p) and (q, q); all read-only.  With m the even number of
    n and n + 1, index 0 keeps its seat, the others move one seat a round and
    seat k meets seat m - 1 - k; for an odd n, seat n is a dummy never rotated."""
    m = n + n % 2
    seats = np.zeros((m - 1, m), dtype=int)
    seats[:, 1:] = (np.arange(m - 1) + np.arange(m - 1)[:, np.newaxis]) % (m - 1) + 1
    a, b = seats[:, : m // 2], seats[:, ::-1][:, : m // 2]
    p, q = np.minimum(a, b), np.maximum(a, b)
    p, q = p[q < n].reshape(m - 1, -1), q[q < n].reshape(m - 1, -1)
    pos = np.stack((p * (n + 1), p * n + q, q * n + p, q * (n + 1)), axis=1)
    p.flags.writeable = q.flags.writeable = pos.flags.writeable = False
    return p, q, pos


def hermitian_eigendecomposition(a) -> EigenDecomposition:
    """Jacobi eigendecomposition of a dense Hermitian matrix: each round of
    ``_round_robin`` rotates its pairs with |a_pq| > thresh / n to a_pq = 0 all
    at once, as one unitary J (a <- J^H a J, v <- v J)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n, peak = a.shape[0], float(np.abs(a).max())
    if not peak < np.inf:  # NaN too: an entry, or its modulus, is not finite
        _finite(np.abs(a), "matrix entry moduli")
    shift = int(np.frexp(peak)[1])  # 2^-shift a peaks in [1/2, 1); no rotation changes a bit
    scaled = np.ldexp(np.ascontiguousarray(a).view(float), -shift).view(complex)
    # |a - a^H| <= 1e-10 max(1, peak), on the scaled matrix so that no difference
    # overflows; below a peak of 1 on a itself, as 2^-shift may overflow there
    test, bound = (scaled, np.ldexp(peak, -shift)) if peak >= 1 else (a, 1.0)
    if float(np.max(np.abs(test - test.conj().T))) > 1e-10 * bound:
        raise ValueError("input is not Hermitian to 1e-10")
    a = scaled
    work = (a + a.conj().T) / 2.0
    v = eye = np.eye(n, dtype=complex)
    thresh = _JACOBI_OFF_TOL * max(float(np.linalg.norm(work)), 1e-300)
    for sweep in range(JACOBI_SWEEP_BUDGET + 1):
        off = float(np.sqrt(np.sum(np.abs(work - np.diag(np.diag(work))) ** 2)))
        if off <= thresh:
            break
        if sweep == JACOBI_SWEEP_BUDGET:
            raise Unresolved("Jacobi eigendecomposition",
                             f"sweeps exhausted (off-diagonal {off:.3e} > {thresh:.3e})")
        for p, q, pos in zip(*_round_robin(n)):
            apq = work.reshape(-1)[pos[1]]
            mag = np.abs(apq)
            big = mag > thresh / n
            k = np.count_nonzero(big)
            if k < big.size:
                if not k:
                    continue
                p, q, pos, apq, mag = p[big], q[big], pos[:, big], apq[big], mag[big]
            cph = np.conj(apq) / mag  # the conjugate phase of a_pq
            diag = work.real.diagonal()
            tau = (diag[q] - diag[p]) / (2.0 * mag) + 0.0  # -0.0 -> 0.0
            # smaller-magnitude root of t^2 - 2*tau*t - 1 = 0, cancellation-free:
            # t = -sgn(tau) / (|tau| + sqrt(1 + tau^2)), with sgn(0) = 1
            t = -1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            j = eye.copy()
            j.reshape(-1)[pos] = (c, -s, s * cph, c * cph)
            work = j.conj().T @ (work @ j)
            v = v @ j
            work.reshape(-1)[pos[1:3]] = 0.0
            work.reshape(-1).imag[:: n + 1] = 0.0
    values = np.real(np.diag(work))
    if shift + np.frexp(values)[1].max() > 1024:
        raise Unresolved("Jacobi eigendecomposition", "an eigenvalue is past the float range")
    values = np.ldexp(values, shift)
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], v[:, order]
    # deterministic phase: largest-magnitude component real and positive
    ref = vectors[np.abs(vectors).argmax(axis=0), np.arange(n)]
    vectors = vectors * (np.conj(ref) / np.abs(ref))
    return EigenDecomposition(values=values, vectors=vectors)


def exact_evolution(model: SpectralModel, t: float) -> OperatorMatrix:
    """e^{-iHt} via eigendecomposition; unitary to working accuracy."""
    dec = hermitian_eigendecomposition(hamiltonian(model))
    _check_phase(t, dec.values.tolist())
    phases = np.exp(-1j * dec.values * t)
    u = (dec.vectors * phases) @ dec.vectors.conj().T
    return OperatorMatrix(u)


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
    n = _count(n, 1, "need a whole number of at least 1 node")
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
        raise Unresolved(
            "Gauss-Legendre rule", f"Newton iteration did not converge for n = {n} "
            f"(last step {np.max(np.abs(step)):.3e} > {tol:.3e})")
    _, dp = _legendre(n, x)
    w = 2 / ((1 - x * x) * dp * dp)
    return np.concatenate((-x, x[::-1][n % 2:])), np.concatenate((w, w[::-1][n % 2:]))


@functools.lru_cache(maxsize=8)
def _spectral_tables(n: int):
    """Nodes and spectral integration matrix of the n-point rule; read-only, once per n."""
    x, w = gauss_legendre(n)
    # values at the nodes -> Legendre coefficients, by the Gauss rule itself
    to_coef = (np.arange(n) + 0.5)[:, np.newaxis] * legvander(x, n - 1).T * w
    table = legvander(np.append(x, 1.0), n) @ legint(np.eye(n), lbnd=-1) @ to_coef
    x.flags.writeable = table.flags.writeable = False
    return x, table


def _dyson_terms(model: SpectralModel, l: int, t: float, npoints: int):
    """Yield the series terms of orders 0..l from one spectral-integration
    pass, after one node budget and one series-size test; see
    ``dyson_term_quadrature``."""
    l = _count(l, 0, "order must be a nonnegative integer")
    npoints = _count(npoints, 16, "need a whole number of at least 16 quadrature points")
    e, d = model.energies, model.dim
    half_phase = abs(t) * float(np.ptp(e)) / 2.0
    # neither count is converted: a 401-digit npoints stays an int, and an
    # overflowing |t| dE is inf
    if max(npoints, 64, 1.6 * half_phase) > _MAX_ENTRIES / (d * d):
        raise Unresolved("series term", f"a quadrature past {_MAX_ENTRIES // (d * d)} nodes "
                         f"({npoints} points asked, |t|*dE = {2 * half_phase:.3e}) puts "
                         f"{d}x{d} blocks past {_MAX_ENTRIES} entries")
    _check_phase(t, e.tolist())
    # in Python floats and log space, which overflow with no warning
    size = abs(t) * float(np.abs(model.h1).sum(axis=0).max())
    if size > 1 and l * math.log(size) >= math.log(np.finfo(float).max / 2):
        raise Unresolved("series term", f"the order-{l} term's a-priori size (|t|*||H1||_1)^{l} "
                         f"= 10^{l * math.log10(size):.1f} is past half the float range")
    p = int(np.ceil(max(half_phase / 40, npoints / 64, 1.0)))
    n = max(-(-npoints // p), int(np.ceil(half_phase / p)) + 24)
    x, table = _spectral_tables(n)
    s = (t / p) * (np.arange(p)[:, np.newaxis] + (x + 1.0) / 2.0)
    integ = (-0.5j * (t / p)) * table  # -i * integral from a panel's start, at its nodes and end
    v = np.exp(1j * s[..., np.newaxis, np.newaxis] * (e[:, np.newaxis] - e)) * model.h1
    u0 = np.exp(-1j * e * t)[:, np.newaxis]  # e^{-iH0 t} as a column
    # b[j, :n] holds b at the nodes of panel j, b[j, n] at its end
    b = np.broadcast_to(np.eye(d, dtype=complex), (p, n + 1, d, d))
    for k in range(l + 1):
        if k:
            b = (integ @ (v @ b[:, :n]).reshape(p, n, d * d)).reshape(p, n + 1, d, d)
            b[1:] += np.cumsum(b[:-1, n], axis=0)[:, np.newaxis]  # carry the panel ends
        yield OperatorMatrix(u0 * b[-1, n])


def dyson_term_quadrature(
    model: SpectralModel, l: int, t: float, npoints: int = 64
) -> OperatorMatrix:
    """Order-l time-ordered integral by recursive Legendre spectral integration.

    The term is e^{-iH0 t} b_l(t), where b_0 = 1 and b_k(s) is -i times the
    integral of V(r) b_(k-1)(r) over [0, s], with V(r) = e^{iH0 r} H1 e^{-iH0 r}.
    Each b_k is held at n Gauss-Legendre nodes on each of P equal panels of [0, t],
    b_k(s) = b_k(s_p) - i * integral of V b_(k-1) over [s_p, s] by one Legendre
    spectral integration matrix (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071).
    The integrands oscillate up to the level spread dE, so P = ceil(max(|t| dE / 80,
    npoints / 64, 1)) and n = max(ceil(npoints / P), ceil(|t| dE / 2P) + 24) <= 64:
    O(l P (n^2 d^2 + n d^3)).  Nodes past _MAX_ENTRIES / d^2, or an a-priori order-l
    size (|t| ||H1||_1)^l past half the float range, raise Unresolved.
    """
    *_, term = _dyson_terms(model, l, t, npoints)
    return term


def linear_solve(a, b) -> np.ndarray:
    """Solve A X = B by Gauss-Jordan elimination with partial pivoting.

    Works on the augmented array [A | B] and never swaps rows: step k takes
    the largest |entry| of column k among the rows not yet used as pivots,
    scales that row and clears column k from every other row with one rank-1
    update.  The rows of X are then the right-hand blocks in pivot order.
    B is n x k; a 1-D B is refused, so its axes have one meaning.  A pivot
    below 1e-14 of the largest |entry| of A raises Unresolved, whose message
    gives a lower bound on the condition number.  A largest |entry| in
    [2^-500, 2^500] is 2^500 or more from the float range's ends, more than an
    accepted pivot (>= 1e-14 > 2^-47 of it) and partial pivoting's growth
    (<= 2^(n-1)) take at the sizes solved here: A is eliminated as it stands.
    Outside, A is scaled by the power of two that puts it in [1/2, 1), and X
    back by the same power, which changes no pivot and no bit that stays normal.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"B must be an n x k array conformable with A (n = {n}), "
                         f"got shape {b.shape}")
    peak = float(np.maximum.reduce(np.abs(a), axis=None))
    if not peak < np.inf:  # NaN too: an entry, or its modulus, is not finite
        _finite(np.abs(a), "matrix entry moduli")
    shift = 0 if 2.0**-500 <= peak <= 2.0**500 else math.frexp(peak)[1]
    peak = max(peak, 1e-300)
    tol = math.ldexp(1e-14 * peak, -shift)
    if shift:
        a = np.ldexp(np.ascontiguousarray(a).view(float), -shift).view(complex)
    aug = np.concatenate((a, b), axis=1)
    free = np.ones(n)  # 1.0 for rows not yet used as pivots
    order = []
    for k in range(n):
        mags = np.abs(aug[:, k]) * free
        p = int(mags.argmax())
        piv = mags[p]
        if piv <= tol:
            cond = peak / max(math.ldexp(piv, shift), 1e-300)
            raise Unresolved("linear solve", "matrix singular to working precision "
                             f"(condition >= {cond:.3e})")
        free[p] = 0.0
        order.append(p)
        row = aug[p] / aug[p, k]
        aug -= aug[:, k, np.newaxis] * row
        aug[p] = row
    x = aug[:, n:].take(order, axis=0)
    return np.ldexp(x.view(float), -shift).view(complex) if shift else x
