"""Series coefficients of the time-evolution operator and their assembly.

The order-l term of the interaction series of e^{-iHt}, H = H0 + H1, is

    a_l(g, g') = sum over g_1 = g, g_2, ..., g_{l+1} = g' of
                 f[E_{g_1}, ..., E_{g_{l+1}}] * H1[g_1, g_2] * ... * H1[g_l, g_{l+1}]

with f[...] the divided difference of f(E) = e^{-iEt}.  ``a_matrix`` sums
all of these index tuples at once: for the (l+1)d x (l+1)d block upper
bidiagonal matrix M with H0 on its diagonal blocks and H1 on the blocks
above them, a_l is block (0, l) of e^{-iMt} (Van Loan, IEEE TAC 23 (1978)
395; the matrix form of the corner-entry theorem behind
``divdiff.dd_phase``).  ``a_coefficient`` keeps the tuple sum itself as
the reference for that route.  The l-truncated partial sum approximates
e^{-iHt} with error O(lambda^{N+1}) in the coupling.

An independently evaluated, epsilon-regularized form built from resolvent
partial fractions is provided as a cross-check; it converges to the
divided-difference route as epsilon -> 0 and is meant to be extrapolated
(see ``richardson_limit``), never used as the reference path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .divdiff import _phase_exp, dd_phase
from .model import SpectralModel


@dataclass
class OperatorMatrix:
    """Dense complex matrix with the parameters it was computed for."""

    entries: np.ndarray
    params: dict

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("operator matrices must be square")
        if not np.isfinite(self.entries).all():
            raise ValueError("operator entries must be finite")


@dataclass(frozen=True)
class TruncationSpec:
    """Highest perturbation order kept in a partial sum."""

    N: int

    def __post_init__(self):
        if self.N < 0 or int(self.N) != self.N:
            raise ValueError(f"truncation order must be a nonnegative integer, got {self.N}")


def normalize_sign(sign) -> int:
    """Map '+', '-', +1, -1 to the integer sign of the i*epsilon shift."""
    if sign in ("+", 1, +1):
        return 1
    if sign in ("-", -1):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _chain_weight(h1: np.ndarray, tup: tuple) -> complex:
    w = 1.0 + 0.0j
    for a, b in zip(tup, tup[1:]):
        w *= h1[a, b]
        if w == 0:
            return 0j
    return w


def a_coefficient(model: SpectralModel, l: int, g: int, gp: int, t: float) -> complex:
    """Single series coefficient at order l between basis states g, g'.

    Sums the paper's index tuples one by one, d^(l-1) divided differences;
    this is the reference that ``a_matrix`` is tested against, not a
    production route.
    """
    if l < 0:
        raise ValueError("order must be >= 0")
    e = model.energies
    if l == 0:
        return complex(np.exp(-1j * e[g] * t)) if g == gp else 0j
    total = 0j
    for mid in itertools.product(range(model.dim), repeat=l - 1):
        tup = (g, *mid, gp)
        w = _chain_weight(model.h1, tup)
        if w != 0:
            total += dd_phase([e[k] for k in tup], t) * w
    return complex(total)


def a_matrix(model: SpectralModel, l: int, t: float) -> OperatorMatrix:
    """Order-l series term as a matrix in the unperturbed eigenbasis.

    Block (0, l) of e^{-iMt} for the (l+1)d x (l+1)d block matrix

        M = | H0  H1          |
            |     H0  ...     |
            |         ...  H1 |
            |              H0 |

    Every path from block 0 to block l through M crosses the H1 blocks of
    one index tuple and picks up the divided difference of its energies, so
    one scaling-and-squaring exponential replaces the d^(l+1) tuples of the
    sum, at O(((l+1)d)^3) cost per Taylor term or squaring.
    """
    if l < 0:
        raise ValueError("order must be >= 0")
    d = model.dim
    e = model.energies
    if l == 0:
        return OperatorMatrix(np.diag(np.exp(-1j * e * t)), {"t": t, "l": 0})
    n = (l + 1) * d
    m = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(m, e)  # repeats e down all l + 1 blocks
    for k in range(l):
        m[k * d : (k + 1) * d, (k + 1) * d : (k + 2) * d] = model.h1
    out = _phase_exp(m, t)[:d, l * d :].copy()
    return OperatorMatrix(out, {"t": t, "l": l})


def truncated_evolution(model: SpectralModel, spec: TruncationSpec, t: float) -> OperatorMatrix:
    """Partial sum of the series through order spec.N."""
    if isinstance(spec, int):
        spec = TruncationSpec(spec)
    total = np.zeros((model.dim, model.dim), dtype=complex)
    for l in range(spec.N + 1):
        total += a_matrix(model, l, t).entries
    return OperatorMatrix(total, {"t": t, "N": spec.N})


def _graded_chains(model: SpectralModel, N: int, eps: float, sgn: int):
    """Partial fractions of the graded-shift sum, split at one tuple position.

    Node j of a tuple g_0, ..., g_l is z_j = E_{g_j} - i*sgn*j*eps.  With
    g_m = g fixed, 1/(z_m - z_j) depends only on g, g_j and m - j, so the
    tuple sum splits into a chain left of position m and one right of it.
    Returns ``nodes[m, g]`` = z_m for g_m = g, ``left`` and ``right`` with

        left[m, g, a] * right[N - m, g, b]
            = sum over tuples a = g_0, ..., g_l = b with l >= m and g_m = g of
              H1[g_0, g_1] ... H1[g_{l-1}, g_l] / prod_{j != m} (z_m - z_j);

    ``right[n]`` sums the right chains of length 0..n.  Cost O(N d^3).
    """
    e = model.energies
    nodes = e - 1j * sgn * eps * np.arange(N + 1)[:, np.newaxis]
    left = np.empty((N + 1, model.dim, model.dim), dtype=complex)
    chain = np.empty_like(left)
    left[0] = chain[0] = np.eye(model.dim)
    for k in range(1, N + 1):
        # z_m - z_{m-k} = nodes[k, g_m] - E_{g_{m-k}}
        # z_m - z_{m+k} = E_{g_m} - nodes[k, g_{m+k}]
        left[k] = (left[k - 1] @ model.h1.T) / (nodes[k][:, np.newaxis] - e)
        chain[k] = (chain[k - 1] @ model.h1) / (e[:, np.newaxis] - nodes[k])
    return nodes, left, np.cumsum(chain, axis=0)


def epsilon_form_evolution(
    model: SpectralModel, spec: TruncationSpec, t: float, eps: float, sign
) -> OperatorMatrix:
    """Resolvent partial-fraction form of the truncated evolution operator.

    Each tuple's energies are split by graded imaginary shifts
    E_m -> E_m -+ i*m*eps (position m, sign '+' selects the retarded
    prescription), which renders all partial fractions finite.  With the
    chains of ``_graded_chains``, U_eps[a, b] is the sum over m and g of
    left[m, g, a] e^{-i z_m(g) t} right[N-m, g, b].  Individual terms grow
    like 1/eps near coincident energies while the assembled matrix converges
    to ``truncated_evolution`` as eps -> 0; callers are expected to
    extrapolate over a ladder of eps values.
    """
    if isinstance(spec, int):
        spec = TruncationSpec(spec)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    sgn = normalize_sign(sign)
    nodes, left, right = _graded_chains(model, spec.N, eps, sgn)
    out = sum(
        left[m].T @ (np.exp(-1j * nodes[m] * t)[:, np.newaxis] * right[spec.N - m])
        for m in range(spec.N + 1)
    )
    return OperatorMatrix(out, {"t": t, "N": spec.N, "eps": eps, "sign": sgn})


def richardson_limit(eps_values, samples):
    """Polynomial (Neville) extrapolation of samples f(eps_k) to eps = 0.

    Works on scalars or arrays; eps values must be distinct.
    """
    eps_values = [float(x) for x in eps_values]
    if len(eps_values) != len(samples) or not samples:
        raise ValueError("need one sample per eps value")
    if len(set(eps_values)) != len(eps_values):
        raise ValueError(f"eps values must be distinct, got {eps_values}")
    tableau = [np.asarray(s, dtype=complex) for s in samples]
    n = len(tableau)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            e0, e1 = eps_values[i], eps_values[i + level]
            nxt.append((e0 * tableau[i + 1] - e1 * tableau[i]) / (e0 - e1))
        tableau = nxt
    out = tableau[0]
    return complex(out) if out.ndim == 0 else out
