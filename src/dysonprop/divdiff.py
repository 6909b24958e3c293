"""Divided differences of the phase function e^{-iEt} and of monomials E^K.

The divided difference over nodes E_1..E_n is the symmetric functional

    f[E_1,...,E_n] = sum_i f(E_i) / prod_{j != i} (E_i - E_j)

for distinct nodes, extended by derivative (confluent) limits when nodes
repeat.  The phase function is evaluated as the corner row of e^{-iJt} for
the upper-bidiagonal matrix J carrying the nodes on its diagonal and ones
above it (Opitz 1964; McCurdy, Ng & Parlett, Math. Comp. 43 (1984) 501).
``_phase_exp`` computes that exponential by shifting, scaling and squaring;
it is stable for clustered or repeated nodes, where the partial-fraction
sum cancels catastrophically, and it is the same routine the series terms
of ``propagator.a_matrix`` use for their block-bidiagonal matrix.

Monomial divided differences reduce to complete homogeneous symmetric
polynomials and evaluate exactly over integer or rational nodes.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TAYLOR_RTOL = 1e-18
_TAYLOR_MAX_TERMS = 64


class SingularNodesError(ValueError):
    """Raised by the raw denominator form when nodes coincide."""


@dataclass(frozen=True)
class NodeList:
    """Ordered list of (possibly coincident, possibly complex) energy nodes."""

    nodes: tuple

    def __post_init__(self):
        nodes = tuple(complex(x) for x in self.nodes)
        if len(nodes) < 1:
            raise ValueError("a node list needs at least one node")
        if not all(np.isfinite(z.real) and np.isfinite(z.imag) for z in nodes):
            raise ValueError("nodes must be finite")
        object.__setattr__(self, "nodes", nodes)

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class PhaseSpec:
    """Time parameter of the phase function e^{-iEt}."""

    t: float

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")


def _as_nodes(nodes) -> tuple:
    if isinstance(nodes, NodeList):
        return nodes.nodes
    return NodeList(tuple(nodes)).nodes


def _as_t(phase) -> float:
    if isinstance(phase, PhaseSpec):
        return phase.t
    return PhaseSpec(float(phase)).t


def _phase_exp(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t m) for a square matrix m.

    The mean diagonal entry is factored out first so the shifted matrix is
    small; the remainder is scaled to 1-norm <= 0.5, summed as a Taylor
    series and squared back up.  The series stops when every entry of the
    last term is below _TAYLOR_RTOL of the same entry of the sum, not of
    the largest entry: the entries wanted here, divided differences over
    many nodes and high-order series terms, can lie many orders below it.
    """
    n = m.shape[0]
    mu = np.trace(m) / n
    a = -1j * t * (m - mu * np.eye(n))
    norm = float(np.abs(a).sum(axis=0).max())
    s = 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    b = a / (2.0**s)
    f = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = term @ b / k
        f += term
        if np.all(abs(term) <= _TAYLOR_RTOL * abs(f)):
            break
    for _ in range(s):
        f = f @ f
    f *= np.exp(-1j * mu * t)
    return f


def _phase_bidiagonal_row(nodes: tuple, t: float) -> np.ndarray:
    """First row of exp(-i t J) for the upper-bidiagonal node matrix J."""
    n = len(nodes)
    j = np.diag(np.array(nodes, dtype=complex)) + np.diag(np.ones(n - 1), 1)
    return _phase_exp(j, t)[0, :].copy()


def dd_phase_table(nodes, phase) -> np.ndarray:
    """All leading divided differences f[E_1], f[E_1,E_2], ..., f[E_1..E_n]
    of f(E) = e^{-iEt}, in one pass."""
    nd = _as_nodes(nodes)
    t = _as_t(phase)
    return _phase_bidiagonal_row(nd, t)


def dd_phase(nodes, phase) -> complex:
    """Divided difference of e^{-iEt}; repeated nodes get confluent limits."""
    nd = _as_nodes(nodes)
    t = _as_t(phase)
    return complex(_phase_bidiagonal_row(nd, t)[-1])


def _is_exact_scalar(x) -> bool:
    return isinstance(x, (numbers.Integral, Fraction)) and not isinstance(x, bool)


def dd_monomial(nodes, K: int, exact: bool | None = None):
    """Divided difference of E^K over the nodes.

    Equals the complete homogeneous symmetric polynomial of degree
    K - (n - 1) in the nodes, hence exactly 0 for K < n-1 and exactly 1
    for K = n-1.  Integer or Fraction nodes are evaluated exactly unless
    ``exact=False``; repeated nodes need no special casing.
    """
    if K < 0 or int(K) != K:
        raise ValueError(f"monomial degree must be a nonnegative integer, got {K}")
    raw = tuple(nodes.nodes) if isinstance(nodes, NodeList) else tuple(nodes)
    if len(raw) < 1:
        raise ValueError("a node list needs at least one node")
    if exact is None:
        exact = all(_is_exact_scalar(x) for x in raw)
    vals = [Fraction(x) if exact else complex(x) for x in raw]
    m = int(K) - (len(vals) - 1)
    if m < 0:
        return Fraction(0) if exact else 0j
    h = [Fraction(1) if exact else 1.0 + 0j] + [Fraction(0) if exact else 0j] * m
    for x in vals:
        for d in range(1, m + 1):
            h[d] += x * h[d - 1]
    return h[m]


def denominator_d(nodes, i: int):
    """The raw denominator d_i over the node list (1-based position i):

        d_i = prod_{j<i} (E_j - E_i) * prod_{k>i} (E_i - E_k)

    so that (-1)^{i-1} / d_i = 1 / prod_{j != i} (E_i - E_j).  Singular for
    coincident nodes; exact over integer/rational nodes.
    """
    raw = tuple(nodes.nodes) if isinstance(nodes, NodeList) else tuple(nodes)
    n = len(raw)
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} out of range 1..{n}")
    ei = raw[i - 1]
    out = None
    for j in range(n):
        if j == i - 1:
            continue
        factor = raw[j] - ei if j < i - 1 else ei - raw[j]
        if factor == 0:
            raise SingularNodesError(
                f"coincident nodes at positions {j + 1} and {i}; use dd_phase"
            )
        out = factor if out is None else out * factor
    if out is None:  # single node: empty product
        return 1
    return out


def identity_suite(pool, max_nodes: int = 6):
    """Exercise the exact identity sum_i (-1)^{i-1} E_i^K / d_i over all
    distinct-node subsets of ``pool`` with n <= max_nodes.

    Yields per-subset records: (nodes, exact_ok, float_deviation), where
    exact_ok requires dd_monomial == 0 for all K < n-1 and == 1 for K = n-1
    in exact arithmetic, and float_deviation is the worst floating-point
    discrepancy over the same K range.
    """
    pool = tuple(pool)
    if len(set(pool)) != len(pool):
        raise ValueError("node pool must have distinct entries")
    for n in range(1, max_nodes + 1):
        for combo in itertools.combinations(pool, n):
            exact_ok = True
            dev = 0.0
            floats = [float(x) for x in combo]
            weights = [
                (-1.0) ** i / complex(denominator_d(floats, i + 1)) for i in range(n)
            ]
            for k in range(n):
                want = 1 if k == n - 1 else 0
                got = dd_monomial(combo, k, exact=True)
                if got != want:
                    exact_ok = False
                fl = dd_monomial(floats, k, exact=False)
                bracket = sum(w * e**k for w, e in zip(weights, floats))
                dev = max(dev, abs(fl - want), abs(bracket - want))
            yield combo, exact_ok, dev
