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
from fractions import Fraction

import numpy as np

_TAYLOR_RTOL = 1e-18
_TAYLOR_MAX_TERMS = 64


class SingularNodesError(ValueError):
    """Raised by the raw denominator form when nodes coincide."""


class TaylorConvergenceError(RuntimeError):
    """The Taylor sum of ``_phase_exp`` missed its entrywise stop test
    within ``_TAYLOR_MAX_TERMS`` terms."""


def _phase_exp(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t m) for a square matrix m.

    The mean diagonal entry is factored out first so the shifted matrix is
    small; the remainder is scaled to 1-norm theta <= 0.5, summed as a
    Taylor series and squared back up.  The series stops when every entry
    of the last term is below _TAYLOR_RTOL of the same entry of the sum,
    not of the largest entry: the entries wanted here, divided differences
    over many nodes and high-order series terms, can lie many orders below
    it.  That entrywise test (five array operations) runs only from the
    first k at which the norm bound theta^k / k! of term k, a Python float,
    is below _TAYLOR_RTOL too; a term before it costs one product, one
    division and one sum.  The bound never stops the series by itself: the
    series ends at the same term as a test of every term would, or later
    when that term comes before the bound's k (nearly nilpotent shifted
    matrices such as the bidiagonal J of few nodes), and those extra terms
    lie below the last bit of the sum.  Raises TaylorConvergenceError when
    _TAYLOR_MAX_TERMS terms do not meet the test.
    """
    n = m.shape[0]
    mu = m.trace() / n
    a = m.astype(complex)
    a.flat[:: n + 1] -= mu
    a *= -1j * t
    theta = float(np.abs(a).sum(axis=0).max())
    s = 0
    while theta > 0.5:
        theta /= 2.0
        s += 1
    b = a / (2.0**s)
    f = np.eye(n, dtype=complex) + b
    term, bound, k = b, theta, 1
    while not (bound < _TAYLOR_RTOL and (abs(term) <= _TAYLOR_RTOL * abs(f)).all()):
        if k == _TAYLOR_MAX_TERMS:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(term == 0, 0.0, abs(term) / abs(f))
            raise TaylorConvergenceError(
                f"Taylor series of exp(-i t m) did not converge in {k} terms: "
                f"worst entry ratio |term| / |sum| = {ratio.max():.3e} > {_TAYLOR_RTOL:.0e}"
            )
        k += 1
        # ndarray.dot runs the same BLAS product as @ with less dispatch
        term = term.dot(b) / k
        f += term
        bound *= theta / k
    for _ in range(s):
        f = f.dot(f)
    f *= np.exp(-1j * mu * t)
    return f


def dd_phase(nodes, t) -> complex:
    """Divided difference of e^{-iEt}; repeated nodes get confluent limits.

    The corner entry of exp(-i t J) for the upper-bidiagonal node matrix J.
    """
    nodes = np.array(nodes, dtype=complex) + 0.0  # + 0.0 turns -0.0 into 0.0
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("a node list needs at least one node")
    if not np.isfinite(nodes).all():
        raise ValueError("nodes must be finite")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    n = nodes.size
    j = np.diag(nodes)
    j.flat[1 :: n + 1] = 1.0
    return complex(_phase_exp(j, t)[0, -1])


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
    raw = tuple(nodes)
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
    raw = tuple(nodes)
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
