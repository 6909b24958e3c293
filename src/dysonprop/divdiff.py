"""Divided differences of e^{-iEt}, and the monomial identity of their denominators.

The divided difference over nodes E_1..E_n is the symmetric functional

    f[E_1,...,E_n] = sum_i f(E_i) / prod_{j != i} (E_i - E_j)

for distinct nodes, extended by derivative (confluent) limits when nodes
repeat.  The phase function is evaluated as the corner row of e^{-iJt} for
the upper-bidiagonal matrix J carrying the nodes on its diagonal and ones
above it (Opitz 1964; McCurdy, Ng & Parlett, Math. Comp. 43 (1984) 501).
``_phase_exp`` computes that exponential by shifting, scaling to 1-norm
<= 1, a Taylor polynomial in Paterson-Stockmeyer form and squaring; it is
stable for clustered or repeated nodes, where the partial-fraction sum
cancels catastrophically, and it is the same routine the series terms of
``propagator.a_matrix`` use for their block-bidiagonal matrix.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Unresolved, _check_phase, _finite

_TAYLOR_RTOL = 1e-18
_TAYLOR_MAX_TERMS = 64
# the Taylor degree, the first k with 1/k! < _TAYLOR_RTOL, so that the norm bound
# theta^k / k! holds at every theta <= 1, and the Paterson-Stockmeyer block size p
# of a one-off exponential; a table shared by many t has p = _DEGREE
_DEGREE, _P = 20, 4
# k and (-i)^k / k! for k <= _DEGREE, then a 0 that fills the empty slots below
_DEGREES = np.arange(_DEGREE + 2.0)
_TAYLOR_ROW = np.append(np.resize([1, -1j, -1, 1j], _DEGREE + 1)
                        * [1 / math.factorial(k) for k in range(_DEGREE + 1)], 0)
# per block size p, where block j of the Paterson-Stockmeyer sum reads that row:
# the (q, p + 1) indices jp + i at i < p, _DEGREE at (q - 1, p) and the 0 elsewhere
_SLOTS = {p: np.column_stack([np.arange(_DEGREE).reshape(-1, p),
                              [_DEGREE + 1] * (_DEGREE // p - 1) + [_DEGREE]])
          for p in (_P, _DEGREE)}


@np.errstate(over="ignore", invalid="ignore")
def _phase_powers(m: np.ndarray, p: int):
    """mu, the mean diagonal entry of the square m; B^0..B^p of B = (m - mu) / nu
    (or 0), read-only; and nu = ||m - mu||_1: the table ``_phase_exp`` reads."""
    n = m.shape[0]
    table = np.empty((p + 1, n, n), dtype=complex)
    table[0] = 0
    table.reshape(p + 1, -1)[0, :: n + 1] = 1.0
    b = table[1]
    b[...] = m
    # ufunc reductions for trace(), sum() and max(), whose overhead exceeds the
    # sums at these sizes; b is C-ordered, so its flat diagonal is a view
    mu = np.add.reduce(m.reshape(-1)[:: n + 1]) / n
    b.reshape(-1)[:: n + 1] -= mu
    nu = float(np.maximum.reduce(np.add.reduce(np.abs(b), axis=0)))
    b /= nu or 1.0
    for i in range(2, p + 1):
        # ndarray.dot runs the same BLAS product as @ with less dispatch
        np.dot(table[i - 1], b, out=table[i])
    table.flags.writeable = False
    return mu, table, nu


@np.errstate(over="ignore", invalid="ignore")
def _phase_exp(powers, t: float) -> np.ndarray:
    """exp(-i t m) for the square matrix m of the ``_phase_powers`` table ``powers``.

    With B = (m - mu) / nu from the table, -i t (m - mu) = x B at 1-norm theta
    = |t| nu / 2^s <= 1, x = -i sign(t) theta / 2^s; its Taylor polynomial of
    degree _DEGREE is summed and squared back up s times.  The sum takes
    Paterson-Stockmeyer form (SIAM J. Comput. 2 (1973) 60): the row x^k / k!,
    the exact conjugate at -t, in q = _DEGREE / p blocks of p coefficients,
    one product of the blocks with B^0..B^p, q - 1 Horner steps in B^p and
    q - 1 products for the last term x^20 B^20 / 20!.  It is accepted when
    every entry of that term is below _TAYLOR_RTOL of the same entry of the
    sum, not of the largest entry: divided differences over many nodes and
    high-order series terms can lie many orders below it.  Otherwise, as for
    the J of spaced nodes, whose corner starts at term n - 1, it goes on term
    by term in x B.  Raises Unresolved once k reaches _TAYLOR_MAX_TERMS +
    max(0, n - 48), when theta is not finite or needs a scale 2^s, s >= 1024,
    and when the squarings overflow, which one finiteness test sees silently.
    """
    mu, table, nu = powers
    p, n, theta = len(table) - 1, table.shape[-1], abs(t) * nu  # Python floats: inf with no warning
    # the least s >= 0 with theta / 2^s <= 1
    mant, e = math.frexp(theta)
    s = 0 if theta <= 1.0 else e - 1 if mant == 0.5 else e
    if not math.isfinite(theta) or s >= 1024:
        raise Unresolved("exp(-i t m)", f"|t| = {abs(t):.3e} times ||m - mu||_1 = {nu:.3e} "
                         "needs a scale 2^s with s >= 1024, past the float range")
    # x^k / k!: |x|^k times the exact phase, conjugate at -t
    coef = math.ldexp(theta, -s) ** _DEGREES * (_TAYLOR_ROW if t >= 0 else _TAYLOR_ROW.conj())
    # block j = sum over i < p of x^(jp + i) B^i / (jp + i)!, the last with x^20 B^p / 20! too
    blocks = coef[_SLOTS[p]].dot(table.reshape(p + 1, n * n)).reshape(-1, n, n)
    top, f = table[p], blocks[-1]
    for block in blocks[-2::-1]:
        f = f.dot(top)
        f += block
    term = top * coef[_DEGREE]
    for _ in range(len(blocks) - 1):
        term = term.dot(top)
    b, k = table[1] * coef[1], _DEGREE
    while np.count_nonzero(abs(term) <= _TAYLOR_RTOL * abs(f)) < f.size:
        if k >= _TAYLOR_MAX_TERMS + max(0, n - 48):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(term == 0, 0.0, abs(term) / abs(f))
            raise Unresolved(
                "exp(-i t m)", f"its Taylor series did not converge in {k} terms: "
                f"worst entry ratio |term| / |sum| = {ratio.max():.3e} > {_TAYLOR_RTOL:.0e}"
            )
        k += 1
        term = term.dot(b) / k
        f += term
    for _ in range(s):
        f = f.dot(f)
    if np.count_nonzero(np.isfinite(f)) < f.size:
        raise Unresolved("exp(-i t m)", f"|t| = {abs(t):.3e} squares past the float range")
    f *= np.exp(-1j * mu * t)
    return f


def dd_phase(nodes, t) -> complex:
    """Divided difference of e^{-iEt}; repeated nodes get confluent limits.

    The corner entry of exp(-i t J) for the upper-bidiagonal node matrix J.
    |t| max|E| >= 1/eps_mach raises Unresolved, as in ``propagator.a_matrix``.
    """
    nodes = _finite(np.array(nodes, dtype=complex) + 0.0, "nodes")  # + 0.0 turns -0.0 into 0.0
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("a node list needs at least one node")
    t = _check_phase(t, nodes.tolist())
    n = nodes.size
    # Leja order (Reichel, BIT 30 (1990) 332): next the fewest equal nodes so far,
    # then the largest product of distances.  Sorted, a run of close nodes gives
    # entries far above the corner, and the squarings' error is relative to them.
    order, equal, logdist = [int(np.argmax(np.abs(nodes)))], np.zeros(n), np.zeros(n)
    with np.errstate(over="ignore"):  # a spread past the float range fails in _phase_exp
        for _ in range(n - 1):
            dist = np.abs(nodes - nodes[order[-1]])
            equal += dist == 0
            logdist += np.log(np.where(dist == 0, 1.0, dist))
            equal[order[-1]] = np.inf
            order.append(int(np.lexsort((-logdist, equal))[0]))
    j = np.diag(nodes[order])
    j.flat[1 :: n + 1] = 1.0
    return complex(_phase_exp(_phase_powers(j, _P), t)[0, -1])


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
            raise ValueError(f"coincident nodes at positions {j + 1} and {i}; use dd_phase")
        out = factor if out is None else out * factor
    if out is None:  # single node: empty product
        return 1
    return out


def identity_suite(pool, max_nodes: int = 6):
    """Exercise the exact identity sum_i (-1)^{i-1} E_i^K / d_i over all
    distinct-node subsets of ``pool`` with n <= max_nodes.

    Yields per-subset records: (nodes, exact_ok, float_deviation), where
    exact_ok requires the sum to be 0 for all K < n-1 and 1 for K = n-1,
    evaluated exactly on the pool's own ints or Fractions (cross-multiplied
    by the product of the d_i), and float_deviation is the worst
    discrepancy of the same sums in floating point.
    """
    pool = tuple(pool)
    if len(set(pool)) != len(pool):
        raise ValueError("node pool must have distinct entries")
    for n in range(1, max_nodes + 1):
        for combo in itertools.combinations(pool, n):
            dens = [denominator_d(combo, i + 1) for i in range(n)]
            # (-1)^{i-1} / d_i times the product of all d_j
            cofactors = [(-1) ** i * math.prod(dens[:i] + dens[i + 1:]) for i in range(n)]
            exact_ok = all(sum(c * e**k for c, e in zip(cofactors, combo))
                           == (math.prod(dens) if k == n - 1 else 0) for k in range(n))
            floats = [float(x) for x in combo]
            weights = [(-1.0) ** i / complex(denominator_d(floats, i + 1)) for i in range(n)]
            dev = max(abs(sum(w * e**k for w, e in zip(weights, floats)) - (1 if k == n - 1 else 0))
                      for k in range(n))
            yield combo, exact_ok, dev
