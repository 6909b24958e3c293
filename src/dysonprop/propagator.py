"""Series coefficients of the time-evolution operator and their assembly.

The order-l term of the interaction series of e^{-iHt}, H = H0 + H1, is

    a_l(g, g') = sum over g_1 = g, g_2, ..., g_{l+1} = g' of
                 f[E_{g_1}, ..., E_{g_{l+1}}] * H1[g_1, g_2] * ... * H1[g_l, g_{l+1}]

with f[...] the divided difference of f(E) = e^{-iEt}.  For l >= 2
``a_matrix`` sums all of these tuples at once: for the (l+1)d x (l+1)d block
upper bidiagonal matrix M with H0 on its diagonal blocks and H1 above them,
a_l is block (0, l) of e^{-iMt} (Van Loan, IEEE TAC 23 (1978) 395; the matrix
form of the corner-entry theorem behind ``divdiff.dd_phase``); a_1 takes the
two-node f[...] in closed form.  ``a_coefficient`` keeps the tuple sum as
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

from .divdiff import _DEGREE, _P, _phase_exp, _phase_powers, dd_phase
from .model import (_MAX_ENTRIES, OperatorMatrix, SpectralModel, Unresolved, _check_eps,
                    _check_phase, _count)

_EPS_MACH = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TruncationSpec:
    """Highest perturbation order kept in a partial sum: a nonnegative
    integral number, stored as an int."""

    N: int

    def __post_init__(self):
        N = _count(self.N, 0, "truncation order must be a nonnegative integer")
        object.__setattr__(self, "N", N)


def _order(spec) -> int:
    """The order N of a TruncationSpec, or of a number TruncationSpec accepts."""
    return (spec if isinstance(spec, TruncationSpec) else TruncationSpec(spec)).N


def normalize_sign(sign) -> int:
    """Map '+', '-', +1, -1 to the integer sign of the i*epsilon shift; a bool is no sign."""
    if not isinstance(sign, (bool, np.bool_)):
        if sign in ("+", 1):
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
    l = _count(l, 0, "order must be a nonnegative integer")
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


def _block_matrix(model: SpectralModel, l: int) -> np.ndarray:
    """The (l+1)d x (l+1)d block matrix M of ``a_matrix``."""
    d = model.dim
    n = (l + 1) * d
    m = np.zeros((n, n), dtype=complex)
    m.flat[:: n + 1] = model.energies  # a flat assignment repeats E down all l + 1 blocks
    for k in range(l):
        m[k * d : (k + 1) * d, (k + 1) * d : (k + 2) * d] = model.h1
    return m


def _check_table(model: SpectralModel, l: int, p: int, what: str, order: str) -> None:
    """Refuse, as ``what``, the Taylor power table B^0..B^p of the order-l block
    matrix at l >= 2 when its (p + 1) ((l + 1) d)^2 entries pass _MAX_ENTRIES:
    counted in Python ints, before the matrix is built."""
    if l >= 2 and (p + 1) * ((l + 1) * model.dim) ** 2 > _MAX_ENTRIES:
        raise Unresolved(what, f"order {order} = {l} puts its Taylor power table past "
                         f"{_MAX_ENTRIES} entries")


def _power_tables(model: SpectralModel, N: int):
    """The inverse Fourier check's ``powers`` for ``truncated_evolution``: None at
    N <= 1, else ``divdiff._phase_powers`` of the order-N block matrix at p = 20."""
    _check_table(model, N, _DEGREE, "inverse Fourier check", "N")
    return _phase_powers(_block_matrix(model, N), _DEGREE) if N >= 2 else None


def a_matrix(model: SpectralModel, l: int, t: float) -> OperatorMatrix:
    """Order-l series term as a matrix in the unperturbed eigenbasis.

    a_0 = diag(e^{-iEt}).  a_1 = H1 * F entrywise, F[a, b] = f[E_a, E_b] =
    -it e^{-i(E_a+E_b)t/2} sin(delta)/delta with delta = (E_a - E_b)t/2: the
    2 x 2 case of the exponential below in closed form, with no difference of
    phases to cancel where levels coincide.  For l >= 2, block (0, l) of
    e^{-iMt} for the (l+1)d x (l+1)d block matrix (``_block_matrix``)

        M = | H0  H1          |
            |     H0  ...     |
            |         ...  H1 |
            |              H0 |

    Every path from block 0 to block l through M crosses the H1 blocks of
    one index tuple and picks up the divided difference of its energies, so
    one scaling-and-squaring exponential replaces the d^(l+1) tuples of the
    sum, at O(((l+1)d)^3) cost per Taylor term or squaring.  At every order,
    |t| max|E| >= 1/eps_mach (eps_mach = 2^-52) raises Unresolved, by
    ``model._check_phase``: the phases e^{-iEt} then keep no correct bit.
    So do the 5 Taylor powers of an M past _MAX_ENTRIES entries (``_check_table``).
    """
    l = _count(l, 0, "order must be a nonnegative integer")
    d, e = model.dim, model.energies
    _check_phase(t, e.tolist())
    if l == 1:
        half = 0.5 * t
        phase = -1j * t * np.exp(-1j * half * (e[:, None] + e))
        # np.sinc's own steps: sin(y) / y at y = pi x, with eps_mach where y = 0
        y = np.pi * (half / np.pi * (e[:, None] - e))
        y = np.where(y, y, _EPS_MACH)
        return OperatorMatrix(model.h1 * phase * (np.sin(y) / y))
    if l == 0:
        m = np.zeros((d, d), dtype=complex)
        m.flat[:: d + 1] = np.exp(-1j * e * t)
        return OperatorMatrix(m)
    _check_table(model, l, _P, "series term", "l")
    return OperatorMatrix(_phase_exp(_block_matrix(model, l), t)[:d, l * d :].copy())


def truncated_evolution(model: SpectralModel, spec: TruncationSpec, t: float, *,
                        powers=None) -> OperatorMatrix:
    """Partial sum of the series through order spec.N (a TruncationSpec or an int):
    one ``a_matrix`` per order, summed from 0 as from a zero matrix; or the first
    block row (a_0, ..., a_N) of one e^{-iM_N t} off the table ``powers`` of M_N,
    with a_1 in closed form, bitwise symmetric for a symmetric H1 as block (0, 1) is not.
    Without a table, a_N's table rule refuses before any order is summed."""
    if powers is None:
        _check_table(model, _order(spec), _P, "series term", "l")
        return OperatorMatrix(sum(a_matrix(model, l, t).entries for l in range(_order(spec) + 1)))
    a_1, d = a_matrix(model, 1, t).entries, model.dim  # refuses what a_matrix refuses
    row = _phase_exp(None, t, powers)[:d].reshape(d, _order(spec) + 1, d)
    row[:, 1] = a_1
    return OperatorMatrix(row.sum(axis=1))


def _graded_chains(model: SpectralModel, spec: TruncationSpec, eps, sgn: int):
    """Partial fractions of the graded-shift sum through order ``spec.N`` (an
    int or a TruncationSpec), split at one tuple position; each eps must be > 0.

    Node j of a tuple g_0, ..., g_l is z_j = E_{g_j} - i*sgn*j*eps.  With
    g_m = g fixed, 1/(z_m - z_j) depends only on g, g_j and m - j, so the
    tuple sum splits into a chain left of position m and one right of it.
    Returns ``nodes[m, g]`` = z_m for g_m = g, ``left`` and ``right`` with

        left[m, g, a] * right[m, g, b]
            = sum over tuples a = g_0, ..., g_l = b with l >= m and g_m = g of
              H1[g_0, g_1] ... H1[g_{l-1}, g_l] / prod_{j != m} (z_m - z_j);

    ``right[m]`` sums the right chains of length 0..N-m.  Cost O(N d^3).  An eps
    array (a ladder) puts its axes in front of all three, bit for bit per eps.
    """
    N = _order(spec)
    eps = np.asarray(eps)
    for x in eps.flat:
        _check_eps(x)
    e = model.energies
    nodes = e - 1j * sgn * eps[..., np.newaxis, np.newaxis] * np.arange(N + 1)[:, np.newaxis]
    left = np.empty((*eps.shape, N + 1, model.dim, model.dim), dtype=complex)
    chain = np.empty_like(left)
    left[..., 0, :, :] = chain[..., 0, :, :] = np.eye(model.dim)
    for k in range(1, N + 1):
        # z_m - z_{m-k} = nodes[k, g_m] - E_{g_{m-k}}, z_m - z_{m+k} = E_{g_m} - nodes[k, g_{m+k}]
        left[..., k, :, :] = ((left[..., k - 1, :, :] @ model.h1.T)
                              / (nodes[..., k, :, np.newaxis] - e))
        chain[..., k, :, :] = ((chain[..., k - 1, :, :] @ model.h1)
                               / (e[:, np.newaxis] - nodes[..., k, np.newaxis, :]))
    return nodes, left, np.cumsum(chain, axis=-3)[..., ::-1, :, :]


def _graded_sum(left: np.ndarray, weight: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sum over m, g of left[..., m, g, :]^T weight[..., m, g] right[..., m, g, :]."""
    *lead, m, g, d = left.shape
    return (np.swapaxes(left.reshape(*lead, m * g, d), -1, -2)
            @ (weight.reshape(*lead, m * g, 1) * right.reshape(*lead, m * g, d)))


def epsilon_form_evolution(
    model: SpectralModel, spec: TruncationSpec, t: float, eps: float, sign
) -> OperatorMatrix:
    """Resolvent partial-fraction form of the truncated evolution operator.

    Each tuple's energies are split by graded imaginary shifts
    E_m -> E_m -+ i*m*eps (position m, sign '+' selects the retarded
    prescription), which renders all partial fractions finite.  With the
    chains of ``_graded_chains``, U_eps[a, b] is the sum over m and g of
    left[m, g, a] e^{-i z_m(g) t} right[m, g, b].  Individual terms grow
    like 1/eps near coincident energies while the assembled matrix converges
    to ``truncated_evolution`` as eps -> 0; callers are expected to
    extrapolate over a ladder of eps values.  Raises Unresolved at the times
    ``a_matrix`` refuses, and where |e^{-i z_N t}| = e^{-sgn N eps t} is past
    the float range.
    """
    _check_phase(t, model.energies.tolist())
    sgn = normalize_sign(sign)
    nodes, left, right = _graded_chains(model, spec, eps, sgn)
    N = len(nodes) - 1
    if -sgn * N * eps * t >= np.log(np.finfo(float).max):
        raise Unresolved("e^{-i z t}", f"at t = {t}, eps = {eps} and N = {N} the graded "
                         f"shift grows it to e^{-sgn * N * eps * t:.3e}, past the float range")
    return OperatorMatrix(_graded_sum(left, np.exp(-1j * nodes * t), right))


def richardson_limit(eps_values, samples):
    """Polynomial (Neville) extrapolation of samples f(eps_k) to eps = 0.

    Works on scalars or arrays, given as a sequence or stacked along the first
    axis of one array; eps values must be positive, finite and distinct.
    """
    eps_values = [_check_eps(float(x)) for x in eps_values]
    if len(eps_values) != len(samples) or len(samples) == 0:
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
