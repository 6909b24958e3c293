"""Stationary resolvents, Dyson partial sums and the time-dependent Green
operator, together with numerical Fourier checks relating the two.

The time-dependent complete Green operator is the step-function-gated
evolution operator; its Fourier transform at a damped energy E +- i*eps
reproduces the Dyson expansion of the stationary resolvent.  Both
directions of that transform are implemented as quadratures on the same
composite Gauss-Legendre panels, so the relationship can be verified at
matched finite eps; the forward one subtracts K terms of the resolvent's
expansion and transforms them exactly.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import (_MAX_ENTRIES, OperatorMatrix, SpectralModel, Unresolved, _check_eps,
                    _check_phase, _count, hamiltonian)
from .oracle import linear_solve
from .propagator import TruncationSpec, _order, _power_tables, normalize_sign, truncated_evolution

_RESIDUAL_TOL = 1e-10
_DAMPING_TOL = 1e-8
#: the most expansion terms the forward transform subtracts
_MAX_SUBTRACTED = 24
#: entries of a Fourier route's node block, nodes times d x d: every stack
#: of solves or evaluations stays this small, whatever the node count
_BLOCK_ENTRIES = 2**12


@dataclass(frozen=True)
class ResolventQuery:
    """Energy, +- prescription and regularization for a resolvent."""

    E: float
    sign: object  # '+', '-', +1 or -1
    eps: float

    def __post_init__(self):
        if not math.isfinite(self.E):
            raise ValueError(f"E must be finite, got {self.E}")
        _check_eps(self.eps)
        object.__setattr__(self, "sign", normalize_sign(self.sign))

    @property
    def z(self) -> complex:
        """The complex energy E +- i*eps."""
        return self.E + 1j * self.sign * self.eps


@dataclass(frozen=True)
class QuadratureSpec:
    """A quadrature's finite ``domain`` and node count ``npoints``, an
    integral number >= 2 stored as an int.  Both Fourier routes lay their
    nodes on it with ``_panel_rule``."""

    domain: tuple
    npoints: int

    def __post_init__(self):
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"domain must be a finite interval, got {self.domain}")
        n = _count(self.npoints, 2, "need a whole number of at least 2 quadrature points")
        object.__setattr__(self, "npoints", n)


def unperturbed_resolvent(model: SpectralModel, q: ResolventQuery) -> OperatorMatrix:
    """Diagonal resolvent 1 / (E - E_g +- i*eps) of the solvable part."""
    return OperatorMatrix(np.diag(1.0 / (q.z - model.energies)))


def complete_resolvent_direct(model: SpectralModel, q: ResolventQuery) -> OperatorMatrix:
    """Resolvent of the full Hamiltonian by a dense direct solve: the
    forward transform's node block at the one node z."""
    x, residual = _resolvents(hamiltonian(model), np.array([q.z]))
    return OperatorMatrix(x[0], {"residual": float(residual[0])})


def _block(d: int) -> int:
    """Nodes per block of a Fourier route at dimension d: as many d x d
    matrices as fit _BLOCK_ENTRIES, and at least one."""
    return max(1, _BLOCK_ENTRIES // (d * d))


def _resolvents(h: np.ndarray, z: np.ndarray):
    """(z_j - h)^{-1} for every z_j of the 1-d z, one oracle ``linear_solve``
    against the identity per node, as a (len(z), d, d) stack, and each
    node's residual.  The first node whose residual exceeds _RESIDUAL_TOL or
    is NaN raises Unresolved, as ``linear_solve`` does on a singular z - h."""
    eye = np.eye(len(h), dtype=complex)
    a = z[:, None, None] * eye - h
    x = np.array([linear_solve(aj, eye) for aj in a])
    residual = np.abs(a @ x - eye).max(axis=(1, 2))
    bad = np.flatnonzero(~(residual <= _RESIDUAL_TOL))
    if bad.size:
        raise Unresolved("resolvent solve",
                         f"residual {residual[bad[0]]:.3e} exceeds {_RESIDUAL_TOL}")
    return x, residual


def dyson_partial(model: SpectralModel, q: ResolventQuery, N) -> OperatorMatrix:
    """N-term Dyson partial sum G0 * sum_{l<=N} (H1 G0)^l; N is an int or a
    TruncationSpec.

    Divergence is not an error: the measured contraction factor
    rho = ||H1 G0||_2 is recorded as ``params["rho"]`` so callers can
    apply the geometric tail bound themselves.
    """
    N = _order(N)
    g0 = unperturbed_resolvent(model, q).entries
    step = model.h1 @ g0
    rho = float(np.linalg.norm(step, 2))
    acc = np.eye(model.dim, dtype=complex)
    power = np.eye(model.dim, dtype=complex)
    for _ in range(N):
        power = step @ power
        acc += power
    return OperatorMatrix(g0 @ acc, {"rho": rho})


def _gated_on(tau: float, sgn: int) -> bool:
    """theta(+-tau) of the Green operator's step function, with theta(0) = 1.
    A NaN tau counts as gated on, so it is not silently zeroed."""
    return not sgn * tau < 0


def timedep_green(model: SpectralModel, spec: TruncationSpec, t: float, tp: float,
                  sign) -> OperatorMatrix:
    """Step-function-gated truncated evolution: -+ i * theta(+-(t-t')) U_N(t-t')."""
    sgn = normalize_sign(sign)
    tau = t - tp
    if not _gated_on(tau, sgn):
        return OperatorMatrix(np.zeros((model.dim, model.dim), dtype=complex))
    g = truncated_evolution(model, spec, tau)
    g.entries *= -1j * sgn  # in place: g is this call's own, already checked
    return g


def inverse_fourier_check(
    model: SpectralModel,
    spec: TruncationSpec,
    E: float,
    sign,
    eps: float,
    quad: QuadratureSpec,
) -> OperatorMatrix:
    """Quadrature of e^{iE tau} e^{-eps|tau|} G(tau) = -+i U_N(+-tau) over the gated axis.

    With the e^{-eps|tau|} damping folded in, this is the Fourier transform
    of the time-dependent Green operator evaluated at E +- i*eps, and must
    reproduce ``dyson_partial`` at the matched query up to quadrature error.
    Before any node it refuses, each rule once and in this order: a domain
    that is not (0, T) and a non-finite E (ValueError); an eps*T outside
    [-ln _DAMPING_TOL, inf), whose damping does not fall (eps <= 0 or NaN)
    or whose factors' exponents overflow (inf); ``_panel_rule``'s rules; a T
    at which a phase of the integrand, e^{-iE_g tau} or e^{iE tau}, keeps no
    bit; and a Taylor table of M_N past _MAX_ENTRIES (``_power_tables``).
    The nodes are ``_panel_rule``'s with the whole domain (0, T) as its
    bound: ``quad.npoints`` nodes on equal panels, inside it, where theta = 1;
    one ``truncated_evolution`` call each, which the benchmark counts per
    node: the first block row of one e^{-iM_N tau} off that one table, a_1
    in closed form for G^-(E) = G^+(E)^dagger bit for bit on real models.
    The factors -+i w e^{(+-iE - eps) tau} are taken for all nodes at once;
    each block of _BLOCK_ENTRIES / d^2 evaluations is one fixed-order einsum.
    """
    sgn = normalize_sign(sign)
    a, b = quad.domain
    if a != 0:
        raise ValueError("quadrature domain must be (0, T)")
    if not math.isfinite(E):
        raise ValueError(f"E must be finite, got {E}")
    eps_t = float(eps) * float(b)  # Python floats: numpy's would warn as they overflow
    if not -math.log(_DAMPING_TOL) <= eps_t < math.inf:
        raise Unresolved("inverse Fourier check", f"the damping exp(-eps*T) needs "
                         f"{-math.log(_DAMPING_TOL):.3g} <= eps*T < inf to fall to {_DAMPING_TOL}"
                         f" with finite factors: eps*T = {eps_t:.3g} at eps = {eps}, T = {b}")
    taus, w = _panel_rule(quad.domain, quad.npoints, a, b, eps)
    _check_phase(b, (*model.energies.tolist(), E))  # every phase of the integrand on (0, T)
    powers = _power_tables(model, _order(spec))
    factors = w * np.exp((1j * sgn * E - eps) * taus) * (-1j * sgn)
    d, step = model.dim, _block(model.dim)
    total = np.zeros((d, d), dtype=complex)
    for s in range(0, len(taus), step):
        # sign '-' integrates over tau < 0; mirror the node onto (0, T)
        g = np.array([truncated_evolution(model, spec, sgn * tau, powers=powers).entries
                      for tau in taus[s:s + step].tolist()])
        total += np.einsum("n,nij->ij", factors[s:s + step], g)
    return OperatorMatrix(total)


@functools.lru_cache(maxsize=64)
def _leggauss(n: int):
    """numpy's n-point Gauss-Legendre nodes and weights; read-only, once per n."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_rule(domain, n: int, s_lo: float, s_hi: float, eps: float):
    """n ascending nodes and weights on P = max(1, n // 16) Gauss-Legendre
    panels, equal steps of integral dx / (eps + dist(x, [s_lo, s_hi])): eps
    wide on that interval, geometric outside, and all of one width when the
    interval is the whole domain.  The first n % P panels take a node more,
    so no panel has more than 32 nodes.  A count whose forward-transform
    coefficients, n x _MAX_SUBTRACTED, pass _MAX_ENTRIES, and a cut, panel end
    sum or width past the float range raise Unresolved, before any node."""
    # in ints, before the count becomes a float or sizes an array
    if n * _MAX_SUBTRACTED > _MAX_ENTRIES:
        raise Unresolved("quadrature panels", f"a quadrature point count past "
                         f"{_MAX_ENTRIES // _MAX_SUBTRACTED} puts the forward transform's "
                         f"n x {_MAX_SUBTRACTED} coefficients past {_MAX_ENTRIES} entries")
    lo, hi, s_lo, s_hi, eps = map(float, (*domain, s_lo, s_hi, eps))
    s_lo, s_hi = max(lo, s_lo), min(hi, s_hi)
    p, inner = max(1, n // 16), (s_hi - s_lo) / eps
    start, stop = -float(np.log1p((s_lo - lo) / eps)), inner + float(np.log1p((hi - s_hi) / eps))
    # a step or cut past the float range is inf or NaN here, which the test refuses
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.linspace(start, stop, p + 1)[1:-1]
        cuts = [lo, *(s_lo + eps * (np.clip(u, 0, inner) - np.expm1(np.maximum(-u, 0))
                                    + np.expm1(np.maximum(u - inner, 0)))).tolist(), hi]
    if not all(math.isfinite(a + b) and math.isfinite(b - a) for a, b in zip(cuts, cuts[1:])):
        raise Unresolved("quadrature panels", f"domain ({lo:.4g}, {hi:.4g}) at eps = {eps:.4g} "
                         "puts a panel end or width past the float range")
    cuts = np.array(cuts)
    m, extra = divmod(n, len(cuts) - 1)
    nodes, weights = [], []
    for k, ends in ((m + 1, cuts[:extra + 1]), (m, cuts[extra:])):
        x, w = _leggauss(k)
        half = np.diff(ends)[:, None] / 2
        nodes.append(((ends[1:] + ends[:-1])[:, None] / 2 + half * x).ravel())
        weights.append((half * w).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def forward_fourier(
    model: SpectralModel,
    quad: QuadratureSpec,
    t: float | Sequence[float],
    tp: float,
    sign,
    eps: float,
) -> OperatorMatrix | list[OperatorMatrix]:
    """Reconstruct the time-dependent Green operator from stationary
    resolvents: (1/2pi) integral dE G_E^{(+-)} e^{-iE(t-t')}.

    ``quad.npoints`` nodes on ``quad.domain``, one direct solve each.  One
    Gauss rule on a window W converges at exp(-4 n eps / W) and drops G's
    1/E tail outside W.  So ``_panel_rule`` puts eps-wide panels on the
    a-priori spectrum bound e0 +- rho, rho = (max E - min E) / 2 + ||H1||_1
    (no eigensolve: the oracle stays independent), and K terms of
    G = sum_k (H-c)^k / (z-c)^{k+1}, c = e0 -+ i Gamma, are subtracted,
    summed through their (n, K) scalar coefficients, and their transforms
    -+i (-i tau)^k / k! e^{-ic tau - eps|tau|} (H-c)^k added where
    theta(+-tau) = 1.  Gamma = rho / 2: larger slows the remainder's decay
    (|H-c| / |E-e0|)^K, smaller swamps G in rounding, 0 (poles at e0) gives
    O(1) errors.  K is the least in 12..24 with (hypot(rho, Gamma) / D)^K
    below the unit roundoff, D from e0 to the nearer window edge.  Each tau =
    t - t' passes ``model._check_phase`` over e0 +- rho, not over the window.

    ``t`` is one time or a sequence of times.  Each node's resolvent is
    computed once and shared by every time, so a sequence costs one solve
    per node, not one per node and time.  A single time gives one
    OperatorMatrix, a sequence a list of them in the same order.

    Nodes go in blocks of _BLOCK_ENTRIES / d^2 (``_resolvents``): one
    ``linear_solve`` per node, the call the benchmark counts per node, and
    every other step once per block, the sums by one fixed-order einsum.
    No (n, d, d) stack is built.
    """
    sgn = normalize_sign(sign)
    _check_eps(eps)
    lo, hi = quad.domain
    e_min, e_max = float(np.min(model.energies)), float(np.max(model.energies))
    w_width = min(e_min - lo, hi - e_max)
    if w_width < 50 * eps:
        raise Unresolved("forward Fourier transform", f"energy window extends only "
                         f"{w_width:.3g} beyond the spectrum; need >= {50 * eps:.3g}")
    e0 = (e_min + e_max) / 2
    rho = (e_max - e_min) / 2 + float(np.abs(model.h1).sum(axis=0).max())
    # every tau passes a_matrix's phase rule over the spectrum bound, not the window
    single = np.ndim(t) == 0
    taus = np.array([_check_phase(s - tp, (e0 - rho, e0 + rho)) for s in ([t] if single else t)])
    x, w = _panel_rule(quad.domain, quad.npoints, e0 - rho, e0 + rho, eps)
    d, h = model.dim, hamiltonian(model)
    eye = np.eye(d, dtype=complex)
    c = e0 - 0.5j * sgn * rho
    decay = np.hypot(rho, rho / 2) / min(e0 - lo, hi - e0)
    K = next((k for k in range(12, _MAX_SUBTRACTED) if decay**k < np.finfo(float).eps),
             _MAX_SUBTRACTED)
    powers = np.array([np.linalg.matrix_power(h - c * eye, k) for k in range(K)])
    z = x + 1j * sgn * eps
    phased = w * np.exp(-1j * np.outer(taus, x))
    coef = (1 / (z - c))[:, None] ** np.arange(1, K + 1)
    # einsum without optimize calls no BLAS: its sums run in one fixed order,
    # whatever the thread count, and the node axis is contracted first
    totals = -np.einsum("tk,kij->tij", np.einsum("tn,nk->tk", phased, coef), powers)
    step = _block(d)
    for s in range(0, len(z), step):
        totals += np.einsum("tn,nij->tij", phased[:, s:s + step], _resolvents(h, z[s:s + step])[0])
    totals /= 2 * np.pi
    for tau, total in zip(taus, totals):
        if _gated_on(tau, sgn):  # the products underflow to 0 before a power overflows
            a = np.cumprod(np.r_[np.exp(-(rho / 2 + eps) * abs(tau)), -1j * tau / np.arange(1, K)])
            total += -1j * sgn * np.exp(-1j * e0 * tau) * np.einsum("k,kij->ij", a, powers)
    results = [OperatorMatrix(total) for total in totals]
    return results[0] if single else results
