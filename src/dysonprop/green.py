"""Stationary resolvents, Dyson partial sums and the time-dependent Green
operator, together with numerical Fourier checks relating the two.

The time-dependent complete Green operator is the step-function-gated
evolution operator; its Fourier transform at a damped energy E +- i*eps
reproduces the Dyson expansion of the stationary resolvent.  Both
directions of that transform are implemented as quadratures so the
relationship can be verified at matched finite eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SpectralModel, hamiltonian
from .oracle import gauss_legendre, linear_solve
from .propagator import (
    OperatorMatrix,
    TruncationSpec,
    normalize_sign,
    truncated_evolution,
)

_RESIDUAL_TOL = 1e-10
_DAMPING_TOL = 1e-8


class QuadratureDomainError(ValueError):
    """Quadrature domain too short or too coarse for the requested check."""


@dataclass(frozen=True)
class ResolventQuery:
    """Energy, +- prescription and regularization for a resolvent."""

    E: float
    sign: object  # '+', '-', +1 or -1
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        object.__setattr__(self, "sign", normalize_sign(self.sign))

    @property
    def z(self) -> complex:
        """The complex energy E +- i*eps."""
        return self.E + 1j * self.sign * self.eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre rule of ``npoints`` nodes mapped onto ``domain``,
    computed once on construction and kept as read-only arrays."""

    domain: tuple
    npoints: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"domain must be a finite interval, got {self.domain}")
        if self.npoints < 2:
            raise ValueError("need at least 2 quadrature points")
        x, w = gauss_legendre(self.npoints)
        nodes, weights = (a + b) / 2 + (b - a) / 2 * x, (b - a) / 2 * w
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def unperturbed_resolvent(model: SpectralModel, q: ResolventQuery) -> OperatorMatrix:
    """Diagonal resolvent 1 / (E - E_g +- i*eps) of the solvable part."""
    entries = np.diag(1.0 / (q.z - model.energies))
    return OperatorMatrix(entries, {"E": q.E, "sign": q.sign, "eps": q.eps})


def complete_resolvent_direct(model: SpectralModel, q: ResolventQuery) -> OperatorMatrix:
    """Resolvent of the full Hamiltonian by a dense direct solve."""
    d = model.dim
    a = q.z * np.eye(d, dtype=complex) - hamiltonian(model)
    x = linear_solve(a, np.eye(d, dtype=complex))
    residual = float(np.max(np.abs(a @ x - np.eye(d))))
    if residual > _RESIDUAL_TOL:
        raise np.linalg.LinAlgError(
            f"resolvent solve residual {residual:.3e} exceeds {_RESIDUAL_TOL}"
        )
    return OperatorMatrix(x, {"E": q.E, "sign": q.sign, "eps": q.eps, "residual": residual})


def dyson_partial(model: SpectralModel, q: ResolventQuery, N: int) -> OperatorMatrix:
    """N-term Dyson partial sum G0 * sum_{l<=N} (H1 G0)^l.

    Divergence is not an error: the measured contraction factor
    rho = ||H1 G0||_2 is recorded in the result parameters so callers can
    apply the geometric tail bound themselves.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    g0 = unperturbed_resolvent(model, q).entries
    step = model.h1 @ g0
    rho = float(np.linalg.norm(step, 2))
    acc = np.eye(model.dim, dtype=complex)
    power = np.eye(model.dim, dtype=complex)
    for _ in range(N):
        power = step @ power
        acc += power
    return OperatorMatrix(g0 @ acc, {"E": q.E, "sign": q.sign, "eps": q.eps, "N": N, "rho": rho})


def timedep_green(
    model: SpectralModel, spec: TruncationSpec, t: float, tp: float, sign
) -> OperatorMatrix:
    """Step-function-gated truncated evolution: -+ i * theta(+-(t-t')) U_N(t-t')."""
    sgn = normalize_sign(sign)
    tau = t - tp
    d = model.dim
    if (sgn > 0 and tau < 0) or (sgn < 0 and tau > 0):
        entries = np.zeros((d, d), dtype=complex)
    else:
        entries = -1j * sgn * truncated_evolution(model, spec, tau).entries
    return OperatorMatrix(entries, {"t": t, "tp": tp, "sign": sgn,
                                    "N": spec.N if isinstance(spec, TruncationSpec) else spec})


def inverse_fourier_check(
    model: SpectralModel,
    spec: TruncationSpec,
    E: float,
    sign,
    eps: float,
    quad: QuadratureSpec,
) -> OperatorMatrix:
    """Quadrature of -+i e^{iE tau} e^{-eps|tau|} U_N(tau) over the gated axis.

    With the e^{-eps|tau|} damping folded in, this is the Fourier transform
    of the time-dependent Green operator evaluated at E +- i*eps, and must
    reproduce ``dyson_partial`` at the matched query up to quadrature error.
    """
    if isinstance(spec, int):
        spec = TruncationSpec(spec)
    sgn = normalize_sign(sign)
    if not eps > 0:
        raise ValueError("eps must be positive")
    a, b = quad.domain
    if a != 0 or b <= 0:
        raise QuadratureDomainError("quadrature domain must be (0, T)")
    if np.exp(-eps * b) > _DAMPING_TOL:
        raise QuadratureDomainError(
            f"domain too short: exp(-eps*T) = {np.exp(-eps * b):.3e} > {_DAMPING_TOL}"
        )
    d = model.dim
    total = np.zeros((d, d), dtype=complex)
    for tau, w in zip(quad.nodes, quad.weights):
        # sign '-' integrates over tau < 0; mirror the node onto (0, T)
        u = truncated_evolution(model, spec, sgn * tau).entries
        total += w * (-1j * sgn) * np.exp((1j * sgn * E - eps) * tau) * u
    return OperatorMatrix(
        total, {"E": E, "sign": sgn, "eps": eps, "N": spec.N, "quad": quad.npoints}
    )


def forward_fourier(
    model: SpectralModel,
    quad: QuadratureSpec,
    t: float,
    tp: float,
    sign,
    eps: float,
    N: int | None = None,
) -> OperatorMatrix:
    """Reconstruct the time-dependent Green operator from stationary
    resolvents: (1/2pi) integral dE G_E^{(+-)} e^{-iE(t-t')}.

    The slowly decaying 1/E part of the resolvent is handled analytically:
    a single reference pole at the mean unperturbed energy is subtracted
    from the integrand and its exact transform added back, leaving an
    O(1/E^2) remainder that a finite window integrates accurately.
    Stationary resolvents come from the direct dense solve, or from the
    Dyson partial sum when ``N`` is given.
    """
    sgn = normalize_sign(sign)
    if not eps > 0:
        raise ValueError("eps must be positive")
    tau = t - tp
    lo, hi = quad.domain
    e_min, e_max = float(np.min(model.energies)), float(np.max(model.energies))
    w_width = min(e_min - lo, hi - e_max)
    if w_width < 50 * eps:
        raise QuadratureDomainError(
            f"energy window extends only {w_width:.3g} beyond the spectrum; need >= {50 * eps:.3g}"
        )
    d = model.dim
    e0 = float(np.mean(model.energies))
    eye = np.eye(d, dtype=complex)
    total = np.zeros((d, d), dtype=complex)
    for x, w in zip(quad.nodes, quad.weights):
        q = ResolventQuery(float(x), sgn, eps)
        if N is None:
            g = complete_resolvent_direct(model, q).entries
        else:
            g = dyson_partial(model, q, N).entries
        total += w * (g - eye / (q.z - e0)) * np.exp(-1j * x * tau)
    total /= 2 * np.pi
    # exact transform of the subtracted reference pole
    if (sgn > 0 and tau >= 0) or (sgn < 0 and tau <= 0):
        total += -1j * sgn * np.exp(-1j * e0 * tau) * np.exp(-eps * abs(tau)) * eye
    return OperatorMatrix(
        total, {"t": t, "tp": tp, "sign": sgn, "eps": eps, "N": N, "quad": quad.npoints})
