"""Transition amplitudes on a 1D Dirichlet lattice.

The continuum position integrals become h-weighted grid sums and position
kets are normalized so that <x_m|x_n> = delta_mn / h; with that convention
the completeness relation reads h * sum_n |x_n><x_n| = 1 and the
continuum relation K = integral C * K0 carries over with no stray grid
factors.  The perturbation is restricted to a multiplicative (diagonal)
potential on the grid.

The kernel is regularized by shifting node m of each index tuple to
E - i*m*eps (the retarded prescription), so it comes as one
time-independent kernel C_m per tuple position m, and the relation reads

    K(t_b; t_a) = sum_m e^{-m*eps*(t_b - t_a)} * h^2 sum_{y_b, y_a}
                  C_m(x_b, y_b; x_a, y_a) * K0(y_b, t_b; y_a, t_a),

the time-domain side of G0(E + i*m*eps).  The damping is what makes the
eps -> 0 limit the truncated amplitude: for tuples with coincident energies
the partial fractions grow like 1/eps, and the O(eps) part of the damping
times them is the secular t * e^{-iEt} contribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (_MAX_ENTRIES, ModelError, SpectralModel, Unresolved, _check_coupling,
                    _check_phase, _count, _finite, _json_object, _real, _reals)
from .oracle import hermitian_eigendecomposition
from .propagator import (
    TruncationSpec,
    _graded_chains,
    _graded_sum,
    richardson_limit,
    truncated_evolution,
)

@dataclass(frozen=True)
class LatticeSpec:
    """1D grid geometry (M stored as an int) plus base and perturbing potentials;
    an M whose M x M arrays pass _MAX_ENTRIES raises ModelError before any is built."""

    M: int
    h: float
    mass: float
    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        M = _count(self.M, 2, "need a whole number of at least 2 grid points", ModelError)
        if M * M > _MAX_ENTRIES:
            raise ModelError(f"lattice M = {M} puts its {M} x {M} arrays past "
                             f"{_MAX_ENTRIES} entries")
        # Python floats: 2 mass h^2 and its inverse over- or underflow silently
        denom = 2.0 * float(self.mass) * float(self.h) * float(self.h)
        if not (self.h > 0 and denom > 0 and 0 < 1.0 / denom < np.inf):
            raise ModelError("need h > 0 and a positive finite hopping 1/(2 mass h^2), "
                             f"got h = {self.h} and mass = {self.mass}")
        v0 = _finite(np.asarray(self.v0, dtype=float), "potentials", ModelError)
        v1 = _finite(np.asarray(self.v1, dtype=float), "potentials", ModelError)
        if v0.shape != (M,) or v1.shape != (M,):
            raise ModelError("potentials must have one value per grid point")
        v0.flags.writeable = False
        v1.flags.writeable = False
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "v1", v1)


def load_lattice(text: str) -> LatticeSpec:
    """Parse the lattice spec file (JSON keys M, h, mass, v0, v1; an optional
    bc must be "dirichlet", and x0, the grid origin, changes no amplitude)."""
    obj, M, h, mass, v0, v1 = _json_object(text, "lattice", "M", "h", "mass", "v0", "v1")
    if not isinstance(M, int) or isinstance(M, bool):
        raise ModelError(f"lattice M must be an integer, got {M!r}")
    if obj.get("bc", "dirichlet") != "dirichlet":
        raise ModelError(f"unsupported boundary condition {obj['bc']!r}")
    return LatticeSpec(M, _real("h", h), _real("mass", mass), _reals("v0", v0), _reals("v1", v1))


@dataclass(frozen=True)
class LatticeSystem:
    """Lattice spec, its compiled spectral model and the eigenbasis psi[n, g]
    of H0 (eigenstate g at grid point n, normalized under the lattice inner
    product sum_n h * psi* phi), whose energies are ``model.energies``."""

    spec: LatticeSpec
    model: SpectralModel
    basis: np.ndarray

    @functools.cached_property
    def full(self):
        """psi[n, g] and the energies of H = H0 + diag(v1), from the oracle's
        decomposition, taken once, on the first ``k_exact``."""
        dec = hermitian_eigendecomposition(base_hamiltonian(self.spec) + np.diag(self.spec.v1))
        return dec.vectors / np.sqrt(self.spec.h), dec.values


def base_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """-(1/2m) second difference with Dirichlet walls, plus diag(v0)."""
    k = 1.0 / (2.0 * spec.mass * spec.h**2)
    off = np.full(spec.M - 1, -k)
    return np.diag(2.0 * k + spec.v0) + np.diag(off, 1) + np.diag(off, -1)


def build_lattice(spec: LatticeSpec) -> LatticeSystem:
    """Diagonalize the base Hamiltonian (``eigh``) and rotate the perturbing
    potential into its eigenbasis; ``LatticeSystem.full`` decomposes the full one.  A
    v1 whose rotation could leave the float range raises ModelError first:
    no partial sum of the rotation passes M max|v1| max(1, 1/h).  A level
    past the float range raises Unresolved; eigh's basis is orthonormal."""
    peak = float(np.max(np.abs(spec.v1)))
    _check_coupling(peak * max(1.0, 1.0 / spec.h) * spec.M,
                    f"coupling potential v1 (largest |v1| = {peak:.3e})")
    h0 = base_hamiltonian(spec)
    values, vectors = np.linalg.eigh(h0)
    if not np.isfinite(values).all():
        raise Unresolved("lattice eigenbasis", "a level of H0 is past the float range")
    basis = vectors / np.sqrt(spec.h)
    h1 = basis.conj().T @ (spec.v1[:, np.newaxis] * basis) * spec.h
    return LatticeSystem(spec, SpectralModel(values, h1, label="lattice"), basis)


def _endpoint(x, M: int):
    """x, when it is slice(None) or a grid index 0 <= x < M (a Python or numpy int)."""
    if not (isinstance(x, slice) and x == slice(None) or isinstance(x, (int, np.integer))
            and not isinstance(x, bool) and 0 <= x < M):
        raise ValueError(f"endpoint {x!r} is not a grid index 0 <= x < {M}")
    return x


def _at(amplitudes: np.ndarray, xb, xa):
    """Entry (xb, xa) of an M x M amplitude matrix: one Python complex for
    grid indices, the matrix itself for slice(None) on both."""
    out = amplitudes[_endpoint(xb, len(amplitudes)), _endpoint(xa, len(amplitudes))]
    return complex(out) if np.ndim(out) == 0 else out


def _evolve(psi: np.ndarray, energies: np.ndarray, t: float) -> np.ndarray:
    """<x_b| e^{-iHt} |x_a> over every (x_b, x_a), t >= 0, from the
    energies of H and its lattice-normalized eigenfunctions psi[n, g]; a NaN
    t is refused too, and the times ``a_matrix`` refuses raise its Unresolved."""
    if not t >= 0:
        raise ValueError("tb must be >= ta")
    _check_phase(t, energies.tolist())
    return (psi * np.exp(-1j * energies * t)) @ psi.conj().T


def k0_amplitude(sys: LatticeSystem, xb, tb: float, xa, ta: float):
    """Unperturbed amplitude <x_b| e^{-i H0 (tb-ta)} |x_a> on the lattice."""
    return _at(_evolve(sys.basis, sys.model.energies, tb - ta), xb, xa)


def k_exact(sys: LatticeSystem, xb, tb: float, xa, ta: float):
    """Exact amplitude of the full lattice Hamiltonian (oracle eigensolve)."""
    return _at(_evolve(*sys.full, tb - ta), xb, xa)


def k_truncated_direct(sys: LatticeSystem, spec: TruncationSpec, xb, tb: float, xa, ta: float):
    """Position sandwich psi U_N psi^dagger of the divided-difference
    truncated evolution; the numerically stable reference for the kernel
    relation."""
    if not tb > ta:
        raise ValueError("tb must be > ta")
    u = truncated_evolution(sys.model, spec, tb - ta).entries
    return _at(sys.basis @ u @ sys.basis.conj().T, xb, xa)


def _relation(sys: LatticeSystem, spec: TruncationSpec, eps, t: float):
    """h^2 psi X psi^dagger over the eps ladder and every (x_b, x_a), X the graded
    sum of the retarded chains weighted by e^{-m*eps*t} G[g] at position m, level g,
    G[g] = sum_{y_b, y_a} psi*(y_b, g) K0(y_b, t; y_a, 0) psi(y_a, g), t > 0."""
    if not t > 0:
        raise ValueError("tb must be > ta")
    psi = sys.basis
    level = np.sum(np.conj(psi) * (_evolve(psi, sys.model.energies, t) @ psi), axis=0)
    _, left, right = _graded_chains(sys.model, spec, eps, 1)
    rate = -np.asarray(eps)[..., np.newaxis] * t
    damped = np.exp(rate * np.arange(left.shape[-3]))[..., np.newaxis] * level
    return sys.spec.h**2 * (psi @ _graded_sum(left, damped, right) @ psi.conj().T)


def k_via_relation(sys: LatticeSystem, spec: TruncationSpec, eps: float, xb, tb: float, xa,
                   ta: float):
    """Amplitude assembled from the kernels: sum over positions m of
    e^{-m*eps*(t_b - t_a)} times the h^2-weighted double grid sum of
    C_m(x_b, y_b; x_a, y_a) * K0(y_b, t_b; y_a, t_a).

    C_m is a sum over levels g, so the grid sum is taken level by level
    (``_relation``): no (N+1) M^4 kernel array is formed.
    """
    return _at(_relation(sys, spec, eps, tb - ta), xb, xa)


def k_via_relation_extrapolated(sys: LatticeSystem, spec: TruncationSpec, eps_values, xb,
                                tb: float, xa, ta: float):
    """Richardson (Neville) extrapolation of ``k_via_relation`` to eps = 0;
    one ``_relation`` call makes every sample, from one K0 and its level sums G."""
    samples = _relation(sys, spec, eps_values, tb - ta)
    return _at(richardson_limit(eps_values, samples), xb, xa)
