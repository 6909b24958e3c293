"""Transition amplitudes on a 1D Dirichlet lattice.

The continuum position integrals become h-weighted grid sums and position
kets are normalized so that <x_m|x_n> = delta_mn / h; with that convention
the completeness relation reads h * sum_n |x_n><x_n| = 1 and the
continuum relation K = integral C * K0 carries over with no stray grid
factors.  The perturbation is restricted to a multiplicative (diagonal)
potential on the grid.

The kernel is regularized by shifting node m of each index tuple to
E - i*sgn*m*eps, so it comes as one time-independent kernel C_m per tuple
position m, and the relation reads

    K(t_b; t_a) = sum_m e^{-sgn*m*eps*(t_b - t_a)} * h^2 sum_{y_b, y_a}
                  C_m(x_b, y_b; x_a, y_a) * K0(y_b, t_b; y_a, t_a),

the time-domain side of G0(E + i*sgn*m*eps).  The damping is what makes the
eps -> 0 limit the truncated amplitude: for tuples with coincident energies
the partial fractions grow like 1/eps, and the O(eps) part of the damping
times them is the secular t * e^{-iEt} contribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParseError, ModelValidationError, SpectralModel
from .oracle import hermitian_eigendecomposition
from .propagator import (
    TruncationSpec,
    _graded_chains,
    normalize_sign,
    richardson_limit,
    truncated_evolution,
)

_ORTHO_TOL = 1e-10


class AmplitudeError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeSpec:
    """1D grid geometry plus base and perturbing potentials."""

    M: int
    x0: float
    h: float
    mass: float
    v0: np.ndarray
    v1: np.ndarray
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.M < 2:
            raise AmplitudeError("need at least 2 grid points")
        if not self.h > 0:
            raise AmplitudeError("grid spacing must be positive")
        if not self.mass > 0:
            raise AmplitudeError("mass must be positive")
        if self.bc != "dirichlet":
            raise AmplitudeError(f"unsupported boundary condition {self.bc!r}")
        v0 = np.asarray(self.v0, dtype=float)
        v1 = np.asarray(self.v1, dtype=float)
        if v0.shape != (self.M,) or v1.shape != (self.M,):
            raise AmplitudeError("potentials must have one value per grid point")
        if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(v1))):
            raise AmplitudeError("potentials must be finite")
        v0.flags.writeable = False
        v1.flags.writeable = False
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "v1", v1)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.M)


def load_lattice(text: str) -> LatticeSpec:
    """Parse the lattice spec file (JSON keys M, x0, h, mass, v0, v1)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"invalid lattice file: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelParseError("lattice file must contain a top-level object")
    try:
        M = obj["M"]
        if not isinstance(M, int) or isinstance(M, bool):
            raise ModelValidationError(f"lattice M must be an integer, got {M!r}")
        return LatticeSpec(
            M=M,
            x0=float(obj["x0"]),
            h=float(obj["h"]),
            mass=float(obj["mass"]),
            v0=np.array(obj["v0"], dtype=float),
            v1=np.array(obj["v1"], dtype=float),
            bc=obj.get("bc", "dirichlet"),
        )
    except KeyError as exc:
        raise ModelParseError(f"lattice file missing key {exc}") from exc


@dataclass
class LatticeSystem:
    """Lattice spec plus its compiled spectral model and position basis.

    ``basis[n, g]`` is the wavefunction of eigenstate g at grid point n,
    normalized under the lattice inner product sum_n h * psi* phi.
    """

    spec: LatticeSpec
    model: SpectralModel
    basis: np.ndarray
    _full_cache: dict = field(default_factory=dict, repr=False)


def base_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """-(1/2m) second difference with Dirichlet walls, plus diag(v0)."""
    k = 1.0 / (2.0 * spec.mass * spec.h**2)
    h0 = np.diag(2.0 * k + spec.v0) + np.diag(np.full(spec.M - 1, -k), 1) + np.diag(
        np.full(spec.M - 1, -k), -1
    )
    return h0


def build_lattice(spec: LatticeSpec) -> LatticeSystem:
    """Diagonalize the base lattice Hamiltonian and rotate the perturbing
    potential into its eigenbasis."""
    dec = hermitian_eigendecomposition(base_hamiltonian(spec))
    vectors = np.real_if_close(dec.vectors, tol=1e6)
    if np.iscomplexobj(vectors):
        vectors = dec.vectors
    basis = vectors / np.sqrt(spec.h)
    gram = spec.h * basis.conj().T @ basis
    if float(np.max(np.abs(gram - np.eye(spec.M)))) > _ORTHO_TOL:
        raise AmplitudeError("eigenbasis failed the lattice orthonormality check")
    h1 = basis.conj().T @ (spec.v1[:, np.newaxis] * basis) * spec.h
    model = SpectralModel(dec.values, h1, label="lattice")
    return LatticeSystem(spec=spec, model=model, basis=np.asarray(basis))


def _full_decomposition(sys: LatticeSystem):
    key = "full"
    if key not in sys._full_cache:
        h = base_hamiltonian(sys.spec) + np.diag(sys.spec.v1)
        sys._full_cache[key] = hermitian_eigendecomposition(h)
    return sys._full_cache[key]


def _eigen_amplitude(psi, energies, xb: int, tb: float, xa: int, ta: float) -> complex:
    """<x_b| e^{-iH(tb-ta)} |x_a> from eigenvalues and lattice-normalized
    eigenfunctions psi[n, g] of H."""
    if tb < ta:
        raise AmplitudeError("tb must be >= ta")
    phases = np.exp(-1j * energies * (tb - ta))
    return complex(np.sum(psi[xb, :] * phases * np.conj(psi[xa, :])))


def k0_amplitude(sys: LatticeSystem, xb: int, tb: float, xa: int, ta: float) -> complex:
    """Unperturbed amplitude <x_b| e^{-i H0 (tb-ta)} |x_a> on the lattice."""
    return _eigen_amplitude(sys.basis, sys.model.energies, xb, tb, xa, ta)


def k_exact(sys: LatticeSystem, xb: int, tb: float, xa: int, ta: float) -> complex:
    """Exact amplitude of the full lattice Hamiltonian (oracle eigensolve)."""
    dec = _full_decomposition(sys)
    return _eigen_amplitude(dec.vectors / np.sqrt(sys.spec.h), dec.values, xb, tb, xa, ta)


def k_truncated_direct(
    sys: LatticeSystem, spec: TruncationSpec, xb: int, tb: float, xa: int, ta: float
) -> complex:
    """Position sandwich of the divided-difference truncated evolution; the
    numerically stable reference for the kernel relation."""
    if tb <= ta:
        raise AmplitudeError("tb must be > ta")
    u = truncated_evolution(sys.model, spec, tb - ta).entries
    psi = sys.basis
    return complex(psi[xb, :] @ u @ np.conj(psi[xa, :]))


def c_kernel_matrix(
    sys: LatticeSystem,
    spec: TruncationSpec,
    eps: float,
    xb: int,
    xa: int,
    sign="+",
) -> np.ndarray:
    """Kernels C_m(x_b, y_b; x_a, y_a) for fixed endpoints, as an
    (N+1) x M x M array over (m, y_b, y_a).

    Node m of each index tuple is shifted to E - i*sgn*m*eps, the graded
    shifts of ``propagator._graded_chains``; the partial fraction of node m
    goes into C_m, and ``k_via_relation`` supplies its factor
    e^{-sgn*m*eps*t}.  The |Phi_g><Phi_g| weight at position m is
    (left[m] @ psi[x_b])[g] * (right[N-m] @ psi*[x_a])[g].
    """
    if isinstance(spec, int):
        spec = TruncationSpec(spec)
    if not eps > 0:
        raise AmplitudeError(f"eps must be positive, got {eps}")
    _, left, right = _graded_chains(sys.model, spec.N, eps, normalize_sign(sign))
    psi = sys.basis
    weight = (left @ psi[xb, :]) * (right[::-1] @ np.conj(psi[xa, :]))
    return (np.conj(psi) * weight[:, np.newaxis, :]) @ psi.T


def k_via_relation(
    sys: LatticeSystem,
    spec: TruncationSpec,
    eps: float,
    xb: int,
    tb: float,
    xa: int,
    ta: float,
    sign="+",
) -> complex:
    """Amplitude assembled from the kernels: sum over positions m of
    e^{-sgn*m*eps*(t_b - t_a)} times the h^2-weighted double grid sum of
    C_m(x_b, y_b; x_a, y_a) * K0(y_b, t_b; y_a, t_a)."""
    if tb <= ta:
        raise AmplitudeError("tb must be > ta")
    c = c_kernel_matrix(sys, spec, eps, xb, xa, sign)
    psi = sys.basis
    phases = np.exp(-1j * sys.model.energies * (tb - ta))
    k0 = (psi * phases[np.newaxis, :]) @ psi.conj().T  # K0[yb, ya]
    damping = np.exp(-normalize_sign(sign) * eps * (tb - ta) * np.arange(c.shape[0]))
    return complex(sys.spec.h**2 * np.sum(damping * np.sum(c * k0, axis=(1, 2))))


def k_via_relation_extrapolated(
    sys: LatticeSystem,
    spec: TruncationSpec,
    eps_values,
    xb: int,
    tb: float,
    xa: int,
    ta: float,
    sign="+",
) -> complex:
    """Richardson (Neville) extrapolation of ``k_via_relation`` to eps = 0."""
    samples = [
        k_via_relation(sys, spec, eps, xb, tb, xa, ta, sign) for eps in eps_values
    ]
    return complex(richardson_limit(eps_values, samples))
