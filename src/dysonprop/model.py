"""Spectral models: unperturbed spectrum plus a Hermitian perturbing matrix.

A model carries the eigenvalues of the solvable part of the Hamiltonian
(the working basis is its eigenbasis, i.e. the standard basis) together
with the matrix elements of the perturbation in that basis.  Every other
module consumes these two ingredients and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Levels closer than this (absolute, energy units) count as coincident in
#: ``SpectralModel.nondegenerate``; no computation path depends on it.
DEGENERACY_TOL = 1e-9

_HERMITICITY_RTOL = 1e-12


class ModelError(ValueError):
    """Base class for model construction failures."""


class ModelParseError(ModelError):
    """Malformed model file."""


class ModelValidationError(ModelError):
    """Structurally valid file describing an invalid model."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SpectralModel:
    """Unperturbed eigenvalues plus the perturbation in the eigenbasis.

    ``h1`` is symmetrized on construction, so the stored matrix is exactly
    Hermitian; inputs are rejected if they deviate by more than 1e-12
    (relative).  Instances are immutable and safe to share across threads.
    """

    energies: np.ndarray
    h1: np.ndarray
    label: str = ""

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        if energies.ndim != 1 or energies.size < 1:
            raise ModelValidationError("energies must be a non-empty 1-d real array")
        if not np.all(np.isfinite(energies)):
            raise ModelValidationError("energies must be finite")
        d = energies.size
        h1 = np.asarray(self.h1, dtype=complex)
        if h1.shape != (d, d):
            raise ModelValidationError(
                f"h1 shape {h1.shape} does not match dimension {d}"
            )
        if not np.all(np.isfinite(h1)):
            raise ModelValidationError("h1 entries must be finite")
        scale = max(1.0, float(np.max(np.abs(h1))) if h1.size else 1.0)
        residual = float(np.max(np.abs(h1 - h1.conj().T))) if h1.size else 0.0
        if residual > _HERMITICITY_RTOL * scale:
            raise ModelValidationError(
                f"h1 is not Hermitian (residual {residual:.3e}, scale {scale:.3e})"
            )
        h1 = (h1 + h1.conj().T) / 2  # exact Hermiticity from here on
        energies.flags.writeable = False
        h1.flags.writeable = False
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "h1", h1)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def min_gap(self) -> float:
        if self.dim < 2:
            return float("inf")
        e = np.sort(self.energies)
        return float(np.min(np.diff(e)))

    @property
    def nondegenerate(self) -> bool:
        return self.min_gap > DEGENERACY_TOL


def hamiltonian(model: SpectralModel) -> np.ndarray:
    """The full Hamiltonian diag(energies) + h1 as a dense matrix."""
    return np.diag(model.energies.astype(complex)) + model.h1


def load_model(text: str) -> SpectralModel:
    """Parse the model file format (JSON object, see ``emit_model``)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"invalid model file: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelParseError("model file must contain a top-level object")
    try:
        dim = obj["dim"]
        energies = obj["energies"]
        h1_pairs = obj["h1"]
    except KeyError as exc:
        raise ModelParseError(f"model file missing key {exc}") from exc
    label = obj.get("label", "")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelValidationError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(energies, list):
        raise ModelValidationError(f"energies must be a list, got {energies!r}")
    if len(energies) != dim:
        raise ModelValidationError(
            f"energies has length {len(energies)}, expected {dim}"
        )
    if (not isinstance(h1_pairs, list) or len(h1_pairs) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in h1_pairs)):
        raise ModelValidationError("h1 must be a dim x dim array")
    try:
        # unpacking refuses entries of any length but 2
        h1 = np.array([[complex(re, im) for re, im in row] for row in h1_pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ModelParseError("h1 entries must be [re, im] pairs") from exc
    return SpectralModel(np.array(energies, dtype=float), h1, label=str(label))


def emit_model(model: SpectralModel) -> str:
    """Serialize a model with 17-significant-digit (round-trip exact) numbers."""
    energies = ", ".join(_fmt(e) for e in model.energies)
    rows = []
    for row in model.h1:
        rows.append("[" + ", ".join(f"[{_fmt(c.real)}, {_fmt(c.imag)}]" for c in row) + "]")
    h1 = ",\n    ".join(rows)
    return (
        "{\n"
        f'  "dim": {model.dim},\n'
        f'  "energies": [{energies}],\n'
        f'  "h1": [\n    {h1}\n  ],\n'
        f'  "label": {json.dumps(model.label)}\n'
        "}\n"
    )


def random_model(dim: int, seed: int, lam: float = 1.0) -> SpectralModel:
    """Deterministic random model: sorted energies with gaps >= 0.05 and a
    random Hermitian perturbation with entry magnitudes <= ``lam``."""
    if dim < 1:
        raise ModelValidationError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1.0, 1.0)
    gaps = 0.05 + rng.uniform(0.0, 0.95, size=dim - 1)
    energies = start + np.concatenate(([0.0], np.cumsum(gaps)))
    a = rng.uniform(-1.0, 1.0, size=(dim, dim)) + 1j * rng.uniform(-1.0, 1.0, size=(dim, dim))
    h1 = (a + a.conj().T) / 2
    peak = float(np.max(np.abs(h1)))
    if peak > 1.0:
        h1 /= peak
    h1 *= lam
    return SpectralModel(energies, h1, label=f"random(dim={dim}, seed={seed}, lam={lam})")


def scale_coupling(model: SpectralModel, lam: float) -> SpectralModel:
    """Copy of ``model`` with the perturbation multiplied by ``lam`` >= 0."""
    lam = float(lam)
    if not lam >= 0:
        raise ModelValidationError(f"coupling scale must be >= 0, got {lam}")
    return SpectralModel(model.energies.copy(), model.h1 * lam, label=model.label)


def two_level_model(omega: float = 1.0, v: float = 1.0) -> SpectralModel:
    """The standard two-level test system: energies (0, omega), off-diagonal v."""
    return SpectralModel(
        np.array([0.0, float(omega)]),
        np.array([[0.0, v], [np.conjugate(v), 0.0]], dtype=complex),
        label=f"two-level(omega={omega}, v={v})",
    )
