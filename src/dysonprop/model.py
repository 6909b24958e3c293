"""Spectral models: unperturbed spectrum plus a Hermitian perturbing matrix.

A model carries the eigenvalues of the solvable part of the Hamiltonian
(the working basis is its eigenbasis, i.e. the standard basis) together
with the matrix elements of the perturbation in that basis.  Every other
module consumes these two ingredients and nothing else.  The operator
matrix every route returns, the errors it raises and its input rules live
here too, so the oracles import nothing from the code they check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_HERMITICITY_RTOL = 1e-12
#: entries of the largest array a route may build, a count of nodes times
#: the entries each one carries: 256 MiB of complex
_MAX_ENTRIES = 2**24


class ModelError(ValueError):
    """A malformed or invalid model file, model or lattice."""


class Unresolved(ValueError):
    """Valid inputs that put a route outside what it can compute: a
    divergent iteration, an unrepresentable scale, a resolution limit."""

    def __init__(self, what: str, reason: str):
        super().__init__(f"{what} cannot be resolved: {reason}")


def _count(n, least: int, refusal: str, error=ValueError) -> int:
    """n as an int when it is an integral number >= least, else ``error``
    "<refusal>, got n"; NaN and inf fail the comparisons before int() runs,
    and a bool is no count."""
    if isinstance(n, (bool, np.bool_)) or not (least <= n < math.inf and int(n) == n):
        raise error(f"{refusal}, got {n}")
    return int(n)


def _check_phase(t, levels) -> float:
    """t as a float; a non-finite t raises ValueError, and Unresolved when |t|
    max|E| over the Python numbers ``levels`` is not below 1/eps_mach = 2^52:
    the phases e^{-iEt} then keep no correct bit.  In Python floats, with no
    numpy call: an overflowing product is inf with no warning."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    t_abs, e_max = abs(t), max(map(abs, levels))
    if not t_abs * e_max * math.ulp(1.0) < 1:
        raise Unresolved("exp(-i t E)", f"|t| = {t_abs:.3e} times max|E| = {e_max:.3e} is "
                         f"not below 1/eps_mach = {1 / math.ulp(1.0):.3e}: no phase keeps a bit")
    return t


def _finite(a: np.ndarray, what: str, error=ValueError) -> np.ndarray:
    """a, when all its entries are finite; else ``error`` naming how many are not and the first."""
    # np.count_nonzero takes a quarter of ndarray.all's time on small arrays
    if np.count_nonzero(np.isfinite(a)) < a.size:
        bad = np.argwhere(~np.isfinite(a))
        raise error(f"{what} must be finite; {len(bad)} non-finite, first at {bad[0].tolist()}")
    return a


def _check_eps(eps):
    """eps itself, when it is a positive and finite regularization."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return eps


class OperatorMatrix:
    """Dense complex matrix, plus what its routine measured on the way
    (``rho`` of ``dyson_partial``, ``residual`` of the direct solve)."""

    __slots__ = ("entries", "params")

    def __init__(self, entries, params=None):
        self.entries = entries = _finite(np.asarray(entries, dtype=complex), "operator entries")
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("operator matrices must be square")
        self.params = {} if params is None else params


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
        energies = _finite(np.asarray(self.energies, dtype=float), "energies", ModelError)
        if energies.ndim != 1 or energies.size < 1:
            raise ModelError("energies must be a non-empty 1-d real array")
        d = energies.size
        h1 = _finite(np.asarray(self.h1, dtype=complex), "h1 entries", ModelError)
        if h1.shape != (d, d):
            raise ModelError(f"h1 shape {h1.shape} does not match dimension {d}")
        scale = max(1.0, float(np.max(np.abs(h1))))
        residual = float(np.max(np.abs(h1 - h1.conj().T)))
        if residual > _HERMITICITY_RTOL * scale:
            raise ModelError(f"h1 is not Hermitian (residual {residual:.3e}, scale {scale:.3e})")
        h1 = (h1 + h1.conj().T) / 2  # exact Hermiticity from here on
        energies.flags.writeable = False
        h1.flags.writeable = False
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "h1", h1)

    @property
    def dim(self) -> int:
        return self.energies.size


def hamiltonian(model: SpectralModel) -> np.ndarray:
    """The full Hamiltonian diag(energies) + h1 as a dense matrix."""
    return np.diag(model.energies.astype(complex)) + model.h1


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _real(key: str, value) -> float:
    """A JSON number of a model or lattice file, as a float."""
    if not _is_real(value):
        raise ModelError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reals(key: str, value) -> np.ndarray:
    """A JSON list of numbers of a model or lattice file, as a float array."""
    if not isinstance(value, list):
        raise ModelError(f"{key} must be a list, got {value!r}")
    if not all(_is_real(x) for x in value):
        raise ModelError(f"{key} entries must be numbers, got {value!r}")
    return np.array(value, dtype=float)


def _json_object(text: str, kind: str, *keys):
    """The top-level object of a JSON ``kind`` file and its required ``keys``."""
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ModelError(f"{kind} file must contain a top-level object")
        return obj, *(obj[key] for key in keys)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid {kind} file: {exc}") from exc
    except KeyError as exc:
        raise ModelError(f"{kind} file missing key {exc}") from exc


def load_model(text: str) -> SpectralModel:
    """Parse the model file format (JSON object, see ``emit_model``)."""
    obj, dim, energies, h1_pairs = _json_object(text, "model", "dim", "energies", "h1")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ModelError(f"label must be a string, got {label!r}")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ModelError(f"dim must be a positive integer, got {dim!r}")
    _count(dim, 1, "dim must be a positive integer", ModelError)
    energies = _reals("energies", energies)
    if len(energies) != dim:
        raise ModelError(f"energies has length {len(energies)}, expected {dim}")
    if (not isinstance(h1_pairs, list) or len(h1_pairs) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in h1_pairs)):
        raise ModelError("h1 must be a dim x dim array")
    try:
        # unpacking refuses entries of any length but 2
        h1 = np.array([[complex(re, im) for re, im in row] for row in h1_pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ModelError("h1 entries must be [re, im] pairs") from exc
    return SpectralModel(energies, h1, label=label)


def emit_model(model: SpectralModel) -> str:
    """Serialize a model, one h1 row per line; floats are written in their
    shortest round-trip form, so ``load_model`` gets the same bits back."""
    h1 = ",\n    ".join(json.dumps([[z.real, z.imag] for z in row]) for row in model.h1.tolist())
    return (
        "{\n"
        f'  "dim": {model.dim},\n'
        f'  "energies": {json.dumps(model.energies.tolist())},\n'
        f'  "h1": [\n    {h1}\n  ],\n'
        f'  "label": {json.dumps(model.label)}\n'
        "}\n"
    )


def _check_coupling(bound: float, what: str) -> None:
    """Refuses, naming the coupling ``what``, a perturbation whose 1-norm
    bound ``bound`` (a Python float, which overflows to inf with no warning)
    is past half the float range; below it the Hermitian part's pair sums,
    the spectrum bound's column sums and H's diagonal stay finite."""
    if not 2 * bound < math.inf:
        raise ModelError(f"{what} puts the perturbation's 1-norm bound, {bound:.3e}, "
                         "past half the float range")


def random_model(dim: int, seed: int, lam: float = 1.0) -> SpectralModel:
    """Deterministic random model: sorted energies with gaps >= 0.05 and a
    random Hermitian perturbation with entry magnitudes <= ``lam``.  A dim
    whose d x d arrays pass _MAX_ENTRIES, or a lam past the float range,
    raises ModelError before any array is built."""
    dim = _count(dim, 1, "dim must be a positive integer", ModelError)
    if dim * dim > _MAX_ENTRIES:
        raise ModelError(f"dim {dim} puts the model's {dim} x {dim} arrays past "
                         f"{_MAX_ENTRIES} entries")
    _check_coupling(abs(float(lam)) * dim, f"coupling lambda = {lam}")
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
        raise ModelError(f"coupling scale must be >= 0, got {lam}")
    _check_coupling(lam * float(np.max(np.abs(model.h1))) * model.dim, f"coupling scale {lam}")
    return SpectralModel(model.energies.copy(), model.h1 * lam, label=model.label)


def two_level_model(omega: float = 1.0, v: float = 1.0) -> SpectralModel:
    """The standard two-level test system: energies (0, omega), off-diagonal v."""
    return SpectralModel(
        np.array([0.0, float(omega)]),
        np.array([[0.0, v], [np.conjugate(v), 0.0]], dtype=complex),
        label=f"two-level(omega={omega}, v={v})",
    )
