"""Perturbation-series propagators, Green operators, and lattice transition
amplitudes, with divided-difference evaluation and independent oracles."""

from .amplitude import (
    LatticeSpec,
    LatticeSystem,
    build_lattice,
    k0_amplitude,
    k_exact,
    k_truncated_direct,
    k_via_relation,
    load_lattice,
)
from .divdiff import dd_phase, denominator_d, identity_suite
from .green import (
    QuadratureSpec,
    ResolventQuery,
    complete_resolvent_direct,
    dyson_partial,
    forward_fourier,
    inverse_fourier_check,
    timedep_green,
    unperturbed_resolvent,
)
from .model import (
    OperatorMatrix,
    SpectralModel,
    Unresolved,
    emit_model,
    load_model,
    random_model,
    scale_coupling,
    two_level_model,
)
from .oracle import (
    EigenDecomposition,
    dyson_term_quadrature,
    exact_evolution,
    hermitian_eigendecomposition,
    linear_solve,
)
from .propagator import (
    TruncationSpec,
    a_coefficient,
    a_matrix,
    epsilon_form_evolution,
    richardson_limit,
    truncated_evolution,
)

__version__ = "0.1.0"
