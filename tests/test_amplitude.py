import numpy as np
import pytest

from dysonprop.amplitude import (
    AmplitudeError,
    LatticeSpec,
    build_lattice,
    c_kernel_matrix,
    k0_amplitude,
    k_exact,
    k_truncated_direct,
    k_via_relation,
    k_via_relation_extrapolated,
    load_lattice,
)
from dysonprop.model import ModelParseError, ModelValidationError
from dysonprop.propagator import TruncationSpec, _graded_chains
from test_propagator import _graded_tuple_sum


def well_spec(lam, m=6, h=0.5):
    v1 = -lam * np.exp(-0.5 * (np.arange(m) - (m - 1) / 2.0) ** 2)
    return LatticeSpec(M=m, x0=0.0, h=h, mass=1.0, v0=np.zeros(m), v1=v1)


def test_spec_validation():
    with pytest.raises(AmplitudeError):
        LatticeSpec(M=1, x0=0.0, h=0.5, mass=1.0, v0=np.zeros(1), v1=np.zeros(1))
    with pytest.raises(AmplitudeError):
        LatticeSpec(M=4, x0=0.0, h=-0.5, mass=1.0, v0=np.zeros(4), v1=np.zeros(4))
    with pytest.raises(AmplitudeError):
        LatticeSpec(M=4, x0=0.0, h=0.5, mass=1.0, v0=np.zeros(3), v1=np.zeros(4))


def test_load_lattice_roundtrip():
    text = ('{"M": 4, "x0": -1.0, "h": 0.5, "mass": 2.0, '
            '"v0": [0,0,0,0], "v1": [0.1,0.2,0.2,0.1]}')
    spec = load_lattice(text)
    assert spec.M == 4 and spec.mass == 2.0
    assert np.allclose(spec.xs, [-1.0, -0.5, 0.0, 0.5])
    with pytest.raises(ModelParseError):
        load_lattice("{bad")
    with pytest.raises(ModelParseError):
        load_lattice('{"M": 4}')


def test_load_lattice_rejects_fractional_point_count():
    text = ('{"M": 6.7, "x0": 0.0, "h": 0.5, "mass": 1.0, '
            '"v0": [0, 0, 0, 0, 0, 0], "v1": [0, 0, 0, 0, 0, 0]}')
    with pytest.raises(ModelValidationError, match="lattice M must be an integer, got 6.7"):
        load_lattice(text)


def test_load_lattice_rejects_top_level_array():
    with pytest.raises(ModelParseError, match="lattice file must contain a top-level object"):
        load_lattice('[{"M": 4}]')


def test_free_spectrum_closed_form():
    m, h, mass = 8, 0.5, 1.0
    sys_ = build_lattice(LatticeSpec(M=m, x0=0.0, h=h, mass=mass,
                                     v0=np.zeros(m), v1=np.zeros(m)))
    k = np.arange(1, m + 1)
    want = np.sort((1.0 - np.cos(k * np.pi / (m + 1))) / (mass * h * h))
    assert np.allclose(sys_.model.energies, want, atol=1e-12)
    assert np.max(np.abs(sys_.model.h1)) == 0.0


def test_basis_orthonormal_under_lattice_inner_product():
    sys_ = build_lattice(well_spec(0.3))
    gram = sys_.spec.h * sys_.basis.conj().T @ sys_.basis
    assert np.max(np.abs(gram - np.eye(sys_.spec.M))) <= 1e-10


def test_equal_time_delta():
    sys_ = build_lattice(well_spec(0.2))
    h = sys_.spec.h
    for b in range(sys_.spec.M):
        for a in range(sys_.spec.M):
            want = (1.0 / h) if a == b else 0.0
            assert k0_amplitude(sys_, b, 1.0, a, 1.0) == pytest.approx(want, abs=1e-10)
            assert k_exact(sys_, b, 1.0, a, 1.0) == pytest.approx(want, abs=1e-10)


def test_unitarity_row():
    sys_ = build_lattice(well_spec(0.2))
    m, h = sys_.spec.M, sys_.spec.h
    for a in range(m):
        for b in range(m):
            total = h * sum(
                k0_amplitude(sys_, n, 1.0, a, 0.0)
                * np.conj(k0_amplitude(sys_, n, 1.0, b, 0.0))
                for n in range(m))
            want = (1.0 / h) if a == b else 0.0
            assert total == pytest.approx(want, abs=1e-10)


def test_semigroup_composition():
    sys_ = build_lattice(well_spec(0.0))
    m, h = sys_.spec.M, sys_.spec.h
    for b in (0, 3):
        for a in (2, 5):
            direct = k0_amplitude(sys_, b, 2.0, a, 0.0)
            composed = h * sum(
                k0_amplitude(sys_, b, 2.0, y, 0.7) * k0_amplitude(sys_, y, 0.7, a, 0.0)
                for y in range(m))
            assert composed == pytest.approx(direct, abs=1e-10)


def test_amplitude_endpoint_symmetry():
    # real symmetric H makes e^{-iHt} complex symmetric, so swapping the
    # endpoints at fixed times leaves the amplitude unchanged; conjugation
    # additionally requires reversing the time difference
    sys_ = build_lattice(well_spec(0.3))
    spec = TruncationSpec(2)
    for b in range(3):
        for a in range(3, 6):
            assert k_exact(sys_, b, 1.0, a, 0.0) == pytest.approx(
                k_exact(sys_, a, 1.0, b, 0.0), abs=1e-12)
            assert k_truncated_direct(sys_, spec, b, 1.0, a, 0.0) == pytest.approx(
                k_truncated_direct(sys_, spec, a, 1.0, b, 0.0), abs=1e-12)


def test_free_reduction_all_routes():
    sys_ = build_lattice(well_spec(0.0))
    spec = TruncationSpec(2)
    for b in range(sys_.spec.M):
        for a in range(sys_.spec.M):
            k0 = k0_amplitude(sys_, b, 1.0, a, 0.0)
            assert k_exact(sys_, b, 1.0, a, 0.0) == pytest.approx(k0, abs=1e-12)
            assert k_truncated_direct(sys_, spec, b, 1.0, a, 0.0) == pytest.approx(
                k0, abs=1e-12)
            assert k_via_relation(sys_, spec, 1e-3, b, 1.0, a, 0.0) == pytest.approx(
                k0, abs=1e-12)


def test_order_zero_relation_is_free():
    sys_ = build_lattice(well_spec(0.4))
    for b in (1, 4):
        for a in (0, 3):
            got = k_via_relation(sys_, TruncationSpec(0), 1e-3, b, 1.0, a, 0.0)
            assert got == pytest.approx(k0_amplitude(sys_, b, 1.0, a, 0.0), abs=1e-12)


def test_direct_truncation_lambda_order():
    spec = TruncationSpec(2)
    errs = []
    for lam in (0.1, 0.05):
        sys_ = build_lattice(well_spec(lam))
        errs.append(max(
            abs(k_truncated_direct(sys_, spec, b, 1.0, a, 0.0)
                - k_exact(sys_, b, 1.0, a, 0.0))
            for b in range(6) for a in range(6)))
    ratio = errs[0] / errs[1]
    assert abs(ratio / 8.0 - 1.0) <= 0.25


def test_relation_vs_direct_gap_structure():
    # The kernel relation evaluates each tuple's divided difference at nodes
    # shifted by -i*m*eps, damping K0 by e^{-m*eps*t} to match.  The gap to
    # the direct route is therefore (a) proportional to eps, (b) first order
    # in the coupling at order 1, carried by the coincident-energy tuples of
    # the diagonal matrix elements of the perturbation, and (c) removed by
    # the Richardson extrapolation to eps = 0.
    spec = TruncationSpec(1)
    gaps = {}
    for lam in (0.1, 0.05):
        sys_ = build_lattice(well_spec(lam))
        per_eps = []
        for eps in (1e-2, 1e-3):
            per_eps.append(max(
                abs(k_via_relation(sys_, spec, eps, b, 1.0, a, 0.0)
                    - k_truncated_direct(sys_, spec, b, 1.0, a, 0.0))
                for b in range(6) for a in range(6)))
        assert abs(per_eps[0] / per_eps[1] / 10.0 - 1.0) <= 0.05  # linear in eps
        gaps[lam] = per_eps[0]
        extrapolated = max(
            abs(k_via_relation_extrapolated(sys_, spec, [1e-2, 5e-3, 2.5e-3],
                                            b, 1.0, a, 0.0)
                - k_truncated_direct(sys_, spec, b, 1.0, a, 0.0))
            for b in range(6) for a in range(6))
        assert extrapolated <= 1e-8
    assert abs(gaps[0.1] / gaps[0.05] / 2.0 - 1.0) <= 0.05  # first order in coupling


def test_c_kernel_scalar_consistent_with_matrix():
    # one kernel value C_m(x_b, y_b; x_a, y_a) as a scalar sum over levels g
    sys_ = build_lattice(well_spec(0.2))
    spec = TruncationSpec(1)
    mat = c_kernel_matrix(sys_, spec, 1e-2, 1, 2)
    assert mat.shape == (spec.N + 1, sys_.spec.M, sys_.spec.M)
    _, left, right = _graded_chains(sys_.model, spec.N, 1e-2, 1)
    psi = sys_.basis
    for m in range(spec.N + 1):
        want = sum((left[m, g] @ psi[1]) * (right[spec.N - m, g] @ np.conj(psi[2]))
                   * np.conj(psi[3, g]) * psi[4, g] for g in range(sys_.spec.M))
        assert mat[m, 3, 4] == pytest.approx(want, abs=1e-13)


def test_c_kernel_matches_tuple_sum():
    # the |Phi_g><Phi_g| weight of position m, summed tuple by tuple
    sys_ = build_lattice(well_spec(0.2))
    psi = sys_.basis
    for N in (1, 2):
        for sgn in (1, -1):
            ref = _graded_tuple_sum(sys_.model, N, 2.5e-3, sgn)
            for xb, xa in ((0, 0), (1, 4), (5, 2)):
                weight = np.einsum("a,mgab,b->mg", psi[xb], ref, np.conj(psi[xa]))
                want = (np.conj(psi) * weight[:, np.newaxis, :]) @ psi.T
                got = c_kernel_matrix(sys_, N, 2.5e-3, xb, xa, sgn)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_c_kernel_rejects_bad_eps():
    sys_ = build_lattice(well_spec(0.2))
    with pytest.raises(AmplitudeError):
        c_kernel_matrix(sys_, TruncationSpec(1), 0.0, 0, 0)


def test_time_ordering_guards():
    sys_ = build_lattice(well_spec(0.2))
    with pytest.raises(AmplitudeError):
        k0_amplitude(sys_, 0, 0.0, 1, 1.0)
    with pytest.raises(AmplitudeError):
        k_truncated_direct(sys_, TruncationSpec(1), 0, 1.0, 1, 1.0)
