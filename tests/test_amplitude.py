import json
import re
import tracemalloc

import numpy as np
import pytest

from dysonprop import amplitude
from dysonprop.amplitude import (
    LatticeSpec,
    build_lattice,
    k0_amplitude,
    k_exact,
    k_truncated_direct,
    k_via_relation,
    k_via_relation_extrapolated,
    load_lattice,
)
from dysonprop.model import ModelError
from dysonprop.propagator import (TruncationSpec, _graded_chains, epsilon_form_evolution,
                                  richardson_limit)
from test_propagator import _graded_tuple_sum


def well_spec(lam, m=6, h=0.5):
    v1 = -lam * np.exp(-0.5 * (np.arange(m) - (m - 1) / 2.0) ** 2)
    return LatticeSpec(M=m, h=h, mass=1.0, v0=np.zeros(m), v1=v1)


def test_spec_validation():
    with pytest.raises(ModelError):
        LatticeSpec(M=1, h=0.5, mass=1.0, v0=np.zeros(1), v1=np.zeros(1))
    with pytest.raises(ModelError):
        LatticeSpec(M=4, h=-0.5, mass=1.0, v0=np.zeros(4), v1=np.zeros(4))
    with pytest.raises(ModelError):
        LatticeSpec(M=4, h=0.5, mass=1.0, v0=np.zeros(3), v1=np.zeros(4))


@pytest.mark.parametrize("h, mass", [(1e-200, 1.0), (1e200, 1.0), (np.inf, 1.0), (np.nan, 1.0),
                                     (-0.5, 1.0), (0.5, np.inf), (0.5, 0.0), (0.5, -1.0),
                                     (1e-150, 1e-10)])
def test_spec_refuses_a_grid_it_cannot_build(h, mass):
    # h = 1e-200 divided by zero and 1e200 overflowed in base_hamiltonian,
    # h = inf warned there, and mass = inf was accepted: each hopping
    # 1/(2 mass h^2) that is not a positive finite float is refused
    with pytest.raises(ModelError, match=re.escape("need h > 0 and a positive finite hopping "
                                                   f"1/(2 mass h^2), got h = {h} and mass = {mass}")):
        LatticeSpec(M=4, h=h, mass=mass, v0=np.zeros(4), v1=np.zeros(4))
    # hoppings near either end of the float range are kept
    for h, mass in ((1e-154, 1.0), (1e150, 1e-10)):
        LatticeSpec(4, h, mass, np.zeros(4), np.zeros(4))


def test_spec_refuses_a_grid_past_the_entry_bound():
    # M = 4097 puts the M x M arrays of build_lattice past 2^24 entries: refused
    # by the spec, before any of them is built; M = 4096 is kept
    with pytest.raises(ModelError, match=r"^lattice M = 4097 puts its 4097 x 4097 arrays past "
                                         r"16777216 entries$"):
        LatticeSpec(4097, 0.5, 1.0, np.zeros(4097), np.zeros(4097))
    assert LatticeSpec(4096, 0.5, 1.0, np.zeros(4096), np.zeros(4096)).M == 4096


def test_spec_refuses_non_finite_potentials():
    for v0, v1, first in (([0, np.nan, 0, 0], np.zeros(4), 1), (np.zeros(4), [0, 0, np.inf, 0], 2)):
        with pytest.raises(ModelError, match=rf"^potentials must be finite; 1 non-finite, "
                                             rf"first at \[{first}\]$"):
            LatticeSpec(M=4, h=0.5, mass=1.0, v0=v0, v1=v1)


def test_load_lattice_roundtrip():
    text = ('{"M": 4, "x0": -1.0, "h": 0.5, "mass": 2.0, '
            '"v0": [0,0,0,0], "v1": [0.1,0.2,0.2,0.1]}')
    spec = load_lattice(text)
    assert spec.M == 4 and spec.mass == 2.0
    with pytest.raises(ModelError):
        load_lattice("{bad")
    with pytest.raises(ModelError):
        load_lattice('{"M": 4}')


def test_load_lattice_rejects_fractional_point_count():
    text = ('{"M": 6.7, "x0": 0.0, "h": 0.5, "mass": 1.0, '
            '"v0": [0, 0, 0, 0, 0, 0], "v1": [0, 0, 0, 0, 0, 0]}')
    with pytest.raises(ModelError, match="lattice M must be an integer, got 6.7"):
        load_lattice(text)


def test_load_lattice_rejects_top_level_array():
    with pytest.raises(ModelError, match="lattice file must contain a top-level object"):
        load_lattice('[{"M": 4}]')


def _lattice_text(**override):
    obj = {"M": 4, "x0": 0.0, "h": 0.5, "mass": 1.0, "v0": [0, 0, 0, 0], "v1": [0, 0, 0, 0]}
    return json.dumps({**obj, **override})


def test_load_lattice_ignores_origin_and_keeps_dirichlet_walls():
    # no amplitude depends on the grid origin; the walls have one legal kind
    def fields(text):
        spec = load_lattice(text)
        return spec.M, spec.h, spec.mass, spec.v0.tolist(), spec.v1.tolist()

    plain = json.loads(_lattice_text())
    del plain["x0"]
    want = fields(json.dumps(plain))
    assert fields(_lattice_text(x0=-1.0)) == want
    assert fields(_lattice_text(bc="dirichlet")) == want
    with pytest.raises(ModelError, match="unsupported boundary condition 'periodic'"):
        load_lattice(_lattice_text(bc="periodic"))


def test_load_lattice_rejects_non_numeric_potential():
    with pytest.raises(ModelError, match="v0 must be a list, got 'ab'"):
        load_lattice(_lattice_text(v0="ab"))
    with pytest.raises(ModelError, match=r"v1 entries must be numbers"):
        load_lattice(_lattice_text(v1=[0, "1", 0, 0]))


def test_free_spectrum_closed_form():
    m, h, mass = 8, 0.5, 1.0
    sys_ = build_lattice(LatticeSpec(M=m, h=h, mass=mass, v0=np.zeros(m), v1=np.zeros(m)))
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


def c_kernel_matrix(sys, spec, eps, xb, xa):
    """Kernels C_m(x_b, y_b; x_a, y_a) for grid indices x_b, x_a, as an
    (N+1) x M x M array over (m, y_b, y_a): the explicit kernel that
    ``k_via_relation`` sums level by level without forming it.

    Node m of each index tuple is shifted to E - i*m*eps, the retarded
    graded shifts of ``propagator._graded_chains``; the partial fraction of
    node m goes into C_m, and the relation supplies its factor e^{-m*eps*t}.
    C_m = sum_g psi*(y_b, g) w[m, g] psi(y_a, g), weighted by the chains:
    w[m, g] = (left[m, g] . psi[x_b]) * (right[m, g] . psi*[x_a]).
    """
    _, left, right = _graded_chains(sys.model, spec, eps, 1)
    psi = sys.basis
    weight = (left @ psi[xb]) * (right @ np.conj(psi[xa]))
    return (np.conj(psi) * weight[:, np.newaxis, :]) @ psi.T


def test_c_kernel_scalar_consistent_with_matrix():
    # one kernel value C_m(x_b, y_b; x_a, y_a) as a scalar sum over levels g
    sys_ = build_lattice(well_spec(0.2))
    spec = TruncationSpec(1)
    mat = c_kernel_matrix(sys_, spec, 1e-2, 1, 2)
    assert mat.shape == (spec.N + 1, sys_.spec.M, sys_.spec.M)
    _, left, right = _graded_chains(sys_.model, spec.N, 1e-2, 1)
    psi = sys_.basis
    for m in range(spec.N + 1):
        want = sum((left[m, g] @ psi[1]) * (right[m, g] @ np.conj(psi[2]))
                   * np.conj(psi[3, g]) * psi[4, g] for g in range(sys_.spec.M))
        assert mat[m, 3, 4] == pytest.approx(want, abs=1e-13)


def test_c_kernel_matches_tuple_sum():
    # the |Phi_g><Phi_g| weight of position m, summed tuple by tuple
    sys_ = build_lattice(well_spec(0.2))
    psi = sys_.basis
    for N in (1, 2):
        ref = _graded_tuple_sum(sys_.model, N, 2.5e-3, 1)
        for xb, xa in ((0, 0), (1, 4), (5, 2)):
            weight = np.einsum("a,mgab,b->mg", psi[xb], ref, np.conj(psi[xa]))
            want = (np.conj(psi) * weight[:, np.newaxis, :]) @ psi.T
            got = c_kernel_matrix(sys_, N, 2.5e-3, xb, xa)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_time_ordering_guards():
    sys_ = build_lattice(well_spec(0.2))
    with pytest.raises(ValueError):
        k0_amplitude(sys_, 0, 0.0, 1, 1.0)
    with pytest.raises(ValueError):
        k_truncated_direct(sys_, TruncationSpec(1), 0, 1.0, 1, 1.0)
    # every comparison with NaN is False: a guard must not let it through as
    # nan+nanj, or as a phase refusal
    routes = [(k0_amplitude, "tb must be >= ta"), (k_exact, "tb must be >= ta"),
              (lambda s, *a: k_truncated_direct(s, TruncationSpec(1), *a), "tb must be > ta"),
              (lambda s, *a: k_via_relation(s, TruncationSpec(1), 1e-2, *a), "tb must be > ta")]
    for route, message in routes:
        for xb, xa in ((3, 2), (slice(None), slice(None))):
            for tb, ta in ((np.nan, 0.0), (1.0, np.nan)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    route(sys_, xb, tb, xa, ta)


EVERY = slice(None)

#: each lattice route as a function of (system, x_b, x_a), t_b = 1, t_a = 0
ROUTES = {
    "k0_amplitude": lambda s, b, a: k0_amplitude(s, b, 1.0, a, 0.0),
    "k_exact": lambda s, b, a: k_exact(s, b, 1.0, a, 0.0),
    "k_truncated_direct": lambda s, b, a: k_truncated_direct(s, TruncationSpec(2), b, 1.0, a, 0.0),
    "k_via_relation": lambda s, b, a: k_via_relation(s, TruncationSpec(2), 1e-2, b, 1.0, a, 0.0),
    "k_via_relation_extrapolated": lambda s, b, a: k_via_relation_extrapolated(
        s, TruncationSpec(2), [1e-2, 5e-3, 2.5e-3], b, 1.0, a, 0.0),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_endpoints_must_be_grid_indices(route):
    # -1 silently gave the amplitude at x = M - 1, M a bare IndexError, and
    # True or slice(1, 3) returned arrays
    sys_ = build_lattice(well_spec(0.2))
    call = ROUTES[route]
    assert np.array_equal(call(sys_, np.int64(5), np.int64(0)), call(sys_, 5, 0))
    for bad in [-1, 6, 2.0, True, "1", None, slice(1, 3), [0, 1]]:
        for xb, xa in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=f"^endpoint {re.escape(repr(bad))} is not "
                                                 "a grid index 0 <= x < 6$"):
                call(sys_, xb, xa)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_all_pairs_matrix_equals_per_pair_calls(route):
    sys_ = build_lattice(well_spec(0.2))
    call = ROUTES[route]
    matrix = call(sys_, EVERY, EVERY)
    assert matrix.shape == (6, 6)
    for b in range(6):
        for a in range(6):
            got = call(sys_, b, a)
            assert type(got) is complex  # JSON-ready, not a numpy scalar
            assert got == matrix[b, a]


@pytest.mark.parametrize("N", [0, 1, 2])
def test_relation_equals_kernel_grid_sum(N):
    # the level-by-level sum against h^2 sum_{y_b, y_a} C_m K0 over c_kernel_matrix
    sys_ = build_lattice(well_spec(0.3))
    eps, m = 1e-2, sys_.spec.M
    k0 = k0_amplitude(sys_, EVERY, 1.0, EVERY, 0.0)
    damping = np.exp(-eps * 1.0 * np.arange(N + 1))
    want = np.array([[sys_.spec.h**2 * np.sum(
        damping * np.sum(c_kernel_matrix(sys_, N, eps, b, a) * k0, axis=(1, 2)))
        for a in range(m)] for b in range(m)])
    got = k_via_relation(sys_, N, eps, EVERY, 1.0, EVERY, 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("m", [6, 12, 48])
def test_relation_is_the_retarded_epsilon_form(lam, m):
    # h^2 G[g] = e^{-i E_g t}, so the damped kernel relation is the retarded
    # eps-form sandwiched in the lattice basis: psi U_eps psi^dagger
    sys_ = build_lattice(well_spec(lam, m=m))
    psi = sys_.basis
    for N in range(4):
        for eps in (1e-2, 1.25e-3):
            _, left, right = _graded_chains(sys_.model, N, eps, 1)
            term = np.max(np.abs(left), axis=2) * np.max(np.abs(right), axis=2)
            for t in (0.5, 1.0, 3.0):
                u = epsilon_form_evolution(sys_.model, N, t, eps, "+").entries
                got = k_via_relation(sys_, N, eps, EVERY, t, EVERY, 0.0)
                err = np.max(np.abs(got - psi @ u @ psi.conj().T))
                assert err <= 1e-13 * np.max(term) / sys_.spec.h


@pytest.mark.parametrize("ladder", [[1e-2, 5e-3, 2.5e-3], [1e-2, 5e-3, 2.5e-3, 1.25e-3],
                                    [3e-3]])
def test_extrapolation_over_one_ladder_call_equals_one_relation_per_eps(ladder):
    # the per-eps loop the ladder axis replaced, kept as the reference, bit for bit
    for lam, m, h in ((0.1, 6, 0.5), (0.4, 5, 0.3), (0.2, 9, 0.8)):
        sys_ = build_lattice(well_spec(lam, m=m, h=h))
        for N in range(4):
            for t in (0.4, 1.0, 3.0):
                level = amplitude._level_sums(sys_, t)
                samples = [amplitude._relation(sys_, N, eps, t, level) for eps in ladder]
                want = richardson_limit(ladder, samples)
                got = k_via_relation_extrapolated(sys_, N, ladder, EVERY, t, EVERY, 0.0)
                assert got.tobytes() == want.tobytes()


def test_extrapolation_checks_every_eps_of_its_ladder():
    sys_ = build_lattice(well_spec(0.2))
    for bad in (0.0, -1e-3, np.nan, np.inf):
        for ladder in ([bad, 5e-3, 2.5e-3], [1e-2, 5e-3, bad]):
            with pytest.raises(ValueError, match=f"^eps must be positive and finite, got {bad}$"):
                k_via_relation_extrapolated(sys_, 2, ladder, EVERY, 1.0, EVERY, 0.0)
    with pytest.raises(ValueError, match="^need one sample per eps value$"):
        k_via_relation_extrapolated(sys_, 2, [], EVERY, 1.0, EVERY, 0.0)


def test_relation_for_all_pairs_forms_no_kernel_array():
    # at M = 48 the (N+1) M^4 kernels of every pair would take 255 MB
    sys_ = build_lattice(well_spec(0.1, m=48, h=0.25))
    tracemalloc.start()
    try:
        k_via_relation(sys_, TruncationSpec(2), 1e-2, EVERY, 1.0, EVERY, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_lattice_system_is_frozen():
    # its fields and the oracle's decomposition, before and after it is taken
    sys_ = build_lattice(well_spec(0.2))
    for _ in range(2):
        for name in ("model", "basis", "full"):
            with pytest.raises(AttributeError):
                setattr(sys_, name, None)
        k_exact(sys_, 0, 1.0, 0, 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.2])
def test_k_exact_decomposes_h0_plus_v1_once_with_the_oracle(monkeypatch, lam):
    # H0's basis comes from eigh; the oracle decomposes H = H0 + diag(v1)
    # itself, also for a free lattice, and never H0 alone: on the first
    # k_exact, not in build_lattice, and once for all later calls
    calls = []
    real = amplitude.hermitian_eigendecomposition
    monkeypatch.setattr(amplitude, "hermitian_eigendecomposition",
                        lambda a: calls.append(a) or real(a))
    spec = well_spec(lam)
    sys_ = build_lattice(spec)
    assert not calls
    first = k_exact(sys_, EVERY, 1.0, EVERY, 0.0)
    assert len(calls) == 1
    assert np.array_equal(calls[0], amplitude.base_hamiltonian(spec) + np.diag(spec.v1))
    assert np.array_equal(k_exact(sys_, EVERY, 1.0, EVERY, 0.0), first)
    assert len(calls) == 1


@pytest.mark.parametrize("m", [6, 12, 48])
def test_eigh_levels_match_the_jacobi_levels(m):
    # production's eigh and the Jacobi oracle decompose the same H0
    # independently: each checks the other, relative to the top level (the
    # lowest level at M = 48 differs by 6e-14 of itself)
    spec = well_spec(0.2, m=m, h=0.25 if m == 48 else 0.5)
    levels = build_lattice(spec).model.energies
    want = amplitude.hermitian_eigendecomposition(amplitude.base_hamiltonian(spec)).values
    assert np.max(np.abs(levels - want)) <= 1e-13 * np.max(np.abs(want))


def test_free_lattice_full_basis_equals_a_second_solve():
    spec = well_spec(0.0)
    basis, energies = build_lattice(spec).full
    full = amplitude.hermitian_eigendecomposition(
        amplitude.base_hamiltonian(spec) + np.diag(spec.v1))
    assert np.array_equal(energies, full.values)
    assert np.array_equal(basis, full.vectors / np.sqrt(spec.h))
