import functools
import json
import re
import tracemalloc

import numpy as np
import pytest

from dysonprop.amplitude import (
    LatticeSpec,
    build_lattice,
    k0_amplitude,
    k_exact,
    k_truncated_direct,
    k_via_relation,
    load_lattice,
)
from dysonprop.divdiff import dd_phase
from dysonprop.green import QuadratureSpec, ResolventQuery, forward_fourier, timedep_green
from dysonprop.model import (
    ModelError,
    OperatorMatrix,
    SpectralModel,
    Unresolved,
    emit_model,
    load_model,
    random_model,
    scale_coupling,
    two_level_model,
)
from dysonprop.oracle import (dyson_term_quadrature, exact_evolution, gauss_legendre,
                              hermitian_eigendecomposition, linear_solve)
from dysonprop.propagator import a_coefficient, a_matrix, epsilon_form_evolution, richardson_limit


def test_two_level_shape():
    m = two_level_model(1.0, 0.25)
    assert m.dim == 2
    assert np.allclose(m.energies, [0.0, 1.0])
    assert m.h1[0, 1] == pytest.approx(0.25)
    assert m.h1[0, 0] == 0.0


def test_hermiticity_enforced():
    with pytest.raises(ModelError):
        SpectralModel(np.array([0.0, 1.0]),
                      np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))


def test_near_hermitian_symmetrized():
    h = np.array([[0.0, 1.0 + 1e-15j], [1.0 - 1e-15j, 0.0]])
    m = SpectralModel(np.array([0.0, 1.0]), h)
    assert np.array_equal(m.h1, m.h1.conj().T)


def test_energies_must_be_finite_and_real():
    with pytest.raises(ModelError):
        SpectralModel(np.array([0.0, np.inf]), np.zeros((2, 2)))


def test_arrays_read_only():
    m = two_level_model()
    with pytest.raises(ValueError):
        m.h1[0, 1] = 9.0


def test_roundtrip_through_text():
    m = random_model(4, seed=3, lam=0.7)
    m2 = load_model(emit_model(m))
    assert np.array_equal(m.energies, m2.energies)
    assert np.array_equal(m.h1, m2.h1)
    assert m.label == m2.label


def test_load_rejects_malformed():
    with pytest.raises(ModelError):
        load_model("{not json")
    with pytest.raises(ModelError):
        load_model('{"dim": 2, "energies": [0.0, 1.0]}')  # missing h1


def test_load_rejects_shape_mismatch():
    with pytest.raises(ModelError):
        load_model('{"dim": 3, "energies": [0.0, 1.0], '
                   '"h1": [[[0,0],[1,0]],[[1,0],[0,0]]], "label": "x"}')


def test_load_rejects_boolean_dim():
    # JSON true is a Python bool, which is an int subclass
    with pytest.raises(ModelError, match="dim must be a positive integer, got True"):
        load_model('{"dim": true, "energies": [0.0], "h1": [[[0.0, 0.0]]]}')


def test_load_rejects_h1_entry_with_three_numbers():
    text = ('{"dim": 2, "energies": [0.0, 1.0], '
            '"h1": [[[0.0, 0.0], [0.1, 0.0, 7.0]], [[0.1, 0.0], [0.0, 0.0]]]}')
    with pytest.raises(ModelError, match=r"h1 entries must be \[re, im\] pairs"):
        load_model(text)


def test_load_rejects_scalar_energies():
    with pytest.raises(ModelError, match="energies must be a list, got 0.5"):
        load_model('{"dim": 1, "energies": 0.5, "h1": [[[0.0, 0.0]]]}')


def test_load_rejects_non_numeric_energy():
    with pytest.raises(ModelError,
                       match=r"energies entries must be numbers, got \['a'\]"):
        load_model('{"dim": 1, "energies": ["a"], "h1": [[[0.0, 0.0]]]}')


def test_load_rejects_non_string_label():
    with pytest.raises(ModelError, match="label must be a string, got 5"):
        load_model('{"dim": 1, "energies": [0.0], "h1": [[[0.0, 0.0]]], "label": 5}')


def test_random_model_deterministic():
    a = random_model(5, seed=42)
    b = random_model(5, seed=42)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.h1, b.h1)


def test_random_model_nondegenerate():
    m = random_model(8, seed=1)
    assert np.diff(m.energies).min() >= 0.05 - 1e-12


def test_scale_coupling():
    m = two_level_model(1.0, 1.0)
    s = scale_coupling(m, 0.25)
    assert np.allclose(s.h1, 0.25 * m.h1)
    assert np.array_equal(s.energies, m.energies)


def test_coupling_scale_object():
    m = two_level_model(1.0, 1.0)
    assert scale_coupling(m, 0.5).h1[0, 1] == pytest.approx(0.5)
    assert not scale_coupling(m, 0.0).h1.any()
    for bad in (-0.5, float("nan")):
        with pytest.raises(ModelError, match="coupling scale must be >= 0"):
            scale_coupling(m, bad)


#: model-layer refusals: (call, exception type, message pattern)
_MODEL_REFUSALS = {
    "operator-not-square": (lambda: OperatorMatrix(np.ones((2, 3))), ValueError,
                            "^operator matrices must be square$"),
    "operator-not-finite": (lambda: OperatorMatrix([[1.0, np.nan], [0.0, 1.0]]), ValueError,
                            r"^operator entries must be finite; 1 non-finite, first at \[0, 1\]$"),
    "empty-energies": (lambda: SpectralModel(np.array([]), np.zeros((0, 0))), ModelError,
                       "^energies must be a non-empty 1-d real array$"),
    "h1-shape": (lambda: SpectralModel([0.0, 1.0], np.zeros((3, 3))), ModelError,
                 r"^h1 shape \(3, 3\) does not match dimension 2$"),
    "h1-not-finite": (lambda: SpectralModel([0.0, 1.0], [[0.0, np.inf], [np.inf, 0.0]]),
                      ModelError, r"^h1 entries must be finite; 2 non-finite, first at \[0, 1\]$"),
    "model-file-not-object": (lambda: load_model('[{"dim": 1}]'), ModelError,
                              "^model file must contain a top-level object$"),
    "model-file-ragged-h1": (lambda: load_model('{"dim": 2, "energies": [0, 1], '
                                                '"h1": [[[0, 0], [1, 0]], [[1, 0]]]}'),
                             ModelError, "^h1 must be a dim x dim array$"),
    "model-file-dim-0": (lambda: load_model('{"dim": 0, "energies": [], "h1": []}'),
                         ModelError, "^dim must be a positive integer, got 0$"),
    "random-dim-0": (lambda: random_model(0, 1), ModelError,
                     "^dim must be a positive integer, got 0$"),
    "random-dim-past-the-entry-bound": (lambda: random_model(4097, 1), ModelError,
                                        "^dim 4097 puts the model's 4097 x 4097 arrays past "),
    "random-coupling-past-the-float-range": (
        lambda: random_model(3, 1, 5e307), ModelError,
        r"^coupling lambda = 5e\+307 puts the perturbation's 1-norm bound, 1\.500e\+308, "),
    "scaled-coupling-past-the-float-range": (
        lambda: scale_coupling(two_level_model(1.0, 0.5), 1e308), ModelError,
        r"^coupling scale 1e\+308 puts the perturbation's 1-norm bound, 1\.000e\+308, "),
    "lattice-potential-past-the-float-range": (
        lambda: build_lattice(LatticeSpec(M=2, h=0.5, mass=1.0, v0=np.zeros(2),
                                          v1=np.array([0.0, 5e307]))), ModelError,
        r"^coupling potential v1 \(largest \|v1\| = 5\.000e\+307\) puts the perturbation's "),
    "lattice-h-not-a-number": (lambda: load_lattice(
        '{"M": 2, "h": "half", "mass": 1, "v0": [0, 0], "v1": [0, 0]}'), ModelError,
        "^h must be a number, got 'half'$"),
    "lattice-mass-not-a-number": (lambda: load_lattice(
        '{"M": 2, "h": 0.5, "mass": null, "v0": [0, 0], "v1": [0, 0]}'), ModelError,
        "^mass must be a number, got None$"),
}


@pytest.mark.parametrize("case", _MODEL_REFUSALS)
def test_model_layer_refusals(case):
    call, error, message = _MODEL_REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def _spoiled(n: int, *where, bad=np.nan) -> np.ndarray:
    """The n x n identity with ``bad`` at each [row, col] of ``where``."""
    a = np.eye(n, dtype=complex)
    for i, j in where:
        a[i, j] = bad
    return a


#: one finiteness rule, model._finite, for every array input: (call, exception
#: type, what is named, how many entries are not finite, the first one's index)
_NON_FINITE = {
    "operator": (lambda: OperatorMatrix(_spoiled(3, (2, 0), (1, 2))), ValueError,
                 "operator entries", 2, [1, 2]),
    "energies": (lambda: SpectralModel([0.0, np.inf, np.nan], np.zeros((3, 3))), ModelError,
                 "energies", 2, [1]),
    "h1": (lambda: SpectralModel([0.0, 1.0, 2.0], _spoiled(3, (2, 1), (1, 2), bad=np.inf)),
           ModelError, "h1 entries", 2, [1, 2]),
    "lattice-potential": (lambda: LatticeSpec(3, 0.5, 1.0, np.zeros(3), [0.0, -np.inf, 0.0]),
                          ModelError, "potentials", 1, [1]),
    "divided-difference-nodes": (lambda: dd_phase([0.0, 1.0, np.nan], 1.0), ValueError,
                                 "nodes", 1, [2]),
    "jacobi-input": (lambda: hermitian_eigendecomposition(_spoiled(3, (2, 1), (1, 2))),
                     ValueError, "matrix entry moduli", 2, [1, 2]),
    # finite parts whose modulus overflows: Jacobi's scale would be garbage
    "jacobi-modulus": (lambda: hermitian_eigendecomposition(
        _spoiled(2, (0, 1), (1, 0), bad=complex(1.5e308, 1.5e308))),
        ValueError, "matrix entry moduli", 2, [0, 1]),
    "solve-input": (lambda: linear_solve(_spoiled(3, (2, 0), (1, 2)), np.eye(3)), ValueError,
                    "matrix entry moduli", 2, [1, 2]),
}


@pytest.mark.parametrize("case", _NON_FINITE)
def test_every_finiteness_refusal_names_the_first_bad_index(case):
    call, error, what, count, first = _NON_FINITE[case]
    message = f"{what} must be finite; {count} non-finite, first at {first}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_random_model_refuses_a_large_dim_before_any_array():
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="^dim 4097 puts"):
            random_model(4097, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # one 4097 x 4097 complex array is 256 MiB


@pytest.mark.parametrize("kind, load, keys", [
    ("model", load_model, ("dim", "energies", "h1")),
    ("lattice", load_lattice, ("M", "h", "mass", "v0", "v1")),
])
def test_file_loaders_read_json_through_one_reader(kind, load, keys):
    # one reader, one text for each fault, the first missing key named
    with pytest.raises(ModelError, match=f"^invalid {kind} file: Expecting"):
        load("{not json")
    for text in ("[]", "3", '"x"', "null"):
        with pytest.raises(ModelError, match=f"^{kind} file must contain a top-level object$"):
            load(text)
    for k, key in enumerate(keys):
        obj = {earlier: 1 for earlier in keys[:k]}
        with pytest.raises(ModelError, match=f"^{kind} file missing key '{key}'$"):
            load(json.dumps(obj))


def _lattice(M):
    return LatticeSpec(M=M, h=0.5, mass=1.0, v0=np.zeros(6), v1=np.full(6, -0.1))


def _random_model_fields(dim):
    m = random_model(dim, 4)
    return [m.energies, m.h1, m.label]


def _lattice_points(M):
    M = _lattice(M).M
    return [M, type(M).__name__]


#: every route that takes a count: (call, an accepted count, the least count)
_M31 = random_model(3, 1, 0.3)
COUNT_ROUTES = {
    "a_matrix order": (lambda n: a_matrix(_M31, n, 0.7).entries, 2, 0),
    "a_coefficient order": (lambda n: [a_coefficient(_M31, n, 0, 1, 0.7)], 2, 0),
    "quadrature order": (lambda n: dyson_term_quadrature(_M31, n, 0.7).entries, 2, 0),
    "quadrature points": (lambda n: dyson_term_quadrature(_M31, 2, 0.7, n).entries, 32, 16),
    "gauss_legendre nodes": (lambda n: np.concatenate(gauss_legendre(n)), 10, 1),
    "random_model dim": (_random_model_fields, 3, 1),
    "lattice points": (_lattice_points, 6, 2),
}


@pytest.mark.parametrize("route", sorted(COUNT_ROUTES))
def test_every_count_takes_integral_floats_and_refuses_the_rest(route):
    # 2.0 and np.int64(2) raised TypeError on all but the spec records, and
    # 2.5, NaN and inf a TypeError, a numpy error or a misleading message;
    # True counted as 1, as the file readers' dims never did
    call, good, least = COUNT_ROUTES[route]
    want = [np.asarray(x).tobytes() for x in call(good)]
    for n in (float(good), np.int64(good), np.float64(good)):
        assert [np.asarray(x).tobytes() for x in call(n)] == want, n
    for bad in (good + 0.5, np.nan, np.inf, least - 1, True, np.True_):
        with pytest.raises(ValueError, match=f", got {bad}$"):
            call(bad)


#: every route that exponentiates levels of its own, at a time t: the
#: quadrature oracle on equal levels, where one panel holds every time and
#: its size refusal lets every time through
_EQUAL = SpectralModel([2.0, 2.0], [[0.0, 0.1], [0.1, 0.0]])
PHASE_ROUTES = {
    "a_matrix": lambda t: a_matrix(two_level_model(1.0, 0.3), 2, t),
    "dd_phase": lambda t: dd_phase([1.0, 2.0], t),
    "epsilon_form_evolution": lambda t: epsilon_form_evolution(
        two_level_model(1.0, 0.3), 2, t, 0.1, "+"),
    "exact_evolution": lambda t: exact_evolution(two_level_model(1.0, 0.3), t),
    "dyson_term_quadrature": lambda t: dyson_term_quadrature(_EQUAL, 2, t),
    "forward_fourier": lambda t: forward_fourier(
        two_level_model(1.0, 0.3), QuadratureSpec((-40.0, 41.0), 64), t, 0.0, "+", 0.1),
    "timedep_green": lambda t: timedep_green(two_level_model(1.0, 0.3), 1, t, 0.0, "+"),
}
LATTICE_PHASE_ROUTES = {
    "k0_amplitude": lambda s, t: k0_amplitude(s, 0, t, 0, 0.0),
    "k_exact": lambda s, t: k_exact(s, 0, t, 0, 0.0),
    "k_truncated_direct": lambda s, t: k_truncated_direct(s, 2, 0, t, 0, 0.0),
    "k_via_relation": lambda s, t: k_via_relation(s, 2, 1e-2, 0, t, 0, 0.0),
}


@pytest.mark.parametrize("route", sorted(PHASE_ROUTES) + sorted(LATTICE_PHASE_ROUTES))
def test_every_phase_route_refuses_times_that_keep_no_bit(route):
    # exact_evolution, the quadrature oracle, forward_fourier and the
    # lattice's eigenbasis routes returned numbers with no correct bit at
    # t = 1e300 (the oracle overflowed in its products)
    if route in LATTICE_PHASE_ROUTES:
        system = build_lattice(_lattice(6))
        call = functools.partial(LATTICE_PHASE_ROUTES[route], system)
    else:
        call = PHASE_ROUTES[route]
    for t in (1e300, -1e300, 1e16):
        if t < 0 and route in {*LATTICE_PHASE_ROUTES, "timedep_green"}:
            continue  # refused as tb < ta, or gated off to an exact zero
        with pytest.raises(Unresolved, match=r"^exp\(-i t E\) cannot be resolved: \|t\| = "
                                             r"\S+ times max\|E\| = \S+ is not below "
                                             r"1/eps_mach = 4\.504e\+15: no phase keeps a bit$"):
            call(t)
    call(1.0)  # and an ordinary time resolves
    if route not in LATTICE_PHASE_ROUTES:  # the lattice refuses NaN as tb < ta
        with pytest.raises(ValueError, match="^t must be finite, got nan$") as refused:
            call(np.nan)
        assert type(refused.value) is ValueError


#: every route that takes a +- sign, as a function of the sign
SIGN_ROUTES = {
    "ResolventQuery": lambda s: ResolventQuery(0.3, s, 0.1).z,
    "epsilon_form_evolution": lambda s: epsilon_form_evolution(
        two_level_model(1.0, 0.3), 1, 1.0, 0.1, s).entries,
    "timedep_green": lambda s: timedep_green(two_level_model(1.0, 0.3), 1, 1.0, 0.0, s).entries,
}


@pytest.mark.parametrize("route", sorted(SIGN_ROUTES))
def test_every_sign_route_refuses_bools(route):
    # True == 1 made ResolventQuery(0.0, True, 0.1) retarded
    call = SIGN_ROUTES[route]
    for sign, text in ((np.int64(1), "+"), (np.int64(-1), "-")):
        assert np.array_equal(call(sign), call(text))
    for bad in (True, False, np.True_):
        with pytest.raises(ValueError, match=rf"^sign must be '\+' or '-', got {bad!r}$"):
            call(bad)


#: every route that takes a regularization eps, as a function of eps
EPS_ROUTES = {
    "ResolventQuery": lambda e: ResolventQuery(0.3, "+", e),
    "epsilon_form_evolution": lambda e: epsilon_form_evolution(
        two_level_model(1.0, 0.3), 1, 1.0, e, "+"),
    "k_via_relation": lambda e: k_via_relation(build_lattice(_lattice(6)), 1, e, 0, 1.0, 0, 0.0),
    "forward_fourier": lambda e: forward_fourier(
        two_level_model(1.0, 0.3), QuadratureSpec((-40.0, 41.0), 64), 1.0, 0.0, "+", e),
    "richardson_limit": lambda e: richardson_limit([e, 1e-2], [1.0, 2.0]),
}


@pytest.mark.parametrize("route", sorted(EPS_ROUTES))
def test_every_eps_route_shares_one_test(route):
    # forward_fourier let inf through to "need >= inf", and richardson_limit
    # warned in its divisions on NaN
    EPS_ROUTES[route](1e-3)
    for eps in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^eps must be positive and finite, got {eps}$"):
            EPS_ROUTES[route](eps)
