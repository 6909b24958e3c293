import ast
import itertools
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from dysonprop import green, oracle
from dysonprop.model import SpectralModel, Unresolved, hamiltonian, random_model, two_level_model
from dysonprop.oracle import (
    dyson_term_quadrature,
    exact_evolution,
    gauss_legendre,
    hermitian_eigendecomposition,
    linear_solve,
)
from dysonprop.propagator import a_matrix
from test_propagator import A_MATRIX_C, _block_matrix, mp_a_matrix


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_diagonal_input():
    dec = hermitian_eigendecomposition(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(dec.values, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]])


def test_pauli_x_spectrum():
    dec = hermitian_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-13)


@pytest.mark.parametrize("d,seed", [(4, 0), (8, 1), (12, 2)])
def test_reconstruction_and_unitarity(d, seed):
    a = random_hermitian(d, seed)
    dec = hermitian_eigendecomposition(a)
    v = dec.vectors
    recon = v @ np.diag(dec.values) @ v.conj().T
    scale = np.linalg.norm(a)
    assert np.linalg.norm(recon - a) <= 1e-10 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10
    assert np.all(np.diff(dec.values) >= 0)


def test_eigenvalues_match_numpy():
    a = random_hermitian(10, 7)
    dec = hermitian_eigendecomposition(a)
    assert np.allclose(dec.values, np.linalg.eigvalsh(a), atol=1e-12)


def test_deterministic():
    a = random_hermitian(6, 3)
    d1 = hermitian_eigendecomposition(a)
    d2 = hermitian_eigendecomposition(a)
    assert np.array_equal(d1.vectors, d2.vectors)


@pytest.mark.parametrize("n", range(1, 50))
def test_round_robin_sweep_visits_every_pair_once_in_disjoint_rounds(n):
    seen = []
    for p, q, pos in zip(*oracle._round_robin(n)):
        assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
        assert np.array_equal(pos, np.ravel_multi_index(([p, p, q, q], [p, q, p, q]), (n, n)))
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == list(itertools.combinations(range(n), 2))


def test_oracle_imports_nothing_it_checks():
    # the oracles stay independent: of the package, oracle.py reads only the model
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {"model"}
    assert not {name for name in absolute if name.split(".")[0] == "dysonprop"}


#: the production modules' oracle imports still allowed, each with the ROADMAP
#: item that removes it
_ORACLE_EDGES = {
    "green": ({"linear_solve"}, "item 2 takes the forward solves off the Gauss-Jordan oracle"),
    "amplitude": ({"hermitian_eigendecomposition"},
                  "item 11(c) builds k_exact on exact_evolution"),
}


def _oracle_imports(path):
    """The names ``path`` imports from dysonprop.oracle; "oracle" for the module itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level + (node.module or "")).replace("dysonprop", "", 1)
            if module == ".oracle":
                names |= {alias.name for alias in node.names}
            elif module == ".":
                names |= {alias.name for alias in node.names if alias.name == "oracle"}
        elif isinstance(node, ast.Import):
            names |= {"oracle" for alias in node.names if alias.name == "dysonprop.oracle"}
    return names


def test_no_production_module_imports_the_oracles():
    # a fault in an oracle reaches only the oracle side of a comparison; cli
    # runs both sides, and the package namespace re-exports the oracles
    imports = {path.stem: _oracle_imports(path)
               for path in Path(oracle.__file__).parent.glob("*.py")}
    assert imports["cli"] and imports["__init__"]  # both import forms are read
    for module, names in imports.items():
        if module not in ("cli", "__init__"):
            allowed, item = _ORACLE_EDGES.get(module, (set(), "no ROADMAP item"))
            assert names <= allowed, f"{module} imports {sorted(names - allowed)}; {item}"


def test_green_reads_its_taylor_tables_through_propagator():
    # propagator owns the inverse check's tables and their entry bound: green
    # imports nothing from divdiff, nor the series table builder or the table reader
    imported = set()
    for node in ast.walk(ast.parse(Path(green.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "divdiff"
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("divdiff") for alias in node.names)
    assert "divdiff" not in imported
    assert not {"_series_table", "_phase_powers", "_phase_exp"} & imported


def test_sweep_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(oracle, "JACOBI_SWEEP_BUDGET", 1)
    with pytest.raises(Unresolved, match=r"^Jacobi eigendecomposition cannot be resolved: "
                                         r"sweeps exhausted \(off-diagonal \S+ > \S+\)$"):
        hermitian_eigendecomposition(random_hermitian(10, 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_oracles_refuse_non_finite_entries(bad):
    # a NaN warned in the solve's divisions, and ran all of Jacobi's sweeps
    # to a "sweeps exhausted" refusal; an infinity warned in both
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match=r"^matrix entry moduli must be finite; 1 non-finite, "
                                         r"first at \[1, 2\]$"):
        linear_solve(a, np.eye(3))
    with pytest.raises(ValueError, match=r"^matrix entry moduli must be finite; 2 non-finite, "
                                         r"first at \[0, 1\]$"):
        hermitian_eigendecomposition(np.array([[1.0, bad], [np.conj(bad), 2.0]]))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_test_runs_in_range_near_the_float_limit():
    # a - a^H on the unscaled input overflowed ("overflow encountered in
    # subtract") before the refusal; it is taken after the power-of-two scaling
    with pytest.raises(ValueError, match="^input is not Hermitian to 1e-10$"):
        hermitian_eigendecomposition([[0.0, 1e308], [-1e308, 0.0]])
    a = np.array([[1e308, 5e307j], [-5e307j, -1e308]])
    dec = hermitian_eigendecomposition(a)
    assert np.allclose(dec.values, [-np.hypot(1e308, 5e307), np.hypot(1e308, 5e307)],
                       rtol=1e-14, atol=0)
    assert np.max(np.abs(dec.vectors.conj().T @ dec.vectors - np.eye(2))) <= 1e-15


def test_eigendecomposition_rejects_non_square_input():
    for a in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            hermitian_eigendecomposition(a)


def test_exact_evolution_identity_at_zero():
    m = random_model(4, 5)
    u = exact_evolution(m, 0.0).entries
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_exact_evolution_free():
    m = random_model(3, 2, lam=0.0)
    u = exact_evolution(m, 1.7).entries
    assert np.allclose(u, np.diag(np.exp(-1.7j * m.energies)), atol=1e-12)


def test_exact_evolution_semigroup_and_unitarity():
    m = random_model(4, 9)
    u1 = exact_evolution(m, 1.0).entries
    u2 = exact_evolution(m, 2.0).entries
    assert np.allclose(u1 @ u1, u2, atol=1e-10)
    assert np.allclose(u1.conj().T @ u1, np.eye(4), atol=1e-10)


def test_quadrature_order_zero():
    m = random_model(3, 4)
    a0 = dyson_term_quadrature(m, 0, 1.3, 16).entries
    assert np.allclose(a0, np.diag(np.exp(-1.3j * m.energies)), atol=1e-14)


def test_quadrature_first_order_closed_form():
    omega, v, t = 1.0, 0.3, 1.0
    m = two_level_model(omega, v)
    a1 = dyson_term_quadrature(m, 1, t, 48).entries
    # -i * v * integral_0^t e^{-i omega s} ds, starting and ending in the
    # ground level's frame (E_0 = 0)
    want = -v * (1.0 - np.exp(-1j * omega * t)) / omega
    assert a1[0, 1] == pytest.approx(want, abs=1e-10)


def _quadrature_per_node(m, l, t, npoints):
    # the oracle's sum written one node tuple at a time
    x, w = gauss_legendre(npoints)
    u, w = (x + 1.0) / 2.0, w / 2.0
    total = np.zeros((m.dim, m.dim), dtype=complex)
    for idx in itertools.product(range(npoints), repeat=l):
        times = t * np.cumprod(u[list(idx)])
        jac = t**l * np.prod([u[k] ** (l - 1 - j) for j, k in enumerate(idx)])
        mat = np.diag(np.exp(-1j * m.energies * (t - times[0])))
        for j in range(l):
            tau = times[j] - (times[j + 1] if j + 1 < l else 0.0)
            mat = (mat @ m.h1) * np.exp(-1j * m.energies * tau)
        total += np.prod(w[list(idx)]) * jac * mat
    return (-1j) ** l * total


@pytest.mark.parametrize("l", [1, 2, 3])
def test_quadrature_matches_per_node_sum(l):
    m = random_model(3, 3, lam=0.6)
    for t in (1.5, -1.5):
        got = dyson_term_quadrature(m, l, t, 16).entries
        assert np.max(np.abs(got - _quadrature_per_node(m, l, t, 16))) <= 1e-14


def test_quadrature_refinement_monotone():
    m = random_model(3, 11, lam=0.5)
    ref = dyson_term_quadrature(m, 2, 1.0, 96).entries
    errs = [np.max(np.abs(dyson_term_quadrature(m, 2, 1.0, n).entries - ref))
            for n in (16, 32, 64)]
    assert errs[2] <= errs[0] + 1e-14


def test_quadrature_order_guard():
    m = random_model(2, 0)
    with pytest.raises(ValueError):
        dyson_term_quadrature(m, -1, 1.0, 16)
    with pytest.raises(ValueError):
        dyson_term_quadrature(m, 1, 1.0, 8)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=8), st.floats(min_value=0.01, max_value=40.0),
       st.sampled_from([1.0, -1.0]))
@settings(max_examples=40, deadline=None)
def test_quadrature_matches_series_terms(d, seed, l, half_phase, sign):
    # every order, at |t| * dE / 2 up to 40, where dE is the level spread.
    # A close pair of levels makes |t| large (up to 1600 here); the phases
    # E * t then carry a rounding error of |t| * max|E| ulps in any route,
    # and that floor, not the 1e-13, bounds the agreement.
    m = random_model(d, seed, lam=0.5)
    t = sign * 2.0 * half_phase / float(np.ptp(m.energies))
    want = a_matrix(m, l, t).entries
    got = dyson_term_quadrature(m, l, t).entries
    floor = 4.0 * abs(t) * float(np.max(np.abs(m.energies))) * np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= max(1e-13, floor) * np.max(np.abs(want))


def test_quadrature_resolves_a_long_time_within_the_a_matrix_bound():
    # |t| * dE / 2 = 1000 spans 25 panels; the oracle meets a_matrix within
    # a_matrix's own error bound
    m = two_level_model(1.0, 0.3)
    _, norm = _block_matrix(m, 1)
    want = a_matrix(m, 1, 2000.0).entries
    err = np.max(np.abs(dyson_term_quadrature(m, 1, 2000.0).entries - want)) / np.max(np.abs(want))
    assert err <= A_MATRIX_C * max(1.0, 2000.0 * norm) * np.finfo(float).eps / 2


@pytest.mark.parametrize("t", [1.7e308, 1e300])
def test_quadrature_refuses_overflowing_time(t):
    # the node count |t| dE asks for is compared as a float before any int
    # conversion, and |t| dE printed in exponent form (or as inf), not as a
    # 300-digit integer
    with pytest.raises(Unresolved, match=r"cannot be resolved: a quadrature past 1048576 nodes "
                                         r"\(64 points asked, \|t\|\*dE = (inf|\d\.\d{3}e\+\d+)\) "
                                         r"puts 4x4 blocks past 16777216 entries$"):
        dyson_term_quadrature(random_model(4, 7, 0.2), 1, t)


#: model -> the highest order checked at long times
_LONG_TIME_MODELS = {
    "two-level": (two_level_model(1.0, 0.3), 3),
    "random": (random_model(3, 5, 0.5), 2),
    "confluent": (SpectralModel([0.6, 0.6, 2.1], random_model(3, 5, 0.5).h1), 2),
}


@pytest.mark.parametrize("name", _LONG_TIME_MODELS)
@pytest.mark.parametrize("t_de", [900.0, 2000.0])
def test_quadrature_at_long_times_against_mpmath(name, t_de):
    # every order at |t| dE = 900 and 2000 (12 and 25 panels) against the tuple
    # sum at 40 digits, relative to the largest entry; the node phases s dE
    # carry a rounding of |t| dE u each, which takes l = 1 near 1e-12
    m, lmax = _LONG_TIME_MODELS[name]
    t = t_de / float(np.ptp(m.energies))
    for l, term in enumerate(oracle._dyson_terms(m, lmax, t, 64)):
        want = mp_a_matrix(m, l, t)
        assert np.max(np.abs(term.entries - want)) <= 1e-11 * np.max(np.abs(want)), l


def test_quadrature_memory_is_linear_in_npoints(monkeypatch):
    # npoints = 100000 adds panels of at most 64 nodes: a single rule's
    # 100000 x 100000 table would take 160 GB, the panel arrays take
    # 100032 * 2 * 2 * 16 bytes = 6.4 MB each
    sizes, tables = [], oracle._spectral_tables

    def spectral_tables(n):
        sizes.append(n)
        return tables(n)

    monkeypatch.setattr(oracle, "_spectral_tables", spectral_tables)
    m = two_level_model(1.0, 0.3)
    tracemalloc.start()
    try:
        dyson_term_quadrature(m, 1, 1.0, 100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [64]
    assert peak < 8 * 100032 * 2 * 2 * 16


def test_linear_solve_identity_and_diagonal():
    b = np.arange(6.0).reshape(3, 2) + 1j
    assert np.array_equal(linear_solve(np.eye(3), b), b)
    d = np.diag([2.0, 4.0, 8.0])
    assert np.allclose(linear_solve(d, b), b / np.array([[2.0], [4.0], [8.0]]))


def test_linear_solve_residual():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a += 1j * 0.1 * np.eye(6)
    b = rng.standard_normal((6, 6)) + 0j
    x = linear_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_linear_solve_singular():
    with pytest.raises(Unresolved, match=r"^linear solve cannot be resolved: .*condition >= \d"):
        linear_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))


def _planted_system(d, cond, seed):
    # A = Q1 diag(s) Q2 with singular values from 1 down to 1/cond
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
              for _ in range(2))
    a = (q1 * np.logspace(0, -np.log10(cond), d)) @ q2
    x = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    return a, x, a @ x


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
def test_linear_solve_planted_solution(cond):
    for seed in range(5):
        a, want, b = _planted_system(24, cond, seed)
        got = linear_solve(a, b)
        assert np.max(np.abs(got - want)) <= cond * 1e-14 * np.max(np.abs(want))
        residual = np.linalg.norm(a @ got - b) / (np.linalg.norm(a) * np.linalg.norm(got))
        assert residual <= 1e-14


def test_linear_solve_zero_leading_entry():
    # row 0 cannot be the first pivot
    a = np.array([[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [4.0, 0.0, 1j]])
    want = np.array([[1.0, -2.0], [0.5j, 3.0], [-1.0, 0.0]])
    got = linear_solve(a, a @ want)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_linear_solve_refuses_one_dimensional_rhs():
    # B is n x k: a single right-hand side is an (n, 1) column
    a = np.array([[0.0, 1.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match=r"n x k .* got shape \(2,\)"):
        linear_solve(a, np.array([3.0, 5.0]))
    got = linear_solve(a, np.array([[3.0], [5.0]]))
    assert got.shape == (2, 1)
    assert np.allclose(got, [[1.0], [3.0]], atol=1e-15)


def test_linear_solve_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        linear_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="conformable"):
        linear_solve(np.eye(2), np.ones((3, 2)))


def reference_linear_solve(a, b):
    """The full-width swap-free Gauss-Jordan elimination written out plainly:
    every step updates every column of [A | B]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    aug = np.concatenate((a, b), axis=1)
    free = np.ones(n)
    order = []
    for k in range(n):
        p = int(np.argmax(np.abs(aug[:, k]) * free))
        free[p] = 0.0
        order.append(p)
        row = aug[p] / aug[p, k]
        aug -= aug[:, k, np.newaxis] * row
        aug[p] = row
    return aug[order, n:]


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(np.ascontiguousarray(x).view(float),
                                                 np.ascontiguousarray(y).view(float))


def test_linear_solve_scales_entries_near_the_float_range():
    # |a| = 1.41e308: unscaled, the pivot row's division overflowed
    z = 1e308
    a = np.array([[0, z * (1 + 1j)], [z * (1 - 1j), 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = linear_solve(a, np.eye(2))
    assert np.abs(a @ x - np.eye(2)).max() <= 2e-16


def _peaked_at_one(d, seed):
    # diagonally heavy, and its largest |entry| is the real a[0, 0] = 1 exactly
    rng = np.random.default_rng(seed)
    a = 0.25 * (rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))) + 0.5 * np.eye(d)
    a[0, 0] = 1.0
    return a


def _right_hand_sides(d):
    rng = np.random.default_rng(d)
    return np.eye(d, dtype=complex), rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))


def _times_power_of_two(a, k):
    return np.ldexp(np.ascontiguousarray(a, dtype=complex).view(float), k).view(complex)


@pytest.mark.parametrize("k", [500, -500])
@pytest.mark.parametrize("d", [1, 2, 7, 24])
def test_linear_solve_eliminates_peaks_inside_the_range_unscaled(k, d, monkeypatch):
    # a peak of exactly 2^500 or 2^-500 is inside [2^-500, 2^500]: no ldexp
    # pass runs, and the elimination is the unscaled reference's, bit for bit
    a = _times_power_of_two(_peaked_at_one(d, d), k)
    assert float(np.abs(a).max()) == 2.0**k
    for b in _right_hand_sides(d):
        with warnings.catch_warnings(), monkeypatch.context() as patch:
            patch.setattr(np, "ldexp", None)  # a scaling pass would raise TypeError
            warnings.simplefilter("error", RuntimeWarning)
            x = linear_solve(a, b)
        assert _same_bits(x, reference_linear_solve(a, b)), (k, d)


@pytest.mark.parametrize("k", [500, -500])
@pytest.mark.parametrize("d", [1, 2, 7, 24])
def test_linear_solve_scales_peaks_outside_the_range_by_powers_of_two(k, d):
    # a peak one ulp past 2^500, or half an ulp short of 2^-500, is outside the
    # range: X for 2^k A is 2^-k times X for the in-range A, bit for bit
    a = _peaked_at_one(d, d) * np.nextafter(1.0, np.sign(k) * 2.0)
    scaled = _times_power_of_two(a, k)
    assert not 2.0**-500 <= float(np.abs(scaled).max()) <= 2.0**500
    for b in _right_hand_sides(d):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, want = linear_solve(scaled, b), linear_solve(a, b)
        assert _same_bits(x, _times_power_of_two(want, -k)), (k, d)


def test_linear_solve_matches_reference_bitwise():
    rng = np.random.default_rng(21)
    for d in range(1, 49):
        m = random_model(d, d, lam=0.5)
        z = rng.uniform(-2.0, 2.0) + 1j * rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.5)
        a = z * np.eye(d) - hamiltonian(m)
        for b in (np.eye(d, dtype=complex),
                  rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1)),
                  rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))):
            assert _same_bits(linear_solve(a, b), reference_linear_solve(a, b)), d
    for cond in (1e2, 1e6, 1e10):
        for seed in range(3):
            a, _, b = _planted_system(24, cond, seed)
            assert _same_bits(linear_solve(a, b), reference_linear_solve(a, b)), (cond, seed)
            assert _same_bits(linear_solve(a, b[:, :1]), reference_linear_solve(a, b[:, :1]))


def _mp_gauss_legendre(n, x0):
    # roots of mpmath's own P_n, at 40 digits, near the nodes under test
    with mpmath.workdps(40):
        nodes = [mpmath.findroot(lambda y: mpmath.legendre(n, y), mpmath.mpf(float(x)))
                 for x in x0]
        weights = []
        for r in nodes:
            dp = n * (r * mpmath.legendre(n, r) - mpmath.legendre(n - 1, r)) / (r * r - 1)
            weights.append(2 / ((1 - r * r) * dp * dp))
        return np.array(nodes, dtype=float), np.array(weights, dtype=float)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 31, 64])
def test_gauss_legendre_matches_mpmath(n):
    x, w = gauss_legendre(n)
    want_x, want_w = _mp_gauss_legendre(n, x)
    assert np.max(np.abs(x - want_x)) <= 1e-15
    assert np.max(np.abs(w - want_w) / want_w) <= 1e-12


@pytest.mark.parametrize("n", [16, 64, 250, 800, 2000])
def test_gauss_legendre_integrates_oscillation(n):
    # a = n/2 is well inside the rule's resolution
    a = n / 2
    x, w = gauss_legendre(n)
    assert abs(w @ np.exp(1j * a * x) - 2 * np.sin(a) / a) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 7, 64, 251, 800])
def test_gauss_legendre_symmetry_and_numpy_nodes(n):
    x, w = gauss_legendre(n)
    assert abs(np.sum(w) - 2.0) <= 1e-14
    assert np.max(np.abs(x + x[::-1])) <= 2e-16
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x - leggauss(n)[0])) <= 2e-16


def test_gauss_legendre_agrees_with_the_numpy_tables_of_the_panels():
    # the Fourier panels take numpy's tables of at most 33 nodes, the series
    # oracle this rule: each side checks the other.  numpy's weights are the
    # rougher ones, up to 11 eps from mpmath's (n = 30), against 1 eps here
    for n in range(1, 34):
        x, w = gauss_legendre(n)
        want_x, want_w = leggauss(n)
        assert np.max(np.abs(x - want_x)) <= np.finfo(float).eps, n
        assert np.max(np.abs(w - want_w)) <= 16 * np.finfo(float).eps, n


def test_gauss_legendre_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gauss_legendre_newton_cap(monkeypatch):
    # one step from Tricomi's guesses leaves n = 64 short of convergence
    monkeypatch.setattr(oracle, "_NEWTON_BUDGET", 1)
    with pytest.raises(Unresolved, match="did not converge for n = 64"):
        gauss_legendre(64)


def test_gauss_legendre_memory_is_linear():
    # numpy's companion matrix alone would take 2000^2 * 8 bytes = 32 MB
    tracemalloc.start()
    try:
        gauss_legendre(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_eigendecomposition_property(d, seed):
    a = random_hermitian(d, seed)
    dec = hermitian_eigendecomposition(a)
    recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.conj().T
    assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_quadrature_memory_stays_one_axis_per_block():
    # the innermost axis is one (npoints, d, d) block; a block over the
    # whole l=2 grid (4096 rows at d=10) would need >= 6.5 MB per array
    m = random_model(10, 1, 0.2)
    tracemalloc.start()
    try:
        dyson_term_quadrature(m, 2, 1.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _test_matrix(kind, d, seed, lam=0.2):
    if kind == "random":
        return random_hermitian(d, seed)
    rng = np.random.default_rng(seed)
    if kind == "degenerate":
        # k copies of one block, rows and columns shuffled: every level of the
        # block is exactly k-fold degenerate in the float matrix itself
        k = 4 if d >= 12 else 3 if d >= 6 else 2
        m = d // k
        a = np.zeros((d, d), dtype=complex)
        a[:k * m, :k * m] = np.kron(np.eye(k), random_hermitian(m, seed))
        a[k * m:, k * m:] = random_hermitian(d - k * m, seed + 1)
        perm = rng.permutation(d)
        return a[np.ix_(perm, perm)]
    if kind == "cluster":
        # half the levels within 1e-12 of each other
        q = np.linalg.qr(random_hermitian(d, seed))[0]
        lam = np.sort(rng.uniform(-1.0, 1.0, d))
        lam[:(d + 1) // 2] = lam[0] + 1e-12 * np.arange((d + 1) // 2)
        a = (q * lam) @ q.conj().T
        return (a + a.conj().T) / 2
    # the series benchmark's confluent shape: levels 0 and 1 coincide
    m = random_model(d, seed, lam=lam)
    e = m.energies.copy()
    e[1] = e[0]
    return hamiltonian(SpectralModel(e, m.h1))


#: bounds on the Jacobi eigensolve, as multiples of n u ||A||_2 (n u for the
#: unitarity of V), with u the unit roundoff: 2.3x to 3.1x the worst of 400
#: random cases of every kind at 2 <= d <= 16
EIGENVALUE_C, RESIDUAL_C, UNITARITY_C = 10, 64, 32


def _check_against_mpmath(a):
    n = a.shape[0]
    u = np.finfo(float).eps / 2
    dec = hermitian_eigendecomposition(a)
    with mpmath.workdps(30):
        big_a = mpmath.matrix(a.tolist())
        want = np.sort([float(x) for x in mpmath.eighe(big_a, eigvals_only=True)])
        v = mpmath.matrix(dec.vectors.tolist())
        residual = float(mpmath.mnorm(big_a * v - v * mpmath.diag(dec.values.tolist()), "f"))
        unitarity = float(mpmath.mnorm(v.H * v - mpmath.eye(n), "f"))
    norm = float(np.max(np.abs(want)))
    assert np.max(np.abs(dec.values - want)) <= EIGENVALUE_C * n * u * norm
    assert residual <= RESIDUAL_C * n * u * norm
    assert unitarity <= UNITARITY_C * n * u


KINDS = ("random", "degenerate", "cluster", "confluent")


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6),
       st.sampled_from(KINDS))
@settings(max_examples=20, deadline=None)
def test_eigendecomposition_against_mpmath(d, seed, kind):
    _check_against_mpmath(_test_matrix(kind, d, seed))


@pytest.mark.parametrize("d,kind", [(6, "confluent"), (24, "degenerate"), (32, "cluster")])
def test_eigendecomposition_against_mpmath_fixed(d, kind):
    _check_against_mpmath(_test_matrix(kind, d, 3))


def reference_hermitian_eigendecomposition(a):
    """The Jacobi eigensolve with each round written out plainly: J entry by
    entry, tau from the entries (q, q) and (p, p), t from np.where and the
    diagonal made real by np.fill_diagonal."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    work = (a + a.conj().T) / 2.0
    v = eye = np.eye(n, dtype=complex)
    thresh = oracle._JACOBI_OFF_TOL * max(float(np.linalg.norm(work)), 1e-300)
    while float(np.sqrt(np.sum(np.abs(work - np.diag(np.diag(work))) ** 2))) > thresh:
        for p, q in zip(*oracle._round_robin(n)[:2]):
            apq = work[p, q]
            mag = np.abs(apq)
            big = mag > thresh / n
            if not big.any():
                continue
            p, q, apq, mag = p[big], q[big], apq[big], mag[big]
            phase = apq / mag
            tau = (work[q, q].real - work[p, p].real) / (2.0 * mag)
            t = np.where(tau < 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            j = eye.copy()
            j[p, p] = c
            j[p, q] = -s
            j[q, p] = s * np.conj(phase)
            j[q, q] = c * np.conj(phase)
            work = j.conj().T @ (work @ j)
            v = v @ j
            work[p, q] = work[q, p] = 0.0
            np.fill_diagonal(work.imag, 0.0)
    values = np.real(np.diag(work))
    order = np.argsort(values, kind="stable")
    vectors = v[:, order]
    ref = vectors[np.abs(vectors).argmax(axis=0), np.arange(n)]
    return values[order], vectors * (np.conj(ref) / np.abs(ref))


@pytest.mark.parametrize("d", range(1, 34))
def test_eigendecomposition_matches_reference_bitwise(d):
    # every kind, the confluent models at couplings 0.05 to 3 over the sizes,
    # plus a diagonal difference that underflows, so tau = -0.0 must rotate as
    # tau = 0 does
    lams = (0.05, 0.3, 1.0, 3.0)
    cases = [_test_matrix(kind, d, d, lams[(d + i) % 4])
             for i, kind in enumerate(KINDS if d > 1 else ("random",))]
    signed = np.ones((d, d), dtype=complex)
    np.fill_diagonal(signed, np.where(np.arange(d) % 2, -5e-324, 0.0))
    for a in cases + [signed]:
        dec = hermitian_eigendecomposition(a)
        values, vectors = reference_hermitian_eigendecomposition(a)
        assert _same_bits(dec.values, values) and _same_bits(dec.vectors, vectors), d


@pytest.mark.parametrize("d,t,npoints", [(2, 1.0, 16), (3, -1.5, 64), (6, 1.0, 64),
                                         (4, 60.0, 16), (5, 2.5, 40)])
def test_dyson_terms_match_an_uncached_table_build_bitwise(d, t, npoints, monkeypatch):
    m = random_model(d, d, lam=0.5)
    for _ in range(2):  # the second pass reads the cached tables
        got = [term.entries for term in oracle._dyson_terms(m, 3, t, npoints)]
        with monkeypatch.context() as patch:  # the tables built anew on every call
            patch.setattr(oracle, "_spectral_tables", oracle._spectral_tables.__wrapped__)
            want = [term.entries for term in oracle._dyson_terms(m, 3, t, npoints)]
        assert len(got) == len(want) == 4
        assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_per_size_tables_are_read_only_and_bounded():
    x, table = oracle._spectral_tables(16)
    for arr in (x, table, *oracle._round_robin(5), *green._leggauss(17)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    for cached in (oracle._spectral_tables, oracle._round_robin, green._leggauss):
        assert isinstance(cached.cache_info().maxsize, int)


@pytest.mark.parametrize("k", [900, -900])
def test_eigendecomposition_commutes_with_powers_of_two(k):
    # at 2^900 the norms overflowed ("overflow encountered in dot"), at 2^-900
    # they underflowed to 0 and no rotation ran; scaled by its own power of two
    # the input rotates as the in-range matrix does, bit for bit
    for kind, d in itertools.product(KINDS, (2, 5, 8)):
        a = _test_matrix(kind, d, d, 0.5)
        scaled = np.ldexp(np.ascontiguousarray(a, dtype=complex).view(float), k).view(complex)
        dec, want = hermitian_eigendecomposition(scaled), hermitian_eigendecomposition(a)
        assert _same_bits(dec.vectors, want.vectors)
        assert _same_bits(dec.values, np.ldexp(want.values, k))


def test_eigendecomposition_refuses_eigenvalues_past_the_float_range():
    # every entry is finite, but the largest eigenvalue, about 1.9e308, is not
    hop = np.diag(np.full(5, -5e307), 1)
    a = np.diag(np.full(6, 1e308)) + hop + hop.T
    with pytest.raises(Unresolved, match="^Jacobi eigendecomposition cannot be resolved: an "
                                         "eigenvalue is past the float range$"):
        hermitian_eigendecomposition(a)
