import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from dysonprop import oracle
from dysonprop.green import QuadratureSpec
from dysonprop.model import random_model, two_level_model
from dysonprop.oracle import (
    ConvergenceError,
    NotHermitianError,
    SingularMatrixError,
    dyson_term_quadrature,
    exact_evolution,
    gauss_legendre,
    hermitian_eigendecomposition,
    linear_solve,
)
from dysonprop.propagator import a_matrix


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


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_quadrature_refuses_unresolvable_time():
    # |t| * dE / 2 = 1000 would need more than the largest node count
    m = two_level_model(1.0, 0.3)
    with pytest.raises(ConvergenceError, match=r"\|t\|\*dE"):
        dyson_term_quadrature(m, 1, 2000.0)


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
    with pytest.raises(SingularMatrixError, match=r"condition >= \d"):
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


def test_linear_solve_one_dimensional_rhs():
    a = np.array([[0.0, 1.0], [2.0, 1.0]])
    got = linear_solve(a, np.array([3.0, 5.0]))
    assert got.shape == (2,)
    assert np.allclose(got, [1.0, 3.0], atol=1e-15)


def test_linear_solve_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        linear_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="conformable"):
        linear_solve(np.eye(2), np.ones((3, 2)))


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


def test_gauss_legendre_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gauss_legendre_newton_cap(monkeypatch):
    # one step from Tricomi's guesses leaves n = 64 short of convergence
    monkeypatch.setattr(oracle, "_NEWTON_BUDGET", 1)
    with pytest.raises(ConvergenceError, match="did not converge for n = 64"):
        gauss_legendre(64)


def test_gauss_legendre_memory_is_linear():
    # numpy's companion matrix alone would take 2000^2 * 8 bytes = 32 MB
    tracemalloc.start()
    try:
        QuadratureSpec((0.0, 1.0), 2000)
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
