import itertools

import numpy as np
import pytest

from dysonprop.cli import _EPS_LADDER
from dysonprop.model import SpectralModel, random_model, scale_coupling, two_level_model
from dysonprop.oracle import dyson_term_quadrature, exact_evolution
from dysonprop.propagator import (
    TruncationSpec,
    _graded_chains,
    a_coefficient,
    a_matrix,
    epsilon_form_evolution,
    normalize_sign,
    richardson_limit,
    truncated_evolution,
)


def test_order_zero_is_free_propagator():
    m = random_model(3, 1)
    a0 = a_matrix(m, 0, 1.4).entries
    assert np.allclose(a0, np.diag(np.exp(-1.4j * m.energies)), atol=1e-15)


def test_first_order_two_level_closed_form():
    omega, v, t = 1.0, 0.1, 1.0
    m = two_level_model(omega, v)
    got = a_coefficient(m, 1, 0, 1, t)
    want = -v * (1.0 - np.exp(-1j * omega * t)) / omega
    assert got == pytest.approx(want, abs=1e-14)


def test_zero_coupling_kills_higher_orders():
    m = random_model(4, 2, lam=0.0)
    for l in (1, 2):
        assert np.max(np.abs(a_matrix(m, l, 1.0).entries)) == 0.0


@pytest.mark.parametrize("l", [1, 2, 3])
def test_terms_match_quadrature_oracle(l):
    npoints = 32 if l == 3 else 64
    for dim, seed, lam, t in ((3, 3, 0.6, 1.5), (3, 4, 0.6, 1.5), (8, 5, 0.2, 1.0)):
        m = random_model(dim, seed, lam=lam)
        for tt in (t, -t):
            got = a_matrix(m, l, tt).entries
            want = dyson_term_quadrature(m, l, tt, npoints).entries
            assert np.max(np.abs(got - want)) <= 1e-8


def _degenerate_model(dim):
    # levels in coincident pairs, so index tuples repeat energies
    m = random_model(dim, 20 + dim, lam=0.5)
    return SpectralModel(np.repeat(m.energies[: (dim + 1) // 2], 2)[:dim], m.h1)


@pytest.mark.parametrize("degenerate", [False, True])
def test_block_route_matches_tuple_sum(degenerate):
    # a_matrix (one block-bidiagonal exponential) against the paper's
    # divided-difference sum over index tuples, entry by entry
    for dim in (2, 3, 4):
        m = _degenerate_model(dim) if degenerate else random_model(dim, 10 + dim, lam=0.5)
        assert m.nondegenerate != degenerate
        for l in (0, 1, 2, 3):
            for t in (1.3, -1.3):
                got = a_matrix(m, l, t).entries
                for g in range(dim):
                    for gp in range(dim):
                        want = a_coefficient(m, l, g, gp, t)
                        assert abs(got[g, gp] - want) <= 1e-13


def _compressed_model(dim, seed, lam):
    # random levels rescaled into [-1, 1], so a 32-point rule resolves the
    # phases of the quadrature oracle over t = 1
    m = random_model(dim, seed, lam=lam)
    e = m.energies - m.energies.mean()
    return SpectralModel(e / np.max(np.abs(e)), m.h1)


def test_large_dimension_terms_and_time_reversal():
    # d=64 at N=3: the block route needs no index tuples (64^4 of them)
    m = _compressed_model(64, 9, lam=0.05)
    for l in (1, 2):
        got = a_matrix(m, l, 1.0).entries
        want = dyson_term_quadrature(m, l, 1.0, 32).entries
        assert np.max(np.abs(got - want)) <= 1e-12
    spec = TruncationSpec(3)
    fwd = truncated_evolution(m, spec, 1.0).entries
    bwd = truncated_evolution(m, spec, -1.0).entries
    assert np.max(np.abs(bwd - fwd.conj().T)) <= 1e-13


def test_degenerate_levels_handled():
    # coincident unperturbed levels force the confluent path; compare with
    # the exact evolution at small coupling
    from dysonprop.model import SpectralModel
    h1 = 0.05 * np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    m = SpectralModel(np.array([1.0, 1.0, 2.0]), h1)
    u = truncated_evolution(m, TruncationSpec(3), 1.0).entries
    ref = exact_evolution(m, 1.0).entries
    assert np.max(np.abs(u - ref)) <= 5e-5


def test_lambda_scaling_of_truncation_error():
    base = two_level_model(1.0, 1.0)
    for N in (1, 2):
        errs = []
        for lam in (0.1, 0.05):
            m = scale_coupling(base, lam)
            u = truncated_evolution(m, TruncationSpec(N), 1.0).entries
            errs.append(np.max(np.abs(u - exact_evolution(m, 1.0).entries)))
        ratio = errs[0] / errs[1]
        assert abs(ratio / 2.0 ** (N + 1) - 1.0) <= 0.25


def test_time_reversal():
    m = random_model(3, 8, lam=0.4)
    spec = TruncationSpec(3)
    fwd = truncated_evolution(m, spec, 1.2).entries
    bwd = truncated_evolution(m, spec, -1.2).entries
    assert np.max(np.abs(bwd - fwd.conj().T)) <= 1e-13


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(-1)


def test_epsilon_form_converges_linearly():
    m = two_level_model(1.0, 0.3)
    spec = TruncationSpec(2)
    direct = truncated_evolution(m, spec, 1.0).entries
    errs = [np.max(np.abs(epsilon_form_evolution(m, spec, 1.0, e, "+").entries - direct))
            for e in (1e-2, 5e-3)]
    assert errs[1] <= 0.6 * errs[0]  # O(eps) decay


def test_epsilon_form_extrapolates_to_direct():
    m = random_model(3, 6, lam=0.3)
    spec = TruncationSpec(2)
    eps_values = [1e-2, 5e-3, 2.5e-3]
    samples = [epsilon_form_evolution(m, spec, 1.0, e, "+").entries
               for e in eps_values]
    limit = richardson_limit(eps_values, samples)
    direct = truncated_evolution(m, spec, 1.0).entries
    assert np.max(np.abs(limit - direct)) <= 1e-6


def test_epsilon_form_both_signs():
    m = two_level_model(1.0, 0.2)
    spec = TruncationSpec(1)
    direct = truncated_evolution(m, spec, 1.0).entries
    for sign in ("+", "-"):
        eps_values = [1e-2, 5e-3, 2.5e-3]
        samples = [epsilon_form_evolution(m, spec, 1.0, e, sign).entries
                   for e in eps_values]
        assert np.max(np.abs(richardson_limit(eps_values, samples) - direct)) <= 1e-7


def _graded_tuple_sum(m, N, eps, sgn):
    # ref[pos, g, a, b]: sum over tuples a = g_0, ..., g_l = b (pos <= l <= N)
    # with g_pos = g of the H1 chain over prod_{j != pos} (z_pos - z_j)
    d = m.dim
    ref = np.zeros((N + 1, d, d, d), dtype=complex)
    for l in range(N + 1):
        for tup in itertools.product(range(d), repeat=l + 1):
            z = m.energies[list(tup)] - 1j * sgn * eps * np.arange(l + 1)
            w = np.prod([m.h1[x, y] for x, y in zip(tup, tup[1:])])
            for pos in range(l + 1):
                ref[pos, tup[pos], tup[0], tup[-1]] += w / np.prod(np.delete(z[pos] - z, pos))
    return ref


@pytest.mark.parametrize("degenerate", [False, True])
def test_graded_chains_match_tuple_sum(degenerate):
    # left[m, g, a] * right[N-m, g, b] and the eps-form against the partial
    # fractions summed tuple by tuple, every entry
    for dim in (2, 3, 4):
        m = _degenerate_model(dim) if degenerate else random_model(dim, 10 + dim, lam=0.5)
        for N in (0, 1, 2, 3):
            for sgn in (1, -1):
                for eps in (1e-2, 2.5e-3):
                    nodes, left, right = _graded_chains(m, N, eps, sgn)
                    got = left[:, :, :, np.newaxis] * right[::-1, :, np.newaxis, :]
                    want = _graded_tuple_sum(m, N, eps, sgn)
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-13 * scale
                    # the eps-form weights the partial fraction of node pos
                    # by e^{-i z_pos t}
                    z = m.energies - 1j * sgn * eps * np.arange(N + 1)[:, np.newaxis]
                    assert np.array_equal(nodes, z)
                    u = epsilon_form_evolution(m, N, 1.3, eps, sgn).entries
                    u_want = np.einsum("pg,pgab->ab", np.exp(-1.3j * z), want)
                    assert np.max(np.abs(u - u_want)) <= 1e-13 * scale


@pytest.mark.parametrize("sign", ["+", "-"])
def test_epsilon_form_large_dimension(sign):
    # d=64 at N=3 with levels in coincident pairs: 64^4 index tuples, so the
    # partial fractions are only in reach through the chains
    m = _compressed_model(64, 9, lam=0.05)
    m = SpectralModel(np.repeat(m.energies[:32], 2), m.h1)
    spec = TruncationSpec(3)
    samples = [epsilon_form_evolution(m, spec, 1.0, e, sign).entries for e in _EPS_LADDER]
    direct = truncated_evolution(m, spec, 1.0).entries
    assert np.max(np.abs(richardson_limit(_EPS_LADDER, samples) - direct)) <= 1e-6


def test_epsilon_form_rejects_bad_eps():
    m = two_level_model()
    with pytest.raises(ValueError):
        epsilon_form_evolution(m, TruncationSpec(1), 1.0, 0.0, "+")


def test_normalize_sign():
    assert normalize_sign("+") == 1
    assert normalize_sign("-") == -1
    assert normalize_sign(-1) == -1
    with pytest.raises(ValueError):
        normalize_sign("x")


def test_richardson_limit_rejects_repeated_eps():
    with pytest.raises(ValueError, match="distinct"):
        richardson_limit([1e-2, 1e-2], [1.0, 2.0])


def test_richardson_limit_polynomial():
    # exact for data that is polynomial in eps
    eps = [0.4, 0.2, 0.1]
    samples = [7.0 + 3.0 * e - 2.0 * e**2 for e in eps]
    assert richardson_limit(eps, samples) == pytest.approx(7.0, abs=1e-12)
