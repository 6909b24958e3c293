from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonprop import divdiff
from dysonprop.divdiff import (
    SingularNodesError,
    TaylorConvergenceError,
    _phase_exp,
    dd_monomial,
    dd_phase,
    denominator_d,
    identity_suite,
)
from dysonprop.model import random_model


def mp_dd_phase(nodes, t, prec=60):
    """High-precision oracle: recursive divided differences of e^{-iEt},
    with confluent steps replaced by derivative limits."""
    with mpmath.workdps(prec):
        xs = [mpmath.mpf(repr(float(x))) for x in nodes]
        tt = mpmath.mpf(repr(float(t)))

        def f(order, a, b):
            # dd over a contiguous node range, fully recursive
            if a == b:
                return mpmath.exp(-1j * xs[a] * tt)
            if xs[a] == xs[b] and all(xs[k] == xs[a] for k in range(a, b + 1)):
                n = b - a
                return (-1j * tt) ** n * mpmath.exp(-1j * xs[a] * tt) / mpmath.factorial(n)
            return (f(order, a + 1, b) - f(order, a, b - 1)) / (xs[b] - xs[a])

        val = f(0, 0, len(xs) - 1)
        return complex(val)


def test_single_node():
    assert dd_phase([1.5], 2.0) == pytest.approx(np.exp(-3.0j), abs=1e-15)


def test_dd_phase_rejects_bad_nodes_and_time():
    with pytest.raises(ValueError, match="at least one node"):
        dd_phase([], 1.0)
    with pytest.raises(ValueError, match="nodes must be finite"):
        dd_phase([0.5, np.nan], 1.0)
    with pytest.raises(ValueError, match="nodes must be finite"):
        dd_phase([complex(0.5, np.inf)], 1.0)
    with pytest.raises(ValueError, match="t must be finite"):
        dd_phase([0.5, 1.0], np.inf)
    with pytest.raises(ValueError, match="t must be finite"):
        dd_phase([0.5], np.nan)


def test_two_distinct_nodes_closed_form():
    a, b, t = 0.3, 1.1, 0.9
    want = (np.exp(-1j * a * t) - np.exp(-1j * b * t)) / (a - b)
    assert dd_phase([a, b], t) == pytest.approx(want, abs=1e-14)


def test_confluent_pair_is_derivative():
    a, t = 0.7, 1.3
    want = -1j * t * np.exp(-1j * a * t)
    assert dd_phase([a, a], t) == pytest.approx(want, abs=1e-14)


def test_triple_confluent():
    a, t = -0.2, 2.0
    want = (-1j * t) ** 2 / 2 * np.exp(-1j * a * t)
    assert dd_phase([a, a, a], t) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("nodes", [
    (0.0, 1.0, 2.5),
    (1.0, 1.0 + 1e-9, 2.0),
    (0.0, 1e-12, 2e-12, 1.0),
    (-3.0, -1.0, 0.0, 2.0, 5.0),
    # evenly spaced with gap 0.11: the partial-fraction sum over these loses
    # about 1.5 digits per added node, and the values fall to ~1e-11 at
    # n=12, t=0.5, so the check is relative
    *[tuple(0.11 * k for k in range(n)) for n in range(5, 13)],
])
def test_against_mpmath_oracle(nodes):
    for t in (0.5, 1.0, 3.7):
        got = dd_phase(nodes, t)
        want = mp_dd_phase(nodes, t)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_clustered_nodes_stable():
    # the naive partial-fraction sum loses ~7 digits here; the bidiagonal
    # path must not
    nodes = (1.0, 1.0 + 1e-9, 1.0 + 2e-9)
    got = dd_phase(nodes, 1.0)
    want = mp_dd_phase(nodes, 1.0)
    assert abs(got - want) <= 1e-13


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=5,
                unique=True),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_permutation_symmetry(nodes, t):
    base = dd_phase(nodes, t)
    rng = np.random.default_rng(abs(hash(tuple(nodes))) % 2**32)
    perm = list(nodes)
    rng.shuffle(perm)
    assert dd_phase(perm, t) == pytest.approx(base, abs=1e-10, rel=1e-10)


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=5,
                unique=True),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_leibniz_recurrence(nodes, t):
    # f[x0..xn] = (f[x1..xn] - f[x0..x{n-1}]) / (xn - x0)
    full = dd_phase(nodes, t)
    left = dd_phase(nodes[:-1], t)
    right = dd_phase(nodes[1:], t)
    want = (right - left) / (nodes[-1] - nodes[0])
    assert full == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_monomial_exact_spec_cases():
    assert dd_monomial((0, 1), 0, exact=True) == 0
    assert dd_monomial((0, 1), 1, exact=True) == 1
    assert dd_monomial((-1, -1, 2), 2, exact=True) == 1
    assert dd_monomial((-1, -1, 2), 3, exact=True) == 0  # degree-1 part: node sum
    assert dd_monomial((0, 1, 3), 3, exact=True) == 4


def test_monomial_exact_vs_fraction_bracket():
    nodes = (-3, 1, 2, 5)
    n = len(nodes)
    for k in range(n + 2):
        bracket = sum(
            Fraction((-1) ** i) / denominator_d(nodes, i + 1) * Fraction(nodes[i]) ** k
            for i in range(n)
        )
        assert dd_monomial(nodes, k, exact=True) == bracket


def test_denominator_matches_product_form():
    nodes = (0.5, 1.5, 4.0)
    for i in range(3):
        prod = 1.0
        for j in range(3):
            if j != i:
                prod *= nodes[i] - nodes[j]
        assert (-1.0) ** i / denominator_d(nodes, i + 1) == pytest.approx(1.0 / prod)


def test_denominator_repeated_nodes_rejected():
    with pytest.raises(SingularNodesError):
        denominator_d((1.0, 1.0, 2.0), 1)


@given(st.lists(st.integers(min_value=-10, max_value=10), min_size=2, max_size=6,
                unique=True))
@settings(max_examples=80, deadline=None)
def test_monomial_identity_property(nodes):
    n = len(nodes)
    for k in range(n):
        want = 1 if k == n - 1 else 0
        assert dd_monomial(tuple(nodes), k, exact=True) == want


def test_identity_suite_counts_and_exactness():
    pool = (-5, -3, -1, 0, 2, 4)
    records = list(identity_suite(pool, 4))
    assert len(records) == 6 + 15 + 20 + 15
    assert all(ok for _, ok, _ in records)
    assert max(dev for _, _, dev in records) <= 1e-12


def test_identity_suite_rejects_duplicate_pool():
    with pytest.raises(ValueError):
        list(identity_suite((1, 1, 2), 3))


def reference_phase_exp(m, t):
    """exp(-i t m) with the entrywise stop test run after every Taylor term."""
    n = m.shape[0]
    mu = np.trace(m) / n
    a = -1j * t * (m - mu * np.eye(n))
    norm = float(np.abs(a).sum(axis=0).max())
    s = 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    b = a / (2.0**s)
    f = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 65):
        term = term @ b / k
        f += term
        if np.all(abs(term) <= 1e-18 * abs(f)):
            break
    for _ in range(s):
        f = f @ f
    f *= np.exp(-1j * mu * t)
    return f


def _block_bidiagonal(d, l):
    m = random_model(d, 0, 0.5)
    out = np.diag(np.tile(m.energies, l + 1).astype(complex))
    for k in range(l):
        out[k * d : (k + 1) * d, (k + 1) * d : (k + 2) * d] = m.h1
    return out


def _node_bidiagonal(nodes):
    return np.diag(np.array(nodes, dtype=complex)) + np.diag(np.ones(len(nodes) - 1), 1)


_STOP_RULE_MATRICES = {
    **{f"block-d{d}-l{l}": _block_bidiagonal(d, l) for d in range(2, 11) for l in range(1, 4)},
    # on this grid the entrywise test passes from 14 terms before the norm
    # bound's k (paired nodes) to 10 terms after it (spaced nodes)
    **{f"spaced-n{n}": _node_bidiagonal([0.11 * k for k in range(n)]) for n in range(2, 13)},
    **{f"paired-n{n}": _node_bidiagonal([0.11 * (k // 2) for k in range(n)]) for n in range(2, 13)},
}
_STOP_RULE_TIMES = [s * t for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
                    for s in (1, -1)]


@pytest.mark.parametrize("name", _STOP_RULE_MATRICES)
def test_phase_exp_bitwise_equals_every_term_stop_test(name):
    # the norm bound only defers the entrywise test: the sum must end on
    # the same bits as the loop that tests every term
    m = _STOP_RULE_MATRICES[name]
    for t in _STOP_RULE_TIMES:
        assert _phase_exp(m, t).tobytes() == reference_phase_exp(m, t).tobytes(), t


def test_phase_exp_raises_at_the_term_cap(monkeypatch):
    monkeypatch.setattr(divdiff, "_TAYLOR_MAX_TERMS", 3)
    with pytest.raises(TaylorConvergenceError, match=r"in 3 terms: worst entry ratio .* > 1e-18"):
        dd_phase([0.0, 0.11, 0.22], 1.0)
