import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonprop import divdiff
from dysonprop.divdiff import (
    _phase_exp,
    dd_phase,
    denominator_d,
    identity_suite,
)
from dysonprop.model import SpectralModel, Unresolved, random_model
from dysonprop.propagator import a_matrix


def mp_dd_phase(nodes, t, prec=60):
    """High-precision oracle: the Newton divided-difference tableau of e^{-iEt}
    over the sorted nodes, a run of equal nodes taking the derivative limit,
    with prec digits beyond those the tableau cancels: the differences of
    close nodes, and a result near |t|^(n-1) / (n-1)! from values near 1."""
    xs = sorted(mpmath.mpf(repr(float(x))) for x in nodes)
    gaps = [float(b - a) for a, b in zip(xs, xs[1:]) if b != a]
    lost = len(xs) * max(0, math.ceil(-math.log10(min(gaps)))) if gaps else 0
    if t:
        lost += math.ceil((len(xs) - 1) * max(0.0, -math.log10(abs(t)))
                          + math.lgamma(len(xs)) / math.log(10))
    with mpmath.workdps(prec + lost):
        tt = mpmath.mpf(repr(float(t)))
        col = [mpmath.exp(-1j * x * tt) for x in xs]
        for k in range(1, len(xs)):
            col = [(-1j * tt) ** k * mpmath.exp(-1j * xs[i] * tt) / mpmath.factorial(k)
                   if xs[i + k] == xs[i] else (col[i + 1] - col[i]) / (xs[i + k] - xs[i])
                   for i in range(len(xs) - k)]
        return complex(col[0])


def dd_monomial(nodes, K):
    """Exact divided difference of E^K over the nodes, as Fractions.

    It is the complete homogeneous symmetric polynomial of degree K - (n - 1)
    in the nodes, hence 0 for K < n - 1 and 1 for K = n - 1; repeated nodes
    need no special casing.
    """
    m = K - (len(nodes) - 1)
    if m < 0:
        return Fraction(0)
    h = [Fraction(1)] + [Fraction(0)] * m
    for x in map(Fraction, nodes):
        for d in range(1, m + 1):
            h[d] += x * h[d - 1]
    return h[m]


def test_single_node():
    assert dd_phase([1.5], 2.0) == pytest.approx(np.exp(-3.0j), abs=1e-15)


def test_dd_phase_rejects_bad_nodes_and_time():
    with pytest.raises(ValueError, match="^a node list needs at least one node$"):
        dd_phase([], 1.0)
    # every shape but a list: a 0-d node holds one node, but is no list of them
    for nodes, shape in (([[1.0, 2.0]], r"\(1, 2\)"), (1.0, r"\(\)"), (np.array(2.0), r"\(\)")):
        with pytest.raises(ValueError, match=f"^nodes must be one-dimensional, got shape {shape}$"):
            dd_phase(nodes, 1.0)
    with pytest.raises(ValueError, match="nodes must be finite"):
        dd_phase([0.5, np.nan], 1.0)
    with pytest.raises(ValueError, match="nodes must be finite"):
        dd_phase([complex(0.5, np.inf)], 1.0)
    with pytest.raises(ValueError, match="t must be finite"):
        dd_phase([0.5, 1.0], np.inf)
    with pytest.raises(ValueError, match="t must be finite"):
        dd_phase([0.5], np.nan)


def test_dd_phase_refuses_the_times_a_matrix_refuses():
    # at |t| max|E| >= 1/eps_mach no phase keeps a correct bit: dd_phase
    # returned 0.06+0.26i at t = 1e16, where the divided difference is 0.41+1.76i
    model = SpectralModel(np.array([1.0, 2.0]), np.zeros((2, 2)))
    with pytest.raises(Unresolved) as refused:
        a_matrix(model, 2, 1e16)
    with pytest.raises(Unresolved, match=f"^{re.escape(str(refused.value))}$"):
        dd_phase([1.0, 2.0], 1e16)
    # a tenth of the bound resolves, each phase off by about |t| max|E| eps_mach
    t = 0.1 / (2.0 * math.ulp(1.0))
    assert abs(dd_phase([1.0, 2.0], t) - mp_dd_phase([1.0, 2.0], t)) <= 0.2


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
    assert dd_monomial((0, 1), 0) == 0
    assert dd_monomial((0, 1), 1) == 1
    assert dd_monomial((-1, -1, 2), 2) == 1
    assert dd_monomial((-1, -1, 2), 3) == 0  # degree-1 part: node sum
    assert dd_monomial((0, 1, 3), 3) == 4


def test_monomial_exact_vs_fraction_bracket():
    nodes = (-3, 1, 2, 5)
    n = len(nodes)
    for k in range(n + 2):
        bracket = sum(
            Fraction((-1) ** i) / denominator_d(nodes, i + 1) * Fraction(nodes[i]) ** k
            for i in range(n)
        )
        assert dd_monomial(nodes, k) == bracket


def test_denominator_matches_product_form():
    nodes = (0.5, 1.5, 4.0)
    for i in range(3):
        prod = 1.0
        for j in range(3):
            if j != i:
                prod *= nodes[i] - nodes[j]
        assert (-1.0) ** i / denominator_d(nodes, i + 1) == pytest.approx(1.0 / prod)


def test_denominator_repeated_nodes_rejected():
    with pytest.raises(ValueError, match="coincident nodes at positions 2 and 1"):
        denominator_d((1.0, 1.0, 2.0), 1)


def test_denominator_index_is_one_based():
    for i in (0, 4, -1):
        with pytest.raises(ValueError, match=rf"^index i={i} out of range 1\.\.3$"):
            denominator_d((1, 2, 3), i)


@given(st.lists(st.integers(min_value=-10, max_value=10), min_size=2, max_size=6,
                unique=True))
@settings(max_examples=80, deadline=None)
def test_monomial_identity_property(nodes):
    n = len(nodes)
    for k in range(n):
        want = 1 if k == n - 1 else 0
        assert dd_monomial(tuple(nodes), k) == want


def test_identity_suite_counts_and_exactness():
    pool = (-5, -3, -1, 0, 2, 4)
    records = list(identity_suite(pool, 4))
    assert len(records) == 6 + 15 + 20 + 15
    assert all(ok for _, ok, _ in records)
    assert max(dev for _, _, dev in records) <= 1e-12


def test_identity_suite_exact_check_reads_the_denominators(monkeypatch):
    # a wrong d_1 breaks every identity, so the exact check must see it
    real = divdiff.denominator_d

    def doubled_first(nodes, i):
        return 2 * real(nodes, i) if i == 1 else real(nodes, i)

    monkeypatch.setattr(divdiff, "denominator_d", doubled_first)
    records = list(identity_suite((-3, -1, 2, 5), 3))
    assert len(records) == 4 + 6 + 4
    assert not any(ok for _, ok, _ in records)


def test_identity_suite_exact_on_fraction_pool():
    records = list(identity_suite((Fraction(-1, 3), Fraction(1, 2), 2, Fraction(7, 5)), 4))
    assert all(ok for _, ok, _ in records)


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
    # on this grid the sum goes on term by term past the degree, 20, by up to
    # 2 terms for spaced nodes, on either path, and passes at 20 for the rest
    **{f"spaced-n{n}": _node_bidiagonal([0.11 * k for k in range(n)]) for n in range(2, 13)},
    **{f"paired-n{n}": _node_bidiagonal([0.11 * (k // 2) for k in range(n)]) for n in range(2, 13)},
    # ||m - mu||_1 = 1: at t = 0.5, 1 and 2 theta sits on the boundary of a scale 2^s
    "unit-norm": np.array([[0.3125, 0.6875], [0.6875, -0.3125]]),
}
_STOP_RULE_TIMES = [s * t for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
                    for s in (1, -1)]


@pytest.mark.parametrize("name", _STOP_RULE_MATRICES)
def test_phase_exp_bitwise_equals_every_term_stop_test(name):
    # the Paterson-Stockmeyer sum stops only once every entry of its last
    # term passes the entrywise test, as the loop that tests every term does,
    # so every entry, the tiny corners of node matrices included, matches
    # that loop's to rounding: within 1e-10 of itself, and
    # exactly where the loop's entry is 0 (the worst on this grid is 5.5e-12,
    # block-d7).  A sum accepted on the norm bound alone misses the corner
    # terms of spaced and paired nodes from n = 6 on, by 1e-9 of the entry
    # up to all of it.  Both block sizes of a ``_phase_powers`` table, a one-off
    # call's p = 4 and the shared p = 20, keep the same test and the same bound
    m = _STOP_RULE_MATRICES[name]
    tables = [divdiff._phase_powers(m, p) for p in (divdiff._P, divdiff._DEGREE)]
    for t in _STOP_RULE_TIMES:
        want = reference_phase_exp(m, t)
        for got in (_phase_exp(table, t) for table in tables):
            assert (abs(got - want) <= 1e-10 * abs(want)).all(), t


@pytest.mark.parametrize("pair", [1, 2])
def test_phase_exp_from_a_table_sums_on_past_its_degree(pair):
    # the corners of 24 spaced or paired nodes start at term 23, past the
    # table's degree 20, so the entrywise test fails there and the sum goes on
    # term by term, to within 1e-10 of the loop's every entry.  Up to |t| = 20:
    # at 40 and 80 the squarings of these sorted nodes take their corners up
    # to 3e-7 off the loop's on either path (the table's or the products')
    m = _node_bidiagonal([0.11 * (k // pair) for k in range(24)])
    table = divdiff._phase_powers(m, divdiff._DEGREE)
    for t in [t for t in _STOP_RULE_TIMES if abs(t) <= 20.0]:
        got, want = _phase_exp(table, t), reference_phase_exp(m, t)
        assert (abs(got - want) <= 1e-10 * abs(want)).all(), t


def _refusal(m, t, p):
    with pytest.raises(Unresolved) as err:
        _phase_exp(divdiff._phase_powers(m, p), t)
    return str(err.value)


def test_phase_exp_raises_at_the_term_cap(monkeypatch):
    # capped at the degree, 20 terms: the corner of 24 spaced nodes starts at
    # term 23, so the entrywise test fails at the cap, which refuses
    monkeypatch.setattr(divdiff, "_TAYLOR_MAX_TERMS", divdiff._DEGREE)
    with pytest.raises(Unresolved, match=r"in 20 terms: worst entry ratio .* > 1e-18"):
        dd_phase([0.11 * k for k in range(24)], 1.0)


@pytest.mark.parametrize("nodes, t", [([1e300, -1e300], 1e300), ([2.0, 1.0], 1e308),
                                      ([1e308, -1e308], 1.0)])
def test_phase_exp_refuses_an_unrepresentable_scale(nodes, t):
    # theta = |t| * ||J - mu||_1 is infinite, or finite but past 2^1023 so that
    # the scale 2^s overflows: a halving loop never ended on the first.  J is
    # dd_phase's bidiagonal matrix of the nodes in their Leja order; dd_phase
    # itself refuses these times before it builds J
    j = np.diag(np.array(nodes, dtype=complex))
    j[0, 1] = 1.0
    assert re.match(r"exp\(-i t m\) cannot be resolved: \|t\| = \S+ "
                    r"times \|\|m - mu\|\|_1 = \S+ needs a scale 2\^s", _refusal(j, t, divdiff._P))
    # from the shared table's block size, in the same words
    assert _refusal(j, t, divdiff._DEGREE) == _refusal(j, t, divdiff._P)


def test_phase_exp_refuses_squarings_past_the_float_range():
    # the scale 2^s is representable, but the corner (-it)^2 / 2 of a triple
    # confluent node is 5e599: overflowing squarings end in Unresolved, and
    # (RuntimeWarnings being errors here) without a warning
    with pytest.raises(Unresolved, match=r"^exp\(-i t m\) cannot be resolved: \|t\| = 1\.000e\+300 "
                                         r"squares past the float range"):
        dd_phase([0.0, 0.0, 0.0], 1e300)
    j = _node_bidiagonal([0.0, 0.0, 0.0])
    assert _refusal(j, 1e300, divdiff._DEGREE) == _refusal(j, 1e300, divdiff._P)


def _spread_nodes(kind, n, seed):
    """n sorted nodes spread over exactly [-3, 3]: uniform random, repeated
    pairs or repeated triples."""
    rng = np.random.default_rng(seed)
    reps = {"random": 1, "pairs": 2, "triples": 3}[kind]
    x = np.sort(np.repeat(rng.uniform(-3.0, 3.0, -(-n // reps)), reps)[:n])
    return (x - x[0]) / (x[-1] - x[0]) * 6.0 - 3.0


@pytest.mark.parametrize("n", [10, 20, 30, 40])
def test_sorted_and_confluent_nodes_against_mpmath(n):
    # sorted input puts the divided difference over a run of close nodes, many
    # orders above the corner, into the squarings; Leja order keeps it at
    # roundoff.  |t| * spread reaches 300 here: past that the error grows with
    # the number of squarings (README, "How the series terms are computed")
    for kind in ("random", "pairs", "triples"):
        for seed in range(3):
            nodes = _spread_nodes(kind, n, seed)
            for t in (10.0, -25.0, 50.0):
                want = mp_dd_phase(nodes, t)
                assert abs(dd_phase(nodes, t) - want) <= 1e-12 * abs(want), (kind, seed, t)


def test_random_nodes_at_a_long_time_against_mpmath():
    # |t| * spread = 1800, six times the reach of the test above: 24 random
    # nodes are 1.1e-13 off, and were 4.6e-13 off with the Taylor sum scaled
    # to theta <= 0.5 and one squaring more
    nodes = _spread_nodes("random", 24, 1)
    want = mp_dd_phase(nodes, 300.0)
    assert abs(dd_phase(nodes, 300.0) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [57, 60, 80, 100])
def test_term_cap_grows_with_the_node_count(n):
    # the corner of the n-node J first gets a Taylor term at k = n - 1: with a
    # flat cap of 64 terms dd_phase raised from about 56 nodes on
    for kind, t in (("random", 0.1), ("pairs", 1.0), ("random", 10.0), ("pairs", 50.0)):
        nodes = _spread_nodes(kind, n, n)
        want = mp_dd_phase(nodes, t)
        assert abs(dd_phase(nodes, t) - want) <= 1e-12 * abs(want), (kind, t)
