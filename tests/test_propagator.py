import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dysonprop import divdiff, propagator
from dysonprop.cli import _EPS_LADDER
from dysonprop.divdiff import _phase_exp
from dysonprop.green import ResolventQuery, dyson_partial
from dysonprop.model import (
    SpectralModel,
    Unresolved,
    random_model,
    scale_coupling,
    two_level_model,
)
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
        assert (np.diff(np.sort(m.energies)).min() == 0) == degenerate
        for l in (0, 1, 2, 3):
            for t in (1.3, -1.3):
                got = a_matrix(m, l, t).entries
                for g in range(dim):
                    for gp in range(dim):
                        want = a_coefficient(m, l, g, gp, t)
                        assert abs(got[g, gp] - want) <= 1e-13


def mp_a_matrix(model, l, t):
    """Order-l series term by the tuple sum at 40 + max(l, log10(l! / |t|^l)) digits.

    The divided difference of e^{-iEt} over a tuple's energies comes from a
    Hermite table over the sorted nodes, in which a run of k + 1 equal nodes
    takes the derivative entry (-it)^k e^{-iEt} / k!; it depends only on the
    node multiset, so the tuples' H1 chain weights are summed per endpoint
    and multiset, one step at a time, and each multiset is evaluated once:
    the d^(l-1) tuples of high orders at small d in a few hundred terms.
    The table's differences of phases of size 1 cancel down to about
    |t|^l / l!, so log10(l! / |t|^l) digits more keep a_l's 40 at short
    times (a_21 at t = 0.03 is 2.1e-63), and l more at |t| >= 1.
    """
    d = model.dim
    short = math.log10(math.factorial(l)) - l * math.log10(abs(t)) if t else 0.0
    with mpmath.workdps(40 + max(l, math.ceil(short))):
        e = [mpmath.mpf(float(x)) for x in model.energies]
        h1 = [[mpmath.mpc(complex(v)) for v in row] for row in model.h1]
        tt = mpmath.mpf(float(t))
        dd = {}

        def phase_dd(counts):
            key = tuple(sorted(e[g] for g, c in enumerate(counts) for _ in range(c)))
            if key not in dd:
                col = phases = [mpmath.exp(-1j * x * tt) for x in key]
                for k in range(1, len(key)):
                    col = [(-1j * tt) ** k * phases[i] / mpmath.factorial(k)
                           if key[i] == key[i + k]
                           else (col[i + 1] - col[i]) / (key[i + k] - key[i])
                           for i in range(len(key) - k)]
                dd[key] = col[0]
            return dd[key]

        out = np.zeros((d, d), dtype=complex)
        for g in range(d):
            # the summed chain weights of the tuples from g, by last index and multiset
            chains = {(g, tuple(int(k == g) for k in range(d))): mpmath.mpc(1)}
            for _ in range(l):
                step = {}
                for (a, counts), w in chains.items():
                    for b in range(d):
                        key = (b, tuple(c + (k == b) for k, c in enumerate(counts)))
                        step[key] = step.get(key, 0) + w * h1[a][b]
                chains = step
            total = [mpmath.mpc(0)] * d
            for (gp, counts), w in chains.items():
                total[gp] += w * phase_dd(counts)
            out[g] = [complex(x) for x in total]
        return out


#: bound on a_matrix's error relative to its largest entry, as a multiple of
#: max(1, |t| ||M||_1) u, with M the (l+1)d block matrix of a_matrix and u
#: the unit roundoff: the squarings of e^{-iMt} lose about log2(|t| ||M||_1)
#: bits.  C is 3.6x the worst ratio, 8.8, of a sweep of 13000 random and
#: confluent cases at 2 <= d <= 4, l <= 4, lam in [0.01, 1] and |t| dE <= 976.
A_MATRIX_C = 32


def _block_matrix(m, l):
    # the (l+1)d block upper bidiagonal matrix of a_matrix, and its 1-norm
    d = m.dim
    block = np.zeros(((l + 1) * d,) * 2, dtype=complex)
    np.fill_diagonal(block, m.energies)
    for k in range(l):
        block[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = m.h1
    return block, float(np.abs(block).sum(axis=0).max())


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=4), st.floats(min_value=0.01, max_value=488.0),
       st.sampled_from([1.0, -1.0]), st.floats(min_value=0.01, max_value=1.0),
       st.sampled_from(["random", "confluent"]))
# the top of the drawn range, |t| dE = 976, and |t| dE = 2000 past it
@example(4, 3, 4, 488.0, -1.0, 1.0, "confluent")
@example(3, 3, 2, 1000.0, 1.0, 0.5, "random")
@example(4, 3, 3, 1000.0, -1.0, 1.0, "confluent")
# close levels that make |t| large, t = 626 and t = 1590 exactly: l = 1 is off
# by 4.0e-14 and 7.1e-14 there, the rounding of the phases, which the
# quadrature oracle shows as well
@example(2, 31, 1, 35.77413131323159, 1.0, 0.5, "random")
@example(2, 25, 1, 39.985664562900524, 1.0, 0.5, "random")
# long times at l >= 2, where the Taylor sum at theta <= 1 took the error off
# 40-digit mpmath from 2.0e-13 to 2.2e-15 (two-level(1, 0.3), l = 3, t = 900),
# 1.4e-13 to 4.4e-14 (d = 7, l = 2, t = 80) and 2.0e-14 to 3.3e-15 (d = 4,
# l = 3, t = 20) against a sum at theta <= 0.5 with one squaring more
@example(2, 0, 3, 450.0, 1.0, 0.3, "two-level")
@example(7, 0, 2, 113.0780796880032, 1.0, 0.5, "random")
@example(4, 3, 3, 16.89234657473521, 1.0, 0.5, "random")
@settings(max_examples=40, deadline=None)
def test_a_matrix_against_mpmath(d, seed, l, half_phase, sign, lam, kind):
    # half_phase is |t| dE / 2, dE the level spread; a confluent model has
    # levels 0 and 1 equal and keeps its spread through a third level, and
    # "two-level" is two_level_model(1, lam), which reads neither d nor seed
    assume(kind != "confluent" or d >= 3)
    m = two_level_model(1.0, lam) if kind == "two-level" else random_model(d, seed, lam=lam)
    if kind == "confluent":
        e = m.energies.copy()
        e[1] = e[0]
        m = SpectralModel(e, m.h1)
    t = sign * 2.0 * half_phase / float(np.ptp(m.energies))
    _, norm = _block_matrix(m, l)
    want = mp_a_matrix(m, l, t)
    err = np.max(np.abs(a_matrix(m, l, t).entries - want)) / np.max(np.abs(want))
    assert err <= A_MATRIX_C * max(1.0, abs(t) * norm) * np.finfo(float).eps / 2


def _table_row(m, N, t):
    # the blocks (0, 0), ..., (0, N) of e^{-iM_N t}, read off the inverse
    # check's one table of M_N, before truncated_evolution puts a_1 in place
    row = _phase_exp(propagator._power_tables(m, N), t)[:m.dim]
    return row.reshape(m.dim, N + 1, m.dim).swapaxes(0, 1)


_TABLE_CASES = {
    # the inverse check's node times on its two-level and d = 6 models
    **{f"two-level-{t}": (two_level_model(1.0, 0.3), 2, t) for t in (50.3, 177.4, 199.9)},
    "d6-161.2": (random_model(6, 5, 0.3), 2, 161.2),
    # levels 0 and 1 coincide
    "coincident": (SpectralModel([0.2, 0.2, 0.9], random_model(3, 4, 0.5).h1), 3, 77.7),
    # a free model, whose terms vanish
    "h1-zero": (SpectralModel([0.2, 0.5, 0.9], np.zeros((3, 3))), 2, 123.4),
    # one level: block (0, 24) starts at power 24, past the table's degree
    # 20, so the sum goes on term by term to it
    "one-level-l24": (SpectralModel([0.7], [[0.3]]), 24, 50.3),
}


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_a_matrix_from_a_table_against_mpmath(case):
    # every block a_0, ..., a_N of the row off the table of M_N, and the
    # partial sum truncated_evolution makes of it, within a_matrix's bound
    m, N, t = _TABLE_CASES[case]
    _, norm = _block_matrix(m, N)
    for tt in (t, -t):
        want = [mp_a_matrix(m, l, tt) for l in range(N + 1)]
        bound = A_MATRIX_C * max(1.0, abs(tt) * norm) * np.finfo(float).eps / 2
        for l, got in enumerate(_table_row(m, N, tt)):
            if not want[l].any():
                assert not got.any()
            else:
                assert _rel_err(got, want[l]) <= bound, (l, tt)
        got = truncated_evolution(m, N, tt, powers=propagator._power_tables(m, N)).entries
        assert _rel_err(got, sum(want)) <= bound


def test_table_sum_runs_on_term_by_term_past_its_degree(monkeypatch):
    # capped at the table's 20 terms, the one-level N = 24 row refuses with
    # the cap's text, which only a failed entrywise test at k = 20 reaches:
    # uncapped, the sum goes on term by term from there
    m, N, t = _TABLE_CASES["one-level-l24"]
    table = propagator._power_tables(m, N)
    monkeypatch.setattr(divdiff, "_TAYLOR_MAX_TERMS", 20)
    with pytest.raises(Unresolved, match=r"did not converge in 20 terms: worst entry ratio"):
        truncated_evolution(m, N, t, powers=table)


@pytest.mark.parametrize("l", [21, 22, 23, 24])
def test_products_path_runs_on_term_by_term_past_its_degree(l):
    # block (0, l) of a block matrix starts at power l, past the degree 20 of
    # the Paterson-Stockmeyer sum, so a_matrix gets it from the term-by-term
    # continuation alone: at theta <= 1 (t = 0.03 and 1 on the two-level
    # model, where a_21 is 2.1e-63 at 0.03) and s >= 1, of both signs, and on
    # a d = 2 model with every H1 entry nonzero
    for m in (two_level_model(1.0, 0.3), random_model(2, 7, 0.5)):
        _, norm = _block_matrix(m, l)
        for t in (0.03, 1.0, -5.3, 37.3):
            err = _rel_err(a_matrix(m, l, t).entries, mp_a_matrix(m, l, t))
            assert err <= A_MATRIX_C * max(1.0, abs(t) * norm) * np.finfo(float).eps / 2, (m.dim, t)


def test_table_row_at_order_24_against_the_per_order_route():
    # U_24 as the first block row of one exponential, against the sum of 25
    # a_matrix calls, 23 of them exponentials of their own M_l: the two
    # routes share only the closed forms of a_0 and a_1
    m = two_level_model(1.0, 0.3)
    _, norm = _block_matrix(m, 24)
    table = propagator._power_tables(m, 24)
    for t in (1.0, -1.0, 5.3, -5.3, 37.3, -37.3, 177.4):
        got = truncated_evolution(m, 24, t, powers=table).entries
        err = _rel_err(got, truncated_evolution(m, 24, t).entries)
        assert err <= A_MATRIX_C * max(1.0, abs(t) * norm) * np.finfo(float).eps, t


@pytest.mark.parametrize("N, route", [pytest.param(2, "table", id="2"),
                                      pytest.param(5, "table", id="5"),
                                      pytest.param(2, "per-order", id="per-order-2"),
                                      pytest.param(5, "per-order", id="per-order-5")])
def test_table_route_at_minus_t_is_the_exact_conjugate(N, route):
    # for a real model, U_N(-t) = conj U_N(t) bit for bit on the table route
    # and on the per-order route, whose a_matrix calls build their own tables:
    # the Taylor row at -t is the exact conjugate of the row at t, and so are
    # the sum, its squarings, the phase e^{-i mu t} and a_1's closed form.
    # Over theta <= 1 (s = 0) and up to s = 10
    for m in (two_level_model(1.0, 0.3), SpectralModel([0.1, 0.4, 1.3], random_model(3, 4).h1.real)):
        table = propagator._power_tables(m, N) if route == "table" else None
        for t in np.geomspace(1e-3, 400.0, 61):
            u = truncated_evolution(m, N, t, powers=table).entries
            assert np.array_equal(truncated_evolution(m, N, -t, powers=table).entries, u.conj()), t


@pytest.mark.parametrize("l, refused", [(914, False), (915, True), (3000, True)])
def test_a_matrix_refuses_tables_past_the_entry_bound(l, refused, monkeypatch):
    # a one-off table of M_l holds 5 ((l + 1) d)^2 entries: at d = 2,
    # 16 744 500 at l = 914 and 16 781 120 at l = 915, past 2^24: refused by
    # _series_table, naming the order, before M_l is built (at l = 3000 its
    # 6002^2 complex entries would take 576 MB)
    class Built(Exception):
        pass

    def build(m, p):
        raise Built

    monkeypatch.setattr(propagator, "_phase_powers", build)
    tracemalloc.start()
    try:
        with pytest.raises(Unresolved if refused else Built) as err:
            a_matrix(two_level_model(), l, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if refused:
        assert str(err.value) == (f"series term cannot be resolved: order l = {l} puts its "
                                  "Taylor power table past 16777216 entries")
        assert peak < 2**20


def test_partial_sum_refuses_its_last_order_before_the_first(monkeypatch):
    # at d = 6, a_400's table is past the bound: the per-order sum takes a_400
    # first, whose _series_table refuses with a_400's words, so no other order
    # builds a table or takes a term
    real_table, real_term, orders = propagator._series_table, propagator.a_matrix, []

    def table(model, l, *args):
        orders.append(l)
        return real_table(model, l, *args)

    def term(model, l, t):
        if l != 400:
            raise AssertionError(f"a_{l} was taken before the refusal")
        return real_term(model, l, t)

    monkeypatch.setattr(propagator, "_series_table", table)
    monkeypatch.setattr(propagator, "a_matrix", term)
    with pytest.raises(Unresolved, match=r"^series term cannot be resolved: order l = 400 "):
        truncated_evolution(random_model(6, 1, 0.1), 400, 1.0)
    assert orders == [400]


def _no_exponential(*args):
    raise AssertionError("a_matrix at l = 1 takes no block exponential")


@pytest.mark.parametrize("levels", ["degenerate", "split", "random"])
@pytest.mark.parametrize("phase", [1.3, 100.0, 976.0])
def test_first_order_term_in_closed_form(levels, phase, monkeypatch):
    # a_1 = H1 * f[E_a, E_b] against block (0, 1) of the 2d x 2d exponential
    # it replaced, for levels in coincident pairs, pairs split by 1e-12 and
    # random levels, at |t| dE up to 976; the diagonal always has coincident
    # levels, and a 0/0 there would raise (RuntimeWarning is an error here)
    m = random_model(4, 40, lam=0.5)
    e = m.energies.copy()
    if levels != "random":
        e[1], e[3] = e[0], e[2]
        if levels == "split":
            e[1] += 1e-12
            e[3] -= 1e-12
    m = SpectralModel(e, m.h1)
    block, norm = _block_matrix(m, 1)
    t = phase / float(np.ptp(e))
    monkeypatch.setattr(propagator, "_phase_exp", _no_exponential)
    for tt in (t, -t):
        got = a_matrix(m, 1, tt).entries
        want = _phase_exp(divdiff._phase_powers(block, divdiff._P), tt)[:4, 4:]
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= A_MATRIX_C * max(1.0, abs(tt) * norm) * np.finfo(float).eps / 2
    # time reversal holds bit for bit, and the term vanishes at t = 0
    assert np.array_equal(a_matrix(m, 1, -t).entries, a_matrix(m, 1, t).entries.conj().T)
    assert not a_matrix(m, 1, 0.0).entries.any()


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("t", [1e308, -1e308])
def test_closed_form_orders_refuse_phases_past_the_float_range(l, t):
    # |t| * max|E| = 3e308 overflows; RuntimeWarning is an error here, so the
    # refusal must come before any overflowing numpy product
    m = SpectralModel([2.0, 3.0], [[0, 0.1], [0.1, 0]])
    with pytest.raises(Unresolved, match=r"\|t\| = 1\.000e\+308 times max\|E\| = 3\.000e\+00"):
        a_matrix(m, l, t)


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("t", [1e16, -1e16, 1e300, -1e300])
def test_every_order_refuses_phases_that_keep_no_bit(l, t):
    # |t| * max|E| = 3e16 is past 1/eps_mach = 4.5e15: e^{-iEt} keeps no
    # correct bit, where l <= 1 returned meaningless phases and l = 2 entries
    # of 1e13 at 1e16 and exact zeros at 1e300
    m = SpectralModel([2.0, 3.0], [[0, 0.1], [0.1, 0]])
    with pytest.raises(Unresolved, match=r"times max\|E\| = 3\.000e\+00 is not below "
                                         r"1/eps_mach = 4\.504e\+15: no phase keeps a bit"):
        a_matrix(m, l, t)
    # a tenth of the bound still resolves at every order
    assert np.isfinite(a_matrix(m, l, 0.1 / np.finfo(float).eps / 3.0).entries).all()


def _plain_a_matrix(m, l, t):
    """a_matrix built the plain way: np.diag for a_0, np.sinc for a_1 and
    np.fill_diagonal for the block matrix of l >= 2."""
    d, e = m.dim, m.energies
    if l == 0:
        return np.diag(np.exp(-1j * e * t))
    if l == 1:
        half = 0.5 * t
        phase = -1j * t * np.exp(-1j * half * (e[:, None] + e))
        return m.h1 * phase * np.sinc(half / np.pi * (e[:, None] - e))
    block = np.zeros(((l + 1) * d,) * 2, dtype=complex)
    np.fill_diagonal(block, e)
    for k in range(l):
        block[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = m.h1
    return _phase_exp(divdiff._phase_powers(block, divdiff._P), t)[:d, l * d:]


def _level_variants(d):
    # spaced random levels, and for d >= 2 the first two made to coincide or
    # to lie 1e-12 apart
    m = random_model(d, d, lam=0.5)
    out = [m]
    for gap in ((0.0, 1e-12) if d >= 2 else ()):
        e = m.energies.copy()
        e[1] = e[0] + gap
        out.append(SpectralModel(e, m.h1))
    return out


@pytest.mark.parametrize("d", [1, 2, 6])
def test_a_matrix_and_partial_sum_keep_the_bits_of_the_plain_construction(d):
    # every term and the N = 3 sum from a zero matrix, bit for bit (signed
    # zeros included) beyond the goldens' models: coincident, 1e-12 apart and
    # spaced levels, from t = 0 to |t| = 1e3 of both signs
    for m in _level_variants(d):
        for t in (0.0, 1e-8, -1e-8, 37.3, -37.3, 1e3, -1e3):
            total = np.zeros((d, d), dtype=complex)
            for l in range(4):
                want = _plain_a_matrix(m, l, t)
                assert a_matrix(m, l, t).entries.tobytes() == want.tobytes(), (l, t)
                total += want
            assert truncated_evolution(m, 3, t).entries.tobytes() == total.tobytes(), t


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
    # every route reads its order through the one normalizer
    m = random_model(3, 2, 0.3)
    q = ResolventQuery(-2.0, "+", 0.05)
    ref = (truncated_evolution(m, 2, 0.7).entries,
           epsilon_form_evolution(m, 2, 0.7, 1e-2, "+").entries,
           dyson_partial(m, q, 2).entries)
    for order in (np.int64(2), 2.0, TruncationSpec(2.0), TruncationSpec(np.int64(2))):
        got = (truncated_evolution(m, order, 0.7).entries,
               epsilon_form_evolution(m, order, 0.7, 1e-2, "+").entries,
               dyson_partial(m, q, order).entries)
        assert [g.tobytes() for g in got] == [r.tobytes() for r in ref], order
    assert type(TruncationSpec(2.0).N) is int and type(TruncationSpec(np.int64(2)).N) is int
    for bad in (2.5, -1, np.nan, np.inf):
        for route in (lambda: truncated_evolution(m, bad, 0.7),
                      lambda: epsilon_form_evolution(m, bad, 0.7, 1e-2, "+"),
                      lambda: dyson_partial(m, q, bad)):
            with pytest.raises(ValueError, match="truncation order must be a nonnegative integer"):
                route()


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
    # left[m, g, a] * right[m, g, b] and the eps-form against the partial
    # fractions summed tuple by tuple, every entry
    for dim in (2, 3, 4):
        m = _degenerate_model(dim) if degenerate else random_model(dim, 10 + dim, lam=0.5)
        for N in (0, 1, 2, 3):
            for sgn in (1, -1):
                for eps in (1e-2, 2.5e-3):
                    nodes, left, right = _graded_chains(m, N, eps, sgn)
                    got = left[:, :, :, np.newaxis] * right[:, :, np.newaxis, :]
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


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), N=st.integers(0, 4), seed=st.integers(0, 2**16),
       lam=st.floats(0.01, 1.0))
def test_graded_chains_over_a_ladder_equal_one_call_per_eps(d, N, seed, lam):
    # the ladder is a leading axis: slice k is the scalar call at eps_k, bit for bit
    m = random_model(d, seed, lam=lam)
    ladder = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    for sgn in (1, -1):
        stacked = _graded_chains(m, N, ladder, sgn)
        for k, eps in enumerate(ladder):
            for got, want in zip(stacked, _graded_chains(m, N, eps, sgn)):
                assert got[k].shape == want.shape
                assert got[k].tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_graded_chains_check_every_eps_of_a_ladder(bad, where):
    ladder = [1e-2, 5e-3, 2.5e-3]
    ladder[where] = bad
    with pytest.raises(ValueError, match=f"^eps must be positive and finite, got {bad}$"):
        _graded_chains(random_model(3, 1), 2, ladder, 1)


@pytest.mark.parametrize("N, refused", [(116507, False), (116508, True)])
def test_graded_chains_refuse_arrays_past_the_entry_bound(N, refused, monkeypatch):
    # a four-point ladder at d = 6 holds 4 (N + 1) 36 entries per array: 16 777 152
    # at N = 116 507 and 16 777 296 at N = 116 508, past 2^24: refused, naming N,
    # before any array is built
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    m = random_model(6, 1)
    monkeypatch.setattr(np, "empty", build)
    tracemalloc.start()
    try:
        with pytest.raises(Unresolved if refused else Built) as err:
            _graded_chains(m, N, [1e-2, 5e-3, 2.5e-3, 1.25e-3], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if refused:
        assert str(err.value) == (f"graded chains cannot be resolved: order N = {N} puts its "
                                  "chains past 16777216 entries")
        assert peak < 2**20


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
    for eps in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            epsilon_form_evolution(m, TruncationSpec(1), 1.0, eps, "+")
    # a ladder is _graded_chains' to take: here it ended in numpy's "truth value
    # of an array is ambiguous" at the float-range test
    with pytest.raises(ValueError, match=r"^eps must be one number, got shape \(2,\)$"):
        epsilon_form_evolution(m, 2, 1.0, np.array([0.1, 0.2]), "+")


def test_epsilon_form_refuses_phases_it_cannot_hold(monkeypatch):
    m = two_level_model(1.0, 0.3)
    real = propagator._graded_chains

    def chains(*args):
        raise AssertionError("the chains were built before the refusal")

    monkeypatch.setattr(propagator, "_graded_chains", chains)  # each refusal comes first
    # the times a_matrix refuses, with its text; the eps-form once returned
    # finite numbers with no correct bit here
    with pytest.raises(Unresolved, match="no phase keeps a bit"):
        epsilon_form_evolution(m, 2, 1e300, 0.1, "+")
    # |e^{-i z_N t}| = e^{-sgn N eps t} past the float range, which overflowed
    # exp: the advanced shift at t > 0, the retarded one at t < 0
    for t, sign in ((1e4, "-"), (-1e4, "+")):
        with pytest.raises(Unresolved, match=r"^e\^\{-i z t\} cannot be resolved: at t = "
                                             r"-?10000\.0, eps = 0\.1 and N = 2 "):
            epsilon_form_evolution(m, 2, t, 0.1, sign)
    monkeypatch.setattr(propagator, "_graded_chains", real)
    # the decaying side, and a growth e^709.6 just inside the range
    for t, sign in ((1e4, "+"), (3548.0, "-")):
        assert np.all(np.isfinite(epsilon_form_evolution(m, 2, t, 0.1, sign).entries))


def test_normalize_sign():
    assert normalize_sign("+") == 1
    assert normalize_sign("-") == -1
    assert normalize_sign(-1) == -1
    with pytest.raises(ValueError):
        normalize_sign("x")


def test_richardson_limit_rejects_repeated_eps():
    with pytest.raises(ValueError, match="distinct"):
        richardson_limit([1e-2, 1e-2], [1.0, 2.0])


def test_richardson_limit_needs_one_sample_per_eps():
    for eps, samples in (([1e-2, 5e-3], [1.0]), ([1e-2], [1.0, 2.0]), ([], []),
                         ([], np.empty((0, 3, 3)))):
        with pytest.raises(ValueError, match="^need one sample per eps value$"):
            richardson_limit(eps, samples)


def test_richardson_limit_takes_samples_stacked_in_one_array():
    eps = [1e-2, 5e-3, 2.5e-3]
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    assert richardson_limit(eps, stack).tobytes() == richardson_limit(eps, list(stack)).tobytes()
    assert richardson_limit(eps[:2], np.array([1.0, 2.0])) == richardson_limit(eps[:2], [1.0, 2.0])


def test_richardson_limit_polynomial():
    # exact for data that is polynomial in eps
    eps = [0.4, 0.2, 0.1]
    samples = [7.0 + 3.0 * e - 2.0 * e**2 for e in eps]
    assert richardson_limit(eps, samples) == pytest.approx(7.0, abs=1e-12)
