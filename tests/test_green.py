import random
import re
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from dysonprop import green, oracle, propagator
from dysonprop.green import (
    QuadratureSpec,
    ResolventQuery,
    complete_resolvent_direct,
    dyson_partial,
    forward_fourier,
    inverse_fourier_check,
    timedep_green,
    unperturbed_resolvent,
)
from dysonprop.model import (
    SpectralModel,
    Unresolved,
    hamiltonian,
    random_model,
    scale_coupling,
    two_level_model,
)
from dysonprop.oracle import exact_evolution, gauss_legendre, linear_solve
from dysonprop.propagator import OperatorMatrix, TruncationSpec, truncated_evolution


def test_query_validation():
    # accepted, a NaN E warned in the divisions of dyson_partial and of the
    # direct solve, and an infinite E or eps in the direct solve's products
    for E, eps, what in ((1.0, -0.1, "eps"), (np.nan, 0.1, "E"), (np.inf, 0.1, "E"),
                         (-np.inf, 0.1, "E"), (0.4, np.inf, "eps"), (0.4, np.nan, "eps")):
        with pytest.raises(ValueError, match=f"^{what} must be .*finite, got"):
            ResolventQuery(E, "+", eps)
    q = ResolventQuery(2.0, "-", 0.3)
    assert q.z == pytest.approx(2.0 - 0.3j)


def test_unperturbed_resolvent_identity():
    m = random_model(4, 1)
    q = ResolventQuery(0.2, "+", 0.05)
    g0 = unperturbed_resolvent(m, q).entries
    lhs = (q.z * np.eye(4) - np.diag(m.energies)) @ g0
    assert np.max(np.abs(lhs - np.eye(4))) <= 1e-14


def test_complete_resolvent_residual():
    m = random_model(4, 2, lam=0.5)
    q = ResolventQuery(0.7, "+", 0.02)
    g = complete_resolvent_direct(m, q)
    lhs = (q.z * np.eye(4) - hamiltonian(m)) @ g.entries
    assert np.max(np.abs(lhs - np.eye(4))) <= 1e-10
    assert g.params["residual"] <= 1e-10


def test_resolvent_conjugation_symmetry():
    m = random_model(3, 3, lam=0.4)
    gp = complete_resolvent_direct(m, ResolventQuery(0.4, "+", 0.1)).entries
    gm = complete_resolvent_direct(m, ResolventQuery(0.4, "-", 0.1)).entries
    assert np.max(np.abs(gm - gp.conj().T)) <= 1e-13


def test_dyson_partial_converges_to_direct():
    m = random_model(4, 11, lam=0.3)
    E = float(np.min(m.energies)) - 2.0
    q = ResolventQuery(E, "+", 0.05)
    rho = dyson_partial(m, q, 0).params["rho"]
    if rho > 0.5:
        m = scale_coupling(m, 0.5 / rho)
        q = ResolventQuery(E, "+", 0.05)
    partial = dyson_partial(m, q, 40)
    direct = complete_resolvent_direct(m, q)
    assert partial.params["rho"] <= 0.5
    assert np.max(np.abs(partial.entries - direct.entries)) <= 1e-8


def test_dyson_fixed_point_step():
    # one Dyson step applied to the exact resolvent reproduces it
    m = random_model(3, 4, lam=0.4)
    q = ResolventQuery(-1.5, "+", 0.1)
    g0 = unperturbed_resolvent(m, q).entries
    g = complete_resolvent_direct(m, q).entries
    assert np.max(np.abs(g0 + g0 @ m.h1 @ g - g)) <= 1e-12


def test_dyson_partial_telescopes():
    m = random_model(3, 5, lam=0.2)
    q = ResolventQuery(-2.0, "+", 0.05)
    g0 = unperturbed_resolvent(m, q).entries
    gN = dyson_partial(m, q, 5).entries
    gN1 = dyson_partial(m, q, 6).entries
    assert np.max(np.abs(g0 + g0 @ m.h1 @ gN - gN1)) <= 1e-13


def test_timedep_green_gating():
    m = two_level_model(1.0, 0.2)
    spec = TruncationSpec(2)
    gp = timedep_green(m, spec, 2.0, 1.0, "+")
    assert np.max(np.abs(gp.entries + 1j * truncated_evolution(m, spec, 1.0).entries)) <= 1e-15
    assert np.max(np.abs(timedep_green(m, spec, 0.5, 1.0, "+").entries)) == 0.0
    gm = timedep_green(m, spec, 0.5, 1.0, "-")
    assert np.max(np.abs(gm.entries - 1j * truncated_evolution(m, spec, -0.5).entries)) <= 1e-15
    assert np.max(np.abs(timedep_green(m, spec, 2.0, 1.0, "-").entries)) == 0.0


@pytest.mark.parametrize("sign", ["+", "-"])
def test_timedep_green_step_is_one_at_zero(sign):
    # theta(0) = 1 on both sides; one ulp past t = t' on the gated-off side
    # the operator is zero
    m = random_model(3, 5, lam=0.4)
    spec = TruncationSpec(2)
    sgn = 1 if sign == "+" else -1
    assert np.array_equal(timedep_green(m, spec, 1.0, 1.0, sign).entries,
                          -1j * sgn * np.eye(3))
    off = np.nextafter(1.0, 1.0 - sgn)
    assert np.array_equal(timedep_green(m, spec, off, 1.0, sign).entries, np.zeros((3, 3)))


def _single_rule_inverse(m, spec, E, sign, eps, T, n):
    """The inverse check's integral on one n-node Gauss-Legendre rule mapped
    onto (0, T): a reference for its composite panels."""
    x, w = gauss_legendre(n)
    total = np.zeros((m.dim, m.dim), dtype=complex)
    for tau, wj in zip(T / 2 * (1 + x), T / 2 * w):
        g = timedep_green(m, spec, sign * tau, 0.0, sign).entries
        total += wj * np.exp((1j * sign * E - eps) * tau) * g
    return total


def test_inverse_fourier_matches_dyson_partial():
    spec = TruncationSpec(2)
    for model, T, npoints, eps in [
        (two_level_model(1.0, 0.3), 80.0, 250, 0.3),  # the golden flags
        (two_level_model(1.0, 0.3), 200.0, 2000, 0.1),  # the CLI defaults
        (random_model(6, 5, 0.3), 200.0, 2000, 0.1),
    ]:
        quad = QuadratureSpec((0.0, T), npoints)
        for sign in (+1, -1):
            lhs = inverse_fourier_check(model, spec, 0.37, sign, eps, quad).entries
            rhs = dyson_partial(model, ResolventQuery(0.37, sign, eps), 2).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-5
            # the panels change the sum's rounding, not the integral it resolves
            ref = _single_rule_inverse(model, spec, 0.37, sign, eps, T, npoints)
            assert np.max(np.abs(lhs - ref)) <= 1e-12, (model.dim, T, sign)


def test_inverse_check_builds_one_table_for_every_node(monkeypatch):
    # N = 3 gets one Taylor power table, of the order-3 block matrix, per
    # call; every node still makes one truncated_evolution call, and all of
    # them read that same table
    tables, seen = [], []
    real_build, real_evolution = propagator._phase_powers, green.truncated_evolution

    def build(m, p):
        tables.append((m, real_build(m, p)))
        return tables[-1][1]

    def evolution(model, spec, t, *, powers=None):
        seen.append(powers)
        return real_evolution(model, spec, t, powers=powers)

    monkeypatch.setattr(propagator, "_phase_powers", build)
    monkeypatch.setattr(green, "truncated_evolution", evolution)
    m = random_model(3, 2, 0.3)
    for sign in (+1, -1):
        tables.clear()
        seen.clear()
        inverse_fourier_check(m, TruncationSpec(3), 0.37, sign, 0.3,
                              QuadratureSpec((0.0, 80.0), 90))
        assert len(seen) == 90 and len(tables) == 1
        block, built = tables[0]
        assert block.shape == (12, 12)
        assert all(np.array_equal(block[3 * k:3 * k + 3, 3 * k + 3:3 * k + 6], m.h1)
                   for k in range(3))
        assert all(p is built for p in seen)


@pytest.mark.parametrize("N, refused", [(445, False), (446, True), (4000, True)])
def test_inverse_check_refuses_tables_past_the_entry_bound(N, refused, monkeypatch):
    # the table of M_N holds 21 ((N + 1) d)^2 entries: at d = 2, 16 708 944 at
    # N = 445 and 16 783 956 at N = 446, past 2^24: refused, naming the order,
    # before the table or any node
    class Built(Exception):
        pass

    def build(m, p):
        raise Built

    monkeypatch.setattr(propagator, "_phase_powers", build)
    args = (two_level_model(1.0, 0.3), TruncationSpec(N), 0.37, "+", 0.3,
            QuadratureSpec((0.0, 80.0), 250))
    with pytest.raises(Unresolved if refused else Built) as err:
        inverse_fourier_check(*args)
    if refused:
        assert str(err.value) == (f"inverse Fourier check cannot be resolved: order N = {N} puts "
                                  "its Taylor power table past 16777216 entries")


def test_inverse_check_at_order_8_guards_its_damping():
    # a second check that an inverse damping off by a factor 1 + 1e-9 fails:
    # at N = 8 on (0, 400) with 4000 nodes the check is 7.8e-13 off
    # dyson_partial, and with eps (1 + 1e-9) in the quadrature, 4.5e-10
    m, eps, quad = two_level_model(1.0, 0.3), 0.1, QuadratureSpec((0.0, 400.0), 4000)
    want = dyson_partial(m, ResolventQuery(0.37, "+", eps), 8).entries
    for damping, off in ((eps, False), (eps * (1 + 1e-9), True)):
        dev = np.max(np.abs(inverse_fourier_check(m, 8, 0.37, "+", damping, quad).entries - want))
        assert dev > 1e-10 if off else dev <= 1e-11


@pytest.mark.parametrize("seed", range(1, 13))
def test_inverse_check_time_reversal_is_exact_on_two_level_models(seed):
    # G^-(E) = G^+(E)^dagger bit for bit at green-ft's defaults (N = 2,
    # E = 0.37) with eps 0.3 and 250 nodes on (0, 80), on two-level models
    # drawn as the benchmark's fourier workload draws them: a_0 and a_2 are
    # diagonal, a_1 is the symmetric closed form, and the table's Taylor rows
    # at -tau are the exact conjugates of those at tau
    rng = random.Random(f"fourier:{seed}")
    omega, v = rng.uniform(0.9, 1.1), rng.uniform(0.25, 0.35)
    m, quad = SpectralModel([0.0, omega], [[0.0, v], [v, 0.0]]), QuadratureSpec((0.0, 80.0), 250)
    plus, minus = (inverse_fourier_check(m, 2, 0.37, sgn, 0.3, quad).entries for sgn in (1, -1))
    assert np.array_equal(minus, plus.conj().T)


def test_inverse_rule_has_npoints_nodes_on_tables_of_at_most_32(monkeypatch):
    sizes = []

    def counting(n):
        sizes.append(n)
        return leggauss(n)

    monkeypatch.setattr(green, "leggauss", counting)
    # every table built anew, so leggauss is asked for each size the rule reads
    monkeypatch.setattr(green, "_leggauss", green._leggauss.__wrapped__)
    for T in (1.0, 200.0):
        for n in [*range(2, 301), 2000]:
            # the inverse check's rule: the whole domain (0, T) as the bound
            x, w = green._panel_rule((0.0, T), n, 0.0, T, 0.1)
            assert len(x) == len(w) == n
            assert np.all(np.diff(x) > 0) and 0 < x[0] and x[-1] < T
            assert np.all(w > 0)
            assert abs(w.sum() - T) <= 1e-13 * T
    assert max(sizes) == 32


_DAMPING = ("inverse Fourier check cannot be resolved: the damping exp(-eps*T) needs 18.4 <= "
            "eps*T < inf to fall to 1e-08 with finite factors: eps*T = ")
_NO_BIT = "is not below 1/eps_mach = 4.504e+15: no phase keeps a bit"


# each refusal of the inverse check's preamble, in its order: case -> (E, eps,
# T, npoints, N), the error and its whole text
@pytest.mark.parametrize("case", {
    "domain-start": ((0.37, 0.1, None, 100, 2), ValueError, "quadrature domain must be (0, T)"),
    "E-nan": ((np.nan, 0.1, 200.0, 100, 2), ValueError, "E must be finite, got nan"),
    "E-inf": ((np.inf, 0.1, 200.0, 100, 2), ValueError, "E must be finite, got inf"),
    # domain too short for the damping to die out
    "T-10": ((0.37, 0.1, 10.0, 100, 2), Unresolved, _DAMPING + "1 at eps = 0.1, T = 10.0"),
    # no damping at all
    "eps-0": ((0.37, 0.0, 200.0, 100, 2), Unresolved, _DAMPING + "0 at eps = 0.0, T = 200.0"),
    "eps-minus-0.1": ((0.37, -0.1, 200.0, 100, 2), Unresolved,
                      _DAMPING + "-20 at eps = -0.1, T = 200.0"),
    "eps-minus-10": ((0.37, -10.0, 200.0, 100, 2), Unresolved,
                     _DAMPING + "-2e+03 at eps = -10.0, T = 200.0"),
    "eps-nan": ((0.37, np.nan, 200.0, 100, 2), Unresolved,
                _DAMPING + "nan at eps = nan, T = 200.0"),
    # the damping falls, but the factors' exponents overflow
    "eps-inf": ((0.37, np.inf, 200.0, 100, 2), Unresolved,
                _DAMPING + "inf at eps = inf, T = 200.0"),
    "eps-T-inf": ((0.37, 1e300, 1e10, 40, 2), Unresolved,
                  _DAMPING + "inf at eps = 1e+300, T = 10000000000.0"),
    # numpy scalars, whose product would warn as it overflows
    "eps-T-inf-numpy": ((0.37, np.float64(1e300), np.float64(1e10), 40, 2), Unresolved,
                        _DAMPING + "inf at eps = 1e+300, T = 10000000000.0"),
    # the factors e^{iE tau} keep no bit; at 1.7e308 E T is past the float range
    "E-1e300": ((1e300, 0.1, 200.0, 100, 2), Unresolved, "exp(-i t E) cannot be resolved: "
                f"|t| = 2.000e+02 times max|E| = 1.000e+300 {_NO_BIT}"),
    "E-1.7e308": ((1.7e308, 0.1, 200.0, 100, 2), Unresolved, "exp(-i t E) cannot be resolved: "
                  f"|t| = 2.000e+02 times max|E| = 1.700e+308 {_NO_BIT}"),
    # E T = 3.7e15 passes, but the level E_2 = 1 fails at T, before its first node
    "T-1e16": ((0.37, 0.1, 1e16, 100, 2), Unresolved, "exp(-i t E) cannot be resolved: "
               f"|t| = 1.000e+16 times max|E| = 1.000e+00 {_NO_BIT}"),
    "N-4000": ((0.37, 0.1, 200.0, 100, 4000), Unresolved, "inverse Fourier check cannot be "
               "resolved: order N = 4000 puts its Taylor power table past 16777216 entries"),
}.items(), ids=lambda case: case[0])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_inverse_fourier_refuses_its_inputs_before_any_node(case, sign, monkeypatch):
    # RuntimeWarning is an error here, so no refusal may come from a warning
    def unreachable(*args, **kwargs):
        raise AssertionError("a node was evaluated before a refusal of the preamble")

    monkeypatch.setattr(green, "timedep_green", unreachable)
    (E, eps, T, npoints, N), error, text = case[1]
    quad = QuadratureSpec((1.0, 200.0) if T is None else (0.0, T), npoints)
    with pytest.raises(error) as err:
        inverse_fourier_check(two_level_model(), TruncationSpec(N), E, sign, eps, quad)
    assert type(err.value) is error and str(err.value) == text


def test_forward_fourier_causality():
    m = two_level_model(1.0, 0.3)
    quad = QuadratureSpec((-40.0, 41.0), 2000)
    acausal = forward_fourier(m, quad, -1.5, 0.0, "+", 0.1)
    assert np.max(np.abs(acausal.entries)) <= 1e-10


def test_forward_fourier_reproduces_damped_evolution():
    m = two_level_model(1.0, 0.3)
    quad = QuadratureSpec((-40.0, 41.0), 2000)
    for tau, g in zip((1.5, 10.0), forward_fourier(m, quad, (1.5, 10.0), 0.0, "+", 0.1)):
        want = -1j * exact_evolution(m, tau).entries * np.exp(-0.1 * tau)
        assert np.max(np.abs(g.entries - want)) <= 1e-10, tau


def _compressed_model(d, seed):
    """random_model(d, seed, 0.3) with its levels halved, as the benchmark's
    ``resolvent`` workload halves them."""
    m = random_model(d, seed, 0.3)
    return SpectralModel(m.energies * 0.5, m.h1)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("npoints, eps", [(800, 0.3), (2000, 0.1)])
@pytest.mark.parametrize("d", [2, 6, 24])
def test_forward_fourier_to_1e_10(d, npoints, eps, sign):
    # d = 24 at t = 6 is where one pole with coarse outer panels stalled near 1e-8
    m = _compressed_model(d, 40 + d)
    quad = QuadratureSpec((m.energies.min() - 40.0, m.energies.max() + 40.0), npoints)
    sgn = 1 if sign == "+" else -1
    times = (-6.0, -1.5, 1.5, 6.0)
    for t, g in zip(times, forward_fourier(m, quad, times, 0.0, sign, eps)):
        want = (-1j * sgn * exact_evolution(m, t).entries * np.exp(-eps * abs(t))
                if sgn * t > 0 else np.zeros((d, d)))
        assert np.max(np.abs(g.entries - want)) <= 1e-10, (t, sign)


@pytest.mark.parametrize("n", [2, 30, 70, 800, 2000])
def test_forward_rule_has_npoints_nodes_inside_the_domain(n, monkeypatch):
    rules, rule = [], green._panel_rule

    def recording(*args):
        rules.append(rule(*args))
        return rules[-1]

    monkeypatch.setattr(green, "_panel_rule", recording)
    forward_fourier(two_level_model(1.0, 0.3), QuadratureSpec((-40.0, 41.0), n), 1.5, 0.0,
                    "+", 0.1)
    # a spectrum bound wider than the domain is clipped to it
    rules.append(rule((-1.0, 2.0), n, -5.0, 0.5, 0.01))
    for (x, w), (lo, hi) in zip(rules, [(-40.0, 41.0), (-1.0, 2.0)]):
        assert len(x) == len(w) == n
        assert np.all(np.diff(x) > 0) and lo < x[0] and x[-1] < hi
        assert np.all(w > 0)
        assert abs(w.sum() - (hi - lo)) <= 1e-13 * (hi - lo)


def test_forward_rule_panels_are_eps_wide_over_the_spectrum_bound():
    # CLI defaults: bound [-0.3, 1.3], eps 0.1, window (-40, 41).  The 125
    # panels split as 16 eps-units inside to 2 ln(1 + 39.7 / 0.1) = 12 outside:
    # 71 panels of 0.023 on the bound
    x, _ = green._panel_rule((-40.0, 41.0), 2000, -0.3, 1.3, 0.1)
    inside = x[(x > -0.3) & (x < 1.3)]
    assert len(inside) >= 70 * 16
    assert np.diff(inside).max() < 0.1 / 10


@pytest.mark.parametrize("domain,bound,eps", [
    ((-1e308, 1e308), (-0.3, 1.3), 0.1),   # green-ft --window 1e308: ends over eps
    ((0.0, 1.7e308), (0.0, 1.7e308), 0.1),  # --quad-domain 1.7e308: width over eps
    ((0.0, 1.7e308), (0.0, 1.7e308), 10.0),  # and --eps 10: the last panel's end sum
    ((-1.7976931348623157e308, 0.0), (-1.7976931348623157e308, 0.0), 1.0),  # linspace's step
])
def test_panel_rule_refuses_cuts_past_the_float_range(domain, bound, eps):
    # RuntimeWarnings are errors under pytest, so a refusal after an overflow fails
    named = re.escape(f"domain ({domain[0]:.4g}, {domain[1]:.4g}) at eps = {eps:.4g}")
    with pytest.raises(Unresolved, match=named):
        green._panel_rule(domain, 2000, *bound, eps)


@pytest.mark.parametrize("n", [32, 2000])
def test_panel_rule_keeps_geometric_panels_near_the_float_range(n):
    # green-ft --window 1e308 --eps 10: past one panel (n >= 32), the geometric
    # panels keep every end sum and width a float
    x, w = green._panel_rule((-1e308, 1e308), n, -0.3, 1.3, 10.0)
    assert len(x) == n and np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))


def test_panel_rule_from_a_warm_cache_equals_an_uncached_build_bitwise(monkeypatch):
    # the inverse and forward rules at the fourier flags, a small count whose
    # first loop reads a table for no panel, and geometric panels near the float range
    for args in (((0.0, 80.0), 250, 0.0, 80.0, 0.3), ((-40.0, 41.0), 800, -0.3, 1.3, 0.3),
                 ((0.0, 1.0), 7, 0.0, 1.0, 0.1), ((-1e308, 1e308), 2000, -0.3, 1.3, 10.0)):
        got = [green._panel_rule(*args) for _ in range(2)]  # the second reads cached tables
        with monkeypatch.context() as patch:  # the tables built anew on every call
            patch.setattr(green, "_leggauss", green._leggauss.__wrapped__)
            want = green._panel_rule(*args)
        for x, w in got:
            assert x.tobytes() == want[0].tobytes() and w.tobytes() == want[1].tobytes(), args


def test_forward_fourier_never_reads_the_spec_rule_or_an_eigensolver(monkeypatch):
    sizes = []
    # numpy builds its tables with eigvalsh, so they are made before it is blocked
    tables = {n: leggauss(n) for n in range(2, 34)}

    def counting(n):
        sizes.append(n)
        return tables[n]

    def unreachable(*args, **kwargs):
        raise AssertionError("forward_fourier reached an eigensolver")

    monkeypatch.setattr(green, "leggauss", counting)
    # every table built anew, so leggauss is asked for each size the call reads
    monkeypatch.setattr(green, "_leggauss", green._leggauss.__wrapped__)
    monkeypatch.setattr(oracle, "hermitian_eigendecomposition", unreachable)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, unreachable)
    quad = QuadratureSpec((-40.0, 41.0), 2000)
    forward_fourier(random_model(4, 2, 0.2), quad, (-1.5, 1.5), 0.0, "+", 0.1)
    assert sizes and max(sizes) <= 17  # panel tables only, not the 2000-point rule


@pytest.mark.parametrize("sign", ["+", "-"])
def test_forward_fourier_over_times_matches_per_time_calls(sign):
    m = random_model(3, 8, lam=0.2)
    quad = QuadratureSpec((-30.0, 31.0), 120)
    times, tp = [-1.5, 0.25, 0.4, 2.0], 0.25
    together = forward_fourier(m, quad, times, tp, sign, 0.1)
    assert isinstance(together, list) and len(together) == len(times)
    for t, g in zip(times, together):
        alone = forward_fourier(m, quad, t, tp, sign, 0.1)
        assert np.array_equal(g.entries, alone.entries)


def test_forward_fourier_scalar_time_gives_one_operator():
    m = two_level_model(1.0, 0.3)
    quad = QuadratureSpec((-40.0, 41.0), 50)
    g = forward_fourier(m, quad, 1.5, 0.0, "+", 0.1)
    assert isinstance(g, OperatorMatrix)
    [one] = forward_fourier(m, quad, (1.5,), 0.0, "+", 0.1)
    assert np.array_equal(one.entries, g.entries)


def test_forward_fourier_solves_once_per_node_for_all_times(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return linear_solve(a, b)

    monkeypatch.setattr(green, "linear_solve", counting)
    m = two_level_model(1.0, 0.3)
    forward_fourier(m, QuadratureSpec((-40.0, 41.0), 70), (-1.5, 1.5), 0.0, "+", 0.1)
    assert calls == [(2, 2)] * 70


def test_solve_returning_nan_fails_the_residual_check(monkeypatch):
    # a NaN residual compares false against any tolerance: it must not pass
    monkeypatch.setattr(green, "linear_solve", lambda a, b: np.full(b.shape, np.nan + 0j))
    m = two_level_model(1.0, 0.3)
    with pytest.raises(Unresolved, match="^resolvent solve cannot be resolved: residual nan"):
        forward_fourier(m, QuadratureSpec((-40.0, 41.0), 70), (-1.5, 1.5), 0.0, "+", 0.1)
    with pytest.raises(Unresolved, match="^resolvent solve cannot be resolved: residual nan"):
        complete_resolvent_direct(m, ResolventQuery(0.4, "+", 0.1))


def test_forward_fourier_blocks_equal_a_per_node_sum(monkeypatch):
    # at d = 24 a block holds 4096 // 576 = 7 nodes, so 60 nodes are 9 blocks,
    # the last of 4.  The reference adds each node's phased solve, in node
    # order, to the transform whose solves are all zero (residual check lifted)
    m = random_model(24, 5, 0.3)
    quad = QuadratureSpec((float(m.energies.min()) - 30, float(m.energies.max()) + 30), 60)
    times, eps = (0.5, 1.5), 0.3
    solves = []

    def recording(a, b):
        solves.append(linear_solve(a, b))
        return solves[-1]

    monkeypatch.setattr(green, "linear_solve", recording)
    got = [g.entries for g in forward_fourier(m, quad, times, 0.0, "+", eps)]
    assert green._block(24) == 7 and len(solves) == 60
    monkeypatch.setattr(green, "linear_solve", lambda a, b: np.zeros_like(b))
    monkeypatch.setattr(green, "_RESIDUAL_TOL", np.inf)
    bare = [g.entries for g in forward_fourier(m, quad, times, 0.0, "+", eps)]
    e_min, e_max = float(m.energies.min()), float(m.energies.max())
    e0, rho = (e_min + e_max) / 2, (e_max - e_min) / 2 + float(np.abs(m.h1).sum(axis=0).max())
    x, w = green._panel_rule(quad.domain, quad.npoints, e0 - rho, e0 + rho, eps)
    for tau, g, zeroed in zip(times, got, bare):
        acc = np.zeros((24, 24), dtype=complex)
        for xj, wj, solve in zip(x, w, solves):
            acc += wj * np.exp(-1j * tau * xj) * solve
        assert np.max(np.abs(g - (zeroed + acc / (2 * np.pi)))) <= 1e-14 * np.max(np.abs(g))


@pytest.mark.parametrize("faults, residual", [({16: np.nan, 18: 2.0}, "nan"),
                                              ({16: 2.0, 18: np.nan}, "1.000e+00")])
def test_forward_fourier_refuses_the_first_bad_node_of_a_later_block(monkeypatch, faults,
                                                                     residual):
    # nodes 16 and 18 sit in the third block of 7 at d = 24; a solve doubled
    # leaves the residual I, a NaN one the residual nan
    calls = []

    def faulty(a, b):
        calls.append(len(calls))
        return linear_solve(a, b) * faults.get(calls[-1], 1.0)

    monkeypatch.setattr(green, "linear_solve", faulty)
    m = random_model(24, 5, 0.3)
    quad = QuadratureSpec((float(m.energies.min()) - 30, float(m.energies.max()) + 30), 60)
    with pytest.raises(Unresolved, match=f"^resolvent solve cannot be resolved: residual "
                                         f"{re.escape(residual)} exceeds 1e-10$"):
        forward_fourier(m, quad, 1.5, 0.0, "+", 0.3)
    assert len(calls) == 21  # the third block is solved, the fourth is not


def test_forward_fourier_peak_memory_stays_below_a_solve_stack(monkeypatch):
    # d = 24, 2000 nodes, two times: the (n, K) coefficients (0.73 MiB) and
    # 4096-entry blocks; a (2000, 24, 24) stack of solves alone is 17.6 MiB.
    # LAPACK's solve stands in for the oracle's, whose many small arrays
    # make tracing slow; the peak is the route's own arrays either way
    monkeypatch.setattr(green, "linear_solve", np.linalg.solve)
    m = random_model(24, 5, 0.3)
    quad = QuadratureSpec((float(m.energies.min()) - 40, float(m.energies.max()) + 40), 2000)
    tracemalloc.start()
    try:
        forward_fourier(m, quad, (-1.5, 1.5), 0.0, "+", 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_inverse_fourier_blocks_equal_a_per_node_sum():
    # at d = 8 a block holds 64 nodes: 200 nodes are 4 blocks, the last of 8
    m, spec, E, eps = random_model(8, 3, 0.2), TruncationSpec(1), 0.37, 0.1
    quad = QuadratureSpec((0.0, 200.0), 200)
    taus, w = green._panel_rule(quad.domain, quad.npoints, 0.0, 200.0, eps)
    for sgn in (1, -1):
        got = inverse_fourier_check(m, spec, E, sgn, eps, quad).entries
        want = np.zeros((8, 8), dtype=complex)
        for tau, wj in zip(taus, w):
            want += (wj * np.exp((1j * sgn * E - eps) * tau)
                     * timedep_green(m, spec, sgn * tau, 0.0, sgn).entries)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_forward_fourier_window_guard():
    m = two_level_model(1.0, 0.3)
    with pytest.raises(Unresolved):
        forward_fourier(m, QuadratureSpec((-1.0, 2.0), 100), 1.0, 0.0, "+", 0.1)


def test_quadrature_spec_computes_nothing(monkeypatch):
    def unreachable(n):
        raise AssertionError("a QuadratureSpec built a rule")

    monkeypatch.setattr(green, "leggauss", unreachable)
    monkeypatch.setattr(green, "_leggauss", unreachable)
    spec = QuadratureSpec((-1.0, 3.0), 40)
    # a validated record: eq, hash and repr follow from its two fields
    assert spec == QuadratureSpec((-1.0, 3.0), 40)
    assert hash(spec) == hash(QuadratureSpec((-1.0, 3.0), 40))
    assert repr(spec) == "QuadratureSpec(domain=(-1.0, 3.0), npoints=40)"


def test_quadrature_spec_refuses_domains_that_are_not_finite_intervals():
    for domain in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match=r"^domain must be a finite interval, got \("):
            QuadratureSpec(domain, 40)


def test_quadrature_spec_stores_an_integral_count():
    # a float count of 40.0 passed validation and then failed in _panel_rule;
    # it is now the int 40, with the bits of the int count
    quad = QuadratureSpec((0.0, 200.0), 40.0)
    assert quad == QuadratureSpec((0.0, 200.0), 40) and type(quad.npoints) is int
    assert type(QuadratureSpec((0.0, 200.0), np.int64(40)).npoints) is int
    m, spec = two_level_model(1.0, 0.3), TruncationSpec(2)
    got, want = (inverse_fourier_check(m, spec, 0.37, "+", 0.1, q).entries
                 for q in (quad, QuadratureSpec((0.0, 200.0), 40)))
    assert got.tobytes() == want.tobytes()
    for bad in (40.5, np.nan, np.inf, 1, -3):
        with pytest.raises(ValueError, match="whole number of at least 2 quadrature points"):
            QuadratureSpec((0.0, 200.0), bad)
