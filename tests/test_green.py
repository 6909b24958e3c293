import numpy as np
import pytest

from dysonprop import green
from dysonprop.green import (
    QuadratureDomainError,
    QuadratureSpec,
    ResolventQuery,
    complete_resolvent_direct,
    dyson_partial,
    forward_fourier,
    inverse_fourier_check,
    timedep_green,
    unperturbed_resolvent,
)
from dysonprop.model import hamiltonian, random_model, scale_coupling, two_level_model
from dysonprop.oracle import exact_evolution, gauss_legendre
from dysonprop.propagator import TruncationSpec, truncated_evolution


def test_query_validation():
    with pytest.raises(ValueError):
        ResolventQuery(1.0, "+", -0.1)
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


def test_inverse_fourier_matches_dyson_partial():
    m = two_level_model(1.0, 0.3)
    spec = TruncationSpec(2)
    quad = QuadratureSpec((0.0, 200.0), 2000)
    for sign in (+1, -1):
        lhs = inverse_fourier_check(m, spec, 0.37, sign, 0.1, quad)
        rhs = dyson_partial(m, ResolventQuery(0.37, sign, 0.1), 2)
        assert np.max(np.abs(lhs.entries - rhs.entries)) <= 1e-5


def test_inverse_fourier_domain_guards():
    m = two_level_model()
    spec = TruncationSpec(1)
    with pytest.raises(QuadratureDomainError):
        inverse_fourier_check(m, spec, 0.0, "+", 0.1, QuadratureSpec((1.0, 200.0), 100))
    with pytest.raises(QuadratureDomainError):
        # domain too short for the damping to die out
        inverse_fourier_check(m, spec, 0.0, "+", 0.1, QuadratureSpec((0.0, 10.0), 100))


def test_forward_fourier_causality():
    m = two_level_model(1.0, 0.3)
    quad = QuadratureSpec((-40.0, 41.0), 2000)
    acausal = forward_fourier(m, quad, -1.5, 0.0, "+", 0.1)
    assert np.max(np.abs(acausal.entries)) <= 1e-3


def test_forward_fourier_reproduces_damped_evolution():
    m = two_level_model(1.0, 0.3)
    quad = QuadratureSpec((-40.0, 41.0), 2000)
    tau = 1.5
    g = forward_fourier(m, quad, tau, 0.0, "+", 0.1)
    want = -1j * exact_evolution(m, tau).entries * np.exp(-0.1 * tau)
    assert np.max(np.abs(g.entries - want)) <= 1e-3


def test_forward_fourier_window_guard():
    m = two_level_model(1.0, 0.3)
    with pytest.raises(QuadratureDomainError):
        forward_fourier(m, QuadratureSpec((-1.0, 2.0), 100), 1.0, 0.0, "+", 0.1)


def test_quadrature_spec_computes_its_rule_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return gauss_legendre(n)

    monkeypatch.setattr(green, "gauss_legendre", counting)
    spec = QuadratureSpec((-1.0, 3.0), 40)
    x, w = spec.nodes, spec.weights
    assert calls == [40]
    assert not x.flags.writeable and not w.flags.writeable
    # the rule follows from the fields: it is not part of eq, hash or repr
    assert spec == QuadratureSpec((-1.0, 3.0), 40)
    assert hash(spec) == hash(QuadratureSpec((-1.0, 3.0), 40))
    assert repr(spec) == "QuadratureSpec(domain=(-1.0, 3.0), npoints=40)"


def test_quadrature_spec_rules():
    spec = QuadratureSpec((0.0, 1.0), 50)
    x, w = spec.nodes, spec.weights
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((x > 0) & (x < 1))
