"""Acceptance suite: one test per shipped claim, with pinned tolerances.

Each test prints a single PASS/FAIL line (written past pytest's capture so
the verdicts always appear in the run log) and then asserts.

Two clauses rest on derivations recorded in their tests:

* criterion 3b: for the designated two-level system H1 is traceless and
  off-diagonal, so the interaction-picture propagator U0^dagger U lies in
  SU(2) and its odd-order terms are anti-Hermitian.  The leading
  (order-N+1) term of the unitarity defect of the order-N truncation then
  vanishes for even N, and the coupling-halving ratio is 2^(N+2) there
  (16 at N=2) and 2^(N+1) for odd N.
* criterion 7a: the kernel relation contracts one time-independent kernel
  C_m per tuple position m with the unperturbed amplitude damped by
  e^{-sgn*m*eps*(t_b - t_a)}, the time-domain side of G0(E + i*sgn*m*eps).
  The damping carries the secular (t * e^{-iEt}) contributions of
  coincident-energy index tuples, so the extrapolated relation reproduces
  the truncated amplitude and its error scales like the direct one.
"""

import sys
import time

import numpy as np

from dysonprop import cli as dcli
from dysonprop.amplitude import (
    LatticeSpec,
    build_lattice,
    k0_amplitude,
    k_exact,
    k_truncated_direct,
    k_via_relation,
    k_via_relation_extrapolated,
)
from dysonprop.divdiff import identity_suite
from dysonprop.green import (
    QuadratureSpec,
    ResolventQuery,
    complete_resolvent_direct,
    dyson_partial,
    forward_fourier,
    inverse_fourier_check,
)
from dysonprop.model import random_model, scale_coupling, two_level_model
from dysonprop.oracle import dyson_term_quadrature, exact_evolution
from dysonprop.propagator import (
    TruncationSpec,
    a_matrix,
    epsilon_form_evolution,
    richardson_limit,
    truncated_evolution,
)

_POOL = (-10, -7, -5, -4, -3, -2, -1, 1, 2, 4, 6, 10)


def _verdict(capfd, criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}\n"
    with capfd.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()


def test_criterion_1_exact_identities(capfd):
    # every distinct-integer node list (n <= 6 from a fixed 12-node pool):
    # dd of E^K is exactly 0 for K < n-1 and exactly 1 for K = n-1;
    # floating agreement <= 1e-12 when the minimum gap is >= 1
    t0 = time.time()
    count = 0
    exact_fail = 0
    float_dev = 0.0
    for combo, exact_ok, dev in identity_suite(_POOL, 6):
        count += 1
        if not exact_ok:
            exact_fail += 1
        if len(combo) < 2 or min(np.diff(sorted(combo))) >= 1:
            float_dev = max(float_dev, dev)
    elapsed = time.time() - t0
    ok = exact_fail == 0 and float_dev <= 1e-12 and count >= 500 and elapsed <= 10.0
    _verdict(capfd, "1 (identity suite)", ok,
             f"{count} node lists, exact failures {exact_fail}, "
             f"float dev {float_dev:.2e} (tol 1e-12), {elapsed:.1f}s")
    assert exact_fail == 0
    assert float_dev <= 1e-12
    assert count >= 500
    assert elapsed <= 10.0


def test_criterion_2_term_vs_quadrature(capfd):
    # series terms vs independent nested time-ordered quadrature
    t0 = time.time()
    worst = 0.0
    for seed, dim, t in ((0, 2, 0.8), (1, 3, 1.5), (2, 4, 2.0)):
        m = random_model(dim, seed, lam=0.5)
        for l in (0, 1, 2):
            got = a_matrix(m, l, t).entries
            want = dyson_term_quadrature(m, l, t, 64).entries
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    _verdict(capfd, "2 (order-by-order equivalence)", ok,
             f"max entry deviation {worst:.2e} (tol 1e-6), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 60.0


def _converge_ratios():
    base = two_level_model(1.0, 1.0)
    err_ratios = {}
    defect_ratios = {}
    for N in (1, 2, 3):
        errs, defects = [], []
        for lam in (0.1, 0.05):
            m = scale_coupling(base, lam)
            u = truncated_evolution(m, TruncationSpec(N), 1.0).entries
            errs.append(float(np.max(np.abs(u - exact_evolution(m, 1.0).entries))))
            defects.append(float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
        err_ratios[N] = errs[0] / errs[1]
        defect_ratios[N] = defects[0] / defects[1]
    return err_ratios, defect_ratios


def test_criterion_3a_truncation_error_scaling(capfd):
    t0 = time.time()
    err_ratios, _ = _converge_ratios()
    elapsed = time.time() - t0
    ok = all(abs(err_ratios[N] / 2.0 ** (N + 1) - 1.0) <= 0.25 for N in (1, 2, 3))
    _verdict(capfd, "3a (truncation error scaling)", ok and elapsed <= 10.0,
             "error ratios " + ", ".join(
                 f"N={N}: {err_ratios[N]:.2f} (expect {2**(N+1)})" for N in (1, 2, 3))
             + f", {elapsed:.1f}s")
    for N in (1, 2, 3):
        assert abs(err_ratios[N] / 2.0 ** (N + 1) - 1.0) <= 0.25
    assert elapsed <= 10.0


def _defect_exponent(N):
    # The defect U_N^dagger U_N - 1 of the order-N truncation is
    # sum_{j,k<=N} lam^(j+k) a_j^dagger a_k - 1.  Unitarity of the full
    # series makes every complete order-n sum sum_{j+k=n} a_j^dagger a_k
    # vanish for n >= 1, so the leading defect term is the part cut off
    # at order N+1: -(a_0^dagger a_{N+1} + a_{N+1}^dagger a_0).  Here
    # a_0^dagger a_k is the order-k term of the interaction-picture
    # propagator U0^dagger U.  H1 is traceless, so that propagator has
    # determinant 1 and lies in SU(2), whose off-diagonal part is
    # anti-Hermitian; H1 is off-diagonal, so its odd-order terms are
    # off-diagonal and anti-Hermitian, and the order-(N+1) defect term
    # vanishes for even N.  The defect then starts one order later.
    return N + 1 if N % 2 else N + 2


def test_criterion_3b_unitarity_defect_scaling(capfd):
    # the vanishing order-3 term, checked on the independent quadrature
    # oracle rather than on the series under test
    m = two_level_model(1.0, 1.0)
    a = [dyson_term_quadrature(m, l, 1.0, 16).entries for l in range(4)]
    coeff = {n: float(np.max(np.abs(a[0].conj().T @ a[n] + a[n].conj().T @ a[0])))
             for n in (2, 3)}
    _, defect_ratios = _converge_ratios()
    expect = {N: 2.0 ** _defect_exponent(N) for N in (1, 2, 3)}
    ok = (coeff[3] <= 1e-12 and coeff[2] > 1e-12
          and all(abs(defect_ratios[N] / expect[N] - 1.0) <= 0.25 for N in (1, 2, 3)))
    _verdict(capfd, "3b (unitarity defect scaling)", ok,
             f"order-3 defect coefficient {coeff[3]:.2e} (tol 1e-12), "
             f"order-2 {coeff[2]:.2e}; defect ratios " + ", ".join(
                 f"N={N}: {defect_ratios[N]:.2f} (expect {expect[N]:g})"
                 for N in (1, 2, 3)))
    assert coeff[3] <= 1e-12
    assert coeff[2] > 1e-12
    for N in (1, 2, 3):
        assert abs(defect_ratios[N] / expect[N] - 1.0) <= 0.25


def test_criterion_4_regularized_form_extrapolation(capfd):
    t0 = time.time()
    eps_values = [1e-2, 5e-3, 2.5e-3]
    worst = 0.0
    for seed, dim in ((5, 2), (6, 3)):
        m = random_model(dim, seed, lam=0.4)
        for N in (1, 2):
            spec = TruncationSpec(N)
            samples = [epsilon_form_evolution(m, spec, 1.0, e, "+").entries
                       for e in eps_values]
            limit = richardson_limit(eps_values, samples)
            direct = truncated_evolution(m, spec, 1.0).entries
            worst = max(worst, float(np.max(np.abs(limit - direct))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _verdict(capfd, "4 (regularized-form consistency)", ok,
             f"max extrapolated deviation {worst:.2e} (tol 1e-6), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 30.0


def test_criterion_5_dyson_resolvent(capfd):
    t0 = time.time()
    m = random_model(4, 11, lam=0.3)
    E = float(np.min(m.energies)) - 2.0
    q = ResolventQuery(E, "+", 0.05)
    rho0 = dyson_partial(m, q, 0).params["rho"]
    if rho0 > 0.5:
        m = scale_coupling(m, 0.5 / rho0)
    partial = dyson_partial(m, q, 40)
    direct = complete_resolvent_direct(m, q)
    err = float(np.max(np.abs(partial.entries - direct.entries)))
    rho = partial.params["rho"]
    g0_norm = float(np.max(np.abs(1.0 / (q.z - m.energies))))
    tail = g0_norm * rho ** 41 / (1.0 - rho) + 1e-13 * float(
        np.max(np.abs(direct.entries)))
    elapsed = time.time() - t0
    ok = err <= 1e-8 and err <= tail and rho <= 0.5 and elapsed <= 5.0
    _verdict(capfd, "5 (Dyson resolvent)", ok,
             f"partial-vs-direct {err:.2e} (tol 1e-8), contraction {rho:.3f}, "
             f"tail bound {tail:.2e}, {elapsed:.1f}s")
    assert err <= 1e-8
    assert err <= tail
    assert elapsed <= 5.0


def test_criterion_6_fourier_reciprocity(capfd):
    t0 = time.time()
    m = two_level_model(1.0, 0.3)
    spec = TruncationSpec(2)
    quad = QuadratureSpec((0.0, 200.0), 2000)
    worst = 0.0
    for sign in (+1, -1):
        lhs = inverse_fourier_check(m, spec, 0.37, sign, 0.1, quad)
        rhs = dyson_partial(m, ResolventQuery(0.37, sign, 0.1), 2)
        worst = max(worst, float(np.max(np.abs(lhs.entries - rhs.entries))))
    fwd = QuadratureSpec((-40.0, 41.0), 2000)
    acausal = float(np.max(np.abs(
        forward_fourier(m, fwd, -1.5, 0.0, "+", 0.1).entries)))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and acausal <= 1e-3 and elapsed <= 120.0
    _verdict(capfd, "6 (Fourier reciprocity)", ok,
             f"inverse-transform dev {worst:.2e} (tol 1e-5), "
             f"acausal magnitude {acausal:.2e} (tol 1e-3), {elapsed:.1f}s")
    assert worst <= 1e-5
    assert acausal <= 1e-3
    assert elapsed <= 120.0


def _well_system(lam, m=6):
    v1 = -lam * np.exp(-0.5 * (np.arange(m) - (m - 1) / 2.0) ** 2)
    return build_lattice(LatticeSpec(M=m, h=0.5, mass=1.0, v0=np.zeros(m), v1=v1))


def _amplitude_errors(route):
    spec = TruncationSpec(2)
    eps_values = [1e-2, 5e-3, 2.5e-3]
    out = []
    for lam in (0.1, 0.05):
        sys_ = _well_system(lam)
        worst = 0.0
        for b in range(6):
            for a in range(6):
                exact = k_exact(sys_, b, 1.0, a, 0.0)
                if route == "relation":
                    got = k_via_relation_extrapolated(
                        sys_, spec, eps_values, b, 1.0, a, 0.0)
                else:
                    got = k_truncated_direct(sys_, spec, b, 1.0, a, 0.0)
                worst = max(worst, abs(got - exact))
        out.append(worst)
    return out


def test_criterion_7a_kernel_relation_scaling(capfd):
    # the damped kernel relation carries the secular contributions, so its
    # extrapolated error is that of the order-2 truncation: ratio 8
    t0 = time.time()
    errs = _amplitude_errors("relation")
    ratio = errs[0] / errs[1]
    elapsed = time.time() - t0
    ok = abs(ratio / 8.0 - 1.0) <= 0.30 and elapsed <= 120.0
    _verdict(capfd, "7a (kernel-relation scaling)", ok,
             f"halving ratio {ratio:.2f} (expect 8 within 30%), "
             f"errors {errs[0]:.2e} -> {errs[1]:.2e}, {elapsed:.1f}s")
    assert abs(ratio / 8.0 - 1.0) <= 0.30
    assert elapsed <= 120.0


def test_criterion_7b_direct_truncation_scaling(capfd):
    t0 = time.time()
    errs = _amplitude_errors("direct")
    ratio = errs[0] / errs[1]
    elapsed = time.time() - t0
    ok = abs(ratio / 8.0 - 1.0) <= 0.30 and elapsed <= 120.0
    _verdict(capfd, "7b (direct truncation scaling)", ok,
             f"halving ratio {ratio:.2f} (expect 8 within 30%), "
             f"errors {errs[0]:.2e} -> {errs[1]:.2e}, {elapsed:.1f}s")
    assert abs(ratio / 8.0 - 1.0) <= 0.30
    assert elapsed <= 120.0


def test_criterion_7c_free_reduction(capfd):
    sys0 = _well_system(0.0)
    spec = TruncationSpec(2)
    dev = max(
        abs(k_via_relation(sys0, spec, 1e-3, b, 1.0, a, 0.0)
            - k0_amplitude(sys0, b, 1.0, a, 0.0))
        for b in range(6) for a in range(6))
    ok = dev <= 1e-12
    _verdict(capfd, "7c (free reduction)", ok, f"max deviation {dev:.2e} (tol 1e-12)")
    assert dev <= 1e-12


def test_criterion_8_determinism(tmp_path, capfd):
    t0 = time.time()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert dcli.main(["selftest", "--seed", "0", "--out", str(p1)]) == 0
    assert dcli.main(["selftest", "--seed", "0", "--out", str(p2)]) == 0
    same = p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - t0
    _verdict(capfd, "8 (determinism)", same,
             f"repeated selftest byte-identical: {same}, {elapsed:.1f}s")
    assert same
