"""Batch experiment runner with machine-readable reports.

Each subcommand runs one validation suite over the library and writes a
Report as CSV or JSON.  Exit status is 0 exactly when every summary
criterion passed.  Reports are deterministic: fixed inputs and seeds give
byte-identical JSON output (no timestamps, 17-significant-digit floats).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import amplitude as amp
from . import divdiff, green, oracle
from .model import _fmt, load_model, random_model, scale_coupling, two_level_model
from .propagator import (
    TruncationSpec,
    a_matrix,
    epsilon_form_evolution,
    richardson_limit,
    truncated_evolution,
)


#: Errors within this many units of roundoff of the compared values' scale
#: are indistinguishable from zero.
_ROUNDOFF_ULPS = 100


#: eps ladder of the extrapolated resolvent form and kernel relation; four
#: points keep the Richardson remainder below the truncation errors compared
_EPS_LADDER = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


class UnresolvedRatioError(ValueError):
    """A coupling-halving ratio of two errors at the roundoff floor."""


@dataclass
class ReportRow:
    inputs: dict  # small scalars / labels identifying the case
    computed: complex
    oracle: complex
    abs_error: float = field(init=False)
    rel_error: float = field(init=False)

    def __post_init__(self):
        self.computed = complex(self.computed)
        self.oracle = complex(self.oracle)
        self.abs_error = abs(self.computed - self.oracle)
        scale = abs(self.oracle)
        self.rel_error = self.abs_error / scale if scale > 0 else self.abs_error


@dataclass
class SummaryItem:
    name: str
    value: float
    threshold: float
    passed: bool


def _at_most(name: str, value, tol: float) -> SummaryItem:
    value = float(value)
    return SummaryItem(name, value, tol, value <= tol)


def _halving_item(name: str, errs, expected: float, tol: float,
                  scale: float = 1.0) -> SummaryItem:
    """Passes when errs[0] / errs[1], for couplings lambda and lambda/2, is
    within relative ``tol`` of ``expected``.

    When either error sits at the roundoff floor the ratio measures noise,
    not the coupling order, so it is refused instead of reported.
    """
    floor = _ROUNDOFF_ULPS * np.finfo(float).eps * scale
    if min(errs) <= floor:
        raise UnresolvedRatioError(
            f"{name} cannot be resolved: the errors {errs[0]:.3e} (lambda) and "
            f"{errs[1]:.3e} (lambda/2) are not both above the roundoff floor "
            f"{floor:.1e}; use a larger --lambda")
    ratio = errs[0] / errs[1]
    return SummaryItem(name, ratio, tol, abs(ratio / expected - 1.0) <= tol)


def _entry_rows(*cases, keys=("row", "col")) -> list:
    """ReportRows for every entry (i, j) of square matrices, row-major, case
    by case within an entry.  A case is (inputs, computed, oracle); a row's
    inputs are ``inputs`` with keys[0] set to i and keys[1] to j, which keep
    their place when ``inputs`` already holds them."""
    n = len(cases[0][1])
    return [ReportRow({**inputs, keys[0]: i, keys[1]: j}, computed[i, j], ref[i, j])
            for i in range(n) for j in range(n) for inputs, computed, ref in cases]


@dataclass
class Report:
    command: str
    params: dict
    rows: list
    summary: list

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.summary)


class ReportConsistencyError(RuntimeError):
    pass


def _check_rows(report: Report):
    # errors are recomputed at emission time and must match bit-for-bit
    for row in report.rows:
        if abs(row.computed - row.oracle) != row.abs_error:
            raise ReportConsistencyError("stored abs_error does not match recomputation")


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, complex):
        return f"[{_fmt(v.real)}, {_fmt(v.imag)}]"
    if v is None:
        return "null"
    s = str(v).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


def render_json(report: Report) -> str:
    _check_rows(report)
    lines = ["{"]
    lines.append(f'  "command": {_json_value(report.command)},')
    lines.append("  \"params\": {")
    items = list(report.params.items())
    for i, (k, v) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(f"    {_json_value(str(k))}: {_json_value(v)}{comma}")
    lines.append("  },")
    lines.append('  "rows": [')
    for i, row in enumerate(report.rows):
        ins = ", ".join(f"{_json_value(str(k))}: {_json_value(v)}" for k, v in row.inputs.items())
        comma = "," if i + 1 < len(report.rows) else ""
        lines.append(
            "    {\"inputs\": {%s}, \"computed\": %s, \"oracle\": %s, "
            "\"abs_error\": %s, \"rel_error\": %s}%s"
            % (ins, _json_value(row.computed), _json_value(row.oracle),
               _fmt(row.abs_error), _fmt(row.rel_error), comma)
        )
    lines.append("  ],")
    lines.append('  "summary": [')
    for i, item in enumerate(report.summary):
        comma = "," if i + 1 < len(report.summary) else ""
        lines.append(
            "    {\"name\": %s, \"value\": %s, \"threshold\": %s, \"passed\": %s}%s"
            % (_json_value(item.name), _fmt(item.value), _fmt(item.threshold),
               "true" if item.passed else "false", comma)
        )
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    _check_rows(report)
    input_keys = list(report.rows[0].inputs.keys()) if report.rows else []
    header = input_keys + [
        "computed_re", "computed_im", "oracle_re", "oracle_im", "abs_error", "rel_error",
    ]
    out = [",".join(header)]
    for row in report.rows:
        cells = [str(row.inputs.get(k, "")) for k in input_keys]
        cells += [
            _fmt(row.computed.real), _fmt(row.computed.imag),
            _fmt(row.oracle.real), _fmt(row.oracle.imag),
            _fmt(row.abs_error), _fmt(row.rel_error),
        ]
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def emit_report(report: Report, fmt: str, path=None):
    text = render_json(report) if fmt == "json" else render_csv(report)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _print_summary(report: Report):
    for item in report.summary:
        tag = "PASS" if item.passed else "FAIL"
        print(f"[{tag}] {item.name}: value {item.value:.3e} vs threshold {item.threshold:.3e}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

_IDENTITY_POOL = (-10, -7, -5, -4, -3, -2, -1, 1, 2, 4, 6, 10)


def cmd_identity_check(opts) -> Report:
    """Exhaustive exactness of dd of monomials over an integer node pool."""
    rows = []
    n_exact_fail = 0
    float_dev_gap1 = 0.0
    count = 0
    for combo, exact_ok, float_dev in divdiff.identity_suite(_IDENTITY_POOL, opts.max_nodes):
        count += 1
        if not exact_ok:
            n_exact_fail += 1
        gaps = np.diff(sorted(combo))
        if gaps.size and gaps.min() >= 1:
            float_dev_gap1 = max(float_dev_gap1, float_dev)
        if count <= 200:  # keep the report a sane size; checks cover all
            rows.append(ReportRow(
                {"nodes": " ".join(str(x) for x in combo)},
                complex(float_dev), complex(0.0)))
    summary = [
        SummaryItem("exact_identities", float(n_exact_fail), 0.5, n_exact_fail == 0),
        _at_most("float_dev_min_gap_1", float_dev_gap1, opts.tol),
        SummaryItem("case_count", float(count), 500.0, count >= 500),
    ]
    params = {"max_nodes": opts.max_nodes, "tol": opts.tol,
              "pool": " ".join(str(x) for x in _IDENTITY_POOL)}
    return Report("identity-check", params, rows, summary)


def _load_or_random_model(opts):
    if opts.model:
        with open(opts.model) as fh:
            return load_model(fh.read())
    return random_model(opts.dim, opts.seed, opts.lam)


def cmd_propagate(opts) -> Report:
    """Series terms vs time-ordered quadrature, plus the extrapolated
    resolvent-form consistency check."""
    model = _load_or_random_model(opts)
    rows = []
    worst_term = 0.0
    terms = oracle._dyson_terms(model, opts.order, opts.t, opts.quad_points)
    for l, term in enumerate(terms):
        computed = a_matrix(model, l, opts.t).entries
        ref = term.entries
        rows += _entry_rows(({"l": l}, computed, ref))
        worst_term = max(worst_term, float(np.max(np.abs(computed - ref))))

    spec = TruncationSpec(opts.order)
    samples = [epsilon_form_evolution(model, spec, opts.t, e, opts.sign).entries
               for e in _EPS_LADDER]
    extrapolated = richardson_limit(_EPS_LADDER, samples)
    direct = truncated_evolution(model, spec, opts.t).entries
    eps_dev = float(np.max(np.abs(extrapolated - direct)))
    summary = [
        _at_most("series_term_vs_quadrature", worst_term, opts.tol),
        _at_most("resolvent_form_extrapolated", eps_dev, opts.eps_tol),
    ]
    params = {"t": opts.t, "order": opts.order, "seed": opts.seed, "dim": model.dim,
              "lambda": opts.lam, "quad_points": opts.quad_points,
              "tol": opts.tol, "eps_tol": opts.eps_tol, "model": opts.model or "(random)"}
    return Report("propagate", params, rows, summary)


def cmd_converge(opts) -> Report:
    """Coupling-halving error scaling of the truncated evolution.

    The truncation error of order N scales as lambda^(N+1), so its halving
    ratio is 2^(N+1).  The unitarity defect U_N^dagger U_N - 1 starts at
    order N+1 with -(a_0^dagger a_{N+1} + a_{N+1}^dagger a_0), but for this
    system that term vanishes whenever N+1 is odd: H1 is traceless and
    off-diagonal, so the interaction-picture propagator U0^dagger U lies in
    SU(2) and its odd-order terms (off-diagonal) are anti-Hermitian.  The
    defect ratio is therefore 2^(N+1) for odd N and 2^(N+2) for even N.
    """
    if opts.t == 0:
        raise ValueError("--t 0 cannot be checked: at t = 0 both propagators are "
                         "exactly the identity, so no --lambda gives an error to scale")
    base = two_level_model(1.0, 1.0)
    rows = []
    summary = []
    for N in (1, 2, 3):
        spec = TruncationSpec(N)
        errs = []
        defects = []
        for lam in (opts.lam, opts.lam / 2):
            m = scale_coupling(base, lam)
            u = truncated_evolution(m, spec, opts.t).entries
            ref = oracle.exact_evolution(m, opts.t).entries
            err = float(np.max(np.abs(u - ref)))
            defect = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
            errs.append(err)
            defects.append(defect)
            rows.append(ReportRow({"N": N, "lambda": lam, "what": "max_err"},
                                  complex(err), complex(0.0)))
            rows.append(ReportRow({"N": N, "lambda": lam, "what": "unitarity_defect"},
                                  complex(defect), complex(0.0)))
        summary.append(_halving_item(f"error_ratio_N{N}", errs, 2.0 ** (N + 1), opts.ratio_tol))
        summary.append(_halving_item(f"unitarity_ratio_N{N}", defects,
                                     2.0 ** (N + 1 if N % 2 else N + 2), opts.ratio_tol))
    params = {"t": opts.t, "lambda": opts.lam, "ratio_tol": opts.ratio_tol}
    return Report("converge", params, rows, summary)


def cmd_dyson_check(opts) -> Report:
    """Partial Dyson sum of the resolvent vs the dense direct solve."""
    model = _load_or_random_model(opts)
    E = float(np.min(model.energies)) - 2.0
    q0 = green.ResolventQuery(E, opts.sign, opts.eps)
    # rescale the coupling so the fixed-point iteration contracts
    rho0 = green.dyson_partial(model, q0, 0).params["rho"]
    if rho0 > 0.5:
        model = scale_coupling(model, 0.5 / rho0)
    q = green.ResolventQuery(E, opts.sign, opts.eps)
    partial = green.dyson_partial(model, q, opts.order)
    direct = green.complete_resolvent_direct(model, q)
    rows = _entry_rows(({}, partial.entries, direct.entries))
    err = float(np.max(np.abs(partial.entries - direct.entries)))
    rho = partial.params["rho"]
    g0_norm = float(np.linalg.norm(green.unperturbed_resolvent(model, q).entries, 2))
    # geometric tail plus a roundoff floor; at large orders the analytic
    # tail drops far below working precision
    floor = 1e-13 * float(np.max(np.abs(direct.entries)))
    tail_bound = g0_norm * rho ** (opts.order + 1) / (1.0 - rho) + floor
    summary = [
        _at_most("partial_vs_direct", err, opts.tol),
        _at_most("geometric_tail_bound", err, tail_bound),
        SummaryItem("contraction_factor", rho, 0.5, rho <= 0.5 + 1e-12),
    ]
    params = {"E": E, "sign": q.sign, "eps": opts.eps, "order": opts.order,
              "seed": opts.seed, "dim": model.dim, "tol": opts.tol,
              "rho": rho, "model": opts.model or "(random)"}
    return Report("dyson-check", params, rows, summary)


def cmd_green_ft(opts) -> Report:
    """Fourier reciprocity between the stationary and time-dependent forms."""
    model = two_level_model(1.0, 0.3) if not opts.model else _load_or_random_model(opts)
    spec = TruncationSpec(opts.order)
    quad = green.QuadratureSpec((0.0, opts.quad_domain), opts.quad_points)
    rows = []
    worst_inv = 0.0
    for sgn in (+1, -1):
        lhs = green.inverse_fourier_check(model, spec, opts.E, sgn, opts.eps, quad)
        rhs = green.dyson_partial(
            model, green.ResolventQuery(opts.E, sgn, opts.eps), opts.order)
        rows += _entry_rows(({"check": "inverse", "sign": sgn}, lhs.entries, rhs.entries))
        worst_inv = max(worst_inv, float(np.max(np.abs(lhs.entries - rhs.entries))))

    e_min = float(np.min(model.energies))
    e_max = float(np.max(model.energies))
    fwd_quad = green.QuadratureSpec((e_min - opts.window, e_max + opts.window),
                                    opts.fwd_points)
    acausal = green.forward_fourier(model, fwd_quad, -abs(opts.t), 0.0, "+", opts.eps)
    causal = green.forward_fourier(model, fwd_quad, abs(opts.t), 0.0, "+", opts.eps)
    damped = (-1j * oracle.exact_evolution(model, abs(opts.t)).entries
              * np.exp(-opts.eps * abs(opts.t)))
    rows += _entry_rows(({"check": "acausal", "sign": 1}, acausal.entries, np.zeros_like(damped)),
                        ({"check": "causal", "sign": 1}, causal.entries, damped))
    acausal_max = float(np.max(np.abs(acausal.entries)))
    summary = [
        _at_most("inverse_transform", worst_inv, opts.tol),
        _at_most("causality", acausal_max, opts.causal_tol),
    ]
    params = {"E": opts.E, "eps": opts.eps, "order": opts.order, "t": opts.t,
              "quad_points": opts.quad_points, "quad_domain": opts.quad_domain,
              "window": opts.window, "fwd_points": opts.fwd_points,
              "tol": opts.tol, "causal_tol": opts.causal_tol}
    return Report("green-ft", params, rows, summary)


def _default_lattice(lam: float) -> amp.LatticeSpec:
    m = 6
    well = -np.exp(-0.5 * (np.arange(m) - 2.5) ** 2)
    return amp.LatticeSpec(M=m, x0=0.0, h=0.5, mass=1.0,
                           v0=np.zeros(m), v1=lam * well)


def cmd_amplitude(opts) -> Report:
    """Kernel-relation and direct-truncation amplitudes against the exact
    lattice propagator, with coupling-halving scaling."""
    spec = TruncationSpec(opts.order)
    tb, ta = opts.t, 0.0
    if opts.lattice:
        with open(opts.lattice) as fh:
            base = amp.load_lattice(fh.read())
        systems = [(1.0, amp.build_lattice(base))]
    else:
        systems = [(lam, amp.build_lattice(_default_lattice(lam)))
                   for lam in (opts.lam, opts.lam / 2)]
    rows = []
    rel_errs = []
    dir_errs = []
    scale = 0.0
    for lam, sys_ in systems:
        m = sys_.spec.M
        exact, via, direct = (np.empty((m, m), dtype=complex) for _ in range(3))
        for b in range(m):
            for a in range(m):
                exact[b, a] = amp.k_exact(sys_, b, tb, a, ta)
                via[b, a] = amp.k_via_relation_extrapolated(sys_, spec, _EPS_LADDER, b, tb, a, ta)
                direct[b, a] = amp.k_truncated_direct(sys_, spec, b, tb, a, ta)
        pair = {"lambda": lam, "xb": 0, "xa": 0}  # xb, xa hold their column places
        rows += _entry_rows(({**pair, "what": "relation"}, via, exact),
                            ({**pair, "what": "direct"}, direct, exact), keys=("xb", "xa"))
        rel_errs.append(float(np.max(np.abs(via - exact))))
        dir_errs.append(float(np.max(np.abs(direct - exact))))
        scale = max(scale, float(np.max(np.abs(exact))))

    # free (v1 = 0) reduction must be exact
    sys0 = amp.build_lattice(_default_lattice(0.0))
    free_dev = max(
        abs(amp.k_via_relation(sys0, spec, 1e-3, b, tb, a, ta)
            - amp.k0_amplitude(sys0, b, tb, a, ta))
        for b in range(sys0.spec.M) for a in range(sys0.spec.M))

    expected = 2.0 ** (opts.order + 1)
    if len(systems) == 2:
        summary = [
            _halving_item("relation_error_ratio", rel_errs, expected, opts.ratio_tol, scale),
            _halving_item("direct_error_ratio", dir_errs, expected, opts.ratio_tol, scale),
        ]
    else:
        summary = [_at_most("relation_error", rel_errs[0], opts.tol),
                   _at_most("direct_error", dir_errs[0], opts.tol)]
    summary.append(_at_most("free_reduction", free_dev, opts.free_tol))
    params = {"t": opts.t, "order": opts.order, "lambda": opts.lam,
              "ratio_tol": opts.ratio_tol, "free_tol": opts.free_tol,
              "lattice": opts.lattice or "(built-in well)"}
    return Report("amplitude", params, rows, summary)


def cmd_selftest(opts) -> Report:
    """Small deterministic battery across all modules; byte-identical JSON
    for identical seeds."""
    rows = []
    checks = []

    # divided differences: clustered nodes vs the partial-fraction limit
    nodes = np.array([1.0, 1.0, 2.0])
    val = divdiff.dd_phase(nodes, 1.0)
    # confluent closed form: f[a,a,b] = (f(b) - f(a) - (b-a) f'(a)) / (b-a)^2
    fa, fb = np.exp(-1j * 1.0), np.exp(-1j * 2.0)
    ref = (fb - fa - (-1j) * fa) / 1.0
    rows.append(ReportRow({"check": "dd_confluent"}, val, ref))
    checks.append(("dd_confluent", abs(val - ref), 1e-12))

    model = random_model(3, opts.seed, 0.2)
    spec = TruncationSpec(2)
    u = truncated_evolution(model, spec, 1.0).entries
    ref_u = oracle.exact_evolution(model, 1.0).entries
    err_u = float(np.max(np.abs(u - ref_u)))
    rows.append(ReportRow({"check": "truncation_error"}, complex(err_u), 0.0))
    checks.append(("truncation_error", err_u, 1e-2))

    rev = truncated_evolution(model, spec, -1.0).entries
    err_rev = float(np.max(np.abs(rev - u.conj().T)))
    rows.append(ReportRow({"check": "time_reversal"}, complex(err_rev), 0.0))
    checks.append(("time_reversal", err_rev, 1e-12))

    q = green.ResolventQuery(float(np.min(model.energies)) - 2.0, +1, 0.05)
    partial = green.dyson_partial(model, q, 30).entries
    direct = green.complete_resolvent_direct(model, q).entries
    err_g = float(np.max(np.abs(partial - direct)))
    rows.append(ReportRow({"check": "dyson_partial"}, complex(err_g), 0.0))
    checks.append(("dyson_partial", err_g, 1e-8))

    sys_ = amp.build_lattice(_default_lattice(0.1))
    kd = amp.k_truncated_direct(sys_, spec, 3, 1.0, 2, 0.0)
    ke = amp.k_exact(sys_, 3, 1.0, 2, 0.0)
    rows.append(ReportRow({"check": "lattice_amplitude"}, kd, ke))
    checks.append(("lattice_amplitude", abs(kd - ke), 1e-3))

    summary = [_at_most(name, v, tol) for name, v, tol in checks]
    return Report("selftest", {"seed": opts.seed}, rows, summary)


# ---------------------------------------------------------------------------
# argument parsing

def _nonnegative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _finite_float(text: str) -> float:
    v = float(text)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {v}")
    return v


def _positive_float(text: str) -> float:
    v = _finite_float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {v}")
    return v


def _add_model_flags(p, dim: int, seed: int, lam: float):
    p.add_argument("--model", default=None)
    p.add_argument("--dim", type=_nonnegative_int, default=dim)
    p.add_argument("--seed", type=_nonnegative_int, default=seed)
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=lam)


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonprop",
        description="perturbation-series propagator and Green-operator validation suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity-check",
                       help="exact divided-difference identities over integer nodes")
    p.add_argument("--max-nodes", type=_positive_int, default=6)
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    _add_common(p)

    p = sub.add_parser("propagate",
                       help="series terms vs quadrature oracle; resolvent-form check")
    _add_model_flags(p, dim=3, seed=7, lam=0.2)
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--order", type=_nonnegative_int, default=2)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--quad-points", type=_nonnegative_int, default=64)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--eps-tol", type=_positive_float, default=1e-6)
    _add_common(p)

    p = sub.add_parser("converge", help="coupling-halving truncation scaling")
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=0.1)
    p.add_argument("--ratio-tol", type=_positive_float, default=0.25)
    _add_common(p)

    p = sub.add_parser("dyson-check", help="resolvent partial sum vs direct solve")
    _add_model_flags(p, dim=4, seed=11, lam=0.3)
    p.add_argument("--order", type=_nonnegative_int, default=40)
    p.add_argument("--eps", type=_positive_float, default=0.05)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("green-ft", help="Fourier reciprocity of the Green operator")
    p.add_argument("--model", default=None)
    p.add_argument("--E", type=_finite_float, default=0.37)
    p.add_argument("--t", type=_finite_float, default=1.5)
    p.add_argument("--order", type=_nonnegative_int, default=2)
    p.add_argument("--eps", type=_positive_float, default=0.1)
    p.add_argument("--quad-points", type=_nonnegative_int, default=2000)
    p.add_argument("--quad-domain", type=_positive_float, default=200.0)
    p.add_argument("--window", type=_positive_float, default=40.0)
    p.add_argument("--fwd-points", type=_nonnegative_int, default=2000)
    p.add_argument("--tol", type=_positive_float, default=1e-5)
    p.add_argument("--causal-tol", type=_positive_float, default=1e-3)
    _add_common(p)

    p = sub.add_parser("amplitude", help="lattice amplitude relation checks")
    p.add_argument("--lattice", default=None)
    p.add_argument("--t", type=_positive_float, default=1.0)
    p.add_argument("--order", type=_nonnegative_int, default=2)
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=0.1)
    p.add_argument("--ratio-tol", type=_positive_float, default=0.30)
    p.add_argument("--tol", type=_positive_float, default=1e-3)
    p.add_argument("--free-tol", type=_positive_float, default=1e-12)
    _add_common(p)

    p = sub.add_parser("selftest", help="deterministic cross-module battery")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_common(p)

    return parser


_DISPATCH = {
    "identity-check": cmd_identity_check,
    "propagate": cmd_propagate,
    "converge": cmd_converge,
    "dyson-check": cmd_dyson_check,
    "green-ft": cmd_green_ft,
    "amplitude": cmd_amplitude,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        report = _DISPATCH[opts.command](opts)
    except Exception as exc:  # surface module errors with context, nonzero exit
        print(f"dysonprop {opts.command}: error: {exc}", file=sys.stderr)
        return 2
    emit_report(report, opts.format, opts.out)
    _print_summary(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
