"""Batch experiment runner with machine-readable reports.

Each subcommand runs one validation suite over the library and writes a
Report as CSV or JSON.  Exit status is 0 exactly when every summary
criterion passed.  Reports are deterministic: fixed inputs and seeds give
byte-identical output (no timestamps; shortest round-trip floats).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import amplitude as amp
from . import divdiff, green, oracle
from .model import Unresolved, load_model, random_model, scale_coupling, two_level_model
from .propagator import (
    TruncationSpec,
    a_matrix,
    epsilon_form_evolution,
    normalize_sign,
    richardson_limit,
    truncated_evolution,
)


#: Errors within this many units of roundoff of the compared values' scale
#: are indistinguishable from zero.
_ROUNDOFF_ULPS = 100


#: eps ladder of the extrapolated resolvent form and kernel relation at |t| <= 1;
#: four points keep the Richardson remainder below the truncation errors compared
_EPS_LADDER = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


def _eps_ladder(t: float) -> list[float]:
    """_EPS_LADDER over max(1, |t|): the eps forms damp by e^{-m eps |t|}, so
    eps |t| stays at most its |t| = 1 values, where four points extrapolate."""
    return [eps / max(1.0, abs(t)) for eps in _EPS_LADDER]


@dataclass(frozen=True)
class ReportRow:
    """One compared value; frozen, so its errors always match it."""

    inputs: dict  # small scalars / labels identifying the case
    computed: complex
    oracle: complex
    abs_error: float = field(init=False)
    rel_error: float = field(init=False)

    def __post_init__(self):
        computed, oracle = complex(self.computed), complex(self.oracle)
        abs_error, scale = abs(computed - oracle), abs(oracle)
        rel_error = abs_error / scale if scale > 0 else abs_error
        for name, value in (("computed", computed), ("oracle", oracle),
                            ("abs_error", abs_error), ("rel_error", rel_error)):
            object.__setattr__(self, name, value)


@dataclass
class SummaryItem:
    name: str
    value: float
    threshold: float  # a bound on value, or its relative tolerance about expected
    passed: bool
    expected: float | None = None  # the value a halving ratio should take


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
        raise Unresolved(name, f"the errors {errs[0]:.3e} (lambda) and {errs[1]:.3e} "
                         f"(lambda/2) are not both above the roundoff floor {floor:.1e}; "
                         "use a larger --lambda")
    ratio = errs[0] / errs[1]
    return SummaryItem(name, ratio, tol, abs(ratio / expected - 1.0) <= tol, expected)


def _worst(rows, **match) -> float:
    """The largest abs_error among ``rows`` whose inputs hold every item of
    ``match``: the value of a summary item that summarises those rows."""
    return max(r.abs_error for r in rows if match.items() <= r.inputs.items())


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


def _block(items) -> str:
    """The body of a JSON object or array, one item per line."""
    return "".join(f"\n    {item}," for item in items).rstrip(",") + "\n  "


def render_json(report: Report) -> str:
    """The report as JSON, one line per params key, row and summary item."""
    params = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in report.params.items()]
    rows = [json.dumps({"inputs": r.inputs, "computed": [r.computed.real, r.computed.imag],
                        "oracle": [r.oracle.real, r.oracle.imag], "abs_error": r.abs_error,
                        "rel_error": r.rel_error}) for r in report.rows]
    summary = [json.dumps({"name": s.name, "value": s.value, "expected": s.expected,
                           "threshold": s.threshold, "passed": s.passed}) for s in report.summary]
    return (f'{{\n  "command": {json.dumps(report.command)},\n'
            f'  "params": {{{_block(params)}}},\n'
            f'  "rows": [{_block(rows)}],\n'
            f'  "summary": [{_block(summary)}]\n}}\n')


def render_csv(report: Report) -> str:
    keys = list(report.rows[0].inputs) if report.rows else []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*keys, "computed_re", "computed_im", "oracle_re", "oracle_im",
                     "abs_error", "rel_error"])
    writer.writerows([*(r.inputs.get(k, "") for k in keys), r.computed.real, r.computed.imag,
                      r.oracle.real, r.oracle.imag, r.abs_error, r.rel_error] for r in report.rows)
    return out.getvalue()


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
        verdict = (f"threshold {item.threshold:.3e}" if item.expected is None else
                   f"expected {item.expected:.3e} within relative {item.threshold:.3e}")
        print(f"[{tag}] {item.name}: value {item.value:.3e} vs {verdict}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

_IDENTITY_POOL = (-10, -7, -5, -4, -3, -2, -1, 1, 2, 4, 6, 10)


def cmd_identity_check(opts) -> Report:
    """Exhaustive exactness of dd of monomials over an integer node pool."""
    cases = list(divdiff.identity_suite(_IDENTITY_POOL, opts.max_nodes))
    # keep the report a sane size; the summary covers every case
    rows = [ReportRow({"nodes": " ".join(str(x) for x in combo)}, complex(dev), complex(0.0))
            for combo, _, dev in cases[:200]]
    summary = [
        _at_most("exact_identities", sum(not ok for _, ok, _ in cases), 0.5),
        # distinct pool integers: every combination's nodes are >= 1 apart
        _at_most("float_dev_min_gap_1", max(dev for _, _, dev in cases), opts.tol),
        SummaryItem("case_count", float(len(cases)), 500.0, len(cases) >= 500),
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
    # the partial sum of the terms, added in truncated_evolution's order
    direct = np.zeros((model.dim, model.dim), dtype=complex)
    terms = oracle._dyson_terms(model, opts.order, opts.t, opts.quad_points)
    for l, term in enumerate(terms):
        computed = a_matrix(model, l, opts.t).entries
        rows += _entry_rows(({"l": l}, computed, term.entries))
        direct += computed

    spec, ladder = TruncationSpec(opts.order), _eps_ladder(opts.t)
    samples = [epsilon_form_evolution(model, spec, opts.t, e, opts.sign).entries for e in ladder]
    extrapolated = richardson_limit(ladder, samples)
    eps_dev = float(np.max(np.abs(extrapolated - direct)))
    summary = [
        _at_most("series_term_vs_quadrature", _worst(rows), opts.tol),
        _at_most("resolvent_form_extrapolated", eps_dev, opts.eps_tol),
    ]
    params = {"t": opts.t, "order": opts.order, "seed": opts.seed, "dim": model.dim,
              "lambda": opts.lam, "quad_points": opts.quad_points,
              "tol": opts.tol, "eps_tol": opts.eps_tol, "model": opts.model or "(random)",
              "sign": normalize_sign(opts.sign)}
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
    cases = []  # (lambda, model, exact evolution), one reference per coupling
    for lam in (opts.lam, opts.lam / 2):
        m = scale_coupling(base, lam)
        cases.append((lam, m, oracle.exact_evolution(m, opts.t).entries))
    rows, summary = [], []
    for N in (1, 2, 3):
        spec = TruncationSpec(N)
        errs, defects = [], []
        for lam, m, ref in cases:
            u = truncated_evolution(m, spec, opts.t).entries
            errs.append(float(np.max(np.abs(u - ref))))
            defects.append(float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
            rows += [ReportRow({"N": N, "lambda": lam, "what": what}, complex(v), complex(0.0))
                     for what, v in (("max_err", errs[-1]), ("unitarity_defect", defects[-1]))]
        summary.append(_halving_item(f"error_ratio_N{N}", errs, 2.0 ** (N + 1), opts.ratio_tol))
        summary.append(_halving_item(f"unitarity_ratio_N{N}", defects,
                                     2.0 ** (N + 1 if N % 2 else N + 2), opts.ratio_tol))
    params = {"t": opts.t, "lambda": opts.lam, "ratio_tol": opts.ratio_tol}
    return Report("converge", params, rows, summary)


def cmd_dyson_check(opts) -> Report:
    """Partial Dyson sum of the resolvent vs the dense direct solve."""
    model = _load_or_random_model(opts)
    E = float(np.min(model.energies)) - 2.0
    q = green.ResolventQuery(E, opts.sign, opts.eps)
    # rescale the coupling so the fixed-point iteration contracts
    rho0 = green.dyson_partial(model, q, 0).params["rho"]
    if rho0 > 0.5:
        model = scale_coupling(model, 0.5 / rho0)
    partial = green.dyson_partial(model, q, opts.order)
    direct = green.complete_resolvent_direct(model, q)
    rows = _entry_rows(({}, partial.entries, direct.entries))
    err = _worst(rows)
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
              "rho": rho, "model": opts.model or "(random)", "lambda": opts.lam}
    return Report("dyson-check", params, rows, summary)


def cmd_green_ft(opts) -> Report:
    """Fourier reciprocity between the stationary and time-dependent forms."""
    if opts.t == 0:
        raise ValueError("--t 0 cannot be checked: tau = 0 sits on the jump of the step "
                         "function theta(tau), where the Green operator is ambiguous, so "
                         "the causal and acausal transforms have no single value to match")
    model = two_level_model(1.0, 0.3) if not opts.model else _load_or_random_model(opts)
    spec = TruncationSpec(opts.order)
    # the forward transform first: it refuses its window, times and point
    # count before the inverse check's evaluations run; the rows keep the
    # inverse ones first
    e_min, e_max = float(np.min(model.energies)), float(np.max(model.energies))
    fwd_quad = green.QuadratureSpec((e_min - opts.window, e_max + opts.window),
                                    opts.fwd_points)
    acausal, causal = green.forward_fourier(
        model, fwd_quad, (-abs(opts.t), abs(opts.t)), 0.0, "+", opts.eps)
    damped = (-1j * oracle.exact_evolution(model, abs(opts.t)).entries
              * np.exp(-opts.eps * abs(opts.t)))
    quad = green.QuadratureSpec((0.0, opts.quad_domain), opts.quad_points)
    rows = []
    for sgn in (+1, -1):
        lhs = green.inverse_fourier_check(model, spec, opts.E, sgn, opts.eps, quad)
        rhs = green.dyson_partial(
            model, green.ResolventQuery(opts.E, sgn, opts.eps), opts.order)
        rows += _entry_rows(({"check": "inverse", "sign": sgn}, lhs.entries, rhs.entries))
    rows += _entry_rows(({"check": "acausal", "sign": 1}, acausal.entries, np.zeros_like(damped)),
                        ({"check": "causal", "sign": 1}, causal.entries, damped))
    summary = [
        _at_most("inverse_transform", _worst(rows, check="inverse"), opts.tol),
        _at_most("causal_transform", _worst(rows, check="causal"), opts.causal_tol),
        _at_most("causality", _worst(rows, check="acausal"), opts.causal_tol),
    ]
    params = {"E": opts.E, "eps": opts.eps, "order": opts.order, "t": opts.t,
              "quad_points": opts.quad_points, "quad_domain": opts.quad_domain,
              "window": opts.window, "fwd_points": opts.fwd_points,
              "tol": opts.tol, "causal_tol": opts.causal_tol,
              "model": opts.model or "(two-level)"}
    return Report("green-ft", params, rows, summary)


def _default_lattice(lam: float) -> amp.LatticeSpec:
    m = 6
    well = -np.exp(-0.5 * (np.arange(m) - 2.5) ** 2)
    return amp.LatticeSpec(M=m, h=0.5, mass=1.0, v0=np.zeros(m), v1=lam * well)


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
    every = slice(None)  # all endpoint pairs in one call
    rows = []
    for lam, sys_ in systems:
        exact = amp.k_exact(sys_, every, tb, every, ta)
        via = amp.k_via_relation_extrapolated(sys_, spec, _eps_ladder(tb - ta), every, tb,
                                              every, ta)
        direct = amp.k_truncated_direct(sys_, spec, every, tb, every, ta)
        pair = {"lambda": lam, "xb": 0, "xa": 0}  # xb, xa hold their column places
        rows += _entry_rows(({**pair, "what": "relation"}, via, exact),
                            ({**pair, "what": "direct"}, direct, exact), keys=("xb", "xa"))

    # free (v1 = 0) reduction of the same lattice must be exact
    lattice = systems[0][1].spec
    sys0 = amp.build_lattice(replace(lattice, v1=np.zeros(lattice.M)))
    free_dev = float(np.max(np.abs(amp.k_via_relation(sys0, spec, 1e-3, every, tb, every, ta)
                                   - amp.k0_amplitude(sys0, every, tb, every, ta))))

    expected, scale = 2.0 ** (opts.order + 1), max(abs(r.oracle) for r in rows)
    summary = []
    for what in ("relation", "direct"):  # the largest deviation at each coupling
        errs = [_worst(rows, what=what, **{"lambda": lam}) for lam, _ in systems]
        summary.append(_halving_item(f"{what}_error_ratio", errs, expected, opts.ratio_tol, scale)
                       if len(errs) == 2 else _at_most(f"{what}_error", errs[0], opts.tol))
    summary.append(_at_most("free_reduction", free_dev, opts.free_tol))
    params = {"t": opts.t, "order": opts.order, "lambda": opts.lam,
              "ratio_tol": opts.ratio_tol, "free_tol": opts.free_tol,
              "lattice": opts.lattice or "(built-in well)", "tol": opts.tol}
    return Report("amplitude", params, rows, summary)


def cmd_selftest(opts) -> Report:
    """Small deterministic battery across all modules; byte-identical JSON
    for identical seeds."""
    # divided differences: a repeated node vs the confluent closed form
    val = divdiff.dd_phase(np.array([1.0, 1.0, 2.0]), 1.0)
    # confluent closed form: f[a,a,b] = (f(b) - f(a) - (b-a) f'(a)) / (b-a)^2
    fa, fb = np.exp(-1j * 1.0), np.exp(-1j * 2.0)

    model = random_model(3, opts.seed, 0.2)
    spec = TruncationSpec(2)
    u = truncated_evolution(model, spec, 1.0).entries
    rev = truncated_evolution(model, spec, -1.0).entries
    q = green.ResolventQuery(float(np.min(model.energies)) - 2.0, +1, 0.05)
    partial = green.dyson_partial(model, q, 30).entries
    direct = green.complete_resolvent_direct(model, q).entries
    sys_ = amp.build_lattice(_default_lattice(0.1))

    # (check, computed, oracle, tolerance); a matrix check reports its
    # largest entry deviation as its computed value, against 0
    cases = [
        ("dd_confluent", val, (fb - fa - (-1j) * fa) / 1.0, 1e-12),
        ("truncation_error", np.max(np.abs(u - oracle.exact_evolution(model, 1.0).entries)),
         0.0, 1e-2),
        ("time_reversal", np.max(np.abs(rev - u.conj().T)), 0.0, 1e-12),
        ("dyson_partial", np.max(np.abs(partial - direct)), 0.0, 1e-8),
        ("lattice_amplitude", amp.k_truncated_direct(sys_, spec, 3, 1.0, 2, 0.0),
         amp.k_exact(sys_, 3, 1.0, 2, 0.0), 1e-3),
    ]
    rows = [ReportRow({"check": name}, computed, ref) for name, computed, ref, _ in cases]
    summary = [_at_most(name, _worst(rows, check=name), tol) for name, _, _, tol in cases]
    return Report("selftest", {"seed": opts.seed}, rows, summary)


# ---------------------------------------------------------------------------
# argument parsing

def _checked(name: str, convert, *rules):
    """An argparse type named ``name`` (argparse names it in its "invalid ...
    value" errors): ``convert`` of the text, refused with "must be <what>, got
    <value>" at the first (test, what) of ``rules`` that the value fails."""
    def check(text: str):
        v = convert(text)
        for test, what in rules:
            if not test(v):
                raise argparse.ArgumentTypeError(f"must be {what}, got {v}")
        return v

    check.__name__ = name
    return check


_FINITE = (np.isfinite, "finite")
_nonnegative_int = _checked("_nonnegative_int", int, (lambda v: v >= 0, ">= 0"))
_positive_int = _checked("_positive_int", int, (lambda v: v >= 1, ">= 1"))
_finite_float = _checked("_finite_float", float, _FINITE)
_positive_float = _checked("_positive_float", float, _FINITE, (lambda v: v > 0, "> 0"))


#: command -> (handler, help line, flags); a flag is (name, type or a tuple
#: of choices, default).  Every command also takes --format and --out.
_COMMANDS = {
    "identity-check": (
        cmd_identity_check, "exact divided-difference identities over integer nodes",
        [("--max-nodes", _positive_int, 6), ("--tol", _positive_float, 1e-12)]),
    "propagate": (cmd_propagate, "series terms vs quadrature oracle; resolvent-form check", [
        ("--model", None, None), ("--dim", _nonnegative_int, 3),
        ("--seed", _nonnegative_int, 7), ("--lambda", _positive_float, 0.2),
        ("--t", _finite_float, 1.0), ("--order", _nonnegative_int, 2),
        ("--sign", ("+", "-"), "+"), ("--quad-points", _nonnegative_int, 64),
        ("--tol", _positive_float, 1e-6), ("--eps-tol", _positive_float, 1e-6)]),
    "converge": (cmd_converge, "coupling-halving truncation scaling", [
        ("--t", _finite_float, 1.0), ("--lambda", _positive_float, 0.1),
        ("--ratio-tol", _positive_float, 0.25)]),
    "dyson-check": (cmd_dyson_check, "resolvent partial sum vs direct solve", [
        ("--model", None, None), ("--dim", _nonnegative_int, 4),
        ("--seed", _nonnegative_int, 11), ("--lambda", _positive_float, 0.3),
        ("--order", _nonnegative_int, 40), ("--eps", _positive_float, 0.05),
        ("--sign", ("+", "-"), "+"), ("--tol", _positive_float, 1e-8)]),
    "green-ft": (cmd_green_ft, "Fourier reciprocity of the Green operator", [
        ("--model", None, None), ("--E", _finite_float, 0.37), ("--t", _finite_float, 1.5),
        ("--order", _nonnegative_int, 2), ("--eps", _positive_float, 0.1),
        ("--quad-points", _nonnegative_int, 2000), ("--quad-domain", _positive_float, 200.0),
        ("--window", _positive_float, 40.0), ("--fwd-points", _nonnegative_int, 2000),
        ("--tol", _positive_float, 1e-5), ("--causal-tol", _positive_float, 1e-8)]),
    "amplitude": (cmd_amplitude, "lattice amplitude relation checks", [
        ("--lattice", None, None), ("--t", _positive_float, 1.0),
        ("--order", _nonnegative_int, 2), ("--lambda", _positive_float, 0.1),
        ("--ratio-tol", _positive_float, 0.30), ("--tol", _positive_float, 1e-3),
        ("--free-tol", _positive_float, 1e-12)]),
    "selftest": (cmd_selftest, "deterministic cross-module battery", [
        ("--seed", _nonnegative_int, 0)]),
}

_DISPATCH = {name: handler for name, (handler, _, _) in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonprop",
        description="perturbation-series propagator and Green-operator validation suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kind, default in flags:
            # "lambda" is a keyword, so --lambda is stored as lam
            dest = "lam" if flag == "--lambda" else None
            if isinstance(kind, tuple):
                p.add_argument(flag, dest=dest, choices=kind, default=default)
            else:
                p.add_argument(flag, dest=dest, type=kind, default=default)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        report = _DISPATCH[opts.command](opts)
        emit_report(report, opts.format, opts.out)
    except Exception as exc:  # surface module errors with context, nonzero exit
        print(f"dysonprop {opts.command}: error: {exc}", file=sys.stderr)
        return 2
    _print_summary(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
