import csv
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import dysonprop
from dysonprop import amplitude as amp
from dysonprop import cli, divdiff, green, oracle
from dysonprop.cli import (
    _DISPATCH,
    Report,
    ReportRow,
    SummaryItem,
    _load_or_random_model,
    build_parser,
    cmd_propagate,
    main,
    render_csv,
    render_json,
)
from dysonprop.model import emit_model, random_model, two_level_model
from dysonprop.oracle import dyson_term_quadrature, exact_evolution, linear_solve
from dysonprop.propagator import truncated_evolution


def small_report():
    rows = [ReportRow({"k": 1, "label": "x"}, 1.0 + 2.0j, 1.0 + 2.5j)]
    summary = [SummaryItem("check", 0.5, 1.0, True)]
    return Report("demo", {"seed": 3, "tol": 1e-6}, rows, summary)


def test_parse_identity_check():
    opts = build_parser().parse_args(["identity-check", "--max-nodes", "6"])
    assert opts.command == "identity-check"
    assert opts.max_nodes == 6


def test_parse_propagate():
    opts = build_parser().parse_args(
        ["propagate", "--model", "m.json", "--t", "1.0", "--order", "3"])
    assert opts.command == "propagate"
    assert opts.model == "m.json"
    assert opts.t == 1.0
    assert opts.order == 3


def test_parse_rejects_negative_order():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["propagate", "--order", "-1"])


@pytest.mark.parametrize("argv", [
    ["converge", "--t", "inf"],
    ["green-ft", "--E", "nan"],
    ["propagate", "--lambda", "inf"],
])
def test_non_finite_floats_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def test_max_nodes_zero_rejected(capsys):
    # zero nodes would run no identity at all, and up to 3 give too few cases
    # for case_count: each would report a failed count
    for n, text in ((0, "must be >= 1, got 0"),
                    (1, "1 gives 12 identity cases, 488 short of 500"),
                    (2, "2 gives 78 identity cases, 422 short of 500"),
                    (3, "3 gives 298 identity cases, 202 short of 500")):
        with pytest.raises(SystemExit) as exc:
            main(["identity-check", "--max-nodes", str(n)])
        assert exc.value.code == 2
        assert f"argument --max-nodes: {text}" in capsys.readouterr().err


#: vars(parse_args([command])): every flag's destination and default
PARSED_DEFAULTS = {
    "identity-check": {"command": "identity-check", "max_nodes": 6, "tol": 1e-12,
                       "format": "json", "out": None},
    "propagate": {"command": "propagate", "model": None, "dim": 3, "seed": 7, "lam": 0.2,
                  "t": 1.0, "order": 2, "sign": "+", "quad_points": 64, "tol": 1e-06,
                  "eps_tol": 1e-06, "format": "json", "out": None},
    "converge": {"command": "converge", "t": 1.0, "lam": 0.1, "ratio_tol": 0.25,
                 "format": "json", "out": None},
    "dyson-check": {"command": "dyson-check", "model": None, "dim": 4, "seed": 11,
                    "lam": 0.3, "order": 40, "eps": 0.05, "sign": "+", "tol": 1e-08,
                    "format": "json", "out": None},
    "green-ft": {"command": "green-ft", "model": None, "E": 0.37, "t": 1.5, "order": 2,
                 "eps": 0.1, "quad_points": 2000, "quad_domain": 200.0, "window": 40.0,
                 "fwd_points": 2000, "tol": 1e-05, "causal_tol": 1e-08,
                 "format": "json", "out": None},
    "amplitude": {"command": "amplitude", "lattice": None, "t": 1.0, "order": 2,
                  "lam": 0.1, "ratio_tol": 0.3, "tol": 0.001, "free_tol": 1e-12,
                  "format": "json", "out": None},
    "selftest": {"command": "selftest", "seed": 0, "format": "json", "out": None},
}


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_parser_defaults(command):
    parsed = vars(build_parser().parse_args([command]))
    assert parsed == PARSED_DEFAULTS[command]
    assert list(parsed) == list(PARSED_DEFAULTS[command])


@pytest.mark.parametrize("argv", [
    ["propagate", "--sign", "x"],
    ["selftest", "--format", "xml"],
    ["dyson-check", "--dim", "-1"],
    ["dyson-check", "--eps", "0"],
    ["propagate", "--quad-points", "-1"],
])
def test_parser_rejects_bad_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: " in capsys.readouterr().err


#: the flags each command's --help must name, besides --format and --out
HELP_FLAGS = {
    "identity-check": ["--max-nodes", "--tol"],
    "propagate": ["--model", "--dim", "--seed", "--lambda", "--t", "--order", "--sign",
                  "--quad-points", "--tol", "--eps-tol"],
    "converge": ["--t", "--lambda", "--ratio-tol"],
    "dyson-check": ["--model", "--dim", "--seed", "--lambda", "--order", "--eps", "--sign",
                    "--tol"],
    "green-ft": ["--model", "--E", "--t", "--order", "--eps", "--quad-points",
                 "--quad-domain", "--window", "--fwd-points", "--tol", "--causal-tol"],
    "amplitude": ["--lattice", "--t", "--order", "--lambda", "--ratio-tol", "--tol",
                  "--free-tol"],
    "selftest": ["--seed"],
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_names_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in [*HELP_FLAGS[command], "--format", "--out"]:
        assert f"  {flag} " in text


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in HELP_FLAGS)


def test_parse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_row_error_fields():
    row = ReportRow({"i": 0}, 3.0 + 4.0j, 0.0)
    assert row.abs_error == 5.0
    assert row.rel_error == 5.0  # zero oracle falls back to absolute
    row2 = ReportRow({"i": 1}, 2.0, 1.0)
    assert row2.rel_error == 1.0


@functools.cache
def _default_report(argv: tuple) -> Report:
    return _DISPATCH[argv[0]](build_parser().parse_args(argv))


def _bits(values) -> list:
    # float.hex tells -0.0 from 0.0 and keeps every bit of the mantissa
    return [float(v).hex() for v in values]


def _row_floats(row: ReportRow) -> list:
    return [row.computed.real, row.computed.imag, row.oracle.real, row.oracle.imag,
            row.abs_error, row.rel_error]


def _default_runs() -> list:
    # each command at its golden file's arguments, once whatever the format
    return [tuple(argv) for name, argv in GOLDEN_REPORTS.items() if name.endswith(".json")]


def test_json_roundtrip():
    text = render_json(small_report())
    obj = json.loads(text)
    assert obj["command"] == "demo"
    assert obj["rows"][0]["computed"] == [1.0, 2.0]
    assert obj["rows"][0]["abs_error"] == 0.5
    assert obj["summary"][0]["passed"] is True
    assert list(obj["summary"][0]) == ["name", "value", "expected", "threshold", "passed"]
    assert obj["summary"][0]["expected"] is None
    # every float of every command's report parses back to the same bits
    for argv in _default_runs():
        report = _default_report(argv)
        obj = json.loads(render_json(report))
        assert len(obj["rows"]) == len(report.rows)
        for row, got in zip(report.rows, obj["rows"]):
            assert _bits(_row_floats(row)) == _bits([*got["computed"], *got["oracle"],
                                                     got["abs_error"], got["rel_error"]])
        assert (_bits(item.value for item in report.summary)
                == _bits(item["value"] for item in obj["summary"]))


def test_csv_shape():
    text = render_csv(small_report())
    lines = text.strip().split("\n")
    assert lines[0] == "k,label,computed_re,computed_im,oracle_re,oracle_im,abs_error,rel_error"
    assert all(len(line.split(",")) == 8 for line in lines)
    # the six float columns of every command's report parse back to the same bits
    for argv in _default_runs():
        report = _default_report(argv)
        header, *cells = csv.reader(io.StringIO(render_csv(report)))
        assert header[-6:] == ["computed_re", "computed_im", "oracle_re", "oracle_im",
                               "abs_error", "rel_error"]
        assert len(cells) == len(report.rows)
        for row, got in zip(report.rows, cells):
            assert len(got) == len(header)
            assert _bits(_row_floats(row)) == _bits(float(x) for x in got[-6:])


def test_csv_empty_rows_header_only():
    rep = Report("demo", {}, [], [SummaryItem("ok", 0.0, 1.0, True)])
    text = render_csv(rep)
    assert text == "computed_re,computed_im,oracle_re,oracle_im,abs_error,rel_error\n"


def test_emission_consistency_guard():
    # a row is frozen once its errors are computed, so no tampering reaches
    # the emitted report
    rep = small_report()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.rows[0].abs_error = 999.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.rows[0].computed = 0j
    assert json.loads(render_json(rep))["rows"][0]["abs_error"] == 0.5


def test_selftest_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--out", str(p1)]) == 0
    assert main(["selftest", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


#: golden file under tests/data -> the arguments that wrote it; the green-ft
#: flags are the perfbench ``fourier`` workload's, which keep it under a second
GOLDEN_REPORTS = {
    "identity-check.json": ["identity-check"],
    "propagate.json": ["propagate"],
    "converge.json": ["converge"],
    "dyson-check.json": ["dyson-check"],
    "amplitude.json": ["amplitude"],
    "green-ft_fourier.json": ["green-ft", "--eps", "0.3", "--quad-domain", "80",
                              "--quad-points", "250", "--fwd-points", "800"],
    "selftest_seed0.json": ["selftest", "--seed", "0"],
    "propagate.csv": ["propagate", "--format", "csv"],
}

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(dysonprop.__file__).resolve().parent.parent

#: the environment every golden is written and compared in.  The last bits of
#: a report follow the BLAS kernel and numpy's SIMD loops, so both are pinned
#: to what any x86-64-v3 (AVX2) host runs: OpenBLAS's Haswell kernels and
#: numpy's loops up to X86_V3, with one BLAS and one OpenMP thread.  Every outer
#: OPENBLAS_* and NPY_* variable is dropped: numpy refuses
#: NPY_ENABLE_CPU_FEATURES next to NPY_DISABLE_CPU_FEATURES.
GOLDEN_ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "NPY_"))},
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_ENABLE_CPU_FEATURES": "X86_V3",
    "PYTHONWARNINGS": "error::RuntimeWarning",
}


def _golden(name: str, threads: int = 1, write: bool = False) -> None:
    """Run the arguments of golden ``name`` as ``python -m dysonprop`` under
    GOLDEN_ENV at ``threads`` BLAS threads and compare the report's bytes with
    tests/data/<name>, or first write them there.  The only reader and writer
    of tests/data."""
    env = dict(GOLDEN_ENV, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        done = subprocess.run([sys.executable, "-m", "dysonprop", *GOLDEN_REPORTS[name],
                               "--out", str(out)],
                              env=env, cwd=tmp, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        got = out.read_bytes()
    if write:
        (DATA / name).write_bytes(got)
    assert got == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("golden", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_output(golden):
    # a change to a golden is a change of the report format or values
    _golden(golden)


@pytest.mark.parametrize("golden", ["amplitude.json", "green-ft_fourier.json", "propagate.json"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(golden):
    # one BLAS thread is how the goldens and the benchmark workers run; a sum
    # whose rounding follows the thread count would write other bytes at two.
    # amplitude's eps ladder is one stacked matmul; propagate's eps-form shares its chains
    _golden(golden, threads=2)


#: command -> summary item -> the row filters behind its value, for every item
#: that summarises rows of its own report: the largest abs_error of the rows
#: whose inputs hold the filter, or for a halving ratio the first filter's
#: over the second's.  identity-check's deviation covers more cases than its
#: first 200 rows, so none of its items is row-backed.
ROW_BACKED = {
    "identity-check": {},
    "propagate": {"series_term_vs_quadrature": [{}]},
    "converge": {f"{item}_ratio_N{N}": [{"N": N, "lambda": lam, "what": what}
                                        for lam in (0.1, 0.05)]
                 for N in (1, 2, 3)
                 for item, what in (("error", "max_err"), ("unitarity", "unitarity_defect"))},
    "dyson-check": {"partial_vs_direct": [{}], "geometric_tail_bound": [{}]},
    "green-ft": {"inverse_transform": [{"check": "inverse"}],
                 "causal_transform": [{"check": "causal"}],
                 "causality": [{"check": "acausal"}]},
    "amplitude": {f"{what}_error_ratio": [{"lambda": lam, "what": what} for lam in (0.1, 0.05)]
                  for what in ("relation", "direct")},
    "selftest": {check: [{"check": check}] for check in (
        "dd_confluent", "truncation_error", "time_reversal", "dyson_partial",
        "lattice_amplitude")},
}


@pytest.mark.parametrize("argv", _default_runs(), ids=lambda argv: argv[0])
def test_summary_values_are_the_largest_row_errors(argv):
    # one |z| routine for the rows and the summary: the value of every
    # row-backed item is, bit for bit, what a reader recomputes from the rows
    report = _default_report(argv)

    def worst(match):
        errs = [r.abs_error for r in report.rows
                if all(r.inputs.get(k) == v for k, v in match.items())]
        assert errs, match
        return max(errs)

    values = {item.name: item.value for item in report.summary}
    for name, matches in ROW_BACKED[argv[0]].items():
        want = worst(matches[0]) if len(matches) == 1 else worst(matches[0]) / worst(matches[1])
        assert float(values[name]).hex() == float(want).hex(), name


def _params(argv, path):
    main([*argv, "--out", str(path)])
    return json.loads(path.read_text())["params"]


@pytest.mark.parametrize("argv, flag, key, values", [
    (["propagate"], "--sign", "sign", ("+", "-")),
    # both couplings are rescaled to the same contraction factor
    (["dyson-check"], "--lambda", "lambda", ("2", "4")),
    (["amplitude"], "--tol", "tol", ("1e-3", "1e-2")),
])
def test_params_record_every_flag_that_changes_the_result(argv, flag, key, values, tmp_path):
    if argv == ["amplitude"]:  # --tol applies to a lattice file only
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({"M": 6, "x0": 0.0, "h": 0.5, "mass": 1.0,
                                       "v0": [0.0] * 6, "v1": [-0.1, -0.2, -0.1, 0, 0, 0]}))
        argv = [*argv, "--lattice", str(lattice)]
    a, b = (_params([*argv, flag, v], tmp_path / f"{i}.json") for i, v in enumerate(values))
    assert a[key] != b[key]
    assert list(a)[-1] == key


def test_green_ft_params_record_the_model_file(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(emit_model(two_level_model(1.0, 0.3)))
    argv = GOLDEN_REPORTS["green-ft_fourier.json"]
    builtin = _params(argv, tmp_path / "a.json")
    from_file = _params([*argv, "--model", str(model)], tmp_path / "b.json")
    assert (builtin["model"], from_file["model"]) == ("(two-level)", str(model))
    assert {k for k in builtin if builtin[k] != from_file[k]} == {"model"}


def test_green_ft_rejects_removed_flags(capsys):
    # --dim, --seed and --lambda never reached the green-ft model
    for flag in ("--dim", "--seed", "--lambda"):
        with pytest.raises(SystemExit) as exc:
            main(["green-ft", flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_taylor_term_cap_exits_2(monkeypatch, capsys):
    # capped at the degree, a selftest sum that goes on past it is refused
    monkeypatch.setattr(divdiff, "_TAYLOR_MAX_TERMS", divdiff._DEGREE)
    assert main(["selftest"]) == 2
    assert "did not converge in 20 terms: worst entry ratio" in capsys.readouterr().err


def _lattice(h) -> str:
    return json.dumps({"M": 3, "h": h, "mass": 1.0, "v0": [0, 0, 0], "v1": [0, 0, 0]})


_POINTS_401_DIGITS = "1" + "0" * 400

#: each way a command refuses its inputs, by a route that cannot compute them
#: or a file it cannot read -> the arguments and the text the message must
#: contain.  An argument that starts with "{" is the contents of a file whose
#: path takes its place.
_REFUSALS = {
    "halving-ratio-at-roundoff": (["converge", "--lambda", "1e-300"],
                                  "error_ratio_N1 cannot be resolved: "),
    "relation-ratio-at-roundoff": (["amplitude", "--lambda", "1e-4"],
                                   "relation_error_ratio cannot be resolved: "),
    # one node budget for the nodes |t| dE asks for and the points asked
    "series-oracle-size": (["propagate", "--t", "1e12"],
                           "series term cannot be resolved: a quadrature past 1864135 nodes "
                           "(64 points asked, |t|*dE = 1.689e+12) puts 3x3 blocks past "),
    # a 401-digit count, past the float range, named as the int it is
    "series-oracle-point-count": (["propagate", "--quad-points", _POINTS_401_DIGITS],
                                  "series term cannot be resolved: a quadrature past 1864135 "
                                  f"nodes ({_POINTS_401_DIGITS} points asked, |t|*dE = "),
    # the order-2 term scales as lambda^2: refused before its product overflows
    "series-size-at-lambda-1e200": (["propagate", "--lambda", "1e200"],
                                    "series term cannot be resolved: the order-2 term's a-priori "
                                    "size (|t|*||H1||_1)^2 = 10^400.4 is past half the float"),
    "series-size-at-lambda-1e300": (["propagate", "--lambda", "1e300"],
                                    "series term cannot be resolved: the order-2 term's a-priori "
                                    "size (|t|*||H1||_1)^2 = 10^600.4 is past half the float"),
    "inverse-point-count-1e8": (["green-ft", "--quad-points", "100000000"],
                                "quadrature panels cannot be resolved: a quadrature point count"),
    "inverse-point-count-401-digits": (
        ["green-ft", "--quad-points", _POINTS_401_DIGITS],
        "quadrature panels cannot be resolved: a quadrature point count"),
    "forward-point-count-1e8": (["green-ft", "--fwd-points", "100000000"],
                                "quadrature panels cannot be resolved: a quadrature point count"),
    "forward-point-count-401-digits": (
        ["green-ft", "--fwd-points", _POINTS_401_DIGITS],
        "quadrature panels cannot be resolved: a quadrature point count"),
    "forward-point-count-1e6": (["green-ft", "--fwd-points", "1000000"],
                                "quadrature panels cannot be resolved: a quadrature point count"),
    "inverse-damping": (["green-ft", "--quad-domain", "10"],
                        "inverse Fourier check cannot be resolved: the damping"),
    "forward-window": (["green-ft", "--window", "1"],
                       "forward Fourier transform cannot be resolved: energy window"),
    # the levels' phases at T, before any node; E T = 3.7e15 passes at T = 1e16
    "inverse-phases-at-1e16": (["green-ft", "--quad-domain", "1e16"],
                               "exp(-i t E) cannot be resolved: |t| = 1.000e+16 times "
                               "max|E| = 1.000e+00"),
    "inverse-phases-at-1e17": (["green-ft", "--quad-domain", "1e17"],
                               "exp(-i t E) cannot be resolved: |t| = 1.000e+17"),
    "inverse-phases-at-1e300": (["green-ft", "--quad-domain", "1e300"],
                                "exp(-i t E) cannot be resolved: |t| = 1.000e+300"),
    # the inverse check's factors e^{iE tau} over (0, T), T = 200
    "inverse-phases-of-E-at-1e300": (["green-ft", "--E", "1e300"],
                                     "exp(-i t E) cannot be resolved: |t| = 2.000e+02 times "
                                     "max|E| = 1.000e+300"),
    # E tau past the float range: refused before the factors overflow
    "inverse-phases-of-E-at-1.7e308": (["green-ft", "--E", "1.7e308"],
                                       "exp(-i t E) cannot be resolved: |t| = 2.000e+02 times "
                                       "max|E| = 1.700e+308"),
    "series-phases-at-1e308": (["converge", "--t", "1e308"],
                               "exp(-i t E) cannot be resolved: |t| = 1.000e+308"),
    "panels-past-the-float-range": (["green-ft", "--window", "1e308"],
                                    "quadrature panels cannot be resolved: domain (-1e+308, "),
    "inverse-panels-past-the-float-range": (
        ["green-ft", "--quad-domain", "1.7e308"],
        "quadrature panels cannot be resolved: domain (0, 1.7e+308) at eps = 0.1 "),
    # the last inverse panel's end sum would overflow, but eps*T = 10 x 1.7e308
    # = inf is refused before the panels; the window is wide enough for the
    # forward transform, which runs first, at eps = 10
    "inverse-panel-end-sum-past-the-float-range": (
        ["green-ft", "--quad-domain", "1.7e308", "--eps", "10", "--window", "600"],
        "inverse Fourier check cannot be resolved: the damping exp(-eps*T) needs 18.4 <= "
        "eps*T < inf to fall to 1e-08 with finite factors: eps*T = inf at eps = 10.0, "
        "T = 1.7e+308"),
    "forward-phases-at-1e300": (["green-ft", "--t", "1e300"],
                                "exp(-i t E) cannot be resolved: |t| = 1.000e+300"),
    # the inverse check's Taylor power table, 21 ((N + 1) d)^2 entries, past
    # the 2^24-entry bound: refused before it is built
    "inverse-order-past-the-table-bound": (
        ["green-ft", "--order", "4000"],
        "inverse Fourier check cannot be resolved: order N = 4000 puts its Taylor power "
        "table past 16777216 entries"),
    # a_400's one-off table, 5 ((400 + 1) 6)^2 entries on the d = 6 lattice,
    # past the 2^24-entry bound: refused before the direct route's first term
    "amplitude-order-past-the-table-bound": (
        ["amplitude", "--order", "400"],
        "series term cannot be resolved: order l = 400 puts its Taylor power table past "
        "16777216 entries"),
    # a_700's one-off table at d = 3, past the bound: a_N's rules come first, so no
    # other order runs (a_0 .. a_609 ran before a_610's table rule refused)
    "propagate-order-past-the-table-bound": (
        ["propagate", "--order", "700"],
        "series term cannot be resolved: order l = 700 puts its Taylor power table past "
        "16777216 entries"),
    # the relation's chains over the four-point ladder, 4 (N + 1) 6^2 entries on the
    # d = 6 lattice, past the bound: refused before any is built (about 1.4 GB)
    "amplitude-order-past-the-chain-bound": (
        ["amplitude", "--order", "200000"],
        "graded chains cannot be resolved: order N = 200000 puts its chains past 16777216 "
        "entries"),
    # d x d arrays past the 2^24-entry bound, refused before any is built
    "dim-past-the-entry-bound": (["dyson-check", "--dim", "4097"],
                                 "dim 4097 puts the model's 4097 x 4097 arrays past 16777216"),
    # a coupling whose perturbation's sums would overflow, refused where it is applied
    "coupling-scale-past-the-float-range": (
        ["converge", "--lambda", "1.7e308"],
        "coupling scale 1.7e+308 puts the perturbation's 1-norm bound, inf, past half"),
    "random-coupling-past-the-float-range": (
        ["dyson-check", "--lambda", "1.7e308"],
        "coupling lambda = 1.7e+308 puts the perturbation's 1-norm bound, inf, past half"),
    "random-coupling-past-the-float-range-propagate": (
        ["propagate", "--lambda", "1.7e308"],
        "coupling lambda = 1.7e+308 puts the perturbation's 1-norm bound, inf, past half"),
    "lattice-potential-past-the-float-range": (
        ["amplitude", "--lambda", "1.7e308"],
        "coupling potential v1 (largest |v1| = 1.500e+308) puts the perturbation's"),
    "taylor-term-cap": (["selftest"], "cannot be resolved: its Taylor series did not converge "
                                      "in 20 terms: worst entry ratio"),
    "model-file-energy": (["propagate", "--model",
                           '{"dim": 1, "energies": ["zero"], "h1": [[[0, 0]]]}'],
                          "energies entries must be numbers"),
    # M x M arrays past the 2^24-entry bound, refused before any is built
    "lattice-file-past-the-entry-bound": (
        ["amplitude", "--lattice", json.dumps({"M": 4097, "h": 0.5, "mass": 1.0,
                                               "v0": [0] * 4097, "v1": [0] * 4097})],
        "lattice M = 4097 puts its 4097 x 4097 arrays past 16777216 entries"),
    "lattice-file-h": (["amplitude", "--lattice", _lattice("half")],
                       "h must be a number, got 'half'"),
    "lattice-file-hopping": (["amplitude", "--lattice", _lattice(1e-200)],
                             "positive finite hopping 1/(2 mass h^2), got h = 1e-200"),
    # hopping 5e199 and 5e307: the phases, then a level past the float range
    "lattice-file-phases-at-h-1e-100": (["amplitude", "--lattice", _lattice(1e-100)],
                                        "exp(-i t E) cannot be resolved: "),
    "lattice-file-phases-at-h-1e-154": (["amplitude", "--lattice", _lattice(1e-154)],
                                        "exp(-i t E) cannot be resolved: "),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_every_refusal_path_gives_one_verdict(case, monkeypatch, capsys, tmp_path):
    # exit 2 with the case's text and no verdict.  A RuntimeWarning is an
    # error under pytest but no refusal: main does not catch it, so a case
    # that warns fails here with the warning's traceback
    argv, text = list(_REFUSALS[case][0]), _REFUSALS[case][1]
    if case == "taylor-term-cap":
        monkeypatch.setattr(divdiff, "_TAYLOR_MAX_TERMS", divdiff._DEGREE)
    for i, arg in enumerate(argv):
        if arg.startswith("{"):
            argv[i] = str(tmp_path / "input.json")
            Path(argv[i]).write_text(arg)
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert text in err, err
    assert "[PASS]" not in err and "[FAIL]" not in err and not out.exists()


def test_only_refusals_exit_2(monkeypatch):
    # main turns a ValueError or an OSError into exit 2; any other exception
    # is a fault of the program and keeps its traceback
    def faulted(opts):
        raise KeyError("not a refusal")

    monkeypatch.setitem(cli._DISPATCH, "identity-check", faulted)
    with pytest.raises(KeyError, match="not a refusal"):
        main(["identity-check", "--out", os.devnull])


@pytest.mark.parametrize("case", ["forward-window", "panels-past-the-float-range",
                                  "forward-phases-at-1e300", "forward-point-count-1e6"])
def test_green_ft_refuses_forward_flags_before_the_inverse_check(case, monkeypatch, capsys,
                                                                 tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("the inverse check ran before the forward refusal")

    monkeypatch.setattr(green, "inverse_fourier_check", unreachable)
    assert main([*_REFUSALS[case][0], "--out", str(tmp_path / "r.json")]) == 2
    assert _REFUSALS[case][1] in capsys.readouterr().err


def test_eps_ladder_is_the_fixed_one_up_to_unit_time():
    for t in (0.0, 0.5, -1.0, 1.0):
        assert cli._eps_ladder(t) == cli._EPS_LADDER
    assert cli._eps_ladder(-20.0) == [eps / 20 for eps in cli._EPS_LADDER]


#: a command at a long time, the summary item it must pass, and the most
#: that item may read (None: its verdict only).  The ladder over |t| keeps
#: the extrapolated eps form near 1e-8 (2.6e-9, 4.8e-9 and 7.7e-8 measured),
#: where the fixed ladder failed at 6.8e-6, 1.3e-3 and 6.6e-2
@pytest.mark.parametrize("argv, name, most", [
    (["propagate", "--t", "20"], "resolvent_form_extrapolated", 1e-8),
    (["propagate", "--t", "50"], "resolvent_form_extrapolated", 1e-8),
    (["propagate", "--t", "100"], "resolvent_form_extrapolated", 1e-7),
    # the kernel relation's halving ratio stays near 8: 7.99, 7.85 and 7.11
    (["amplitude", "--t", "5"], "relation_error_ratio", None),
    (["amplitude", "--t", "20"], "relation_error_ratio", None),
    (["amplitude", "--t", "50"], "relation_error_ratio", None),
])
def test_eps_ladder_follows_the_time(argv, name, most, tmp_path):
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == 0
    summary = {item["name"]: item for item in json.loads(out.read_text())["summary"]}
    assert summary[name]["passed"]
    if most is not None:
        assert summary[name]["value"] <= most


def test_package_runs_as_module(tmp_path):
    # python -m dysonprop from a source checkout, without installing
    out = tmp_path / "m.json"
    src = Path(dysonprop.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "dysonprop", "selftest", "--out", str(out)],
                          env=env, cwd=tmp_path, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ref = tmp_path / "ref.json"
    assert main(["selftest", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_identity_check_passes(tmp_path):
    out = tmp_path / "id.json"
    code = main(["identity-check", "--max-nodes", "4", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert all(item["passed"] for item in obj["summary"])


def test_propagate_with_model_file(tmp_path):
    mp = tmp_path / "m.json"
    mp.write_text(emit_model(random_model(3, seed=2, lam=0.3)))
    out = tmp_path / "prop.json"
    code = main(["propagate", "--model", str(mp), "--t", "1.0", "--order", "2",
                 "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["params"]["model"] == str(mp)


def test_propagate_zero_coupling(tmp_path):
    mp = tmp_path / "m.json"
    mp.write_text(emit_model(random_model(3, seed=2, lam=0.0)))
    out = tmp_path / "prop.json"
    assert main(["propagate", "--model", str(mp), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    higher = [r for r in obj["rows"] if r["inputs"]["l"] > 0]
    assert higher and all(r["abs_error"] == 0.0 for r in higher)


def test_propagate_checks_every_order_it_reports(tmp_path):
    reports = {}
    for order in (2, 4):
        out = tmp_path / f"prop{order}.json"
        assert main(["propagate", "--order", str(order), "--out", str(out)]) == 0
        reports[order] = json.loads(out.read_text())
    assert {r["inputs"]["l"] for r in reports[4]["rows"]} == {0, 1, 2, 3, 4}
    # the resolvent form runs at the requested order, not at a clipped one
    eps_dev = {order: [item["value"] for item in rep["summary"]
                       if item["name"] == "resolvent_form_extrapolated"][0]
               for order, rep in reports.items()}
    assert eps_dev[4] != eps_dev[2]


def test_propagate_sums_the_terms_it_already_computed(monkeypatch, tmp_path):
    # the resolvent form is compared with the sum of the rows' a_matrix terms;
    # truncated_evolution would compute every one of them again
    def unreachable(*args, **kwargs):
        raise AssertionError("propagate called truncated_evolution")

    monkeypatch.setattr(cli, "truncated_evolution", unreachable)
    assert main(["propagate", "--order", "4", "--out", str(tmp_path / "p.json")]) == 0


def test_propagate_oracle_rows_match_per_order_calls():
    # one spectral-integration pass yields every order; its node count does
    # not depend on the order, so each row equals the order's own call bitwise
    opts = build_parser().parse_args(["propagate", "--order", "5"])
    report = cmd_propagate(opts)
    model = _load_or_random_model(opts)
    refs = [dyson_term_quadrature(model, l, opts.t, opts.quad_points).entries
            for l in range(6)]
    assert len(report.rows) == 6 * model.dim**2
    for row in report.rows:
        ins = row.inputs
        assert row.oracle == refs[ins["l"]][ins["row"], ins["col"]]


def test_propagate_resolves_the_series_at_a_long_time(tmp_path):
    # t = 800 puts |t| dE = 1351 on 17 panels.  The rows are absolute, a_2
    # reaches 5.3e3 there and a_matrix is itself 8.2e-10 off 40-digit mpmath,
    # so the item is checked at 1e-8, 1.9e-12 of the largest entry.  The exit code
    # is not asserted: the resolvent form's eps ladder fails at this time
    out = tmp_path / "p.json"
    main(["propagate", "--t", "800", "--tol", "1e-8", "--out", str(out)])
    summary = {item["name"]: item for item in json.loads(out.read_text())["summary"]}
    assert summary["series_term_vs_quadrature"]["passed"]


def test_unwritable_out_path_is_clean_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["selftest", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dysonprop selftest: error: ") and str(out) in err
    assert "[PASS]" not in err and not out.parent.exists()


def test_missing_model_file_is_clean_error(capsys):
    code = main(["propagate", "--model", "/nonexistent/m.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_dyson_check_passes(tmp_path):
    out = tmp_path / "d.json"
    assert main(["dyson-check", "--out", str(out)]) == 0


def test_csv_output_format(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dyson-check", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("row,col,")
    assert len({len(l.split(",")) for l in lines}) == 1


def test_converge_default_flags_pass(tmp_path, capsys):
    assert main(["converge", "--out", str(tmp_path / "c.json")]) == 0
    # a halving ratio is reported against its expected power of two
    assert ("[PASS] unitarity_ratio_N2: value 1.600e+01 vs expected 1.600e+01 within "
            "relative 2.500e-01\n") in capsys.readouterr().err


def test_converge_makes_one_exact_evolution_per_coupling(monkeypatch, tmp_path):
    # the reference of each coupling is shared by all three orders
    calls = []

    def counting(model, t):
        calls.append(t)
        return exact_evolution(model, t)

    monkeypatch.setattr(oracle, "exact_evolution", counting)
    assert main(["converge", "--out", str(tmp_path / "c.json")]) == 0
    assert calls == [1.0, 1.0]


def test_converge_refuses_ratio_at_roundoff_floor(capsys):
    # at lambda = 1e-300 both halving errors are roundoff, so any ratio of
    # them is noise: the run must stop with a message, not print a verdict
    assert main(["converge", "--lambda", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert "error_ratio_N1" in err
    assert "roundoff floor" in err
    assert "larger --lambda" in err
    assert "[FAIL]" not in err and "[PASS]" not in err


def test_converge_refuses_zero_time(capsys):
    # at t = 0 both propagators are the identity; no coupling gives an error
    assert main(["converge", "--t", "0"]) == 2
    err = capsys.readouterr().err
    assert "t = 0" in err and "identity" in err
    assert "larger --lambda" not in err


def test_green_ft_refuses_zero_time(monkeypatch, capsys):
    # tau = 0 is the jump of the step function: refused before any transform
    def unreachable(*args, **kwargs):
        raise AssertionError("green-ft --t 0 ran a transform")

    monkeypatch.setattr(green, "inverse_fourier_check", unreachable)
    monkeypatch.setattr(green, "forward_fourier", unreachable)
    for t in ("0", "-0.0"):
        assert main(["green-ft", "--t", t]) == 2
        err = capsys.readouterr().err
        assert "--t 0 cannot be checked" in err and "jump of the step function" in err
        assert "[FAIL]" not in err and "[PASS]" not in err


def test_green_ft_checks_the_causal_transform_itself(monkeypatch, tmp_path, capsys):
    # forward weights off by 1e-6 leave the acausal side near 0, so only the
    # causal_transform item, held to --causal-tol, can catch them.  The same
    # weights integrate the subtracted terms, so the fault scales the
    # remainder's integral only: at t = 10 that is most of the value.  The
    # inverse check's panels are left as they are.
    forward, rule = green.forward_fourier, green._panel_rule

    def scaled(*args):
        x, w = rule(*args)
        return x, w * (1 + 1e-6)

    def faulted(*args):
        with monkeypatch.context() as patch:
            patch.setattr(green, "_panel_rule", scaled)
            return forward(*args)

    argv = [*GOLDEN_REPORTS["green-ft_fourier.json"], "--t", "10"]
    unpatched = _default_report(tuple(argv)).summary[0]
    monkeypatch.setattr(green, "forward_fourier", faulted)
    out = tmp_path / "g.json"
    assert main([*argv, "--out", str(out)]) == 1
    summary = {s["name"]: s for s in json.loads(out.read_text())["summary"]}
    verdicts = {name: s["passed"] for name, s in summary.items()}
    assert verdicts == {"inverse_transform": True, "causal_transform": False, "causality": True}
    assert unpatched.name == "inverse_transform" and unpatched.passed
    assert summary["inverse_transform"]["value"] == unpatched.value
    assert "[FAIL] causal_transform" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["30", "60"])
def test_green_ft_resolves_long_times(t, tmp_path):
    # the single-pole rule on one 2000-point Gauss interval failed here
    # (1.9e-3 at t = 30, 3.9e-2 at t = 60)
    out = tmp_path / "g.json"
    assert main(["green-ft", "--t", t, "--out", str(out)]) == 0
    summary = {s["name"]: s["value"] for s in json.loads(out.read_text())["summary"]}
    assert summary["causal_transform"] <= 1e-10 and summary["causality"] <= 1e-10


def test_green_ft_shares_each_forward_solve_across_both_times(monkeypatch, tmp_path):
    # the golden fourier flags: 800 forward nodes, one solve each for the
    # acausal and the causal time together
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return linear_solve(a, b)

    monkeypatch.setattr(green, "linear_solve", counting)
    assert main([*GOLDEN_REPORTS["green-ft_fourier.json"], "--out", str(tmp_path / "g.json")]) == 0
    assert len(calls) == 800


def test_green_ft_reads_no_oracle_gauss_rule(monkeypatch, tmp_path):
    # the panels take numpy's tables: a fault in the oracle's rule cannot
    # reach the production side of the Fourier checks
    def unreachable(n):
        raise AssertionError("green-ft read oracle.gauss_legendre")

    argv = GOLDEN_REPORTS["green-ft_fourier.json"]
    unpatched = render_json(_default_report(tuple(argv)))
    rule = oracle.gauss_legendre
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dysonprop" and getattr(module, "gauss_legendre", None) is rule:
            monkeypatch.setattr(module, "gauss_legendre", unreachable)
    out = tmp_path / "g.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == unpatched


def test_amplitude_refuses_ratio_at_roundoff_floor(capsys):
    # at lambda = 1e-4 the relation errors are 8.1e-14 and 7.4e-15: only the
    # second is roundoff, and their ratio (11 against an expected 8) is noise
    assert main(["amplitude", "--lambda", "1e-4"]) == 2
    err = capsys.readouterr().err
    assert "relation_error_ratio" in err and "roundoff floor" in err


def test_amplitude_relation_resolves_small_coupling(tmp_path):
    # at lambda = 3e-4 the relation errors (about 1e-12) sit below the
    # O(eps^3) remainder of a three-point eps ladder; the fourth point
    # brings the relation ratio back to lambda^(N+1) scaling
    out = tmp_path / "a.json"
    assert main(["amplitude", "--lambda", "3e-4", "--out", str(out)]) == 0
    ratio = json.loads(out.read_text())["summary"][0]
    assert ratio["name"] == "relation_error_ratio"
    assert abs(ratio["value"] / 8.0 - 1.0) <= 0.05


@pytest.mark.parametrize("h", [1e-100, 1e-154])
@pytest.mark.parametrize("m", [3, 6])
def test_amplitude_refuses_a_lattice_whose_levels_leave_the_float_range(h, m, tmp_path, capsys):
    # hopping 5e199 or 5e307: the Jacobi norms overflowed ("overflow encountered
    # in dot" or "in add"); now the phases, or at M = 6 and h = 1e-154 a top
    # level of about 1.9e308, cannot be resolved
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"M": m, "h": h, "mass": 1.0, "v0": [0.0] * m, "v1": [0.0] * m}))
    assert main(["amplitude", "--lattice", str(path), "--out", str(tmp_path / "a.json")]) == 2
    err = capsys.readouterr().err
    assert "cannot be resolved" in err and "overflow" not in err


def test_amplitude_makes_one_truncated_evolution_per_coupling(monkeypatch, tmp_path):
    # every endpoint pair of a coupling shares one U_N: 2 calls, not 2 x 36
    calls = []

    def counting(model, spec, t):
        calls.append(t)
        return truncated_evolution(model, spec, t)

    monkeypatch.setattr(amp, "truncated_evolution", counting)
    assert main(["amplitude", "--out", str(tmp_path / "a.json")]) == 0
    assert calls == [1.0, 1.0]


def test_amplitude_free_reduction_runs_on_the_lattice_file(monkeypatch, tmp_path):
    # the free system is the file's lattice with v1 = 0, not the built-in well
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"M": 4, "h": 0.5, "mass": 1.0, "v0": [0.3, -0.1, 0.2, 0.0],
                                "v1": [0.01, 0.02, 0.02, 0.01]}))
    build_lattice = amp.build_lattice
    built = []

    def recording(spec):
        built.append(spec)
        return build_lattice(spec)

    monkeypatch.setattr(amp, "build_lattice", recording)
    out = tmp_path / "a.json"
    assert main(["amplitude", "--lattice", str(path), "--out", str(out)]) == 0
    free = built[-1]
    assert (free.M, free.h, free.mass) == (4, 0.5, 1.0)
    assert free.v0.tolist() == [0.3, -0.1, 0.2, 0.0]
    assert free.v1.tolist() == [0.0] * 4
    report = json.loads(out.read_text())
    assert report["params"]["lattice"] == str(path)
    assert [s["name"] for s in report["summary"]] == ["relation_error", "direct_error",
                                                      "free_reduction"]


if __name__ == "__main__":
    # regenerate every golden under GOLDEN_ENV: PYTHONPATH=src python tests/test_cli.py
    for name in GOLDEN_REPORTS:
        _golden(name, write=True)
