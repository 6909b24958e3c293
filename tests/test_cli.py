import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dysonprop
from dysonprop import divdiff
from dysonprop.cli import (
    Report,
    ReportConsistencyError,
    ReportRow,
    SummaryItem,
    _load_or_random_model,
    build_parser,
    cmd_propagate,
    main,
    render_csv,
    render_json,
)
from dysonprop.model import emit_model, random_model
from dysonprop.oracle import dyson_term_quadrature


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
    # zero nodes would run no identity at all and report a failed case count
    with pytest.raises(SystemExit) as exc:
        main(["identity-check", "--max-nodes", "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_parse_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_row_error_fields():
    row = ReportRow({"i": 0}, 3.0 + 4.0j, 0.0)
    assert row.abs_error == 5.0
    assert row.rel_error == 5.0  # zero oracle falls back to absolute
    row2 = ReportRow({"i": 1}, 2.0, 1.0)
    assert row2.rel_error == 1.0


def test_json_roundtrip():
    text = render_json(small_report())
    obj = json.loads(text)
    assert obj["command"] == "demo"
    assert obj["rows"][0]["computed"] == [1.0, 2.0]
    assert obj["rows"][0]["abs_error"] == 0.5
    assert obj["summary"][0]["passed"] is True


def test_csv_shape():
    text = render_csv(small_report())
    lines = text.strip().split("\n")
    assert lines[0] == "k,label,computed_re,computed_im,oracle_re,oracle_im,abs_error,rel_error"
    assert all(len(line.split(",")) == 8 for line in lines)


def test_csv_empty_rows_header_only():
    rep = Report("demo", {}, [], [SummaryItem("ok", 0.0, 1.0, True)])
    text = render_csv(rep)
    assert text == "computed_re,computed_im,oracle_re,oracle_im,abs_error,rel_error\n"


def test_emission_consistency_guard():
    rep = small_report()
    rep.rows[0].abs_error = 999.0  # tampered
    with pytest.raises(ReportConsistencyError):
        render_json(rep)


def test_selftest_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--out", str(p1)]) == 0
    assert main(["selftest", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_selftest_matches_golden_output(tmp_path):
    # tests/data/selftest_seed0.json is `dysonprop selftest --seed 0 --format json`
    # as checked in; a change to it is a change of the report format or values
    out = tmp_path / "s.json"
    assert main(["selftest", "--seed", "0", "--format", "json", "--out", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "data" / "selftest_seed0.json"
    assert out.read_bytes() == golden.read_bytes()


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
    "propagate.csv": ["propagate", "--format", "csv"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_output(golden, tmp_path):
    out = tmp_path / golden
    assert main([*GOLDEN_REPORTS[golden], "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).resolve().parent / "data" / golden).read_bytes()


def test_green_ft_rejects_removed_flags(capsys):
    # --dim, --seed and --lambda never reached the green-ft model
    for flag in ("--dim", "--seed", "--lambda"):
        with pytest.raises(SystemExit) as exc:
            main(["green-ft", flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_taylor_term_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(divdiff, "_TAYLOR_MAX_TERMS", 3)
    assert main(["selftest"]) == 2
    assert "did not converge in 3 terms: worst entry ratio" in capsys.readouterr().err


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


def test_converge_default_flags_pass(tmp_path):
    assert main(["converge", "--out", str(tmp_path / "c.json")]) == 0


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
