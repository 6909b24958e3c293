import json

import numpy as np
import pytest

from dysonprop.cli import (
    Report,
    ReportConsistencyError,
    ReportRow,
    SummaryItem,
    build_parser,
    main,
    render_csv,
    render_json,
)
from dysonprop.model import emit_model, random_model


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
