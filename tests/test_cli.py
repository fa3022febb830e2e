import json

import pytest

from szeta.cli import build_parser, main
from szeta.primes import build_prime_table
from szeta.s_of_t import SEvaluator, make_sinh_table, s_explicit
from szeta.zeros import export_zeros, import_zeros


@pytest.fixture()
def zeros_file(tmp_path, zeros_220):
    path = tmp_path / "z220.txt"
    path.write_text(export_zeros(zeros_220), encoding="ascii")
    return str(path)


def test_zeros_compute_first_ordinate(tmp_path):
    out = tmp_path / "z.txt"
    assert main(["zeros", "--t-max", "20", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert len(lines) == 1
    assert abs(float(lines[0]) - 14.134725) < 1e-6


def test_zeros_below_range_is_usage_error(capsys):
    assert main(["zeros", "--t-max", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_zeros_import_descending_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.2\n13.9\n", encoding="ascii")
    assert main(["zeros", "--import", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_zeros_import_validate_roundtrip(tmp_path, zeros_file):
    assert main(["zeros", "--import", zeros_file, "--validate"]) == 0


def test_help_lists_flags_with_defaults(capsys):
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices["report"]
    text = sub.format_help()
    assert "--tail-model" in text
    assert "constant_one" in text
    assert "--alpha-max" in text
    assert "(default: 4.0)" in text


def test_s_range_csv(tmp_path, zeros_file):
    out = tmp_path / "s.csv"
    rc = main(["s", "--zeros", zeros_file, "--t-min", "20", "--t-max", "21",
               "--step", "0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S"
    assert len(lines) == 4
    float(lines[1].split(",")[1])


def test_s_explicit_rows_match_library(tmp_path, zeros_file):
    out = tmp_path / "s.csv"
    rc = main(["s", "--zeros", zeros_file, "--t-min", "20", "--t-max", "22",
               "--step", "0.5", "--method", "explicit", "--x", "50",
               "--out", str(out)])
    assert rc == 0
    with open(zeros_file, encoding="ascii") as fh:
        ev = SEvaluator(zeros=import_zeros(fh.read()),
                        prime_table=build_prime_table(64))
    table = make_sinh_table()
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        t = float(row.split(",")[0])
        val, _ = s_explicit(t, 50.0, ev, table=table)
        assert row == f"{t:.12g},{val:.12g}"


def test_pcf_csv_header(tmp_path, zeros_file):
    out = tmp_path / "pcf.csv"
    rc = main(["pcf", "--zeros", zeros_file, "--t", "200",
               "--alpha-max", "2", "--step", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,F"
    assert len(lines) == 22


def test_check_unknown_identity(capsys):
    assert main(["check", "--identity", "lemma99"]) == 1


def test_check_w_partition_passes(tmp_path):
    out = tmp_path / "wp.json"
    assert main(["check", "--identity", "w_partition",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["identity"] == "w_partition"
    assert obj["passed"] is True


def test_check_lemma4_has_discrepancy_fields(tmp_path, capsys):
    out = tmp_path / "l4.json"
    assert main(["check", "--identity", "lemma4", "--tol", "1e-6",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["discrepancy_abs"] < 1e-6
    assert "per_y_differences" in obj["detail"]


def test_check_lemma8_report_only(tmp_path, zeros_file):
    out = tmp_path / "l8.json"
    rc = main(["check", "--identity", "lemma8", "--zeros", zeros_file,
               "--t", "200", "--beta", "0.5", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["assertable"] is False
    assert obj["error_scales"]


def test_check_lemma5_cli(tmp_path, zeros_file):
    rc = main(["check", "--identity", "lemma5", "--zeros", zeros_file,
               "--t", "200", "--beta", "0.5"])
    assert rc == 0


def test_report_schema_and_key_order(tmp_path, zeros_file):
    out = tmp_path / "rep.json"
    rc = main(["report", "--t", "200", "--x", "9", "--zeros", zeros_file,
               "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert list(obj) == ["T", "x", "beta", "lhs", "rhs_theorem",
                         "rhs_goldston", "f_tail_source", "discrepancy_abs",
                         "discrepancy_rel", "notes"]
    assert list(obj["rhs_theorem"]) == ["loglog", "f_tail", "euler",
                                        "prime_sum"]
    assert obj["f_tail_source"] == "empirical"
    assert isinstance(obj["notes"], list) and obj["notes"]


def test_report_beyond_coverage_exits_2(tmp_path, zeros_file, capsys):
    rc = main(["report", "--t", "400", "--x", "9", "--zeros", zeros_file,
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "cover" in capsys.readouterr().err


def test_threads_env_used(tmp_path, monkeypatch):
    monkeypatch.setenv("SZETA_THREADS", "2")
    out = tmp_path / "z.txt"
    assert main(["zeros", "--t-max", "40", "--out", str(out)]) == 0
    monkeypatch.setenv("SZETA_THREADS", "zebra")
    assert main(["zeros", "--t-max", "40", "--out", str(out)]) == 1
