import json
import math

import numpy as np
import pytest

from szeta import cli, kernels, theorem
from szeta.cli import _check_report_obj, _jsonable, build_parser, main
from szeta.primes import build_prime_table
from szeta.s_of_t import SEvaluator, s_exact, s_explicit
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
    sub = parser._subparsers._group_actions[0].choices["pcf"]
    text = sub.format_help()
    assert "--alpha-max" in text
    assert "(default: 4.0)" in text
    # --help prints and exits 0, through main as through the parser
    for argv in (["--help"], ["report", "--help"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage:") and err == ""


def test_parser_is_built_once_and_reads_each_call(capsys):
    # one parser per process; each main call reads its own arguments, so
    # a --beta does not carry over to the next call
    assert build_parser() is build_parser()
    argv = ["check", "--identity", "lemma8", "--f-source", "model"]
    assert main(argv + ["--beta", "0.3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["params"]["beta"] == 0.3
    assert second["params"]["beta"] == 0.5


def test_s_range_csv(tmp_path, zeros_file):
    out = tmp_path / "s.csv"
    rc = main(["s", "--zeros", zeros_file, "--t-min", "20", "--t-max", "21",
               "--step", "0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S"
    assert len(lines) == 4
    float(lines[1].split(",")[1])


def test_s_range_from_below_10(tmp_path, zeros_file):
    # S serves every t >= 0 by counting and every t > 0 by the explicit
    # formula: 80 rows from 0.5 to 40 either way
    for method in ("exact", "explicit"):
        out = tmp_path / f"s_{method}.csv"
        rc = main(["s", "--zeros", zeros_file, "--t-min", "0.5", "--t-max",
                   "40", "--step", "0.5", "--method", method,
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 80 and rows[0].startswith("0.5,")


def test_s_exact_builds_no_prime_table(tmp_path, zeros_file, monkeypatch):
    # only the explicit route reads the table; --x 1e8 would sieve to 1e8
    def refuse(limit):
        raise AssertionError(f"prime table to {limit} built")

    monkeypatch.setattr(cli, "build_prime_table", refuse)
    out = tmp_path / "s.csv"
    rc = main(["s", "--zeros", zeros_file, "--t", "30", "--x", "1e8",
               "--out", str(out)])
    assert rc == 0
    with open(zeros_file, encoding="ascii") as fh:
        ev = SEvaluator(zeros=import_zeros(fh.read()), prime_table=None)
    assert out.read_text() == f"t,S\n30,{s_exact(30.0, ev):.12g}\n"


def test_s_explicit_rows_match_library(tmp_path, zeros_file):
    out = tmp_path / "s.csv"
    rc = main(["s", "--zeros", zeros_file, "--t-min", "20", "--t-max", "22",
               "--step", "0.5", "--method", "explicit", "--x", "50",
               "--out", str(out)])
    assert rc == 0
    with open(zeros_file, encoding="ascii") as fh:
        ev = SEvaluator(zeros=import_zeros(fh.read()),
                        prime_table=build_prime_table(64))
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5
    ts = [float(row.split(",")[0]) for row in rows]
    # one array call for all rows; a call of at most _DENSE points
    # gives each point the bits of a call of its own
    vals, budgets = s_explicit(np.array(ts), 50.0, ev)
    for row, t, val, budget in zip(rows, ts, vals, budgets):
        one, one_budget = s_explicit(t, 50.0, ev)
        assert val == one and budget == pytest.approx(one_budget, 1e-15)
        assert row == f"{t:.12g},{val:.12g}"


def test_s_range_beyond_coverage_exits_2(tmp_path, capsys,
                                        address_space_cap):
    # checked before a point is built: a range of 1e15 points ends at once
    short = tmp_path / "short.txt"
    short.write_text("14.134725142\n21.022039639\n25.010857580\n",
                     encoding="ascii")
    for argv in (["--t-min", "20", "--t-max", "1e9", "--step", "1e-6",
                  "--method", "exact"], ["--t", "30"]):
        assert main(["s", "--zeros", str(short)] + argv) == 2
        err = capsys.readouterr().err
        assert "does not cover" in err and "Traceback" not in err


def test_s_range_out_of_memory_exits_2(zeros_file, monkeypatch, capsys,
                                       address_space_cap):
    # the points come from one np.arange: a size beyond memory raises
    # MemoryError there, which exits 2 with one line (the 1.8e14 points
    # are refused here without an attempt)
    arange = np.arange

    def refuse_large(n, *args, **kwargs):
        if isinstance(n, int) and n > 10 ** 12:
            raise MemoryError(f"cannot allocate {n} points")
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", refuse_large)
    assert main(["s", "--zeros", zeros_file, "--t-min", "20", "--t-max",
                 "200", "--step", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err


def test_pcf_csv_header(tmp_path, zeros_file):
    out = tmp_path / "pcf.csv"
    rc = main(["pcf", "--zeros", zeros_file, "--t", "200",
               "--alpha-max", "2", "--step", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,F"
    assert len(lines) == 22


def test_pcf_grid_reaches_alpha_max(tmp_path, zeros_file):
    # 0.3 does not divide 1: the grid goes on to 1.2 instead of stopping at 0.9
    out = tmp_path / "pcf.csv"
    rc = main(["pcf", "--zeros", zeros_file, "--t", "200",
               "--alpha-max", "1", "--step", "0.3", "--out", str(out)])
    assert rc == 0
    alphas = [float(ln.split(",")[0])
              for ln in out.read_text().splitlines()[1:]]
    assert alphas == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.2], abs=1e-12)


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
    assert main(["check", "--identity", "lemma4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["discrepancy_abs"] < 1e-6
    assert "per_y_differences" in obj["detail"]


def test_failing_check_exits_2_with_its_report(tmp_path, capsys,
                                               monkeypatch):
    # an asserting check that fails still writes and prints its report
    monkeypatch.setattr(kernels, "_FD_SIDE_TOL", 0.0)
    out = tmp_path / "l3.json"
    assert main(["check", "--identity", "lemma3", "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    obj = json.loads(printed)
    assert obj["passed"] is False and obj["tolerance"] == 0.0


@pytest.mark.parametrize("identity", ["w_partition", "lemma3", "lemma4",
                                      "lemma7", "lemma11"])
def test_check_kernel_identity_writes_json(tmp_path, identity):
    # every field of the report, numpy booleans included, must serialize
    out = tmp_path / f"{identity}.json"
    assert main(["check", "--identity", identity, "--out", str(out)]) == 0
    with open(out, encoding="ascii") as fh:
        obj = json.load(fh)
    assert obj["identity"] == identity
    assert isinstance(obj["passed"], bool)


def test_check_lemma8_report_only(tmp_path, zeros_file):
    out = tmp_path / "l8.json"
    rc = main(["check", "--identity", "lemma8", "--zeros", zeros_file,
               "--t", "200", "--beta", "0.5", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["assertable"] is False
    assert obj["error_scales"]


@pytest.mark.parametrize("identity", ["lemma8", "lemma9", "lemma10"])
def test_check_conditional_matches_library(tmp_path, zeros_file, identity):
    # the CLI writes the library's report for each conditional identity
    out = tmp_path / "l.json"
    assert main(["check", "--identity", identity, "--zeros", zeros_file,
                 "--t", "200", "--out", str(out)]) == 0
    with open(zeros_file, encoding="ascii") as fh:
        zs = import_zeros(fh.read())
    rep = theorem.lemma_8_9_10_eval(zs, 200.0, 0.5)[identity]
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(_jsonable(_check_report_obj(rep))))


def test_check_lemma10_needs_zeros(capsys):
    assert main(["check", "--identity", "lemma10", "--f-source",
                 "model"]) == 1
    assert "requires --zeros" in capsys.readouterr().err

def test_check_lemma10_model_is_usage_error(zeros_file, capsys):
    # R is a sum over zeros: the model F gives no lemma10, even with zeros
    assert main(["check", "--identity", "lemma10", "--zeros", zeros_file,
                 "--f-source", "model"]) == 1
    err = capsys.readouterr().err
    assert "empirical F" in err and "Traceback" not in err


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


@pytest.fixture()
def address_space_cap():
    """Cap this process's address space 2 GB above its current size, so
    an oversized allocation fails at once whatever the overcommit policy."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        pytest.skip("the cap is sized from /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (2 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("argv, code", [
    ("s --zeros {z} --t-min 20 --t-max 30 --step 0", 1),
    ("s --zeros {z} --t-min nan --t-max 30", 1),
    ("s --zeros {z} --t-min=-inf --t-max 30", 1),
    ("s --zeros {z} --t-min 40 --t-max 30", 1),
    ("s --zeros {z} --t nan", 1),
    ("s --zeros {z} --t 30 --method explicit --x 1e12", 2),
    ("s --zeros {z} --t 30 --method explicit --x nan", 1),
    ("s --zeros {z} --t 30 --method explicit --x inf", 1),
    ("s --zeros {z} --t 30 --method explicit --x 1e300", 2),
    ("s --zeros {z} --t-min 20 --t-max 30 --step 1e-300", 2),
    ("pcf --zeros {z} --t 200 --step 1e-12 --out {out}", 2),
    ("pcf --zeros {z} --t 200 --step nan --out {out}", 1),
    ("pcf --zeros {z} --t 200 --alpha-max nan --out {out}", 1),
    ("pcf --zeros {z} --t 200 --alpha-max inf --out {out}", 1),
    ("pcf --zeros {z} --t 200 --step 1e-300 --out {out}", 2),
    ("pcf --zeros {z} --t 300 --out {out}", 2),
    ("report --zeros {z} --t 200 --x nan --out {out}", 1),
    ("check --identity lemma4 --params tol=1", 1),
    ("check --identity lemma5 --zeros {z} --t 300", 2),
    ("check --identity lemma6 --zeros {z} --t 300", 2),
    ("check --identity lemma8 --zeros {z} --t 300", 2),
    ("check --identity lemma8 --f-source model --beta 1e-300", 1),
    ("check --identity lemma5 --zeros {z} --t=-5", 1),
    ("report --zeros {z} --t nan --x 9 --out {out}", 1),
    ("s --zeros {z} --t 30 --step inf", 1),
    ("check --identity lemma4 --tol nan", 1),
    ("check --identity lemma4 --tol -1", 1),
    ("check --identity lemma8 --f-source model --tol 1e-6", 1),
    ("s --zeros {z} --t 30 --t-min 20 --t-max 40", 1),
    ("pcf --zeros {z} --t 200 --out {missing}", 1),
    ("report --zeros {z} --t 200 --x 9 --out {missing}", 1),
    ("zeros --t-max 20 --out {missing}", 1),
    ("s --zeros {z} --t 30 --out {missing}", 1),
    ("check --identity lemma4 --out {missing}", 1),
    ("report --zeros {dir} --t 200 --x 9 --out {out}", 1),
    ("zeros --import {bin}", 2),
    ("zeros --import {nan}", 1),
    ("zeros --import {inf}", 1),
    ("check --identity lemma6 --zeros {nan} --t 20", 1),
    ("pcf --zeros {nan} --t 20 --out {out}", 1),
])
def test_bad_input_exits_with_one_line(argv, code, zeros_file, tmp_path,
                                       capsys, address_space_cap):
    # a zero step, a range, cutoff or alpha grid that is not finite or
    # runs backwards, a point given next to a range, an allocation beyond
    # memory or beyond any address space, a height beyond the zeros (exit
    # 2, as coverage), an unknown option (--tol among them), a path that
    # cannot be read or written (exit 1) and a zeros text that is not
    # ASCII (exit 2) each end in an exit code and an error line, not a
    # stack trace
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"14.1\n\xff\n")
    files = {}
    for name, text in (("nan", "14.1\n21.0\nnan\n"), ("inf", "inf\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text, encoding="ascii")
    argv = argv.format(z=zeros_file, out=tmp_path / "pcf.csv",
                       missing=tmp_path / "missing" / "out", dir=tmp_path,
                       bin=binary, **files).split()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    # one line, an unknown option's too
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "zeros --t-max 100000 --out {missing}",
    "zeros --import {z} --out {missing}",
    "report --zeros {z} --t 200 --x 9 --out {missing}",
    "report --zeros {z} --t 200 --x 9 --out {ok} --pcf-out {missing}",
    "pcf --zeros {z} --t 200 --out {missing}",
    "s --zeros {z} --t 30 --out {missing}",
    "check --identity lemma4 --out {missing}",
    "zeros --t-max 100000 --out {dir}",
])
def test_out_is_checked_before_any_work(argv, zeros_file, tmp_path,
                                        monkeypatch, capsys):
    # an --out that cannot be written exits 1 before the zeros are found
    # or read and before any check runs (a scan to 1e5 took 3.6 s first)
    called = []

    def spy(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(name)
        return refuse

    for name in ("find_zeros", "_load_zeros", "check_identity"):
        monkeypatch.setattr(cli, name, spy(name))
    argv = argv.format(z=zeros_file, missing=tmp_path / "missing" / "out",
                       ok=tmp_path / "ok.json", dir=tmp_path).split()
    assert main(argv) == 1
    assert called == []
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and "Traceback" not in err
    assert not (tmp_path / "ok.json").exists()


@pytest.mark.parametrize("argv, code", [
    ("report --zeros {z} --t 300 --x 9 --out {out}", 2),
    # the last --x is the one read: NaN, refused by the report itself
    ("report --zeros {z} --t 200 --x 9 --out {other} --pcf-out {out} "
     "--x nan", 1),
    ("pcf --zeros {z} --t 300 --out {out}", 2),
    ("s --zeros {z} --t 300 --out {out}", 2),
    ("check --identity lemma5 --zeros {z} --t 300 --out {out}", 2),
])
def test_failed_work_leaves_out_as_it_was(argv, code, zeros_file, tmp_path):
    # the check before the work truncates nothing and leaves no file
    # behind; a file is written only once the work succeeds
    out, other = tmp_path / "out", tmp_path / "other"
    out.write_text("kept\n", encoding="ascii")
    argv = argv.format(z=zeros_file, out=out, other=other).split()
    assert main(argv) == code
    assert out.read_text(encoding="ascii") == "kept\n"
    assert not other.exists()


@pytest.mark.parametrize("threads, want", [
    ("100000", 4), ("3", 3), ("0", 1), (None, 4)])
def test_threads_clamped_to_cores(threads, want, monkeypatch):
    # --threads is clamped to the cores (4 here); the pool is replaced by
    # a recorder that raises, so no thread starts and no Z runs
    from szeta import zeros

    class Started(Exception):
        pass

    seen = []

    def pool(max_workers):
        seen.append(max_workers)
        raise Started

    monkeypatch.setattr(zeros.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(zeros, "ThreadPoolExecutor", pool)
    flag = [] if threads is None else ["--threads", threads]
    with pytest.raises(Started):
        main(flag + ["zeros", "--t-max", "20"])
    assert seen == [want]


_NO_SCIPY = """
import sys
import numpy as np
import szeta, szeta.cli
from szeta.kernels import khat, khat_many, kpp_transform_many
from szeta.paircorr import pcf
from szeta.s_of_t import sin_sinh_integral
from szeta.zeros import (ZeroSet, gram_points, riemann_siegel_Z,
                         theta_exact)

riemann_siegel_Z(np.array([100.0, 600.0]))
gram_points(np.arange(5))
theta_exact(np.array([0.0, 5.0]))
khat_many(np.array([1.0, 60.0]))
kpp_transform_many(np.array([1.0, 60.0]))
khat(2.0, "closed")
sin_sinh_integral(np.array([0.5, 70.0]))
g = np.loadtxt(sys.argv[1])[:300]
pcf(1.0, ZeroSet(g, float(g[-1]), "imported", True), float(g[-1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_runtime_imports_no_scipy():
    # every module's runtime path in a fresh interpreter, the far field
    # included (300 ordinates make a three-level tree), must leave SciPy
    # unimported: numpy is the only runtime dependency
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    ref = root / "perfbench" / "data" / "zeros_t10010.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(ref)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_peak_rss_wrapper_logs_rss_then_faults():
    # scripts/peak_rss.py: the command's exit code, then a peak RSS line
    # in GNU time's format and a line of minor page faults, on stderr
    import pathlib
    import re
    import subprocess
    import sys

    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "peak_rss.py"
    proc = subprocess.run(
        [sys.executable, str(script), sys.executable, "-c",
         "import sys; sys.exit(3)"], capture_output=True, text=True)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()[-2:]
    assert re.fullmatch(r"peak RSS [1-9]\d* KB", lines[0]), lines
    assert re.fullmatch(r"minor page faults [1-9]\d*", lines[1]), lines
