import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tourmat
from tourmat import experiments as ex
from tourmat.cli import build_parser, main
from tourmat.matrices import WeightSeq


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_rank_round_trip(tmp_path, capsys):
    out = tmp_path / "d3.csv"
    code, _, err = run(capsys, "build", "--tournament", "transitive:3",
                       "--seq", "1,1,1", "--out", str(out))
    assert code == 0
    assert "config:" in err and "seed=" in err
    assert out.read_text().splitlines()[0] == "field=Q,rows=3,cols=3"

    code, stdout, _ = run(capsys, "rank", "--matrix", str(out))
    assert code == 0
    assert json.loads(stdout) == {"rank": 3, "pivot_columns": [0, 1, 2], "field": "Q"}

    code, stdout, _ = run(capsys, "rank", "--matrix", str(out), "--field", "GF(2)")
    assert code == 0
    assert json.loads(stdout)["rank"] == 2


def test_build_shorthands(tmp_path, capsys):
    cases = {"paley:7": 7, "random:5": 5, "n=4:010110": 4}
    for spec, n in cases.items():
        out = tmp_path / "m.csv"
        seq = ",".join(str(1 + k % 2) for k in range(n))
        code, _, _ = run(capsys, "build", "--tournament", spec, "--seq", seq,
                         "--out", str(out), "--seed", "3")
        assert code == 0
        assert f"rows={n}" in out.read_text().splitlines()[0]


def test_verify_transitive_exit_zero(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _, err = run(capsys, "verify", "--theorem", "transitive", "--field", "Q",
                       "--n-range", "3..6", "--trials", "3", "--seed", "5",
                       "--out", str(out))
    assert code == 0
    assert "ok: transitive-floor passed" in err
    doc = json.loads(out.read_text())
    assert doc["summary"]["violations"] == 0


def test_verify_reversal_and_f_ensemble(capsys):
    code, stdout, _ = run(capsys, "verify", "--theorem", "reversal", "--n", "4",
                          "--seed", "1")
    assert code == 0
    assert json.loads(stdout)["summary"]["pass"] is True
    code, stdout, _ = run(capsys, "verify", "--theorem", "f-ensemble", "--n", "4",
                          "--alpha", "2", "--beta", "3", "--seed", "1")
    assert code == 0


def test_verify_f_ensemble_degenerate_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "f-ensemble", "--n", "4",
                       "--alpha", "1", "--beta", "-1", "--seed", "1")
    assert code == 2
    assert "error" in err


def test_verify_ffbound_requires_prime_field(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "ffbound", "--seed", "1")
    assert code == 2
    assert "usage error" in err
    code, _, _ = run(capsys, "verify", "--theorem", "ffbound", "--field", "GF(3)",
                     "--n-max", "4", "--seed", "1")
    assert code == 0


def test_bisect_check_and_matrix(tmp_path, capsys):
    fam = tmp_path / "star5.txt"
    fam.write_text("n=5\n1 2\n1 3\n1 4\n1 5\n")
    code, stdout, _ = run(capsys, "bisect", "check", "--family", str(fam))
    assert code == 0
    assert stdout.strip() == "bisecting: true"

    out = tmp_path / "m.csv"
    code, _, err = run(capsys, "bisect", "matrix", "--family", str(fam),
                       "--out", str(out))
    assert code == 0
    assert "weights: 2,2,2,2" in err
    assert out.read_text().splitlines()[1] == "0,2,2,2"

    bad = tmp_path / "bad.txt"
    bad.write_text("n=4\n1 2\n3 4\n")
    code, stdout, _ = run(capsys, "bisect", "check", "--family", str(bad))
    assert code == 1
    assert "bisecting: false" in stdout
    assert "witness" in stdout


@pytest.mark.parametrize("action", ["check", "matrix"])
@pytest.mark.parametrize("text", ["n=3\n", "n=0\n"])
def test_bisect_refuses_a_family_without_sets(tmp_path, capsys, action, text):
    fam = tmp_path / "empty.txt"
    fam.write_text(text)
    code, stdout, err = run(capsys, "bisect", action, "--family", str(fam))
    assert code == 2 and stdout == ""
    assert "FamilyParseError" in err and "at least one set line" in err


def test_minrank_and_montecarlo(tmp_path, capsys):
    code, stdout, _ = run(capsys, "minrank", "--n", "3", "--seq", "1,2,3",
                          "--seed", "1")
    assert code == 0
    assert json.loads(stdout)["summary"]["min_rank"] == 3

    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out, workers in ((out1, "1"), (out2, "4")):
        code, _, _ = run(capsys, "montecarlo", "--n", "8", "--samples", "20",
                         "--seq", "1,2,1,2,1,2,1,2", "--field", "GF(3)",
                         "--seed", "9", "--workers", workers, "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv, seq", [
    (["minrank", "--field", "Q", "--n", "3", "--seq"], "-1,2,3"),
    (["minrank", "--field", "Q", "--n", "3", "--seq"], "-1/2,3,5"),
    (["verify", "--theorem", "reversal", "--n", "4", "--seq"], "-1/2,3,5,-7"),
    (["montecarlo", "--field", "GF(5)", "--n", "4", "--samples", "3", "--seq"], "-1,2,-3,4"),
])
def test_leading_negative_weight_parses_with_or_without_equals(capsys, argv, seq):
    code, spaced, _ = run(capsys, *argv, seq, "--seed", "1")
    assert code == 0
    code, joined, _ = run(capsys, *argv[:-1], f"{argv[-1]}={seq}", "--seed", "1")
    assert code == 0
    assert spaced == joined
    assert json.loads(spaced)["experiment_id"]


def test_perm_scan_cli(capsys):
    code, stdout, _ = run(capsys, "perm-scan", "--tournament", "paley:3",
                          "--seq", "2,2,2", "--mode", "all", "--seed", "1")
    assert code == 0
    # constant weights: every permutation gives 2(J - I), rank 3 over Q
    assert json.loads(stdout)["summary"]["distinct_ranks"] == [3]


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "minrank", "--n", "3", "--seq", "1,2", "--seed", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "--theorem", "transitive",
                       "--n-range", "oops", "--seed", "1")
    assert code == 2
    code, _, err = run(capsys, "rank", "--matrix", str(tmp_path / "missing.csv"))
    assert code == 2


def test_seq_file_input(tmp_path, capsys):
    seq = tmp_path / "w.txt"
    seq.write_text("1, 2\n3\n")
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "build", "--tournament", "transitive:3",
                     "--seq", str(seq), "--out", str(out), "--seed", "1")
    assert code == 0
    assert "rows=3" in out.read_text().splitlines()[0]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failing_verify_exits_one_and_still_writes_its_report(tmp_path, capsys, monkeypatch, fmt):
    """Weights 1, 2, 1, 2, 1 over GF(3) break certifiability at n = 5, s = 4:
    exit 1, a FAIL line naming the first failing record, and the report on disk."""
    monkeypatch.setattr(ex, "_certify_weights",
                        lambda field, n, s, z: WeightSeq.of(field, [1, 2, 1, 2, 1][:n]))
    out = tmp_path / f"report.{fmt}"
    code, stdout, err = run(capsys, "verify", "--theorem", "certify", "--field", "GF(3)",
                            "--n-max", "5", "--format", fmt, "--out", str(out))
    assert code == 1 and stdout == ""
    fail = [ln for ln in err.splitlines() if ln.startswith("FAIL: ")]
    assert len(fail) == 1 and not any(ln.startswith("ok: ") for ln in err.splitlines())
    count, witness = fail[0].removeprefix("FAIL: ").split(" violation(s); first witness: ")
    witness = ast.literal_eval(witness)
    assert witness == {"n": 5, "s": 4, "field": "GF(3)", "z": "1", "tournaments": 1024,
                       "violations": 96, "first_bad_code": 65, "pass": False}
    if fmt == "json":
        report = json.loads(out.read_text())
        assert report["summary"]["violations"] == int(count) == 96
        assert next(rec for rec in report["records"] if not rec["pass"]) == witness
    else:
        assert "5,4,GF(3),1,1024,96,65,false" in out.read_text().splitlines()


def test_csv_report_format(capsys):
    code, stdout, _ = run(capsys, "verify", "--theorem", "constant",
                          "--n-range", "2..5", "--format", "csv", "--seed", "1")
    assert code == 0
    assert stdout.splitlines()[0].startswith("n,field,rank,bound")


@pytest.mark.parametrize("argv, error", [
    (["montecarlo", "--n", "4", "--samples", "0", "--seq", "1,2,3,4"], "EmptyRunError"),
    (["verify", "--theorem", "certify", "--n-max", "1"], "EmptyRunError"),
    (["verify", "--theorem", "certify", "--n-max", "0"], "EmptyRunError"),
    (["verify", "--theorem", "ffbound", "--field", "GF(3)", "--n-max", "0"], "EmptyRunError"),
    (["verify", "--theorem", "reversal", "--sample", "0"], "EmptyRunError"),
    (["verify", "--theorem", "transitive", "--trials", "0"], "EmptyRunError"),
    (["verify", "--theorem", "lipschitz", "--n", "1"], "BadRangeError"),
    (["verify", "--theorem", "lipschitz", "--n", "0"], "BadRangeError"),
    (["verify", "--theorem", "reversal", "--n", "0"], "BadRangeError"),
    (["verify", "--theorem", "f-ensemble", "--n", "1", "--alpha", "1", "--beta", "1"],
     "BadRangeError"),
    (["minrank", "--n", "3", "--seq", "1,2,3", "--shard", "5:5"], "EmptyRunError"),
    (["perm-scan", "--tournament", "paley:3", "--seq", "1,2,3", "--mode", "sample:0"],
     "EmptyRunError"),
    (["minrank", "--n", "3", "--seq", "1,2,3", "--workers", "-5"], "--workers"),
    (["minrank", "--n", "3", "--seq", "1,2,3", "--workers", "0"], "--workers"),
    (["montecarlo", "--n", "5", "--samples", "3", "--seq", "1,2,1,2,1", "--workers", "0"],
     "--workers"),
    (["verify", "--theorem", "constant", "--n-range", "0..2"], "BadRangeError"),
    (["verify", "--theorem", "constant", "--n-range", "1..2", "--field", "Q"],
     "BadRangeError"),
    (["verify", "--theorem", "ffbound", "--field", "GF(3)", "--n-max", "12"], "TooLargeError"),
    (["verify", "--theorem", "certify", "--n-max", "12"], "TooLargeError"),
    (["verify", "--theorem", "constant", "--field", "GF(3)", "--value", "3"], "ZeroWeightError"),
    (["verify", "--theorem", "certify", "--field", "GF(3)", "--z", "3"], "ZeroWeightError"),
    (["build", "--tournament", "random:x", "--seq", "1"], "usage error: bad tournament 'random:x'"),
    (["build", "--tournament", "transitive:x", "--seq", "1"],
     "usage error: bad tournament 'transitive:x'"),
    (["build", "--tournament", "paley:x", "--seq", "1"], "usage error: bad tournament 'paley:x'"),
    (["perm-scan", "--tournament", "paley:3", "--seq", "1,2,3", "--mode", "sample:abc"],
     "usage error: bad mode 'sample:abc'"),
    (["build", "--tournament", "transitive:0", "--seq", "1"], "error: VertexCountError: n must"),
    (["build", "--tournament", "random:0", "--seq", "1"], "error: VertexCountError: n must"),
    (["minrank", "--n", "3", "--seq", "1,2,3", "--shard", "5:9"],
     "error: ShardRangeError: bad shard [5, 9) for 8 codes"),
    (["minrank", "--n", "3", "--seq", "1,2,3", "--shard", "6:2"],
     "error: ShardRangeError: bad shard [6, 2) for 8 codes"),
    (["minrank", "--n", "3", "--seq", "1/0,2,3"], "error: ZeroDivisionError"),
    (["verify", "--theorem", "f-ensemble", "--n", "3", "--alpha", "1/0", "--beta", "1"],
     "error: ZeroDivisionError"),
    (["minrank", "--n", "3", "--seq", "1,2,3", "--conjecture-c", "1/0"],
     "error: ZeroDivisionError"),
])
def test_degenerate_runs_refused(capsys, argv, error):
    code, stdout, err = run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert error in err
    assert stdout == ""


def test_verify_transitive_reads_seq(capsys):
    """--seq is the fixed weight sequence, cycled to each n, under every
    trial's vertex order; a zero weight in it is refused before any check."""
    argv = ["verify", "--theorem", "transitive", "--n-range", "3..4", "--trials", "2",
            "--field", "GF(3)", "--seed", "1", "--seq"]
    code, stdout, _ = run(capsys, *argv, "1,2")
    doc = json.loads(stdout)
    assert code == 0 and doc["parameters"]["sequence_source"] == "fixed"
    assert doc["summary"]["checks"] == 8  # 2 sizes x 2 trials x 2 kinds
    code, stdout, err = run(capsys, *argv, "1,0")
    assert code == 2 and "ZeroWeightError" in err and stdout == ""


@pytest.mark.parametrize("argv, n", [
    (["--theorem", "lipschitz", "--seq", "1,2,3"], 3),
    (["--theorem", "f-ensemble", "--alpha", "2", "--beta", "1", "--seq", "1,2,3,4,5"], 5),
    (["--theorem", "reversal", "--seq", "1,2,3"], 3),
])
def test_verify_seq_sets_n_when_n_is_absent(capsys, argv, n):
    """Without --n the weights of --seq fix n; with it they must agree."""
    code, stdout, _ = run(capsys, "verify", *argv, "--seed", "1")
    assert code == 0 and json.loads(stdout)["parameters"]["n"] == n
    code, stdout, err = run(capsys, "verify", *argv, "--n", str(n + 1), "--seed", "1")
    assert code == 2 and f"need {n + 1} weights, got {n}" in err and stdout == ""


@pytest.mark.parametrize("argv, flags", [
    (["--theorem", "transitive", "--n", "5"], "--n"),
    (["--theorem", "certify", "--n", "5"], "--n"),
    (["--theorem", "reversal", "--trials", "3"], "--trials"),
    (["--theorem", "constant", "--seq", "1,2"], "--seq"),
    (["--theorem", "ffbound", "--field", "GF(3)", "--z", "2"], "--z"),
    (["--theorem", "lipschitz", "--sample", "3", "--value", "2"], "--sample, --value"),
])
def test_verify_refuses_flags_its_theorem_does_not_read(capsys, argv, flags):
    code, stdout, err = run(capsys, "verify", *argv, "--seed", "1")
    assert code == 2 and stdout == ""
    assert f"usage error: --theorem {argv[1]} does not read {flags}" in err


def test_empty_n_range_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "transitive", "--n-range", "5..4",
                       "--seed", "1")
    assert code == 2
    assert "empty n-range" in err


@pytest.mark.parametrize("flags, field, rank", [
    ([], "Q", 3),                  # no flag: the CSV header's field
    (["--fie", "GF(2)"], "GF(2)", 2),  # an abbreviation argparse accepts
    (["--field=GF(2)"], "GF(2)", 2),
])
def test_rank_field_override_spellings(tmp_path, capsys, flags, field, rank):
    path = tmp_path / "d3.csv"
    assert main(["build", "--tournament", "transitive:3", "--seq", "1,1,1",
                 "--out", str(path)]) == 0
    code, stdout, _ = run(capsys, "rank", "--matrix", str(path), *flags)
    assert code == 0
    assert json.loads(stdout) == {"rank": rank, "pivot_columns": list(range(rank)),
                                  "field": field}


def test_one_parser_serves_every_run(tmp_path, capsys):
    """minrank, montecarlo, rank (whose --field defaults to None, the CSV
    header's field, not Q) and minrank again in one process share one parser,
    and each prints the bytes of the same run on a freshly built parser."""
    path = tmp_path / "d3.csv"
    assert main(["build", "--tournament", "transitive:3", "--seq", "1,1,1", "--field", "GF(2)",
                 "--out", str(path)]) == 0
    runs = [["minrank", "--n", "4", "--seq", "1,2,1,2"],
            ["montecarlo", "--n", "6", "--samples", "4", "--seq", "1,2,1,2,1,2", "--field", "GF(3)"],
            ["rank", "--matrix", str(path)],
            ["minrank", "--n", "4", "--seq", "1,2,1,2"]]
    build_parser.cache_clear()
    shared = [run(capsys, *argv, "--seed", "1") for argv in runs]
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0] * 4
    assert json.loads(shared[2][1])["field"] == "GF(2)"
    assert shared[3][1] == shared[0][1]
    for argv, (_, out, _) in zip(runs, shared):
        build_parser.cache_clear()
        assert run(capsys, *argv, "--seed", "1")[1] == out


N7_ARGV = ["minrank", "--n", "7", "--field", "GF(3)", "--seq", "1,2,1,2,1,2,1", "--seed", "0"]
# SHA-256 of the n = 7 CSV written by the per-code stack sweep before bordering
N7_CSV_SHA256 = "25239ef0335a47a7dd3c3281b537f4cffc64a40352073b2f6701244a25d3c9f0"
# runs the command in argv[1:] and prints the peak resident KiB of its process
_PEAK_RSS = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def test_full_n7_sweep_in_bounded_memory(tmp_path):
    """All 2**21 tournaments on 7 vertices over GF(3), weights 1,2,1,2,1,2,1:
    min rank 4 on 36,864 codes, the histogram of a full sweep, the CSV bytes
    of the stack sweep, and a CSV run that peaks below 150 MiB."""
    src = str(Path(tourmat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    cli = [sys.executable, "-m", "tourmat.cli", *N7_ARGV]
    csv = tmp_path / "n7.csv"
    peak = subprocess.run([sys.executable, "-c", _PEAK_RSS, *cli, "--format", "csv",
                           "--out", str(csv)], env=env, check=True, capture_output=True, text=True)
    assert int(peak.stdout.split()[-1]) < 150 * 1024  # KiB
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == N7_CSV_SHA256
    summary = json.loads(subprocess.run(cli, env=env, check=True, capture_output=True,
                                        text=True).stdout)["summary"]
    assert summary["min_rank"] == 4 and summary["argmin_count"] == 36_864
    assert summary["rank_histogram"] == {"4": 36_864, "6": 1_086_464, "7": 973_824}
