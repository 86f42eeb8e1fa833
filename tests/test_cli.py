import io
import json
import os
import subprocess
import sys
from pathlib import Path

import dstar
from dstar.cli import main


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_algebra_check_builtin():
    code, out, err = run_cli(["algebra-check", "hs:2"])
    assert code == 0 and err == ""
    assert out == (
        "blocks: 1\n"
        "slots: s1, d1.1, d1.2\n"
        "block 1: basis 1, e, e2 (unit 1)\n"
        "  nu: 1, 2\n"
        "  gamma(1) = {}\n"
        "  gamma(2) = {(1,1)}\n"
        "  alpha(2;1,1) = 1\n"
        "ok\n")


def test_algebra_check_file(tmp_path):
    spec = {"blocks": [{"basis": ["1", "e"],
                        "table": {"1*1": [["1", "1"]], "1*e": [["e", "1"]]}}]}
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run_cli(["algebra-check", str(path)])
    assert code == 0
    assert "slots: s1, d1.1" in out


def test_algebra_check_misordered_exits_1(tmp_path):
    spec = {"blocks": [{"basis": ["1", "ee", "e"],
                        "table": {"1*1": [["1", "1"]], "1*ee": [["ee", "1"]],
                                  "1*e": [["e", "1"]], "e*e": [["ee", "1"]]}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(["algebra-check", str(path)])
    assert code == 1
    assert "RankedBasisViolation" in err


def test_algebra_check_bad_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"blocks": [', encoding="utf-8")
    code, _, err = run_cli(["algebra-check", str(path)])
    assert code == 2
    assert "parse error" in err


def test_rank():
    code, out, _ = run_cli(["rank", "--algebra", "dual", "x1[1,0]", "x1[0,1]"])
    assert code == 0 and out == "LESS\n"
    code, out, _ = run_cli(["rank", "--algebra", "dual", "x1[0,1]", "x1[0,1]"])
    assert out == "EQUAL\n"
    code, out, _ = run_cli(["rank", "--algebra", "dual", "x2[0,1]", "x1[0,1]"])
    assert out == "GREATER\n"


def test_apply():
    code, out, _ = run_cli(["apply", "--algebra", "dual", "--op", "d1.1",
                            "x1[0,0]^2"])
    assert code == 0 and out == "2 * x1[1,0] * x1[0,1]\n"
    code, out, _ = run_cli(["apply", "--algebra", "dual", "--op", "theta=[1,1]",
                            "x1[0,0]"])
    assert out == "x1[1,1]\n"
    code, _, err = run_cli(["apply", "--algebra", "dual", "--op", "d9.9",
                            "x1[0,0]"])
    assert code == 2


def test_reduce_with_certificate(tmp_path):
    divisors = tmp_path / "set.txt"
    divisors.write_text("x1[0,1]^2 - 4 * x1[0,0]\n", encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(["reduce", "--algebra", "dual", "--set",
                            str(divisors), "--cert", str(cert_path), "x1[0,2]"])
    assert code == 0
    assert out == "g0 = 4 * x1[0,1]\nH = 2 * x1[1,1]\n"
    doc = json.loads(cert_path.read_text(encoding="utf-8"))
    assert doc["remainder"] == "4 * x1[0,1]"
    assert doc["h_factors"] == [{"member": 0, "source": "separant",
                                 "theta": [1, 0]}]


def test_charset_command(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,0]\nx1[0,1]\n", encoding="utf-8")
    code, out, _ = run_cli(["charset", "--algebra", "dual", "--gens", str(gens)])
    assert code == 0
    assert out == "charset (1 member):\nx1[0,0]\n"
    code, out, _ = run_cli(["charset", "--algebra", "dual", "--gens",
                            str(gens), "--trace"])
    assert out.startswith("round 1:")

    bad = tmp_path / "incon.txt"
    bad.write_text("x1[0,0]\nx1[0,0] + 1\n", encoding="utf-8")
    code, _, err = run_cli(["charset", "--algebra", "dual", "--gens", str(bad)])
    assert code == 1 and "InconsistentSystem" in err


def test_closure_check(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,0] * x1[1,0]\n", encoding="utf-8")
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({
        "a": "x1[0,0]",
        "taus": [[0, 0], [1, 0]],
        "exponents": [1, 1],
        "combination": [{"c": "1", "theta": [0, 0], "member": 0}],
    }), encoding="utf-8")
    code, out, _ = run_cli(["closure-check", "--algebra", "dual", "--gens",
                            str(gens), "--witness", str(witness)])
    assert code == 0 and out == "Accept: x1[0,0]\n"

    witness.write_text(json.dumps({
        "a": "x1[0,0]",
        "taus": [[0, 0], [1, 0]],
        "exponents": [1, 1],
        "combination": [{"c": "2", "theta": [0, 0], "member": 0}],
    }), encoding="utf-8")
    code, out, _ = run_cli(["closure-check", "--algebra", "dual", "--gens",
                            str(gens), "--witness", str(witness)])
    assert code == 1
    assert out.startswith("Reject: ")
    assert "difference" in out


def test_outputs_are_byte_identical_across_runs(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1] + x1[0,0]\nx1[0,2] + x1[0,0]^2\n", encoding="utf-8")
    commands = [
        ["algebra-check", "dd:1,1"],
        ["rank", "--algebra", "hs:2", "x1[0,1,0]", "x1[0,0,1]"],
        ["apply", "--algebra", "hs:2", "--op", "d1.2", "x1[0,0,0]^2"],
        ["charset", "--algebra", "dual", "--gens", str(gens), "--trace"],
    ]
    for args in commands:
        first = run_cli(args)
        second = run_cli(args)
        assert first == second
        assert first[0] == 0


def test_missing_file_is_domain_error():
    code, _, err = run_cli(["charset", "--algebra", "dual", "--gens",
                            "/nonexistent/gens.txt"])
    assert code == 1 and "not found" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dstar.cli", "rank", "--algebra", "dual",
         "x1[0,0]", "x1[0,1]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "LESS\n"


def run_cold(args, cwd=None):
    env = dict(os.environ)
    # the package's own parent, so that the process finds it from any cwd
    src = str(Path(dstar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "dstar.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def assert_parse_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: ")
    assert "Traceback" not in proc.stderr


def test_deep_nesting_is_a_parse_error(tmp_path):
    deep = "(" * 3000 + "x1[0,0]" + ")" * 3000
    assert_parse_error(run_cold(["apply", "--algebra", "dual", "--op", "d1.1", deep]))
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 5000, encoding="utf-8")
    assert_parse_error(run_cold(["algebra-check", str(deep_json)]))
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1]\n", encoding="utf-8")
    assert_parse_error(run_cold(["closure-check", "--algebra", "dual", "--gens",
                                 str(gens), "--witness", str(deep_json)]))


def test_unterminated_variable_is_a_parse_error():
    proc = run_cold(["apply", "--algebra", "dual", "--op", "d1.1", "x1[0,0"])
    assert_parse_error(proc)
    assert "']'" in proc.stderr and "column 7" in proc.stderr


def assert_domain_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: DStarError: ")
    assert "Traceback" not in proc.stderr


def test_unreadable_files_are_domain_errors(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1]^2 - 4 * x1[0,0]\n", encoding="utf-8")
    assert_domain_error(run_cold(["algebra-check", str(tmp_path)]))
    assert_domain_error(run_cold(["charset", "--algebra", "dual", "--gens",
                                  str(tmp_path)]))
    for cert in (tmp_path, tmp_path / "missing" / "dir" / "c.json"):
        proc = run_cold(["reduce", "--algebra", "dual", "--set", str(gens),
                         "--cert", str(cert), "x1[0,2]"])
        assert_domain_error(proc)
        assert "cannot write" in proc.stderr


def test_undecodable_files_are_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    assert_parse_error(run_cold(["algebra-check", str(bad)]))
    assert_parse_error(run_cold(["reduce", "--algebra", "dual", "--set",
                                 str(bad), "x1[0,2]"]))
    bad.write_bytes(b"x1[0,0]\nx1[0,1] \xff\xfe\n")
    proc = run_cold(["charset", "--algebra", "dual", "--gens", str(bad)])
    assert_parse_error(proc)
    assert "line 2, column 9" in proc.stderr


def test_file_named_like_a_builtin_loads_as_a_file(tmp_path):
    spec = {"blocks": [{"basis": ["1", "e"],
                        "table": {"1*1": [["1", "1"]], "1*e": [["e", "1"]]}}]}
    (tmp_path / "hs:dual.json").write_text(json.dumps(spec), encoding="utf-8")
    proc = run_cold(["algebra-check", "hs:dual.json"], cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == run_cold(["algebra-check", "./hs:dual.json"],
                                   cwd=tmp_path).stdout
    assert "slots: s1, d1.1" in proc.stdout
    # a valid builtin name keeps precedence over a file of that name
    (tmp_path / "hs:2").write_text(json.dumps(spec), encoding="utf-8")
    proc = run_cold(["algebra-check", "hs:2"], cwd=tmp_path)
    assert proc.returncode == 0 and "slots: s1, d1.1, d1.2" in proc.stdout
    # a bad builtin-like name that is no file keeps its builtin error
    proc = run_cold(["algebra-check", "hs:x"], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: UnknownBuiltin: ")
