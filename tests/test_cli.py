import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_reduce_checks_its_certificate_before_it_prints_or_writes(tmp_path, monkeypatch):
    # a reduction whose certificate lost its one cofactor: H * g = g0 fails
    import dataclasses
    import dstar.reduction
    reduce = dstar.reduction.reduce

    def dropped(g, divisors, ranking=None):
        return dataclasses.replace(reduce(g, divisors, ranking), cofactors=())

    monkeypatch.setattr(dstar.reduction, "reduce", dropped)
    divisors = tmp_path / "set.txt"
    divisors.write_text("x1[0,1]^2 - 4 * x1[0,0]\n", encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(["reduce", "--algebra", "dual", "--set",
                              str(divisors), "--cert", str(cert_path), "x1[0,2]"])
    assert (code, out) == (1, "")
    assert err == "error: DStarError: internal: reduction certificate failed verification\n"
    assert not cert_path.exists()


def test_reduce_output_and_certificate_file_are_pinned(tmp_path):
    # three steps over two members: a sigma step on each and a delta step
    divisors = tmp_path / "set.txt"
    divisors.write_text("x1[0,1]^2 - 4 * x1[0,0]\nx2[1,0] - x1[0,0] * x2[0,0]\n",
                        encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(["reduce", "--algebra", "dual", "--set",
                              str(divisors), "--cert", str(cert_path),
                              "x1[0,2] * x2[1,0] + x2[2,0]"])
    remainder = ("2 * x1[0,0] * x2[0,0] * x1[1,0] * x1[1,1] "
                 "+ 4 * x1[0,0] * x2[0,0] * x1[0,1]")
    assert (code, err) == (0, "")
    assert out == f"g0 = {remainder}\nH = 2 * x1[1,1]\n"
    expected = {
        "cofactors": [
            {"c": "2 * x1[1,1]", "member": 1, "theta": [1, 0]},
            {"c": "x2[1,0]", "member": 0, "theta": [0, 1]},
            {"c": "2 * x1[1,0] * x1[1,1] + 4 * x1[0,1]", "member": 1,
             "theta": [0, 0]}],
        "h_factors": [
            {"member": 1, "source": "initial", "theta": [1, 0]},
            {"member": 0, "source": "separant", "theta": [1, 0]},
            {"member": 1, "source": "initial", "theta": [0, 0]}],
        "remainder": remainder,
        "steps": [
            {"case": "sigma", "degree": 1, "leader": "x2[2,0]"},
            {"case": "delta", "degree": 1, "leader": "x1[0,2]"},
            {"case": "sigma", "degree": 1, "leader": "x2[1,0]"}],
    }
    assert cert_path.read_text(encoding="utf-8") == (
        json.dumps(expected, indent=2, sort_keys=True) + "\n")


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


def cold_env():
    env = dict(os.environ)
    # the package's own parent, so that the process finds it from any cwd
    src = str(Path(dstar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_cold(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "dstar.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=cold_env())


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


def test_delta_index_zero_is_a_parse_error():
    proc = run_cold(["apply", "--algebra", "dual", "--op", "d1.0", "x1[0,0]"])
    assert_parse_error(proc)
    assert "bad operator 'd1.0'" in proc.stderr and proc.stdout == ""
    proc = run_cold(["apply", "--algebra", "dual", "--op", "s1", "x1[0,0]"])
    assert proc.returncode == 0 and proc.stdout == "x1[1,0]\n"


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
    # the same holds for each prefix in the builtin table
    for prefix, valid, slots in (("fields:", "fields:2", "slots: s1, s2"),
                                 ("dd:", "dd:1,1", "slots: s1, d1.1, s2")):
        (tmp_path / f"{prefix}dual.json").write_text(json.dumps(spec), encoding="utf-8")
        proc = run_cold(["algebra-check", f"{prefix}dual.json"], cwd=tmp_path)
        assert proc.returncode == 0 and "slots: s1, d1.1" in proc.stdout
        (tmp_path / valid).write_text(json.dumps(spec), encoding="utf-8")
        proc = run_cold(["algebra-check", valid], cwd=tmp_path)
        assert proc.returncode == 0 and slots in proc.stdout
        proc = run_cold(["algebra-check", f"{prefix}x"], cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: UnknownBuiltin: ")


def test_closure_check_rejects_a_negative_tau(tmp_path):
    # (0,1,-1) used to pass as sigma-only and apply delta_1 once
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1,0]\n", encoding="utf-8")
    witness = tmp_path / "w.json"
    for tau, reason in (([0, 1, -1], "has a negative entry"),
                        ([0, 1, 0], "is not sigma-only")):
        witness.write_text(json.dumps({
            "a": "x1[0,0,0]",
            "taus": [tau],
            "exponents": [1],
            "combination": [{"c": "1", "theta": [0, 0, 0], "member": 0}],
        }), encoding="utf-8")
        proc = run_cold(["closure-check", "--algebra", "hs:2", "--gens",
                         str(gens), "--witness", str(witness)])
        assert proc.returncode == 1
        assert proc.stdout == f"Reject: tau {tau} {reason}\n"
        assert proc.stderr == ""


def test_closure_check_rejects_a_malformed_witness_index(tmp_path):
    # these used to end in "error: AlgebraMismatch/IndexOutOfRange" on stderr
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1,0]\n", encoding="utf-8")
    witness = tmp_path / "w.json"
    for tau, theta, reason in (
            ([0, 0], [0, 0, 0], "tau [0, 0] has 2 slots, algebra has 3"),
            ([0, 0, 0], [0, 0, -1],
             "combination theta [0, 0, -1] has a negative entry"),
            ([0, 0, 0], [0, 0], "combination theta [0, 0] has 2 slots, algebra has 3")):
        witness.write_text(json.dumps({
            "a": "x1[0,0,0]",
            "taus": [tau],
            "exponents": [1],
            "combination": [{"c": "1", "theta": theta, "member": 0}],
        }), encoding="utf-8")
        proc = run_cold(["closure-check", "--algebra", "hs:2", "--gens",
                         str(gens), "--witness", str(witness)])
        assert proc.returncode == 1
        assert proc.stdout == f"Reject: {reason}\n"
        assert proc.stderr == ""


def test_charset_trace_lists_each_added_remainder_once(tmp_path):
    # on fields:2, round 2 derives x1[1,1] + 1/2 * x1[0,0] from both
    # unselected pool members; it is added, and listed, once
    gens = tmp_path / "gens.txt"
    gens.write_text("-3 * x2[1,1] + 3 * x1[0,0]\n-2 * x2[1,1] - x2[0,0]\n",
                    encoding="utf-8")
    proc = run_cold(["charset", "--algebra", "fields:2", "--gens", str(gens),
                     "--trace"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        "round 1: selected 1, new remainders 1\n"
        "  + x2[0,0] + 2 * x1[0,0]\n"
        "round 2: selected 1, new remainders 1\n"
        "  + x1[1,1] + 1/2 * x1[0,0]\n"
        "round 3: selected 2, new remainders 0\n"
        "charset (2 members):\n"
        "x2[0,0] + 2 * x1[0,0]\n"
        "x1[1,1] + 1/2 * x1[0,0]\n")


def test_parse_errors_show_source_text_not_objects():
    for expr in ("x1[0,0] x1[0,1]", "x1[0,0] ^ x1[0,1]", "(x1[0,0]", ""):
        proc = run_cold(["apply", "--algebra", "dual", "--op", "d1.1", expr])
        assert_parse_error(proc)
        assert "re.Match" not in proc.stderr and "None" not in proc.stderr
        assert proc.stdout == ""


def test_failed_cert_write_prints_no_result(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1]^2 - 4 * x1[0,0]\n", encoding="utf-8")
    for cert in (tmp_path, tmp_path / "missing" / "dir" / "c.json"):
        proc = run_cold(["reduce", "--algebra", "dual", "--set", str(gens),
                         "--cert", str(cert), "x1[0,2]"])
        assert_domain_error(proc)
        assert proc.stdout == ""


def test_huge_integer_literals_are_parse_errors(tmp_path):
    # a literal past the interpreter's int/str conversion limit (4300 digits
    # by default) used to end in a ValueError traceback
    digits = "7" * 5000
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,0]\n", encoding="utf-8")
    witness = tmp_path / "w.json"
    witness.write_text('{"a": "x1[0,0]", "taus": [[0, 0]], "exponents": [%s], '
                       '"combination": []}' % digits, encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text('{"blocks": [{"basis": ["1"], "table": {"1*1": [["1", "%s"]]}}]}'
                    % digits, encoding="utf-8")
    for args in (
            ["apply", "--algebra", "dual", "--op", "d1.1", f"x1[0,0] + {digits}"],
            ["apply", "--algebra", "dual", "--op", "d1.1", f"x1[0,{digits}]"],
            ["apply", "--algebra", "dual", "--op", f"s1^{digits}", "x1[0,0]"],
            ["apply", "--algebra", "dual", "--op", f"theta=[{digits},0]", "x1[0,0]"],
            ["rank", "--algebra", "dual", f"x1[{digits},0]", "x1[0,0]"],
            ["closure-check", "--algebra", "dual", "--gens", str(gens),
             "--witness", str(witness)],
            ["algebra-check", str(spec)]):
        proc = run_cold(args)
        assert_parse_error(proc)
        assert "integer literal '77777777777777777777...' has 5000 digits" \
            in proc.stderr, args
        assert proc.stdout == ""


def test_results_past_the_int_str_limit_are_domain_errors(tmp_path):
    # printing a number of more than 4300 digits (the interpreter's default
    # int/str conversion limit) used to end in a ValueError traceback
    nines = "9" * 4300
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1]\n", encoding="utf-8")
    cert = tmp_path / "cert.json"
    for args in (["apply", "--algebra", "dual", "--op", "s1", "2^20000"],
                 ["apply", "--algebra", "dual", "--op", "s1",
                  f"x1[0,0]^{nines} * x1[0,0]^{nines}"],
                 ["reduce", "--algebra", "dual", "--set", str(gens),
                  "--cert", str(cert), "2^20000 * x1[0,1]"]):
        proc = run_cold(args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert "int/str conversion limit" in proc.stderr and proc.stdout == ""
    assert not cert.exists()


def test_integer_literals_are_ascii_digits_only():
    # int() took 'hs:1_0' as hs:10, and \d took other scripts' digits
    proc = run_cold(["algebra-check", "hs:1_0"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: UnknownBuiltin: ")
    assert "Traceback" not in proc.stderr
    proc = run_cold(["rank", "--algebra", "dual", "x1[0,\u0662]", "x1[0,1]"])
    assert_parse_error(proc)
    assert proc.stdout == ""


def test_over_long_paths_are_domain_errors(tmp_path):
    # a name past the OS limit used to end in an OSError traceback
    proc = run_cold(["algebra-check", "hs:" + "9" * 5000])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: UnknownBuiltin: ")
    assert "Traceback" not in proc.stderr
    long = str(tmp_path / ("a" * 300))
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,1]\n", encoding="utf-8")
    for args in (["algebra-check", long],
                 ["reduce", "--algebra", "dual", "--set", long, "x1[0,2]"],
                 ["closure-check", "--algebra", "dual", "--gens", str(gens),
                  "--witness", long]):
        proc = run_cold(args)
        assert_domain_error(proc)
        assert f"cannot read {long!r}" in proc.stderr and proc.stdout == ""


def test_bad_character_in_a_generator_file_variable_is_named(tmp_path):
    # the parser used to say "variable is missing its closing ']'" here
    gens = tmp_path / "gens.txt"
    gens.write_text("x1[0,0]\nx1[0,\u0662]\n", encoding="utf-8")
    proc = run_cold(["charset", "--algebra", "dual", "--gens", str(gens)])
    assert_parse_error(proc)
    assert proc.stderr == "parse error: unexpected character '\u0662' (line 2, column 6)\n"
    assert proc.stdout == ""


def test_cli_start_up_does_not_import_dataclasses_or_inspect():
    # dataclasses brings inspect, ast and dis with it; the records used to
    # import it, which cost every cold process several milliseconds
    code = ("import sys; before = set(sys.modules); import dstar.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cold_env())
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "[]\n"


# the dstar modules each cold subcommand loads; no subcommand loads classical
_ALGEBRA = ["algebra", "cli", "errors", "ordering"]
_APPLY = sorted(_ALGEBRA + ["operators", "parser", "poly"])
_REDUCE = sorted(_APPLY + ["reduction"])
_CHARSET = sorted(_REDUCE + ["charset"])
COLD_LOADS = [
    (["algebra-check", "dual"], _ALGEBRA),
    (["rank", "--algebra", "dual", "x1[1,0]", "x1[0,1]"], _ALGEBRA),
    (["apply", "--algebra", "dual", "--op", "d1.1", "x1[0,0]^2"], _APPLY),
    (["reduce", "--algebra", "dual", "--set", "set.txt", "x1[0,2]"], _REDUCE),
    (["charset", "--algebra", "dual", "--gens", "set.txt"], _CHARSET),
    (["closure-check", "--algebra", "dual", "--gens", "set.txt",
      "--witness", "witness.json"], _CHARSET),
]


def test_a_cold_process_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "set.txt").write_text("x1[0,1]^2 - 4 * x1[0,0]\n", encoding="utf-8")
    (tmp_path / "witness.json").write_text(json.dumps({
        "a": "x1[0,1]^2 - 4 * x1[0,0]", "taus": [[0, 0]], "exponents": [1],
        "combination": [{"c": "1", "theta": [0, 0], "member": 0}]}), encoding="utf-8")
    loaded = "sorted(m[6:] for m in sys.modules if m.startswith('dstar.'))"
    proc = subprocess.run([sys.executable, "-c", f"import sys, dstar; print({loaded})"],
                          capture_output=True, text=True, env=cold_env())
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    code = ("import sys; from dstar import cli; code = cli.main(sys.argv[1:]); "
            f"print('json' in sys.modules); print(code, {loaded})")
    for args, modules in COLD_LOADS:
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, cwd=tmp_path, env=cold_env())
        assert proc.stderr == "", args
        assert proc.stdout.splitlines()[-1] == f"0 {modules}", args
        # only a witness file is JSON here
        assert proc.stdout.splitlines()[-2] == str(args[0] == "closure-check"), args


# the package's public names by submodule, as `import dstar` has always bound them
PUBLIC = {
    "algebra": "AlgebraSpec BlockSpec DAlgebra algebra_from_name builtin dump_spec "
               "load_spec make_block_spec validate_algebra",
    "charset": "AutoreducedSet CharSetResult ClosureWitness PrimePresentation "
               "charset_complete closure_step_witness compare_autoreduced "
               "d_ideal_generators presentation validate_autoreduced",
    "classical": "DiffPolynomial DiffVar dual_algebra lift_to_dual "
                 "project_to_differential ritt_reduce",
    "errors": "DStarError ExprParseError",
    "operators": "apply apply_composition block_image parse_operator rho",
    "ordering": "CustomRanking DVariable Ranking SequentialRanking apply_slot "
                "check_ranking_axioms dickson_minimal ord_delta ord_i parse_variable "
                "transform_of",
    "parser": "parse_generator_file parse_poly",
    "poly": "DPolynomial Monomial format_poly rank_compare",
    "reduction": "DivisorSet ReductionCertificate a_leader is_reduced is_reduced_wrt_set "
                 "reduce verify_certificate",
}


def test_the_package_namespace_is_unchanged_by_lazy_loading():
    for module, names in PUBLIC.items():
        for name in names.split():
            assert getattr(dstar, name) is getattr(
                importlib.import_module(f"dstar.{module}"), name), name
    star = {}
    exec("from dstar import *", star)
    expected = {name for names in PUBLIC.values() for name in names.split()} | set(PUBLIC)
    assert set(star) - {"__builtins__"} == expected
    assert expected <= set(dir(dstar))
    # a bare import resolves every submodule name, and nothing else
    code = ("import importlib, dstar\n"
            "for name in %r:\n"
            "    assert getattr(dstar, name) is importlib.import_module('dstar.' + name)\n"
            "try:\n"
            "    dstar.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n") % sorted(PUBLIC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cold_env())
    assert proc.stderr == ""
    assert proc.stdout == "module 'dstar' has no attribute 'no_such_name'\n"


SUBCOMMANDS = "{algebra-check,rank,apply,reduce,charset,closure-check}"
USAGES = {
    "algebra-check": "usage: dstar algebra-check [-h] file\n",
    "rank": "usage: dstar rank [-h] --algebra ALGEBRA v1 v2\n",
    "apply": "usage: dstar apply [-h] --algebra ALGEBRA --op OP expr\n",
    "reduce": "usage: dstar reduce [-h] --algebra ALGEBRA --set SET [--cert CERT] expr\n",
    "charset": "usage: dstar charset [-h] --algebra ALGEBRA --gens GENS [--trace]\n",
    "closure-check": ("usage: dstar closure-check [-h] --algebra ALGEBRA --gens GENS"
                      " --witness\n                           WITNESS\n"),
}
HELP_BODIES = {
    "algebra-check": ("positional arguments:\n"
                      "  file        algebra JSON file or builtin name\n\n"
                      "options:\n"
                      "  -h, --help  show this help message and exit\n"),
    "rank": ("positional arguments:\n  v1\n  v2\n\n"
             "options:\n"
             "  -h, --help         show this help message and exit\n"
             "  --algebra ALGEBRA\n"),
    "apply": ("positional arguments:\n  expr\n\n"
              "options:\n"
              "  -h, --help         show this help message and exit\n"
              "  --algebra ALGEBRA\n  --op OP\n"),
    "reduce": ("positional arguments:\n  expr\n\n"
               "options:\n"
               "  -h, --help         show this help message and exit\n"
               "  --algebra ALGEBRA\n  --set SET\n"
               "  --cert CERT        write the reduction certificate JSON here\n"),
    "charset": ("options:\n"
                "  -h, --help         show this help message and exit\n"
                "  --algebra ALGEBRA\n  --gens GENS\n  --trace\n"),
    "closure-check": ("options:\n"
                      "  -h, --help         show this help message and exit\n"
                      "  --algebra ALGEBRA\n  --gens GENS\n  --witness WITNESS\n"),
}
MISSING = {
    "algebra-check": "file",
    "rank": "--algebra, v1, v2",
    "apply": "--algebra, --op, expr",
    "reduce": "--algebra, --set, expr",
    "charset": "--algebra, --gens",
    "closure-check": "--algebra, --gens, --witness",
}
TOP_HELP = (
    f"usage: dstar [-h] {SUBCOMMANDS} ...\n\n"
    "polynomial rings with commuting generalised Hasse-Schmidt operators\n\n"
    "positional arguments:\n"
    f"  {SUBCOMMANDS}\n"
    "    algebra-check       validate an algebra description\n"
    "    rank                compare two variables\n"
    "    apply               apply an operator to an expression\n"
    "    reduce              reduce an expression modulo a set\n"
    "    charset             characteristic set of a generator file\n"
    "    closure-check       check a perfect-closure witness\n\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n")


def help_and_usage_cases():
    yield ["-h"], 0, TOP_HELP, ""
    yield [], 2, "", (f"usage: dstar [-h] {SUBCOMMANDS} ...\n"
                      "dstar: error: the following arguments are required: command\n")
    for name, usage in USAGES.items():
        yield [name, "-h"], 0, f"{usage}\n{HELP_BODIES[name]}", ""
        yield [name], 2, "", (f"{usage}dstar {name}: error: the following "
                              f"arguments are required: {MISSING[name]}\n")


@pytest.mark.parametrize("argv, code, stdout, stderr", list(help_and_usage_cases()))
def test_help_and_usage_text_is_pinned(argv, code, stdout, stderr, capsys, monkeypatch):
    # argparse wraps at the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    assert capsys.readouterr() == (stdout, stderr)


def test_a_bad_algebra_file_is_a_parse_error_for_every_subcommand(tmp_path):
    # algebra-check and --algebra read the file through the same loader
    spec = tmp_path / "spec.json"
    spec.write_text('{"blocks": [{"basis": ["1"], "table": {"1*1": [["1", 1.5]]}}]}',
                    encoding="utf-8")
    message = ("parse error: block 1: coefficient 1.5 in '1*1' is not a "
               "decimal-free rational (line 1, column 1)\n")
    for args in (["algebra-check", str(spec)],
                 ["rank", "--algebra", str(spec), "x1[0]", "x1[0]"]):
        proc = run_cold(args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message), args
