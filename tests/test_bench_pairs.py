"""tools/bench_pairs.py: reading a benchmark run and judging the pairs."""

import importlib.util
import json
import signal
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_tail_ms", "better": "lower", "bound": 0.25}]


def run_output(ops_per_s=10.0, tail_ms=100.0, passes=1, pct="p75", correct=True):
    doc = {"correct": correct, "attempted": 60, "failed": 0 if correct else 1,
           "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                       "op_tail_ms": {"value": tail_ms, "unit": "ms"}}}
    return (f"workload cli-cold, seed 1: 60 operations in {passes} pass(es), 8.9 s "
            "wall timed, closed loop, 1 caller\n"
            f"  op_tail_ms is {pct} of 60 samples; setup_s = cold import\n"
            + json.dumps(doc) + "\n")


def test_parse_run_reads_metrics_passes_and_tail():
    record, problem = bench_pairs.parse_run(0, run_output(passes=2, pct="p90"), "")
    assert problem is None
    assert record == {"metrics": {"ops_per_s": 10.0, "op_tail_ms": 100.0},
                      "passes": 2, "tail": "p90"}
    record, problem = bench_pairs.parse_run(0, run_output(correct=False), "")
    assert record["passes"] == 1 and problem == "correct False, 1 failed"
    for code, stdout in ((1, run_output()), (0, "no output\n"), (0, "")):
        record, problem = bench_pairs.parse_run(code, stdout, "boom")
        assert record is None and problem.startswith(f"exit {code}, unreadable output")


def table_rows(out):
    """The report's metric rows, split into words, by metric name."""
    names = {m["name"] for m in END_TO_END}
    return {words[0]: words for words in map(str.split, out.splitlines())
            if words and words[0] in names}


def records(values, passes=1, pct="p75"):
    return [{"metrics": {"ops_per_s": ops, "op_tail_ms": tail},
             "passes": passes, "tail": pct} for ops, tail in values]


@pytest.mark.parametrize("change, verdicts", [
    # same speed: ok on both
    ([(10.1, 100.0)] * 4, ("ok", "ok")),
    # 30% fewer operations and a 30% longer tail: both worse than their bound
    ([(7.0, 130.0)] * 4, ("WORSE", "WORSE")),
])
def test_report_judges_each_metric_by_its_direction_and_bound(capsys, change, verdicts):
    runs = {"revision": records([(10.0, 100.0)] * 4), "working tree": records(change)}
    bench_pairs.report("cli-cold", runs, END_TO_END)
    out = capsys.readouterr().out
    table = table_rows(out)
    assert table["ops_per_s"][-1] == verdicts[0]
    assert table["op_tail_ms"][-1] == verdicts[1]
    wins = "4/4" if verdicts[0] == "ok" else "0/4"
    assert table["ops_per_s"][-2] == wins
    assert "SIDES DIFFER" not in out


def test_report_marks_a_wide_revision_spread_unresolved_and_differing_sides(capsys):
    runs = {"revision": records([(5.0, 100.0), (10.0, 100.0), (15.0, 100.0), (20.0, 100.0)]),
            "working tree": records([(12.0, 100.0)] * 4, passes=2, pct="p90")}
    bench_pairs.report("charset", runs, END_TO_END)
    out = capsys.readouterr().out
    rows = table_rows(out)
    assert rows["ops_per_s"][-1] == "unresolved"
    assert rows["op_tail_ms"][-1] == "ok"
    assert "working tree:  passes 2 2 2 2; tail p90 p90 p90 p90" in out
    assert "SIDES DIFFER" in out
    # as wide a spread, but every run of the change is better
    runs["working tree"] = records([(21.0, 100.0)] * 4)
    bench_pairs.report("charset", runs, END_TO_END)
    assert table_rows(capsys.readouterr().out)["ops_per_s"][-1] == "ok"


def test_pass_counts_alone_are_listed_but_not_flagged(capsys):
    # a faster side fits more passes in the same run length; its tail is
    # still the same percentile, so the sides compare like with like
    runs = {"revision": records([(10.0, 100.0)] * 4, passes=1),
            "working tree": records([(12.0, 100.0)] * 4, passes=2)}
    bench_pairs.report("reduce-c6", runs, END_TO_END)
    out = capsys.readouterr().out
    assert "revision:      passes 1 1 1 1; tail p75 p75 p75 p75" in out
    assert "working tree:  passes 2 2 2 2; tail p75 p75 p75 p75" in out
    assert "SIDES DIFFER" not in out


def test_a_stop_inside_the_run_removes_both_trees(monkeypatch, tmp_path):
    # no signal is sent: the SIGTERM handler that main installs is called
    # from inside its with block, as the interpreter would call it
    handlers, dests = {}, []
    monkeypatch.setattr(bench_pairs.signal, "signal",
                        lambda signum, handler: handlers.__setitem__(signum, handler))
    monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(tmp_path))

    def unpack_revision(rev, dest):
        dests.append(dest)
        handlers[signal.SIGTERM](signal.SIGTERM, None)

    monkeypatch.setattr(bench_pairs, "unpack_revision", unpack_revision)
    with pytest.raises(SystemExit) as exit:
        bench_pairs.main(["cli-cold"])
    assert exit.value.code == 128 + signal.SIGTERM
    assert set(handlers) == {signal.SIGTERM, signal.SIGINT}
    assert dests and dests[0].parent.parent == tmp_path
    assert list(tmp_path.iterdir()) == []


def test_workloads_default_to_and_are_checked_against_benchmark_json(capsys):
    with pytest.raises(SystemExit) as exit:
        bench_pairs.main(["no-such-workload"])
    assert exit.value.code == 2
    listed = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["workloads"]
    assert f"lists {', '.join(w['name'] for w in listed)}" in capsys.readouterr().err
