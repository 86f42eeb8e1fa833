#!/usr/bin/env python3
"""Benchmark a git revision against the working tree in alternating pairs.

    tools/bench_pairs.py [--rev REV] [--json PATH] [WORKLOAD...]

Unpacks `git archive REV` (default HEAD) into a temporary directory, and
copies the working tree's files (tracked and untracked, not ignored) into
another, so that no run writes into the checkout.  The command, the run
length S and the workloads (by default all of them) come from
BENCHMARK.json.  For seeds 1..10 it runs

    COMMAND --workload W --seed N --seconds S --trace 0

in both trees, the revision first on odd seeds and the working tree first
on even ones, one run at a time.  From each run it reads the JSON object
on the last line, the "... operations in P pass(es)" line and the
"op_tail_ms is pX" line.

For each workload and each end-to-end metric of BENCHMARK.json it prints
the median and quartiles of both sides, the ratio of the medians
(working tree over revision), the working tree's wins over the pairs,
judged by the metric's `better`, and a verdict: "unresolved" when the
revision's quartile spread, (Q3 - Q1) / median, exceeds the metric's
bound, unless every working-tree run is better than every revision run;
"WORSE" when the working tree's median is worse than the
revision's by more than the bound; "ok" otherwise.  It then lists each
side's pass counts and tail percentiles by seed and flags a workload
whose two sides' tail percentiles differ, since op_tail_ms then reads a
different percentile on each side.  Pass counts differ with speed alone,
so they are listed but not flagged.

With --json PATH it also writes the report to PATH in the layout of the
repository's BENCH_*.json files: a description of the runs, the parent
revision (REV, abbreviated), a null claim, for a change that claims a gain
to fill in, and per workload each metric's parent and change median, Q1 and
Q3, ratio, change wins, pairs and verdict, then each side's pass counts and
tail percentiles by seed (passes_parent, tail_parent, passes_change,
tail_change).  A workload with no table is left out of it.

Exits 1 when any run fails, reports `correct: false` or failed
operations; the verdicts do not change the exit status.  SIGTERM and
SIGINT exit with 128 + the signal number, after the temporary trees are
removed.  The working tree and the index are left as they are; no
bytecode is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES_RE = re.compile(r"([0-9]+) operations in ([0-9]+) pass\(es\)")
TAIL_RE = re.compile(r"op_tail_ms is (p[0-9.]+) ")
PAIRS = 10


def unpack_revision(rev, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def abbreviate(rev):
    """rev's commit, as git abbreviates it."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def copy_working_tree(dest):
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():    # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree, command, workload, seed, seconds):
    """One untraced run in tree, read by parse_run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout, proc.stderr)


def parse_run(returncode, stdout, stderr):
    """(record, problem) of one run; problem is None for a good run, and
    record is None when the output cannot be read."""
    lines = stdout.strip().splitlines()
    passes, tail = PASSES_RE.search(stdout), TAIL_RE.search(stdout)
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = None
    if returncode or doc is None or passes is None or tail is None:
        return None, (f"exit {returncode}, unreadable output: "
                      f"{(stderr or stdout).strip()[-300:]}")
    record = {"metrics": {k: v["value"] for k, v in doc["metrics"].items()},
              "passes": int(passes[2]), "tail": tail[1]}
    if not doc["correct"] or doc["failed"]:
        return record, f"correct {doc['correct']}, {doc['failed']} failed"
    return record, None


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def report(workload, runs, end_to_end):
    """Print one workload's table and return its entry in the --json report;
    runs maps side -> list of records by seed.  The entry holds the numbers
    the table prints: medians and quartiles to 4 places, ratios to 3."""
    base, change = runs["revision"], runs["working tree"]
    print(f"\nworkload {workload}: {len(base)} pairs")
    print(f"  {'metric':<12} {'revision median [Q1, Q3]':>34} "
          f"{'working tree median [Q1, Q3]':>34} {'ratio':>7} {'wins':>6}  verdict")
    metrics = {}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        b = [r["metrics"][name] for r in base]
        c = [r["metrics"][name] for r in change]
        (bm, bq1, bq3), (cm, cq1, cq3) = quartiles(b), quartiles(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        ratio = cm / bm if bm else float("nan")
        all_better = max(c) < min(b) if lower else min(c) > max(b)
        if bm and (bq3 - bq1) / bm > bound and not all_better:
            verdict = "unresolved"
        elif (ratio > 1 + bound) if lower else (ratio < 1 - bound):
            verdict = "WORSE"
        else:
            verdict = "ok"
        print(f"  {name:<12} {bm:12.4f} [{bq1:9.4f}, {bq3:9.4f}] "
              f"{cm:12.4f} [{cq1:9.4f}, {cq3:9.4f}] {ratio:7.3f} "
              f"{wins:>3}/{len(b):<2}  {verdict}")
        metrics[name] = {
            "parent": {"median": round(bm, 4), "q1": round(bq1, 4), "q3": round(bq3, 4)},
            "change": {"median": round(cm, 4), "q1": round(cq1, 4), "q3": round(cq3, 4)},
            "ratio": round(ratio, 3), "change_wins": wins, "pairs": len(b),
            "verdict": verdict}
    entry = {"metrics": metrics}
    for side, key in (("revision", "parent"), ("working tree", "change")):
        records = runs[side]
        entry["passes_" + key] = [r["passes"] for r in records]
        entry["tail_" + key] = [r["tail"] for r in records]
        print(f"  {side + ':':<14} passes {' '.join(str(r['passes']) for r in records)}; "
              f"tail {' '.join(r['tail'] for r in records)}")
    if entry["tail_parent"] != entry["tail_change"]:
        print("  SIDES DIFFER: tail percentiles differ between the sides")
    return entry


def document(rev, parent, bench, workloads, entries, failures):
    """The --json report: the runs described, the parent, a null claim and
    the entries of the workloads that have a table."""
    outcome = ("every run correct with 0 failed operations" if not failures
               else f"{failures} run(s) failed, gave no record, were not correct "
                    "or had failed operations")
    description = (
        f"tools/bench_pairs.py --rev {rev} ({', '.join(workloads)}): "
        f"{' '.join(bench['command'])} --workload W --seed N --seconds "
        f"{bench['run_seconds']} --trace 0 on the parent (git archive {parent}) and on "
        f"the working tree, {PAIRS} alternating pairs per workload, seeds 1-{PAIRS}, "
        f"the parent first on odd seeds; Python {platform.python_version()}, "
        f"{platform.machine()}, {os.cpu_count()} CPUs; {outcome}")
    return {"description": description, "parent": parent, "claim": None,
            "workloads": entries}


def stop(signum, frame):
    """Raise SystemExit, so that the with block of main removes the trees."""
    sys.exit(128 + signum)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--json", metavar="PATH", type=Path,
                        help="also write the report to PATH, as BENCH_*.json")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"default: all of {', '.join(names)}")
    args = parser.parse_args(argv)
    unknown = [w for w in args.workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json lists "
                     f"{', '.join(names)}")
    workloads = args.workloads or names

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    failures = 0
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"revision": Path(tmp, "revision"), "working tree": Path(tmp, "work")}
        for tree in trees.values():
            tree.mkdir()
        unpack_revision(args.rev, trees["revision"])
        copy_working_tree(trees["working tree"])
        for workload in workloads:
            runs = {side: [] for side in trees}
            for seed in range(1, PAIRS + 1):
                order = list(trees) if seed % 2 else list(reversed(trees))
                for side in order:
                    record, problem = run_once(trees[side], bench["command"], workload,
                                               seed, bench["run_seconds"])
                    print(f"{workload} seed {seed} {side}: "
                          f"{problem or 'ok'}", file=sys.stderr, flush=True)
                    failures += problem is not None
                    if record is not None:
                        runs[side].append(record)
            if all(len(records) == PAIRS for records in runs.values()):
                entries[workload] = report(workload, runs, bench["end_to_end"])
            else:
                print(f"\nworkload {workload}: no table, a run gave no record")
    if args.json:
        doc = document(args.rev, abbreviate(args.rev), bench, workloads, entries, failures)
        args.json.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
