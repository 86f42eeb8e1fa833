"""Run one benchmark workload against the checkout's src/ and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: reduce-c6, apply-tower, charset, cli-cold (see README.md).
Each is a closed loop with one caller: the next operation starts when the
previous one has returned.  A timed pass runs every item of the workload
once, in an order drawn from --seed; passes repeat until the operations
have run for --seconds of wall time, and only whole passes count.  Every
output is checked against the references in refs/.  The end-to-end times
are reference-speed times (refclock.py): the host's speed is measured next
to every operation and divided out.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs one untraced and one traced pass and reports the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from refclock import ProbeClock, ProcessClock, WallClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3          # setup_s is the median of this many set-ups
TAIL_PERCENTILES = (99.9, 99, 90, 75, 50)
CLI_PROBE_CYCLES = 2    # rounds over the CLI subcommands when splitting a cold process


class _Raised:
    """An operation that raised instead of returning an output."""

    def __init__(self, exc):
        self.exc = exc


class Passes:
    """Latencies (at reference speed), wall times and outcomes of timed passes."""

    def __init__(self):
        self.latencies = []
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.outputs = []       # kept only when asked for, aligned with the items

    @property
    def elapsed(self):
        return sum(self.walls)

    @property
    def host_speed(self):
        """The host's speed over the passes, as a share of the reference speed."""
        return sum(self.latencies) / self.elapsed

    @property
    def ops_per_s(self):
        return (self.attempted - self.failed) / sum(self.latencies)

    def tail(self):
        """(latency, percentile): the highest of TAIL_PERCENTILES with 10 samples beyond it.

        Nearest-rank percentiles.  The conventional rungs keep the estimate
        off the last few, sparse samples of a heavy-tailed workload.
        """
        ordered = sorted(self.latencies)
        n = len(ordered)
        for percentile in TAIL_PERCENTILES:
            rank = math.ceil(n * percentile / 100)
            if n - rank >= 10:
                return ordered[rank - 1], percentile
        return ordered[-1], 100


def run_passes(workload, items, refs, seconds, tracer=None, keep_outputs=False,
               clock=None):
    """Whole passes over items until `seconds` of operations have run (at least one).

    Only the operations are timed, by `clock` (wall time if None; the
    caller enters a ProbeClock).  Each output is checked, untimed, as soon
    as its operation returns and is then dropped, so the harness holds no
    results that the garbage collector would have to scan.
    """
    result = Passes()
    clock = clock or WallClock()
    marks = []
    gc.collect()
    gc.freeze()     # the inputs live for the whole run; keep them out of GC scans
    try:
        while True:
            for item in items:
                token = clock.start()
                try:
                    output = workload.run(item)
                except Exception as exc:    # counted as a failed operation
                    output = _Raised(exc)
                marks.append(clock.stop(token))
                result.walls.append(marks[-1][0])
                with tracer.paused() if tracer else nullcontext():
                    result.attempted += 1
                    if isinstance(output, _Raised) or not workload.check(item, output, refs):
                        if not result.failed:
                            _report_failure(item, output)
                        result.failed += 1
                if keep_outputs:
                    result.outputs.append(output)
                del output
            result.passes += 1
            if result.elapsed >= seconds:
                break
    finally:
        gc.unfreeze()
    result.latencies = clock.reference(marks)
    return result


def _report_failure(item, output):
    print(f"perfbench: operation on {item[0]} failed", file=sys.stderr)
    if isinstance(output, _Raised):
        traceback.print_exception(output.exc, file=sys.stderr)


def shuffled(items, seed):
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


# ---------------------------------------------------------------------------
# end-to-end run

def wall(argv, clock=None):
    """Wall time of one fresh process running argv against src/.

    With a ProcessClock, the time at reference speed instead.
    """
    from workloads import child_env

    clock = clock or WallClock()
    token = clock.start()
    subprocess.run(argv, env=child_env(), stdin=subprocess.DEVNULL,
                   capture_output=True, check=True, timeout=60)
    return clock.reference([clock.stop(token)])[0]


def clock_for(workload):
    """ProcessClock for the workload that runs child processes, else ProbeClock."""
    from workloads import child_env

    return ProcessClock(child_env()) if workload.name == "cli-cold" else ProbeClock()


def end_to_end(workload, refs, args):
    from workloads import child_env

    import_clock = ProcessClock(child_env())
    import_s = statistics.median(wall([sys.executable, "-c", "import dstar"], import_clock)
                                 for _ in range(SETUP_REPS))
    clock = clock_for(workload)
    reps = []
    for _ in range(SETUP_REPS):
        workload.items = []     # each set-up starts from the same heap
        gc.collect()
        with clock:
            token = clock.start()
            workload.setup()
            workload.warm_up()
            reps.extend(clock.reference([clock.stop(token)]))
    setup_s = import_s + statistics.median(reps)
    with clock:
        timed = run_passes(workload, shuffled(workload.items, args.seed), refs, args.seconds,
                           clock=clock)
    tail, tail_pct = timed.tail()
    n = len(timed.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (timed.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli-cold"), "MB"),
    }
    print(f"workload {workload.name}, seed {args.seed}: {n} operations in "
          f"{timed.passes} pass(es), {timed.elapsed:.3f} s wall timed, closed loop, 1 caller; "
          f"times below at reference speed, host at {timed.host_speed:.3f} of it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  wall: ops_per_s {timed.ops_per_s * timed.host_speed:.4f}, op_p50_ms "
          f"{statistics.median(timed.walls) * 1e3:.4f}")
    print(f"  op_tail_ms is p{tail_pct:g} of {n} samples; setup_s = cold import "
          f"{import_s:.3f} s + {setup_s - import_s:.3f} s set-up (medians of {SETUP_REPS})")
    print(f"  fail_ratio   {timed.failed / timed.attempted:12.4f} "
          f"({timed.failed} of {timed.attempted} failed)")
    return timed, metrics


# ---------------------------------------------------------------------------
# traced run

def traced(workload, refs, args):
    import inputs
    from tracer import Tracer, merge_summaries
    from workloads import WORK

    workload.setup()
    workload.warm_up()
    items = shuffled(workload.items, args.seed)
    clock = clock_for(workload)     # so that trace.slowdown compares like with like
    with clock:
        base = run_passes(workload, items, refs, 0, keep_outputs=workload.name == "apply-tower",
                          clock=clock)
    # every run reports every per-layer metric; a layer the workload skips reads 0
    extra = tower_rows(items if workload.name == "apply-tower" else [], base)
    if workload.name == "cli-cold":
        extra.update(cli_split(workload))
    else:
        extra.update({name: (0.0, "s") for name in ("cli.interp_s", "cli.import_s", "cli.run_s")})

    tracer = Tracer(inputs.algebra_labeler(inputs.make_algebras()))
    if workload.name == "cli-cold":
        workload.trace_children()
    tracer.install()
    try:
        workload.setup()
        with clock:
            run = run_passes(workload, shuffled(workload.items, args.seed), refs, 0, tracer,
                             clock=clock)
    finally:
        tracer.uninstall()
    if len(tracer.span_name):      # cli-cold records its spans in the children
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"spans-{workload.name}.tsv")
    summaries = [tracer.summary()] + (getattr(workload, "child_summaries", None) or [])
    metrics = layer_metrics(merge_summaries(summaries))
    metrics.update(extra)
    metrics["trace.ops_per_s"] = (run.ops_per_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (base.ops_per_s, "1/s")
    metrics["trace.slowdown"] = (base.ops_per_s / run.ops_per_s, "ratio")

    print(f"workload {workload.name}, seed {args.seed}, traced: one untraced pass "
          f"({base.elapsed:.3f} s) and one traced pass ({run.elapsed:.3f} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:16.6f} {unit}")
    combined = Passes()
    combined.attempted = base.attempted + run.attempted
    combined.failed = base.failed + run.failed
    return combined, metrics


def layer_metrics(s):
    calls, self_s, total_s = s["calls"], s["self_s"], s["total_s"]
    counts, by_algebra = s["counts"], s["by_algebra"]

    def both(table, *names):
        return sum(table.get(n, 0) for n in names)

    reduce_calls = calls.get("reduction.reduce", 0)
    charset_reduces = counts.get("charset.reduce.calls", 0)
    m = {
        "poly.mul.calls": (calls.get("poly.mul", 0), "count"),
        "poly.mul.self_s": (self_s.get("poly.mul", 0.0), "s"),
        "poly.monomial_mul.calls": (counts.get("poly.monomial_mul", 0), "count"),
        "poly.add.calls": (both(calls, "poly.add", "poly.radd"), "count"),
        "poly.add.self_s": (both(self_s, "poly.add", "poly.radd"), "s"),
        "poly.peak_terms": (s["peak_terms"], "terms"),
        "poly.peak_coeff_bits": (s["peak_coeff_bits"], "bits"),
        "poly.format.self_s": (self_s.get("poly.format", 0.0), "s"),
        "operators.apply_composition.calls": (calls.get("operators.apply_composition", 0), "count"),
        "operators.apply_composition.self_s": (self_s.get("operators.apply_composition", 0.0), "s"),
        "operators.block_image.calls": (calls.get("operators.block_image", 0), "count"),
        "operators.block_image.self_s": (self_s.get("operators.block_image", 0.0), "s"),
        "ordering.compare.calls": (both(counts, "ordering.compare.sequential",
                                        "ordering.compare.custom"), "count"),
        "ordering.transform_of.calls": (counts.get("ordering.transform_of", 0), "count"),
        "reduction.a_leader.calls": (calls.get("reduction.a_leader", 0), "count"),
        "reduction.a_leader.self_s": (self_s.get("reduction.a_leader", 0.0), "s"),
        "reduction.is_reduced.calls": (counts.get("reduction.is_reduced", 0), "count"),
        "reduction.reduce.calls": (reduce_calls, "count"),
        "reduction.reduce.self_s": (self_s.get("reduction.reduce", 0.0), "s"),
        "reduction.steps": (counts.get("reduction.steps", 0), "count"),
        "reduction.reduce.mul_calls": (counts.get("reduction.reduce.mul_calls", 0), "count"),
        "reduction.verify.calls": (calls.get("reduction.verify", 0), "count"),
        "reduction.verify.s": (total_s.get("reduction.verify", 0.0), "s"),
    }
    for label in ("dual", "fields2", "hs2", "dd11"):
        m[f"reduction.reduce.s.{label}"] = (by_algebra.get(f"reduce.{label}", 0.0), "s")
        m[f"reduction.verify.s.{label}"] = (by_algebra.get(f"verify.{label}", 0.0), "s")
    m.update({
        "charset.complete.calls": (calls.get("charset.complete", 0), "count"),
        "charset.complete.s": (total_s.get("charset.complete", 0.0), "s"),
        "charset.rounds": (counts.get("charset.rounds", 0), "count"),
        "charset.reduce.calls": (charset_reduces, "count"),
        "charset.useful_ratio": (counts.get("charset.added", 0) / charset_reduces
                                 if charset_reduces else 0.0, "ratio"),
        "parser.parse.calls": (calls.get("parser.parse", 0), "count"),
        "parser.parse.self_s": (self_s.get("parser.parse", 0.0), "s"),
        "algebra.validate.s": (total_s.get("algebra.validate", 0.0), "s"),
    })
    return m


def tower_rows(items, base):
    """The scaling curve: median untraced time and result size per tower."""
    import inputs
    from tracer import coeff_bits

    rows = {}
    for item, latency, output in zip(items, base.latencies, base.outputs):
        rows.setdefault(item[0], ([], output))[0].append(latency)
    metrics = {}
    if rows:
        print("  tower              median_s    terms  coeff_bits")
    for name in inputs.tower_names():
        latencies, output = rows.get(name, ([0.0], None))
        seconds = statistics.median(latencies)
        terms = len(output.terms) if output else 0
        if output:
            print(f"  {name:<16} {seconds:10.4f} {terms:8d} {coeff_bits(output):11d}")
        metrics[f"tower.{name}.s"] = (seconds, "s")
        metrics[f"tower.{name}.terms"] = (terms, "terms")
    return metrics


def cli_split(workload):
    """Interpreter start, import and the rest of a cold CLI process.

    Probe processes alternate with CLI processes so that all three see the
    same host speed; cli.run_s is the median of the paired differences
    between a CLI process and the import-only process before it.
    """
    from workloads import CLI_CASES

    interp, imported, rest = [], [], []
    for item in CLI_CASES * CLI_PROBE_CYCLES:
        interp.append(wall([sys.executable, "-c", "pass"]))
        imported.append(wall([sys.executable, "-c", "import dstar"]))
        start = time.perf_counter()
        workload.run(item)
        rest.append(time.perf_counter() - start - imported[-1])
    m = {"cli.interp_s": (statistics.median(interp), "s"),
         "cli.import_s": (statistics.median(imported), "s"),
         "cli.run_s": (statistics.median(rest), "s")}
    print("  cold CLI process: " + ", ".join(f"{k} {v:.4f} s" for k, (v, _) in m.items()))
    return m


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dstar" / "__init__.py").is_file():
        print(f"perfbench: no dstar sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, load_refs
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    refs = load_refs(args.workload)
    if args.trace:
        outcome, metrics = traced(workload, refs, args)
    else:
        outcome, metrics = end_to_end(workload, refs, args)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
