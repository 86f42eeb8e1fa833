"""Tests of the benchmark itself: inputs, output checks and trace counts.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import argparse
import dataclasses
import importlib.util
import random
import shutil
import subprocess
import sys
from pathlib import Path

from dstar import SequentialRanking, format_poly

import inputs
import refclock
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _acceptance_generator():
    spec = importlib.util.spec_from_file_location("c6_gen", ROOT / "tests" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stream_replays_criterion_6():
    gen = _acceptance_generator()
    algebras = inputs.make_algebras()
    stream = inputs.reduction_stream(algebras)
    rng = random.Random(inputs.STREAM_SEED)
    position = 0
    for label, algebra in algebras.items():
        ranking = SequentialRanking(algebra)
        for index in range(inputs.STREAM_PER_ALGEBRA):
            g, divisors = gen.rand_reduction_instance(rng, algebra, ranking)
            s_label, s_index, s_g, s_divisors = stream[position]
            position += 1
            assert (s_label, s_index) == (label, index)
            assert format_poly(s_g) == format_poly(g)
            assert [format_poly(f) for f in s_divisors] == [format_poly(f) for f in divisors]
    assert position == len(stream)
    swell = [entry for entry in stream if entry[:2] == inputs.SWELL_INSTANCE]
    assert len(swell) == 1
    assert format_poly(swell[0][2]) == "-3 * x1[1,1,2]^3 - x1[1,2,1]^3 + 1/2 * x2[0,0,0]"


def test_fail_ratio_counts_corrupted_certificate_and_wrong_output(monkeypatch):
    reduce_c6 = workloads.ReduceC6()
    reduce_c6.setup()
    items = reduce_c6.items[:4]
    genuine = workloads.reduce

    def corrupting_reduce(g, divisors, ranking=None):
        cert = genuine(g, divisors, ranking)
        if g is items[1][1]:
            cert = dataclasses.replace(cert, remainder=cert.remainder + 1)
        return cert

    monkeypatch.setattr(workloads, "reduce", corrupting_reduce)
    certified = run.run_passes(reduce_c6, items, workloads.load_refs("reduce-c6"), 0)

    tower = workloads.ApplyTower()
    tower.setup()
    genuine_apply = workloads.apply_composition
    monkeypatch.setattr(workloads, "apply_composition",
                        lambda f, theta: genuine_apply(f, theta) + 1)
    applied = run.run_passes(tower, tower.items[:2], workloads.load_refs("apply-tower"), 0)

    assert (certified.failed, certified.attempted) == (1, 4)
    assert (applied.failed, applied.attempted) == (2, 2)
    assert certified.ops_per_s > 0


def test_wrong_output_with_valid_certificate_is_a_failure():
    reduce_c6 = workloads.ReduceC6()
    reduce_c6.setup()
    refs = dict(workloads.load_refs("reduce-c6"))
    first, second = reduce_c6.items[0][0], reduce_c6.items[1][0]
    refs[first] = refs[second]
    outcome = run.run_passes(reduce_c6, reduce_c6.items[:2], refs, 0)
    assert (outcome.failed, outcome.attempted) == (1, 2)


class _SmallCharset(workloads.Charset):
    def setup(self):
        super().setup()
        self.items = self.items[1:41]


class _SmallReduce(workloads.ReduceC6):
    def setup(self):
        super().setup()
        self.items = [item for item in self.items[::40]
                      if item[0] != "{}#{}".format(*inputs.SWELL_INSTANCE)]


def _counts(metrics):
    return {name: value for name, (value, _) in metrics.items()
            if name.endswith((".calls", ".steps", ".rounds", "mul_calls"))
            or name in ("reduction.steps", "charset.rounds", "poly.peak_terms",
                        "poly.peak_coeff_bits")}


def test_traced_counts_repeat_exactly():
    args = argparse.Namespace(seed=3)
    for cls, name in ((_SmallCharset, "charset"), (_SmallReduce, "reduce-c6")):
        refs = workloads.load_refs(name)
        first_outcome, first = run.traced(cls(), refs, args)
        second_outcome, second = run.traced(cls(), refs, args)
        assert first_outcome.failed == second_outcome.failed == 0
        counts = _counts(first)
        assert counts == _counts(second)
        assert counts["poly.mul.calls"] > 0
        assert counts["reduction.steps"] > 0
        assert counts["ordering.compare.calls"] > 0
    assert counts["reduction.reduce.mul_calls"] > 0


def test_probe_clock_reads_the_probe_at_its_reference_time():
    clock = refclock.ProbeClock()
    with clock:
        token = clock.start()
        for _ in range(200):
            refclock.probe()
        mark = clock.stop(token)
    [ref] = clock.reference([mark])
    wall, (first, last) = mark
    assert last - first >= 3      # the timer ran during the operation
    assert abs(ref / (200 * refclock.PROBE_REF_S) - 1) < 0.25
    assert wall > 0


def test_process_clock_reads_a_bare_interpreter_at_its_reference_time():
    clock = refclock.ProcessClock(workloads.child_env())
    refs = []
    for _ in range(5):
        token = clock.start()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        refs.extend(clock.reference([clock.stop(token)]))
    assert abs(sorted(refs)[2] / refclock.INTERP_REF_S - 1) < 0.35


def test_refuses_to_run_without_sources():
    bare = workloads.WORK / "bare"       # a directory holding only the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "charset",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
