"""The benchmark's tracer hooks dstar by name; every hook must resolve.

perfbench/tracer.py wraps the functions named in its SPANS and COUNTS
tables.  A rename in dstar would otherwise show up only when the traced
benchmark run fails.
"""

from pathlib import Path

from dstar import charset, reduction
from dstar.operators import apply_composition
from dstar.parser import parse_poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch, dual):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import COUNTS, SPANS, Tracer

    hooks = {**SPANS, **COUNTS}
    originals = {name: getattr(owner, attr) for name, (owner, attr) in hooks.items()}
    tracer = Tracer(lambda algebra: "dual")
    tracer.install()
    try:
        patches = list(tracer._patches)
        for name, (owner, attr) in hooks.items():
            assert getattr(owner, attr) is not originals[name], name
        divisor = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
        reduction.reduce(parse_poly("x1[0,2]", dual), [divisor])
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"]["reduction.reduce"] == 1
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    for name, (owner, attr) in hooks.items():
        assert getattr(owner, attr) is originals[name], name


def test_tracer_counts_every_offending_variable_scan(monkeypatch, dual):
    # every scan walks its pairs through transform_of, which the tracer
    # counts; is_reduced_wrt_set stops at the first offending pair without
    # calling a_leader, so a completion's a_leader calls are its
    # reductions' alone (one per step plus the final one of each reduce)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    def traced(call):
        tracer = Tracer(lambda algebra: "dual")
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        return tracer.summary()

    divisor = parse_poly("x1[0,1]^2 - 4 * x1[0,0]", dual)
    # both variables offend: x1[0,2] as a delta-transform of the leader,
    # x1[1,1]^2 as a sigma-transform at the divisor's degree
    g = parse_poly("x1[0,2] + x1[1,1]^2", dual)
    summary = traced(lambda: reduction.is_reduced_wrt_set(g, [divisor]))
    assert "reduction.a_leader" not in summary["calls"]
    assert summary["counts"]["ordering.transform_of"] == 1
    summary = traced(lambda: reduction.a_leader(g, [divisor]))
    assert summary["calls"]["reduction.a_leader"] == 1
    assert summary["counts"]["ordering.transform_of"] == 2

    family = [parse_poly("x1[0,1] + x1[0,0]", dual),
              parse_poly("x1[0,2] + x1[0,0]^2", dual)]
    summary = traced(lambda: charset.charset_complete(family))
    calls, counts = summary["calls"], summary["counts"]
    assert calls["charset.complete"] == 1
    assert calls["reduction.a_leader"] == \
        calls["reduction.reduce"] + counts["reduction.steps"]
    assert counts["ordering.transform_of"] > 0


def test_tracer_counts_one_block_image_per_unit_step(monkeypatch, hs2):
    # each unit step of a composition is one public block_image call, so
    # the traced per-layer count reads the number of unit steps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    f = parse_poly("x1[0,0,0]^3 - 2 * x1[0,1,0] * x1[0,0,0] + 1", hs2)
    theta = (1, 2, 1)
    tracer = Tracer(lambda algebra: "hs2")
    tracer.install()
    try:
        apply_composition(f, theta)
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"]["operators.block_image"] == sum(theta)
