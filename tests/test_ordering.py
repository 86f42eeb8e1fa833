import random

import pytest

from dstar.errors import AlgebraMismatch, ExprParseError, IndexOutOfRange, InvalidRanking
from dstar.ordering import (
    EQUAL,
    GREATER,
    LESS,
    CustomRanking,
    DVariable,
    SequentialRanking,
    apply_slot,
    check_ranking_axioms,
    dickson_minimal,
    ord_delta,
    ord_i,
    parse_variable,
    transform_of,
)

from gen import rand_theta, rand_variable


def test_apply_slot(dual):
    x = DVariable(1, (0, 0))
    assert apply_slot(dual, x, 1, 0) == DVariable(1, (1, 0))
    assert apply_slot(dual, DVariable(1, (1, 2)), 1, 1) == DVariable(1, (1, 3))
    # order of application is irrelevant
    a = apply_slot(dual, apply_slot(dual, x, 1, 0), 1, 1)
    b = apply_slot(dual, apply_slot(dual, x, 1, 1), 1, 0)
    assert a == b


def test_orders(hs2):
    # sigma delta1 delta2 has order two, sigma alone order zero
    assert ord_delta(hs2, (1, 1, 1)) == 2
    assert ord_i(hs2, (1, 1, 1), 1) == 2
    assert ord_delta(hs2, (1, 0, 0)) == 0
    assert ord_i(hs2, (0, 0, 0), 1) == 0


def test_orders_multi_block(dd11):
    # layout (s1, d1.1, s2)
    assert ord_i(dd11, (2, 3, 1), 1) == 3
    assert ord_i(dd11, (2, 3, 1), 2) == 0
    assert ord_delta(dd11, (2, 3, 1)) == 3


def test_transform_of(dual):
    v = DVariable(1, (2, 1))
    u = DVariable(1, (0, 1))
    tr = transform_of(dual, v, u)
    assert tr.theta == (2, 0) and not tr.is_delta
    tr = transform_of(dual, DVariable(1, (0, 2)), DVariable(1, (0, 1)))
    assert tr.theta == (0, 1) and tr.is_delta
    assert transform_of(dual, DVariable(1, (0, 0)), DVariable(1, (1, 0))) is None
    assert transform_of(dual, DVariable(2, (1, 1)), DVariable(1, (0, 0))) is None
    # identity counts as a sigma-transform
    tr = transform_of(dual, u, u)
    assert tr.theta == (0, 0) and not tr.is_delta


def test_transform_of_rejects_a_variable_with_the_wrong_slot_count(dual):
    for v, u in ((DVariable(1, (0,)), DVariable(1, (0, 0))),
                 (DVariable(1, (0, 0)), DVariable(1, (0,)))):
        with pytest.raises(AlgebraMismatch) as exc:
            transform_of(dual, v, u)
        assert str(exc.value) == \
            f"variables {v}, {u} do not match an algebra with 2 slots"


def test_transform_of_matches_bruteforce(all_builtins):
    rng = random.Random(36)
    counts = {"sigma": 0, "delta": 0, None: 0}
    for label, d in all_builtins.items():
        # a slot p > 0 of its block is a delta slot, p = 0 the sigma slot
        delta_slots = [s for s, (_, p) in enumerate(d.slot_pairs()) if p > 0]
        for _ in range(300):
            u = rand_variable(rng, d, max_sum=2)
            pick = rng.random()
            if pick < 0.5:      # u itself, or a transform of it
                v = DVariable(u.var, tuple(
                    a + b for a, b in zip(u.theta, rand_theta(rng, d, 2))))
            elif pick < 0.7:    # the same theta on another indeterminate
                v = DVariable(u.var % 2 + 1, u.theta)
            else:
                v = rand_variable(rng, d, max_sum=2)
            theta = tuple(a - b for a, b in zip(v.theta, u.theta))
            if v.var != u.var or min(theta) < 0:
                expected = None
            else:
                expected = (theta, any(theta[s] > 0 for s in delta_slots))
            tr = transform_of(d, v, u)
            if expected is None:
                assert tr is None, (label, v, u)
                counts[None] += 1
            else:
                assert (tr.theta, tr.is_delta) == expected, (label, v, u)
                assert type(tr.theta) is tuple and type(tr.is_delta) is bool
                counts["delta" if tr.is_delta else "sigma"] += 1
            # one slot too few or too many in either argument, whether the
            # indeterminates match or not
            for bad in (v.theta[1:], v.theta + (0,)):
                for var in (u.var, u.var % 2 + 1):
                    w = DVariable(var, bad)
                    for args in ((w, u), (u, w)):
                        with pytest.raises(AlgebraMismatch):
                            transform_of(d, *args)
    assert min(counts.values()) > 100, counts


def test_sequential_compare_examples(dual):
    r = SequentialRanking(dual)
    assert r.compare(DVariable(1, (1, 0)), DVariable(1, (0, 1))) == LESS
    assert r.compare(DVariable(1, (0, 1)), DVariable(1, (0, 2))) == LESS
    assert r.compare(DVariable(1, (0, 1)), DVariable(2, (0, 1))) == LESS
    assert r.compare(DVariable(1, (0, 1)), DVariable(1, (0, 1))) == EQUAL
    assert r.compare(DVariable(1, (0, 2)), DVariable(1, (1, 1))) == GREATER
    with pytest.raises(AlgebraMismatch):
        r.compare(DVariable(1, (0, 1, 0)), DVariable(1, (0, 1)))


def test_ranking_axioms_all_builtins(all_builtins):
    rng = random.Random(3)
    for d in all_builtins.values():
        ranking = SequentialRanking(d)
        sample = [rand_variable(rng, d) for _ in range(25)]
        check_ranking_axioms(ranking, sample)


def test_total_order_on_random_triples(all_builtins):
    rng = random.Random(4)
    for d in all_builtins.values():
        r = SequentialRanking(d)
        for _ in range(200):
            a, b, c = (rand_variable(rng, d) for _ in range(3))
            # antisymmetry
            assert r.compare(a, b) == -r.compare(b, a)
            assert (r.compare(a, b) == EQUAL) == (a == b)
            # transitivity
            if r.compare(a, b) != GREATER and r.compare(b, c) != GREATER:
                assert r.compare(a, c) != GREATER


def test_sequentiality_predecessor_count(dual, hs2):
    rng = random.Random(5)
    for d in (dual, hs2):
        r = SequentialRanking(d)
        for _ in range(10):
            v = rand_variable(rng, d, n_vars=2, max_sum=2)
            below = _predecessors(d, r, v, 2, sum(v.theta))
            below_wider = _predecessors(d, r, v, 2, sum(v.theta) + 1)
            # nothing below v lives beyond the total-degree bound
            assert below == below_wider


def _predecessors(algebra, ranking, v, n_vars, bound):
    out = set()
    for var in range(1, n_vars + 1):
        for theta in _all_thetas(algebra.M, bound):
            w = DVariable(var, theta)
            if ranking.compare(w, v) == LESS:
                out.add(w)
    return out


def _all_thetas(width, bound):
    if width == 0:
        yield ()
        return
    for head in range(bound + 1):
        for rest in _all_thetas(width - 1, bound - head):
            yield (head,) + rest


def test_custom_ranking_validates(dual):
    rng = random.Random(6)
    sample = [rand_variable(rng, dual) for _ in range(20)]
    # variable index demoted below slots: still a valid ranking
    ok = CustomRanking(dual, lambda v: (sum(v.theta), tuple(reversed(v.theta)), v.var))
    check_ranking_axioms(ok, sample)
    # comparing the sigma slot before the delta slot breaks axiom 3
    broken = CustomRanking(dual, lambda v: (sum(v.theta), v.var, v.theta))
    with pytest.raises(InvalidRanking):
        check_ranking_axioms(broken, sample)


def test_ranking_checker_rejects_a_key_that_is_not_a_total_order(fields2):
    # fields:2 has one-element blocks, so axiom 3 is vacuous and this key used
    # to pass on any sample; charset_complete under it could then end in
    # NotAutoreduced, which is not one of its outcomes
    tied = CustomRanking(fields2, lambda v: sum(v.theta))
    sample = [DVariable(1, (0, 1)), DVariable(1, (1, 0))]
    with pytest.raises(InvalidRanking) as exc:
        check_ranking_axioms(tied, sample)
    assert str(exc.value) == "not a total order: x1[0,1] and x1[1,0] rank equal"
    rng = random.Random(7)
    with pytest.raises(InvalidRanking, match="^not a total order: "):
        check_ranking_axioms(tied, [rand_variable(rng, fields2) for _ in range(25)])
    # a variable repeated in the sample is not a tie
    check_ranking_axioms(SequentialRanking(fields2), sample + sample)


def test_ranking_checker_names_the_instance_that_breaks_axiom_1_or_2(dual):
    # both keys break axiom 3 as well, so only the message tells which check ran
    falling = CustomRanking(dual, lambda v: (-sum(v.theta), v.var, v.theta))
    with pytest.raises(InvalidRanking) as exc:
        check_ranking_axioms(falling, [DVariable(1, (0, 0))])
    assert str(exc.value) == "axiom 1 fails: x1[0,0] !< x1[1,0]"
    # the indeterminates' order flips once the delta slot is nonzero
    flipped = CustomRanking(dual, lambda v: (
        sum(v.theta), v.var if v.theta[1] == 0 else -v.var, v.theta))
    with pytest.raises(InvalidRanking) as exc:
        check_ranking_axioms(flipped, [DVariable(1, (0, 0)), DVariable(2, (0, 0))])
    assert str(exc.value) == ("axiom 2 fails at slot (1,1): x1[0,0] < x2[0,0] "
                              "but x1[0,1] !< x2[0,1]")


def test_variable_parse_and_print(dual):
    v = parse_variable("x1[0,2]", dual)
    assert v == DVariable(1, (0, 2))
    assert str(v) == "x1[0,2]"
    with pytest.raises(ExprParseError):
        parse_variable("x1[0,2,0]", dual)
    with pytest.raises(ExprParseError):
        parse_variable("y1[0,2]")
    with pytest.raises(ExprParseError):
        parse_variable("x0[0,0]")


def test_dickson_examples():
    assert set(dickson_minimal([(1, 0), (0, 1), (1, 1)])) == {(1, 0), (0, 1)}
    assert dickson_minimal([]) == []
    assert dickson_minimal([(2, 2)]) == [(2, 2)]


def test_dickson_minimal_judges_each_multi_index():
    # at the first index's width: a negative or non-int entry, a value that
    # is no sequence and a width of its own are the judge's errors
    for indices, error, message in (
            ([(-1, 0), (0, 0)], IndexOutOfRange, r"^multi-index \[-1, 0\] has a negative entry$"),
            ([(0, "a")], IndexOutOfRange, r"^multi-index \[0, 'a'\] has a non-int entry$"),
            ([(0, 0), (True, 0)], IndexOutOfRange, r"has a non-int entry$"),
            ([(0, 0), 3], IndexOutOfRange, r"^multi-index 3 is not a tuple or list$"),
            ([(0, 0), (1, 2, 3)], AlgebraMismatch,
             r"^multi-index has 3 slots, the first multi-index has 2$")):
        with pytest.raises(error, match=message):
            dickson_minimal(indices)
    # a list is a multi-index too, returned as a tuple
    assert dickson_minimal([[1, 0], (0, 1), (1, 1)]) == [(0, 1), (1, 0)]


def _dickson_oracle(points):
    points = list(set(points))
    out = []
    for p in points:
        dominated = any(q != p and all(a <= b for a, b in zip(q, p))
                        for q in points)
        if not dominated:
            out.append(p)
    return out


def test_dickson_random_against_oracle():
    rng = random.Random(7)
    for _ in range(50):
        pts = [tuple(rng.randint(0, 5) for _ in range(4))
               for _ in range(rng.randint(0, 40))]
        fast = dickson_minimal(pts)
        slow = _dickson_oracle(pts)
        assert set(fast) == set(slow)
        # every input point dominates some returned minimum
        for p in pts:
            assert any(all(a <= b for a, b in zip(q, p)) for q in fast)


def test_theta_generator_shapes(dual):
    rng = random.Random(8)
    for _ in range(100):
        theta = rand_theta(rng, dual, 3)
        assert len(theta) == dual.M and sum(theta) <= 3
