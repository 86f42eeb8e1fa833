"""Property tests of reduction under hypothesis, derandomised for repeatability.

Each example is drawn from a seed and an algebra by the shared generators
in gen.py, so hypothesis shrinks towards small seeds.
"""

import random

import pytest

from dstar.algebra import algebra_from_name
from dstar.ordering import SequentialRanking
from dstar.reduction import DivisorSet, certificate_to_json, reduce, verify_certificate

from gen import rand_poly, rand_reduction_instance

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ALGEBRAS = {name: algebra_from_name(name) for name in ("dual", "fields:2", "hs:2", "dd:1,1")}
SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)
instances = st.tuples(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2 ** 32 - 1))


def _instance(name, seed):
    d = ALGEBRAS[name]
    ranking = SequentialRanking(d)
    rng = random.Random(seed)
    g, divisors = rand_reduction_instance(rng, d, ranking)
    return rng, d, ranking, g, divisors


@SETTINGS
@given(instances)
def test_reduce_then_verify_holds(instance):
    _, _, ranking, g, divisors = _instance(*instance)
    cert = reduce(g, divisors, ranking)
    assert verify_certificate(g, divisors, cert, ranking)


@SETTINGS
@given(instances)
def test_list_and_divisor_set_give_identical_certificates(instance):
    rng, d, ranking, g, divisors = _instance(*instance)
    shared = DivisorSet(divisors, ranking)
    # fill the set's memos with another reduction first
    reduce(rand_poly(rng, d), shared)
    assert certificate_to_json(reduce(g, shared)) == \
        certificate_to_json(reduce(g, divisors, ranking))
