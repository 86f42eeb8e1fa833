"""Span tracer installed around dstar's public functions from outside.

Each wrapped function records a span (name, parent span, start, end) in
flat in-memory arrays; self time is computed at the end as a span's
duration minus the time its direct child spans cover.  Wrappers are
installed on every module attribute and class attribute that is bound to
the original function, because dstar's modules import names from each
other (reduction, charset and cli hold their own references to
apply_composition, reduce and friends).

Only the size of results and a few call counts are measured besides
spans; nothing here changes a result.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import dstar
from dstar import CustomRanking, DPolynomial, Monomial, SequentialRanking
from dstar import charset as _charset
from dstar import operators as _operators
from dstar import ordering as _ordering
from dstar import parser as _parser
from dstar import poly as _poly
from dstar import reduction as _reduction

# span name -> (owner, attribute) of the original; an owner that is a class
# is patched on the class, a module owner on every module bound to it
SPANS = {
    "poly.mul": (DPolynomial, "__mul__"),
    "poly.add": (DPolynomial, "__add__"),
    "poly.radd": (DPolynomial, "__radd__"),
    "poly.sub": (DPolynomial, "__sub__"),
    "poly.format": (_poly, "format_poly"),
    "operators.apply_composition": (_operators, "apply_composition"),
    "operators.block_image": (_operators, "block_image"),
    "reduction.a_leader": (_reduction, "a_leader"),
    "reduction.reduce": (_reduction, "reduce"),
    "reduction.verify": (_reduction, "verify_certificate"),
    "charset.complete": (_charset, "charset_complete"),
    "parser.parse": (_parser, "parse_poly"),
    "algebra.validate": (dstar.algebra, "validate_algebra"),
}
# counted calls without a span
COUNTS = {
    "poly.monomial_mul": (Monomial, "mul"),
    "ordering.compare.sequential": (SequentialRanking, "compare"),
    "ordering.compare.custom": (CustomRanking, "compare"),
    "ordering.transform_of": (_ordering, "transform_of"),
    "reduction.is_reduced": (_reduction, "is_reduced"),
    "charset.rounds": (_charset, "validate_autoreduced"),
    "charset.round_trace": (_charset, "RoundTrace"),
}
SIZED = {"poly.mul", "poly.add", "poly.radd", "poly.sub"}


def coeff_bits(poly):
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    """Spans, counts and peak result sizes for one traced phase."""

    def __init__(self, algebra_label):
        self.algebra_label = algebra_label  # DAlgebra -> metric label
        self.names = list(SPANS)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.by_algebra = defaultdict(float)   # "reduce.dual" -> inclusive seconds
        self.peak_terms = 0
        self.peak_coeff_bits = 0
        self.enabled = True
        self._patches = []

    # -- recording -------------------------------------------------------

    def _parent_name(self):
        parent = self._stack[-1]
        return None if parent < 0 else self.names[self.span_name[parent]]

    def _span_wrapper(self, name, fn):
        nid = self._ids[name]
        sized = name in SIZED
        names, span_name = self.names, self.span_name
        parent_arr, start_arr, end_arr = self.span_parent, self.span_start, self.span_end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1]
            parent_name = None if parent < 0 else names[span_name[parent]]
            if name == "poly.mul" and parent_name == "reduction.reduce":
                counts["reduction.reduce.mul_calls"] += 1
            elif name == "reduction.reduce" and parent_name == "charset.complete":
                counts["charset.reduce.calls"] += 1
            idx = len(span_name)
            span_name.append(nid)
            parent_arr.append(parent)
            end_arr.append(0.0)
            stack.append(idx)
            start = perf_counter()
            start_arr.append(start)
            try:
                result = fn(*args, **kwargs)
                if sized and isinstance(result, DPolynomial):
                    self._observe(result)
            finally:
                end = perf_counter()
                end_arr[idx] = end
                stack.pop()
            if name == "reduction.reduce":
                counts["reduction.steps"] += len(result.steps)
                self.by_algebra["reduce." + self.algebra_label(args[0].algebra)] += end - start
            elif name == "reduction.verify":
                self.by_algebra["verify." + self.algebra_label(args[0].algebra)] += end - start
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                if name == "charset.round_trace":
                    counts["charset.added"] += len(args[2])
                elif name != "charset.rounds" or self._parent_name() == "charset.complete":
                    counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, poly):
        n = len(poly.terms)
        if n > self.peak_terms:
            self.peak_terms = n
        bits = coeff_bits(poly)
        if bits > self.peak_coeff_bits:
            self.peak_coeff_bits = bits

    # -- installation ----------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, (owner, attr) in table.items():
                original = getattr(owner, attr)
                wrapper = make(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    for key, value in list(getattr(module, "__dict__", {}).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run harness code (output checks) without recording it."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- results ---------------------------------------------------------

    def summary(self):
        """Aggregates that merge across processes: calls, times, peaks."""
        count = len(self.span_name)
        child = [0.0] * count
        for k in range(count):
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += self.span_end[k] - self.span_start[k]
        calls = defaultdict(int)
        total_s = defaultdict(float)
        self_s = defaultdict(float)
        for k in range(count):
            name = self.names[self.span_name[k]]
            duration = self.span_end[k] - self.span_start[k]
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += duration - child[k]
        return {
            "calls": dict(calls),
            "total_s": dict(total_s),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "by_algebra": dict(self.by_algebra),
            "peak_terms": self.peak_terms,
            "peak_coeff_bits": self.peak_coeff_bits,
        }

    def write_spans(self, path):
        """Write every span as 'id parent name start end' lines."""
        with open(path, "w", encoding="utf-8") as out:
            for k in range(len(self.span_name)):
                out.write(f"{k}\t{self.span_parent[k]}\t{self.names[self.span_name[k]]}\t"
                          f"{self.span_start[k]:.9f}\t{self.span_end[k]:.9f}\n")


def merge_summaries(summaries):
    merged = {"calls": defaultdict(int), "total_s": defaultdict(float),
              "self_s": defaultdict(float), "counts": defaultdict(int),
              "by_algebra": defaultdict(float), "peak_terms": 0, "peak_coeff_bits": 0}
    for s in summaries:
        for key in ("calls", "total_s", "self_s", "counts", "by_algebra"):
            for name, value in s[key].items():
                merged[key][name] += value
        merged["peak_terms"] = max(merged["peak_terms"], s["peak_terms"])
        merged["peak_coeff_bits"] = max(merged["peak_coeff_bits"], s["peak_coeff_bits"])
    return merged
