"""The four benchmark workloads: inputs, one operation, and its output check.

Each workload builds its items in setup(), runs one operation per item in
run(), and judges an output in check() against references pinned in
refs/<workload>.json, never against the code under test alone.
reference() gives the pinned form of an output: a digest for the large
ones, the text itself for the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from dstar import (
    SequentialRanking,
    apply_composition,
    charset_complete,
    format_poly,
    parse_operator,
    project_to_differential,
    reduce,
    verify_certificate,
)
from dstar.classical import DiffPolynomial, DiffVar
from dstar.errors import InconsistentSystem
from dstar.reduction import certificate_to_json

import inputs

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
WORK = HERE / ".work"          # scratch files of the CLI workload (git-ignored)


def digest(text):
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def child_env():
    """Environment for a child Python that imports dstar from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env


def load_refs(name):
    path = REFS / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class ReduceC6:
    """The criterion-6 stream: reduce followed by verify_certificate."""

    name = "reduce-c6"

    def setup(self):
        algebras = inputs.make_algebras()
        rankings = {label: SequentialRanking(a) for label, a in algebras.items()}
        self.items = [(f"{label}#{index}", g, divisors, rankings[label])
                      for label, index, g, divisors in inputs.reduction_stream(algebras)]

    def warm_up(self):
        for item in self.items[:20]:
            self.run(item)

    def run(self, item):
        _, g, divisors, ranking = item
        cert = reduce(g, divisors, ranking)
        return cert, verify_certificate(g, divisors, cert, ranking)

    def reference(self, item, output):
        return digest(certificate_to_json(output[0]))

    def check(self, item, output, refs):
        cert, verified = output
        return verified and self.reference(item, output) == refs[item[0]]


class ApplyTower:
    """d^k applied to x1^k: block-image rebuilding and powering only."""

    name = "apply-tower"
    rounds = 7      # each pass applies every tower this many times

    def setup(self):
        algebras = inputs.make_algebras()
        towers = [(name, label, k, parse_operator(op, algebras[label]), f)
                  for name, label, op, k, f in inputs.tower_inputs(algebras)]
        self.items = towers * self.rounds
        self._oracle = {}

    def warm_up(self):
        self.run(self.items[0])

    def run(self, item):
        _, _, _, theta, f = item
        return apply_composition(f, theta)

    def reference(self, item, output):
        return digest(format_poly(output))

    def check(self, item, output, refs):
        name, label, k, _, _ = item
        if self.reference(item, output) != refs[name]:
            return False
        if label != "dual":
            return True
        # independent classical oracle: d^k (x^k) = k-th derivative of x^k
        if k not in self._oracle:
            x = DiffPolynomial.from_variable(DiffVar(0, 1))
            self._oracle[k] = (x ** k).nth_derivative(k)
        return project_to_differential(output) == self._oracle[k]


class Charset:
    """charset_complete of a pinned pool of small families plus one prolonged family."""

    name = "charset"
    rounds = 2      # each pass completes every pool family this many times

    def setup(self):
        algebras = inputs.make_algebras()
        rankings = {label: SequentialRanking(a) for label, a in algebras.items()}
        pool = [(f"{label}#{index}", family, rankings[label])
                for label, index, family in inputs.charset_pool(algebras)]
        self.items = [("prolonged", inputs.prolonged_family(algebras), rankings["dd:1,1"])]
        self.items += pool * self.rounds

    def warm_up(self):
        for item in self.items[1:21]:
            self.run(item)

    def run(self, item):
        _, family, ranking = item
        try:
            return charset_complete(family, ranking)
        except InconsistentSystem as exc:     # documented outcome, pinned like a result
            return exc

    def reference(self, item, output):
        if isinstance(output, Exception):
            return "raises " + type(output).__name__
        return digest("\n".join(format_poly(f) for f in output.charset))

    def check(self, item, output, refs):
        return self.reference(item, output) == refs[item[0]]


CLI_FILES = {
    "divisors.txt": "x1[0,1]^2 - 4 * x1[0,0]\n",
    "gens.txt": "x1[0,1] + x1[0,0]\nx1[0,2] + x1[0,0]^2\n",
    "closure_gens.txt": "x1[0,0] * x1[1,0]\n",
    "witness.json": json.dumps({
        "a": "x1[0,0]",
        "taus": [[0, 0], [1, 0]],
        "exponents": [1, 1],
        "combination": [{"c": "1", "theta": [0, 0], "member": 0}],
    }) + "\n",
}
# the six subcommands of the README, on small fixed inputs
CLI_CASES = (
    ("algebra-check", ["algebra-check", "hs:2"]),
    ("rank", ["rank", "--algebra", "dual", "x1[1,0]", "x1[0,1]"]),
    ("apply", ["apply", "--algebra", "dual", "--op", "d1.1", "x1[0,0]^2"]),
    ("reduce", ["reduce", "--algebra", "dual", "--set", "divisors.txt", "x1[0,2]",
                "--cert", "cert.json"]),
    ("charset", ["charset", "--algebra", "dual", "--gens", "gens.txt", "--trace"]),
    ("closure-check", ["closure-check", "--algebra", "dual", "--gens", "closure_gens.txt",
                       "--witness", "witness.json"]),
)


class CliCold:
    """Sequential cold `python -m dstar.cli` processes, one at a time."""

    name = "cli-cold"
    cycles = 10     # each pass runs every subcommand this many times

    def __init__(self):
        self.prefix = [sys.executable, "-m", "dstar.cli"]
        self.child_summaries = None

    def trace_children(self):
        """Run later commands under the tracer and collect their summaries."""
        self.prefix = [sys.executable, str(HERE / "cli_child.py"), str(WORK / "child-trace.json")]
        self.child_summaries = []

    def setup(self):
        WORK.mkdir(exist_ok=True)
        for name, text in CLI_FILES.items():
            (WORK / name).write_text(text, encoding="utf-8")
        self.items = list(CLI_CASES) * self.cycles

    def warm_up(self):
        self.run(CLI_CASES[0])

    def run(self, item):
        _, argv = item
        cert = WORK / "cert.json"
        if cert.exists():
            cert.unlink()
        proc = subprocess.run(self.prefix + argv, cwd=WORK, env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
        written = cert.read_bytes() if cert.exists() else b""
        if self.child_summaries is not None:
            self.child_summaries.append(
                json.loads((WORK / "child-trace.json").read_text(encoding="utf-8")))
        return proc.returncode, proc.stdout, written

    def reference(self, item, output):
        code, stdout, written = output
        return {"exit": code, "stdout": stdout.decode("utf-8", "surrogateescape"),
                "cert": written.decode("utf-8", "surrogateescape")}

    def check(self, item, output, refs):
        return self.reference(item, output) == refs[item[0]]


WORKLOADS = {cls.name: cls for cls in (ReduceC6, ApplyTower, Charset, CliCold)}
