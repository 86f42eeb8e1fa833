"""Digest the charset outputs that the benchmark's pins do not cover.

    python3 tools/outputs_digest.py

Completes the 2001 charset-workload families (the pinned pool plus the
prolonged dd:1,1 family, both from perfbench/inputs.py, which is only
imported) under the sequential ranking, and prints one SHA-256 line each
over every certificate_to_json, every round trace, and every raised
exception's name and message.  The pins hash only the charsets, so equal
lines from two checkouts show that a change kept the certificates, the
traces and the exceptions too.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    sys.path.insert(0, str(path))

import inputs  # noqa: E402  (perfbench/inputs.py)
from dstar import SequentialRanking, charset_complete, format_poly  # noqa: E402
from dstar.errors import DStarError  # noqa: E402
from dstar.reduction import certificate_to_json  # noqa: E402


def families():
    """(name, generators, ranking) for every charset-workload family."""
    algebras = inputs.make_algebras()
    out = [("prolonged", inputs.prolonged_family(algebras), "dd:1,1")]
    out += [(f"{label}#{index}", family, label)
            for label, index, family in inputs.charset_pool(algebras)]
    return [(name, family, SequentialRanking(algebras[label]))
            for name, family, label in out]


def main():
    digests = {key: hashlib.sha256() for key in ("certificates", "traces", "exceptions")}
    counts = dict.fromkeys(digests, 0)

    def record(key, name, text):
        digests[key].update(f"{name}\n{text}\n".encode())
        counts[key] += 1

    items = families()
    for name, family, ranking in items:
        try:
            result = charset_complete(family, ranking)
        except DStarError as exc:
            record("exceptions", name, f"{type(exc).__name__}: {exc}")
            continue
        for cert in result.certificates:
            record("certificates", name, certificate_to_json(cert))
        for entry in result.completion_trace:
            record("traces", name, "\n".join(
                [f"round {entry.round}"]
                + ["selected " + format_poly(f) for f in entry.selected]
                + ["added " + format_poly(f) for f in entry.remainders_added]))
    print(f"families {len(items)}")
    for key, h in digests.items():
        print(f"{key} {counts[key]} {h.hexdigest()}")


if __name__ == "__main__":
    main()
