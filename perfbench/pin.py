"""Pin the reference outputs in refs/ from the current sources.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs every distinct item of each workload once and writes
refs/<workload>.json, mapping the item key to the digest of its output
(certificate JSON, format_poly text, charset members or raised exception
type, CLI exit code and output bytes).  Only re-pin at a commit whose
outputs are known to be right: the benchmark counts any later difference
as a failed operation.  Pinning refuses an output that fails the checks
that do not need a reference (verify_certificate, the classical oracle).
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import REFS, WORKLOADS  # noqa: E402


def pin(name):
    workload = WORKLOADS[name]()
    workload.setup()
    refs = {}
    for item in workload.items:
        key = item[0]
        if key in refs:
            continue
        output = workload.run(item)
        refs[key] = workload.reference(item, output)
        if not workload.check(item, output, refs):
            raise SystemExit(f"pin: {name} {key} fails its reference-free check")
    REFS.mkdir(exist_ok=True)
    path = REFS / f"{name}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{name}: pinned {len(refs)} outputs in {path.name}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        pin(name)
