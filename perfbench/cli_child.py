"""Run one dstar CLI command under the tracer and save the trace summary.

    python3 perfbench/cli_child.py SUMMARY.json <dstar arguments...>

Used by the traced run of the cli-cold workload.  Standard output and the
exit code are those of `python -m dstar.cli <dstar arguments...>`.
"""

import json
import sys

import inputs
from tracer import Tracer


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(inputs.algebra_labeler(inputs.make_algebras()))
    tracer.install()
    from dstar import cli
    try:
        code = cli.main(argv)
    except SystemExit as exc:       # argparse usage errors
        code = exc.code
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as out:
            json.dump(tracer.summary(), out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
