"""Batch command-line front end.

Subcommands: algebra-check, rank, apply, reduce, charset, closure-check.
Output is deterministic byte-for-byte; exit code 0 on success, 1 for
domain or validation errors (message on stderr), 2 for parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# every subcommand loads its algebra; each handler imports the engine it runs,
# so a cold process compiles only those modules
from .algebra import BUILTIN_NAMES, algebra_from_name, load_spec, validate_algebra
from .errors import BadWitness, DStarError, ExprParseError, UnknownBuiltin
from .ordering import EQUAL, LESS, parse_variable, SequentialRanking


def _load_algebra(arg):
    """A valid builtin name wins; any other existing path loads as a file."""
    try:
        return algebra_from_name(arg)
    except UnknownBuiltin:
        head, colon, _ = arg.partition(":")
        # a failed builtin-like name stays a builtin error unless a file has it
        if colon and head in BUILTIN_NAMES and not os.path.exists(arg):
            raise
    return validate_algebra(load_spec(_read(arg, "algebra file")))


def _read(path, kind="file"):
    """The text of a file; a missing or unreadable one is exit 1, bad UTF-8 exit 2."""
    p = Path(path)
    try:
        if not p.exists():
            raise DStarError(f"{kind} {path!r} not found")
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode, so they give its position
        before = exc.object[:exc.start].decode("utf-8")
        raise ExprParseError(f"file {path!r} is not UTF-8 text",
                             before.count("\n") + 1, len(before) - before.rfind("\n"))
    except OSError as exc:
        raise DStarError(f"cannot read {path!r}: {exc.strerror}")


def _cmd_algebra_check(algebra, args, out):
    print(f"blocks: {algebra.t}", file=out)
    print(f"slots: {', '.join(algebra.op_names)}", file=out)
    for i, block in enumerate(algebra.blocks, start=1):
        basis = ", ".join(block.names)
        print(f"block {i}: basis {basis} (unit {block.names[0]})", file=out)
        if block.m:
            print(f"  nu: {', '.join(str(v) for v in block.nu)}", file=out)
        for j in range(1, block.m + 1):
            pairs = sorted(algebra.gamma(i, j))
            body = ", ".join(f"({p},{q})" for p, q in pairs)
            print(f"  gamma({j}) = {{{body}}}", file=out)
        for j, p, q, coeff in sorted((j, p, q, coeff) for p in range(1, block.m + 1)
                                     for q in range(1, block.m + 1)
                                     for j, coeff in block.table[p][q]):
            print(f"  alpha({j};{p},{q}) = {coeff}", file=out)
    print("ok", file=out)
    return 0


def _cmd_rank(algebra, args, out):
    v = parse_variable(args.v1, algebra)
    w = parse_variable(args.v2, algebra)
    cmp = SequentialRanking(algebra).compare(v, w)
    print("LESS" if cmp == LESS else "EQUAL" if cmp == EQUAL else "GREATER",
          file=out)
    return 0


def _cmd_apply(algebra, args, out):
    from .operators import apply_composition, parse_operator
    from .parser import parse_poly
    from .poly import format_poly
    theta = parse_operator(args.op, algebra)
    f = parse_poly(args.expr, algebra)
    print(format_poly(apply_composition(f, theta)), file=out)
    return 0


def _cmd_reduce(algebra, args, out):
    from .parser import parse_generator_file, parse_poly
    from .poly import format_poly
    from .reduction import _verified_multiplier, certificate_to_json, reduce
    divisors = parse_generator_file(_read(args.set), algebra)
    ranking = SequentialRanking(algebra)    # one object: every call shares one set
    g = parse_poly(args.expr, algebra)
    cert = reduce(g, divisors, ranking)
    h = _verified_multiplier(g, divisors, cert, ranking)    # the H the check formed
    if h is None:
        raise DStarError("internal: reduction certificate failed verification")
    if args.cert:   # written first, so a failed write prints no result
        try:
            Path(args.cert).write_text(certificate_to_json(cert) + "\n",
                                       encoding="utf-8")
        except OSError as exc:
            raise DStarError(f"cannot write {args.cert!r}: {exc.strerror}")
    print(f"g0 = {format_poly(cert.remainder)}", file=out)
    print(f"H = {format_poly(h)}", file=out)
    return 0


def _cmd_charset(algebra, args, out):
    from .charset import charset_complete
    from .parser import parse_generator_file
    from .poly import format_poly
    generators = parse_generator_file(_read(args.gens), algebra)
    result = charset_complete(generators)
    if args.trace:
        for entry in result.completion_trace:
            print(f"round {entry.round}: selected {len(entry.selected)}, "
                  f"new remainders {len(entry.remainders_added)}", file=out)
            for f in entry.remainders_added:
                print(f"  + {format_poly(f)}", file=out)
    count = len(result.charset)
    print(f"charset ({count} member{'s' if count != 1 else ''}):", file=out)
    for f in result.charset:
        print(format_poly(f), file=out)
    return 0


def _cmd_closure_check(algebra, args, out):
    from .charset import closure_step_witness, witness_from_json
    from .parser import parse_generator_file
    from .poly import format_poly
    generators = parse_generator_file(_read(args.gens), algebra)
    witness = witness_from_json(_read(args.witness), algebra)
    try:
        accepted = closure_step_witness(generators, witness)
    except BadWitness as exc:
        print(f"Reject: {exc}", file=out)
        return 1
    print(f"Accept: {format_poly(accepted)}", file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dstar",
        description="polynomial rings with commuting generalised "
                    "Hasse-Schmidt operators")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand works over one algebra; algebra-check takes it as its file
    with_algebra = argparse.ArgumentParser(add_help=False)
    with_algebra.add_argument("--algebra", required=True)

    p = sub.add_parser("algebra-check", help="validate an algebra description")
    p.add_argument("algebra", metavar="file", help="algebra JSON file or builtin name")
    p.set_defaults(handler=_cmd_algebra_check)

    p = sub.add_parser("rank", parents=[with_algebra], help="compare two variables")
    p.add_argument("v1")
    p.add_argument("v2")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("apply", parents=[with_algebra],
                       help="apply an operator to an expression")
    p.add_argument("--op", required=True)
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("reduce", parents=[with_algebra],
                       help="reduce an expression modulo a set")
    p.add_argument("--set", required=True, dest="set")
    p.add_argument("--cert", help="write the reduction certificate JSON here")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("charset", parents=[with_algebra],
                       help="characteristic set of a generator file")
    p.add_argument("--gens", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_charset)

    p = sub.add_parser("closure-check", parents=[with_algebra],
                       help="check a perfect-closure witness")
    p.add_argument("--gens", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(handler=_cmd_closure_check)
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(_load_algebra(args.algebra), args, out)
    except ExprParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 2
    except DStarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
