"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import bilinear, biquandle
from .errors import BilbiqError, CapacityExceeded, ParseError
from .modular import carrier_bound

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _load_diagram(args):
    # gauss and invariant are imported by the commands that color a link
    # only, so the other commands never compile them.
    from . import gauss

    if args.link is not None:
        return gauss.builtin_link(args.link)
    return gauss.parse_gauss(args.gauss)


def cmd_search(args) -> int:
    specs = bilinear.search(args.n, args.m, exclude_symplectic=not args.include_symplectic)
    for spec in specs:
        print(bilinear.format_spec(spec))
    print(f"found {len(specs)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.spec is not None:
        spec = bilinear.parse_spec(args.spec)
        bq = bilinear.build_bilinear(spec)
    else:
        with open(args.matrix_file) as fh:
            bq = biquandle.block_matrix_decode(fh.read())
    report = biquandle.check_axioms(bq)
    for k in range(1, 5):
        violation = report.violations[k - 1]
        if violation is None:
            print(f"axiom{k}: pass")
        else:
            elems = ",".join(str(e) for e in violation.elements)
            print(f"axiom{k}: fail (witness {elems}; {violation.equation})")
    return EXIT_OK if report.all_pass else EXIT_VERIFY_FAIL


def cmd_matrix(args) -> int:
    if args.alexander is not None:
        try:
            n, s, t = (int(p) for p in args.alexander.split(","))
        except ValueError:
            raise ParseError(f"expected n,s,t after --alexander, got {args.alexander!r}")
        bq = biquandle.alexander_biquandle(n, s, t)
    else:
        spec = bilinear.parse_spec(args.spec)
        bq = bilinear.build_bilinear(spec)
    sys.stdout.write(biquandle.block_matrix_encode(bq))
    return EXIT_OK


def cmd_invariant(args) -> int:
    from . import invariant

    diagram = _load_diagram(args)
    spec = bilinear.parse_spec(args.spec)
    poly = invariant.phi_bb(diagram, spec)
    print(f"phi = {poly.to_string()}")
    print(f"hom = {poly.specialize(1, 1)}")
    return EXIT_OK


def cmd_color(args) -> int:
    from . import invariant

    if args.limit is not None and args.limit < 0:
        raise ParseError(f"--limit must be >= 0, got {args.limit}")
    diagram = _load_diagram(args)
    target = bilinear.checked_tables(bilinear.parse_spec(args.spec))
    labels = ["(" + ",".join(map(str, v)) + ")" for v in target.carrier]
    # Each line is written as the sorted stream gives it, and counted:
    # zip stops at the stream's end before it takes from the counter.
    counter = itertools.count()
    stream = zip(invariant._sorted_colorings(diagram, target, args.limit), counter)
    sys.stdout.writelines(" ".join(map(labels.__getitem__, c)) + "\n" for c, _ in stream)
    # Only a stream cut at the limit can leave colorings out, so only
    # then is the link colored a second time, to count them.
    if next(counter) == args.limit:
        rest = invariant.counting_invariant(diagram, target) - args.limit
        if rest:
            print(f"... ({rest} more)")
    return EXIT_OK


def cmd_table(args) -> int:
    # Refuse a cardinality past the carrier bound before listing the
    # (n, m) pairs up to it: the listing alone takes sqrt(max) steps.
    bound = carrier_bound()
    if args.max_cardinality > bound:
        raise CapacityExceeded(f"max cardinality {args.max_cardinality} exceeds bound {bound}")
    pairs = []
    n = 2
    while n * n <= args.max_cardinality:
        m = 2
        while n**m <= args.max_cardinality:
            pairs.append((n, m))
            m += 1
        n += 1
    pairs.sort(key=lambda nm: (nm[0] ** nm[1], nm[0]))
    # Every search runs before anything is printed, so a capacity stop
    # leaves stdout empty.  A bilinear spec is a quandle iff beta = 1.
    specs = [spec for n, m in pairs for spec in bilinear.search(n, m)]
    for spec in specs:
        flag = "true" if spec.beta == 1 else "false"
        print(f"{bilinear.format_spec(spec)} is_quandle={flag}")
    print(f"found {len(specs)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bilbiq")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="enumerate bilinear biquandle structures on (Z_n)^m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--include-symplectic", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="check the four biquandle axioms")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec")
    src.add_argument("--matrix-file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrix", help="print the block operation matrix")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec")
    src.add_argument("--alexander", metavar="N,S,T")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("invariant", help="coloring polynomial and count of a link")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--link")
    src.add_argument("--gauss")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("color", help="list colorings of a link")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--link")
    src.add_argument("--gauss")
    p.add_argument("--spec", required=True)
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("table", help="all structures up to a cardinality bound")
    p.add_argument("--max-cardinality", type=int, default=27)
    p.set_defaults(func=cmd_table)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (BilbiqError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
