"""Command-line front end: build, transform, eval, check, enumerate.

Exit codes: 0 success (and in-class for ``check``), 1 not-in-class, 2 bad
input or usage.  Every subcommand that reads a matroid file validates it
on load (the exhaustive rank-axiom check), so a file that is not a
matroid exits 2.  All stdout output is deterministic for fixed inputs and
flags; progress and statistics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import catalog, transforms
from .core import ENUM_KINDS, Matroid, MatroidError
from .engine import Family, SearchConfig, evaluate, membership
from .fileio import (FormatError, format_element_lines, parse_elements, parse_int,
                     parse_matroid, write_certificate, write_matroid)

BUILDERS = ("uniform", "fano", "nonfano", "kinser-base", "kinser",
            "kinser-relaxed", "spike", "dowling")


def _load(path: str) -> Matroid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matroid(fh.read())


def _save(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_set_spec(M: Matroid, token: str) -> int:
    """One family set: '-', a comma list of elements, or '@Part+Part' layout refs."""
    token = token.strip()
    if token.startswith("@"):
        return M.parts(*token[1:].split("+"))
    return parse_elements(token)


def _build(args) -> int:
    name = args.name
    if name == "uniform":
        M = catalog.uniform(args.k, args.m)
    elif name == "fano":
        M = catalog.fano_pair()[0]
    elif name == "nonfano":
        M = catalog.fano_pair()[1]
    elif name == "kinser-base":
        M = catalog.kinser_base(args.r)
    elif name == "kinser":
        M = catalog.kinser(args.r)
    elif name == "kinser-relaxed":
        M = catalog.kinser_relaxed(args.r, args.also_relax)
    elif name == "spike":
        M = catalog.binary_spike(args.r)
    else:
        order = args.group[1:]
        if not (args.group.startswith("z") and order.isascii() and order.isdigit()):
            raise MatroidError(f"--group must be z and a decimal order, got {args.group!r}")
        M = catalog.dowling(int(order), args.n)
    _save(args.output, write_matroid(M))
    return 0


def _transform(args) -> int:
    M = _load(args.input)
    op = args.op
    if op == "dual":
        out = transforms.dual(M)
    elif op == "delete":
        out, _ = transforms.delete(M, args.element)
    elif op == "contract":
        out, _ = transforms.contract(M, args.element)
    elif op == "minor":
        out, _ = transforms.minor(M, parse_set_spec(M, args.delete),
                                  parse_set_spec(M, args.contract))
    elif op == "relax":
        out = transforms.relax(M, parse_set_spec(M, args.set))
    elif op == "tighten":
        out = transforms.tighten(M, parse_set_spec(M, args.set))
    elif op == "truncate":
        out = transforms.truncate(M)
    else:  # direct-sum
        other = _load(args.second)
        out, _, _ = transforms.direct_sum(M, other)
    _save(args.output, write_matroid(out))
    return 0


def _eval(args) -> int:
    M = _load(args.input)
    fam = Family(args.n, tuple(parse_set_spec(M, tok) for tok in args.family.split(";")))
    value = evaluate(M, fam)
    print(f"matroid {M.label or '?'}")
    print(f"n {fam.n}")
    print(f"lhs {value.lhs}")
    print(f"rhs {value.rhs}")
    print(f"satisfied {'true' if value.satisfied else 'false'}")
    sets = format_element_lines([t.mask for t in value.terms]).splitlines()
    for t, text in zip(value.terms, sets):
        print(f"term {t.side} {t.kind} X{'+X'.join(str(i) for i in t.members)} "
              f"rank={t.rank} set={text}")
    return 0


def _check(args) -> int:
    M = _load(args.input)
    if args.dual:
        M = transforms.dual(M)
    cfg = SearchConfig(space=("all_subsets" if args.space == "all" else "flats"),
                       symmetry_pruning=not args.no_prune,
                       parallel_width=args.parallel)
    t0 = time.perf_counter()
    verdict = membership(M, args.n, cfg)
    elapsed = time.perf_counter() - t0
    pairs = ("" if verdict.pairs is None
             else f" pairs={verdict.pairs}/{verdict.space_size ** 2}")
    print(f"search statistics: tuples={verdict.tuples_examined} "
          f"rank_queries={verdict.rank_queries}{pairs} "
          f"x1={verdict.x1_rows}/{verdict.space_size} seconds={elapsed:.2f}",
          file=sys.stderr)
    if verdict.in_class:
        print(f"in-class n={args.n} matroid={M.label or '?'}")
        return 0
    cert = verdict.certificate
    print(f"not-in-class n={args.n} matroid={M.label or '?'} "
          f"lhs={cert.lhs} rhs={cert.rhs}")
    if args.output:
        _save(args.output, write_certificate(cert))
    return 1


def _enumerate(args) -> int:
    M = _load(args.input)
    masks = M.enumerate(args.kind)
    sys.stdout.write(format_element_lines(masks))
    print(f"count {len(masks)}", file=sys.stderr)
    return 0


def integer(text: str) -> int:
    """An integer option, read as files read integers: an optional ASCII
    sign, then ASCII digits.  Its FormatError is a ValueError, so argparse
    refuses anything else as a usage error (exit 2)."""
    return parse_int(text, "integer")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kinser",
                                 description="Exact matroid computations and "
                                             "Kinser inequality checking")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a catalog matroid")
    b.add_argument("name", choices=BUILDERS)
    b.add_argument("--k", type=integer, default=0, help="uniform rank")
    b.add_argument("--m", type=integer, default=1, help="uniform ground size")
    b.add_argument("--r", type=integer, default=4, help="kinser/spike rank")
    b.add_argument("--also-relax", type=integer, default=None,
                   help="second relaxed part index for kinser-relaxed")
    b.add_argument("--group", default="z2", help="zN: the cyclic group of order N")
    b.add_argument("--n", type=integer, default=3, help="dowling vertex count")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=_build)

    t = sub.add_parser("transform", help="apply a matroid operation")
    t.add_argument("op", choices=("dual", "delete", "contract", "minor", "relax",
                                  "tighten", "truncate", "direct-sum"))
    t.add_argument("-i", "--input", required=True)
    t.add_argument("-o", "--output", default=None)
    t.add_argument("--element", type=integer, default=0)
    t.add_argument("--set", default="-", help="subset: elements or @Part+Part")
    t.add_argument("--delete", default="-", help="minor deletion set")
    t.add_argument("--contract", default="-", help="minor contraction set")
    t.add_argument("--with", dest="second", default=None, help="second operand file")
    t.set_defaults(func=_transform)

    e = sub.add_parser("eval", help="evaluate inequality n for a family")
    e.add_argument("-n", type=integer, required=True)
    e.add_argument("--family", required=True,
                   help="semicolon-separated sets, e.g. '0,1;2,3;@V3;-'; a value "
                        "that starts with '-' needs the '=' form, --family=-;1;2;3")
    e.add_argument("-i", "--input", required=True)
    e.set_defaults(func=_eval)

    c = sub.add_parser("check", help="decide Kinser class membership")
    c.add_argument("-n", type=integer, required=True)
    c.add_argument("-i", "--input", required=True)
    c.add_argument("--dual", action="store_true", help="check the dual matroid")
    c.add_argument("--space", choices=("flats", "all"), default="flats")
    c.add_argument("--no-prune", action="store_true",
                   help="scan every X1 row: disable the automorphism-orbit rule "
                        "on X1 and, at n=4, the slot-symmetry and "
                        "common-information rules")
    c.add_argument("--parallel", type=integer, default=1,
                   help="worker processes, at most the CPU count; the verdict "
                        "and every counter are the same at any width")
    c.add_argument("-o", "--output", default=None, help="certificate file")
    c.set_defaults(func=_check)

    en = sub.add_parser("enumerate", help="list flats, circuits, bases, ...")
    en.add_argument("--kind", choices=ENUM_KINDS, required=True)
    en.add_argument("-i", "--input", required=True)
    en.set_defaults(func=_enumerate)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check" and args.parallel < 1:
            raise MatroidError(f"--parallel must be at least 1, got {args.parallel}")
        if args.command == "transform" and args.op == "direct-sum" and not args.second:
            raise MatroidError("direct-sum needs --with FILE")
        return args.func(args)
    except (MatroidError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
