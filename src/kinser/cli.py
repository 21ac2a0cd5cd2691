"""Command-line front end: build, transform, eval, check, enumerate.

Exit codes: 0 success (and in-class for ``check``), 1 not-in-class, 2 bad
input or usage.  Every subcommand that reads a matroid file validates it
on load (the exhaustive rank-axiom check), so a file that is not a
matroid exits 2.  All stdout output is deterministic for fixed inputs and
flags; progress and statistics go to stderr.

Each ``main`` call builds its parser afresh from the ``COMMANDS`` table,
with only the invoked subcommand's subparser: a census runs many small
``kinser check`` processes, and the other four subparsers would add about
1 ms to each (``build_parser``).
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


def _group_order(token: str) -> int:
    """The order N of a Dowling --group token zN."""
    order = token[1:]
    if not (token.startswith("z") and order.isascii() and order.isdigit()):
        raise MatroidError(f"--group must be z and a decimal order, got {token!r}")
    return int(order)


# The build names and transform ops, each with its call.  Every entry looks
# its function up on catalog or transforms when it runs, so that a wrapper
# bound to that module attribute later (a tracer's, say) is the one called.
BUILDERS = {
    "uniform": lambda a: catalog.uniform(a.k, a.m),
    "fano": lambda a: catalog.fano_pair()[0],
    "nonfano": lambda a: catalog.fano_pair()[1],
    "kinser-base": lambda a: catalog.kinser_base(a.r),
    "kinser": lambda a: catalog.kinser(a.r),
    "kinser-relaxed": lambda a: catalog.kinser_relaxed(a.r, a.also_relax),
    "spike": lambda a: catalog.binary_spike(a.r),
    "dowling": lambda a: catalog.dowling(_group_order(a.group), a.n),
}
TRANSFORMS = {
    "dual": lambda M, a: transforms.dual(M),
    "delete": lambda M, a: transforms.delete(M, a.element)[0],
    "contract": lambda M, a: transforms.contract(M, a.element)[0],
    "minor": lambda M, a: transforms.minor(M, parse_set_spec(M, a.delete),
                                           parse_set_spec(M, a.contract))[0],
    "relax": lambda M, a: transforms.relax(M, parse_set_spec(M, a.set)),
    "tighten": lambda M, a: transforms.tighten(M, parse_set_spec(M, a.set)),
    "truncate": lambda M, a: transforms.truncate(M),
    "direct-sum": lambda M, a: transforms.direct_sum(M, _load(a.second))[0],
}


def _build(args) -> int:
    _save(args.output, write_matroid(BUILDERS[args.name](args)))
    return 0


def _transform(args) -> int:
    M = _load(args.input)
    _save(args.output, write_matroid(TRANSFORMS[args.op](M, args)))
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


# name -> (help, handler, add_argument specs as (flags, options)), in the
# order ``kinser -h`` lists them
COMMANDS = {
    "build": ("construct a catalog matroid", _build, [
        (("name",), dict(choices=BUILDERS)),
        (("--k",), dict(type=integer, default=0, help="uniform rank")),
        (("--m",), dict(type=integer, default=1, help="uniform ground size")),
        (("--r",), dict(type=integer, default=4, help="kinser/spike rank")),
        (("--also-relax",), dict(type=integer, default=None,
                                 help="second relaxed part index for kinser-relaxed")),
        (("--group",), dict(default="z2", help="zN: the cyclic group of order N")),
        (("--n",), dict(type=integer, default=3, help="dowling vertex count")),
        (("-o", "--output"), dict(default=None)),
    ]),
    "transform": ("apply a matroid operation", _transform, [
        (("op",), dict(choices=TRANSFORMS)),
        (("-i", "--input"), dict(required=True)),
        (("-o", "--output"), dict(default=None)),
        (("--element",), dict(type=integer, default=0)),
        (("--set",), dict(default="-", help="subset: elements or @Part+Part")),
        (("--delete",), dict(default="-", help="minor deletion set")),
        (("--contract",), dict(default="-", help="minor contraction set")),
        (("--with",), dict(dest="second", default=None, help="second operand file")),
    ]),
    "eval": ("evaluate inequality n for a family", _eval, [
        (("-n",), dict(type=integer, required=True)),
        (("--family",), dict(required=True,
                             help="semicolon-separated sets, e.g. '0,1;2,3;@V3;-'; a "
                                  "value that starts with '-' needs the '=' form, "
                                  "--family=-;1;2;3")),
        (("-i", "--input"), dict(required=True)),
    ]),
    "check": ("decide Kinser class membership", _check, [
        (("-n",), dict(type=integer, required=True)),
        (("-i", "--input"), dict(required=True)),
        (("--dual",), dict(action="store_true", help="check the dual matroid")),
        (("--space",), dict(choices=("flats", "all"), default="flats")),
        (("--no-prune",), dict(action="store_true",
                               help="scan every X1 row: disable the automorphism-orbit "
                                    "rule on X1 and, at n=4, the slot-symmetry and "
                                    "common-information rules")),
        (("--parallel",), dict(type=integer, default=1,
                               help="worker processes, at most the CPU count; the "
                                    "verdict and every counter are the same at any "
                                    "width")),
        (("-o", "--output"), dict(default=None, help="certificate file")),
    ]),
    "enumerate": ("list flats, circuits, bases, ...", _enumerate, [
        (("--kind",), dict(choices=ENUM_KINDS, required=True)),
        (("-i", "--input"), dict(required=True)),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only ``command``'s.

    argparse spends 0.1-0.3 ms on each subparser, most of it checking each
    option's help format: the full parser takes 0.7-1.5 ms to build and one
    with a single subparser 0.2-0.5 ms, on a 2-core x86 host.  ``main``
    therefore builds only the subparser it will run.
    The usage line names all five subcommands either way, so every usage
    error reads the same; ``-h``, no subcommand and an unknown one get the
    full parser, whose help and "invalid choice" error list them all.
    """
    ap = argparse.ArgumentParser(prog="kinser",
                                 description="Exact matroid computations and "
                                             "Kinser inequality checking")
    # with one subparser the default metavar would list only its name
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_, func, specs = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, options in specs:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
