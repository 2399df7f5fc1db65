"""Batch command line front end.

Line-oriented "key = value" output for diffable golden tests; exit code
0 on success, 2 on invalid input, 3 on budget or guard exhaustion, 4 on
an internal cross-check failure.
"""

import argparse
import contextlib
import functools
import random
import sys

from .errors import (
    AlternatingConditionError,
    BudgetExceededError,
    CrossCheckError,
    TangleLabError,
)
from .tangle_core import (
    Frac,
    _read_diagram_text,
    check_crossing_parity,
    closure,
    compile_expr,
    parse_braid,
    parse_conway,
    parse_diagram_text,
    braid_closure,
    print_conway,
    random_algebraic_expr,
    slope,
)

__all__ = ["run", "main"]


def _diagram_from_args(args, read=parse_diagram_text):
    sources = [s for s in (args.braid, args.conway, args.diagram) if s]
    if len(sources) != 1:
        raise ValueError("need exactly one of --braid, --conway, --diagram")
    if args.braid:
        d = braid_closure(parse_braid(args.braid))
    elif args.conway:
        d = compile_expr(parse_conway(args.conway))
    else:
        with open(args.diagram) as fh:
            d = read(fh.read())
    if getattr(args, "closure", None):
        d = closure(d, args.closure)
    return d


def _add_diagram_flags(sub, with_closure=True):
    sub.add_argument("--braid", help='braid line "<n>: i1 i2 ..."')
    sub.add_argument("--conway", help="Conway expression")
    sub.add_argument("--diagram", help="diagram file path")
    if with_closure:
        sub.add_argument(
            "--closure", choices=["numerator", "denominator"], default=None
        )


def _parse_fraction(text):
    if text.strip() in ("inf", "1/0"):
        return Frac(1, 0)
    num, _, den = text.partition("/")
    return Frac.make(int(num), int(den) if den else 1)


def _print_subspace(out, name, subspace):
    out.append(f"{name}_dim = {subspace.dim}")
    for i, row in enumerate(subspace.rows):
        out.append(f"{name}[{i}] = " + " ".join(str(x) for x in row))


def _coloring_space(args, k, t=None):
    """Fox (t None) or ABF colorings mod k of the source: of a lone
    --braid from its strand action, with no closure diagram."""
    from . import fox_coloring as fox
    if args.braid and not (args.conway or args.diagram or args.closure):
        return fox.braid_coloring_space(parse_braid(args.braid), k, t)
    d = _diagram_from_args(args)
    return fox.coloring_space(d, k) if t is None else fox.abf_space(d, k, t)


def _cmd_color(args, out):
    if args.abf_t is not None:
        space = _coloring_space(args, args.p, args.abf_t)
        out.append(f"abf_col_{args.p}(t={args.abf_t}) = {space.count}")
    else:
        out.append(f"col_{args.mod} = {_coloring_space(args, args.mod).count}")
    return 0


def _cmd_tri(args, out):
    out.append(f"tri = {_coloring_space(args, 3).count}")
    return 0


def _cmd_boundary(args, out):
    from . import fox_coloring as fox
    # a diagram file that breaks the alternating condition is reported by
    # the coloring that breaks it, before the crossing parity check (the
    # lines in `out` are printed only if no check fails)
    d = _diagram_from_args(args, read=_read_diagram_text)
    try:
        if args.integers:
            out.append(f"virtual_index = {fox.virtual_index(d)}")
        else:
            _, img, reduced = fox._boundary_data(d, args.p)
            _print_subspace(out, "psi", img)
            if reduced is not None:
                _print_subspace(out, "psihat", reduced)
    except AlternatingConditionError as exc:
        # the colorings of a planar diagram satisfy the condition; a
        # compiled diagram is planar, a diagram file need not be
        if not args.diagram:
            raise
        raise ValueError(f"diagram is not planar: {exc}") from None
    if args.diagram:
        check_crossing_parity(d)
    return 0


def _cmd_lagrangians(args, out):
    from . import symplectic_lagrangian as sym
    if args.count_only:
        out.append(str(sym.lagrangian_count(args.p, args.n)))
        return 0
    if args.realize:
        witnesses, missing = sym.realize_lagrangians(args.p, args.n, generator_budget=args.budget)
        out.append(f"lagrangians = {sym.lagrangian_count(args.p, args.n)}")
        out.append(f"realized = {len(witnesses)}")
        out.append(f"unrealized = {len(missing)}")
        for s in sorted(witnesses, key=lambda s: s.rows):
            rows = ";".join(" ".join(str(x) for x in r) for r in s.rows)
            out.append(f"witness {rows} = {print_conway(witnesses[s])}")
        return 0
    spaces = sym.enumerate_lagrangians(args.p, args.n, budget=args.budget)
    out.append(f"count = {len(spaces)}")
    for s in spaces:
        out.append(";".join(" ".join(str(x) for x in r) for r in s.rows))
    return 0


def _cmd_census(args, out):
    from . import symplectic_lagrangian as sym
    c = sym.matching_census(args.n)
    odd = 1
    pow2 = 1
    for i in range(1, args.n):
        odd *= 2 * i + 1
        pow2 *= 2**i + 1
    out.append(f"census = {c}")
    out.append(f"product_odd_reading = {odd}")
    out.append(f"lagrangian_count = {pow2}")
    out.append(f"matches_odd_reading = {c == odd}")
    out.append(f"all_lagrangians_realized = {c == pow2}")
    return 0


def _cmd_reduce(args, out):
    from . import move_calculus as mv
    expr = parse_conway(args.conway)
    res = mv.reduce_2algebraic(expr, args.p)
    out.append(f"target = {res.target}")
    out.append(f"circles = {res.circles}")
    for line in mv.certificate_lines(res):
        out.append(line)
    return 0


def _cmd_slope(args, out):
    out.append(f"slope = {slope(parse_conway(args.conway))}")
    return 0


def _cmd_move_check(args, out):
    from . import move_calculus as mv
    rng = random.Random(args.seed)
    if args.shifts is not None:
        first, second = mv.fraction_shift_identities(args.p, args.shifts)
        out.append(f"shift_down = {first}")
        out.append(f"shift_up = {second}")
        return 0
    if args.mq:
        frac = mv.mq_to_fraction(args.mq[0], args.mq[1])
        out.append(f"mq_fraction = {frac}")
    elif args.fraction:
        frac = _parse_fraction(args.fraction)
    else:
        frac = Frac.make(args.p, 1)
    checked = 0
    for _ in range(args.trials):
        d = compile_expr(random_algebraic_expr(2, rng, max_depth=3))
        arcs = sorted(d.arcs)
        if len(arcs) < 2:
            continue
        a, b = rng.sample(arcs, 2)
        mv.invariance_harness(d, (a, b), frac, args.p)
        checked += 1
    out.append(f"move = {frac}")
    out.append(f"checked = {checked}")
    out.append("violations = 0")
    return 0


def _read_word(args):
    if args.word_file:
        with open(args.word_file) as fh:
            text = fh.read()
    elif args.word:
        text = args.word
    elif args.letters:
        text = " ".join(args.letters)
    else:
        raise ValueError("need a word: positional, --word, or --word-file")
    return tuple(int(x) for x in text.split())


def _cmd_burnside(args, out):
    from . import burnside3 as bg
    if args.action == "order":
        out.append(f"order = {bg.group_order(args.r)}")
        return 0
    if args.action == "enumerate":
        out.append(f"enumerated = {bg.enumerate_group(args.r)}")
        return 0
    if args.action == "check":
        out.append(f"checks = {bg.consistency_check(args.r, seed=args.seed)}")
        out.append("consistent = True")
        return 0
    if args.action == "eval":
        word = _read_word(args)
        el = bg.evaluate_word(args.r, word)
        out.append("TRIVIAL" if el.is_identity() else "NONTRIVIAL")
        out.append(f"a = {' '.join(str(x) for x in el.a)}")
        out.append(f"b = {' '.join(str(x) for x in el.b)}")
        out.append(f"c = {' '.join(str(x) for x in el.c)}")
        return 0
    raise ValueError(f"unknown burnside action {args.action!r}")


def _cmd_obstruct(args, out):
    from . import burnside3 as bg
    word = parse_braid(args.braid)
    if args.kill is not None:
        kills = [args.kill]
    else:
        kills = list(range(1, word.strands + 1))
    reports = [bg.obstruction(word, kill=kill) for kill in kills]
    for kill, rep in zip(kills, reports):
        out.append(f"kill_{kill} = {rep.verdict}")
    obstructed = any(r.verdict == "OBSTRUCTED" for r in reports)
    out.append(f"verdict = {'OBSTRUCTED' if obstructed else 'INCONCLUSIVE'}")
    out.append(f"tri = {reports[0].tri_closure}")
    if reports[0].quotient is not None:
        out.append(f"quotient_order = {reports[0].quotient}")
    return 0


def _cmd_braid_quotient(args, out):
    from . import coset_enumeration as ce
    quotient = ce.certify_braid_quotient(args.n, args.k, budget=args.budget)
    if args.count_only:
        out.append(str(quotient.order))
        return 0
    out.append(f"order = {quotient.order}")
    if args.classes:
        count, sizes, reps = ce.conjugacy_classes(quotient, args.budget)
        out.append(f"classes = {count}")
        for rep_word, size in zip(reps, sizes):
            word = " ".join(str(x) for x in rep_word) if rep_word else "e"
            out.append(f"class {word} : size = {size}")
    if args.word_equal:
        w1 = tuple(int(x) for x in args.word_equal[0].split())
        w2 = tuple(int(x) for x in args.word_equal[1].split())
        out.append(f"equal = {quotient.word_equal(w1, w2)}")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and reused by `run`;
    its `commands` map each command name to the command's own parser."""
    parser = argparse.ArgumentParser(
        prog="tanglelab",
        description="Exact tangle invariants: colorings, Lagrangian "
        "boundaries, rational moves, Burnside obstructions, braid quotients.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("color", help="Fox or twisted coloring count")
    _add_diagram_flags(s)
    s.add_argument("--mod", type=int, default=3)
    s.add_argument("--p", type=int, default=7)
    s.add_argument("--abf-t", type=int, default=None, dest="abf_t")
    s.set_defaults(func=_cmd_color)

    s = subs.add_parser("tri", help="number of Fox 3-colorings")
    _add_diagram_flags(s)
    s.set_defaults(func=_cmd_tri)

    s = subs.add_parser("boundary", help="boundary coloring subspaces")
    _add_diagram_flags(s, with_closure=False)
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--integers", action="store_true")
    s.set_defaults(func=_cmd_boundary)

    s = subs.add_parser("lagrangians", help="count, list, or realize")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count-only", action="store_true", dest="count_only")
    s.add_argument("--realize", action="store_true")
    s.add_argument("--budget", type=int, default=20000)
    s.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: --realize is an exact closure")
    s.set_defaults(func=_cmd_lagrangians)

    s = subs.add_parser("census", help="mod-2 matching census")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_census)

    s = subs.add_parser("reduce", help="reduce a 2-tangle expression mod p")
    s.add_argument("--conway", required=True)
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(func=_cmd_reduce)

    s = subs.add_parser("slope", help="continued fraction slope")
    s.add_argument("--conway", required=True)
    s.set_defaults(func=_cmd_slope)

    s = subs.add_parser("move-check", help="random move invariance harness")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--fraction", default=None, help='move fraction "a/b"')
    s.add_argument("--mq", type=int, nargs=2, default=None,
                   help="use the (m,q)-move fraction (mq+1)/q")
    s.add_argument("--shifts", type=int, default=None,
                   help="print the shifted fractions p/(p-q), p/(-(p+q))")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=25)
    s.set_defaults(func=_cmd_move_check)

    s = subs.add_parser("burnside", help="exponent-3 Burnside arithmetic")
    s.add_argument("action", choices=["eval", "order", "enumerate", "check"])
    s.add_argument(
        "letters",
        nargs="*",
        default=(),
        help="signed letters '1 -2 3 -4' (generators x y z t = 1 2 3 4)",
    )
    s.add_argument("-r", type=int, required=True)
    s.add_argument("--word", help="signed letters, e.g. '1 -2 3'")
    s.add_argument("--word-file", dest="word_file")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_burnside)

    s = subs.add_parser("obstruct", help="3-move obstruction of a braid closure")
    s.add_argument("--braid", required=True)
    s.add_argument("--kill", type=int, default=None)
    s.set_defaults(func=_cmd_obstruct)

    s = subs.add_parser("braid-quotient", help="order, classes, word equality")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--count-only", action="store_true", dest="count_only")
    s.add_argument("--classes", action="store_true")
    s.add_argument("--word-equal", nargs=2, dest="word_equal")
    s.add_argument("--budget", type=int, default=10**6)
    s.set_defaults(func=_cmd_braid_quotient)

    parser.commands = subs.choices
    return parser


def _glue_fraction_argv(argv):
    """argparse reads a separate value such as `-1/2` as an option, so
    hoist the token after `move-check --fraction` into `--fraction=`."""
    if not argv or argv[0] != "move-check":
        return argv
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--fraction" else None
        out.append(tok if value is None else f"--fraction={value}")
    return out


def run(argv, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    argv = _glue_fraction_argv(list(argv))
    # the top-level parser hands all tokens after a command name to that
    # command's parser, so a known name goes there at once
    command = parser.commands.get(argv[0]) if argv else None
    try:
        with contextlib.redirect_stdout(stdout):  # argparse prints help there
            if command is None:
                args, extra = parser.parse_known_args(argv)
            else:
                args = argparse.Namespace(command=argv[0])
                args, extra = command.parse_known_args(argv[1:], args)
            if args.command == "burnside":
                # argparse leaves the word tokens after an option unmatched
                word = [x for x in extra
                        if all(y.removeprefix("-").isdigit() for y in x.split())]
                args.letters = [*args.letters, *word]
                extra = [x for x in extra if x not in word]
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code else 0
    out = []
    try:
        for flag in ("--budget", "--trials", "-r"):
            if getattr(args, flag.lstrip("-"), 0) < 0:
                raise ValueError(f"{flag} must not be negative")
        code = args.func(args, out)
    except BudgetExceededError as exc:
        print(f"error = {exc}", file=stdout)
        return 3
    except CrossCheckError as exc:
        print(f"error = {exc}", file=stdout)
        return 4
    except (TangleLabError, ValueError, OSError) as exc:
        print(f"error = {exc}", file=stdout)
        return 2
    for line in out:
        print(line, file=stdout)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
