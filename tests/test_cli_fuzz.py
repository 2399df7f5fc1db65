"""Seeded CLI fuzz: random (often malformed) Conway strings, braid lines,
diagram files and words sent through the coloring, boundary, slope,
reduce, obstruction, census, move-check, braid-quotient and burnside eval
commands of `cli.run`, and wide well-formed inputs through the integer
layer: closures of 8 to 12 strands at composite moduli and n-tangle
diagram files under `boundary --integers`.

Every input has one of three outcomes: an answer (exit 0), invalid input
(exit 2) or an exhausted budget (exit 3).  A traceback or a failed
cross-check (exit 4) on any of them is a defect.
"""

import io
import random

import pytest

from tanglelab.cli import run
from tanglelab.tangle_core import (
    compile_expr,
    diagram_to_text,
    parse_conway,
    random_algebraic_expr,
)

PRIMES = (-1, 0, 1, 2, 3, 4, 5, 7, 9)


def _mutate(rng, text, alphabet):
    """Delete, insert or replace one character, or leave the text."""
    if not text or rng.random() < 0.5:
        return text
    i = rng.randrange(len(text))
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + text[i + 1 :]
    c = rng.choice(alphabet)
    return text[:i] + c + text[i + (op == 2) :]


def _conway(rng, depth=3):
    r = rng.random()
    if depth == 0 or r < 0.35:
        k = rng.randrange(3)
        if k == 0:
            return str(rng.randint(-4, 4))
        if k == 1:
            return "inf"
        entries = (str(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
        return "T(" + ",".join(entries) + ")"
    if r < 0.55:
        return f"r({_conway(rng, depth - 1)})"
    return f"({_conway(rng, depth - 1)}*{_conway(rng, depth - 1)})"


def _braid(rng, max_strands):
    n = rng.randint(-1, max_strands)
    letters = [rng.randint(-n - 1, n + 1) for _ in range(rng.randint(0, 8))]
    return _mutate(rng, f"{n}: " + " ".join(map(str, letters)), " :-0123x")


def _diagram_text(rng):
    """Either a compiled diagram with one number changed or a few random
    records over small (also negative) arc ids."""
    if rng.random() < 0.5:
        try:
            text = diagram_to_text(compile_expr(parse_conway(_conway(rng))))
        except ValueError:
            text = ""
        return _mutate(rng, text, "0123456789- ")
    lines = []
    for _ in range(rng.randint(1, 4)):
        tag = rng.choice("XXBBO")
        count = {"X": rng.choice((3, 3, 4)), "B": 2 * rng.randint(0, 3), "O": 1}[tag]
        ids = [str(rng.randint(-2, 5)) for _ in range(count)]
        lines.append(" ".join([tag] + ids))
    return "\n".join(lines) + "\n"


def _cases(rng, path):
    """(argv, diagram file text or None) pairs."""
    mod = ["--mod", str(rng.randint(-1, 12))]
    abf = ["--abf-t", str(rng.randint(-2, 3)), "--p", str(rng.choice(PRIMES))]
    conway = _mutate(rng, _conway(rng), "()*r,T-0123 ")
    closure = rng.choice(([], ["--closure", "numerator"], ["--closure", "denominator"]))
    for argv in (
        ["tri", "--conway", conway] + closure,
        ["color", "--conway", conway] + mod + closure,
        ["boundary", "--conway", conway, "--p", str(rng.choice(PRIMES))],
        ["boundary", "--conway", conway, "--integers"],
        ["slope", "--conway", conway],
        ["reduce", "--conway", conway, "--p", str(rng.choice(PRIMES))],
    ):
        yield argv, None
    braid = _braid(rng, 5)
    for argv in (
        ["tri", "--braid", braid],
        ["color", "--braid", braid] + mod,
        ["color", "--braid", braid] + abf,
        # B(n,3) obstructions of 4 or 5 strands take seconds each
        ["obstruct", "--braid", _braid(rng, 3)],
    ):
        yield argv, None
    text = _diagram_text(rng)
    for argv in (
        ["tri", "--diagram", path],
        ["color", "--diagram", path] + mod,
        ["color", "--diagram", path] + abf,
        ["boundary", "--diagram", path, "--p", str(rng.choice(PRIMES))],
        ["boundary", "--diagram", path, "--integers"],
    ):
        yield argv, text
    yield ["census", "--n", str(rng.randint(-3, 3))], None
    fraction = f"{rng.randint(-2, 2)}/{rng.randint(-2, 2)}"
    yield ["move-check", "--p", "3", "--fraction", fraction, "--trials", "2"], None
    n, k = rng.randint(-1, 6), rng.randint(-1, 7)
    quotient = ["braid-quotient", "--n", str(n), "--k", str(k),
                "--budget", str(rng.randint(1, 2000))]
    yield quotient + rng.choice(([], ["--count-only"], ["--classes"])), None
    yield quotient + ["--word-equal", _word(rng, n - 1), _word(rng, n - 1)], None
    r = rng.randint(-1, 5)
    yield ["burnside", "eval", "-r", str(r), "--word", _word(rng, r)], None
    yield ["burnside", "eval", *_word(rng, r).split(), "-r", str(r)], None


def _word(rng, max_letter):
    """Signed letters up to max_letter; often one of them is 0, out of
    range or not an integer."""
    top = max(max_letter, 1)
    letters = [str(rng.choice((1, -1)) * rng.randint(1, top))
               for _ in range(rng.randint(1, 10))]
    if rng.random() < 0.4:
        bad = rng.choice(("0", str(top + 1), str(-top - 2), "x", "1.5"))
        letters[rng.randrange(len(letters))] = bad
    return " ".join(letters)


def _run(argv):
    buf = io.StringIO()
    try:
        return run(argv, stdout=buf), buf.getvalue()
    except Exception as exc:  # a traceback at the command line
        return repr(exc), ""


@pytest.mark.parametrize("seed", range(4))
def test_cli_fuzz_exits_0_2_or_3(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "fuzz.dg"
    bad = []
    for _ in range(8):
        for argv, text in _cases(rng, str(path)):
            if text is not None:
                path.write_text(text)
            code, out = _run(argv)
            if code not in (0, 2, 3):
                bad.append((argv, text, code, out))
    assert not bad, bad[:5]


@pytest.mark.parametrize("seed", range(2))
def test_wide_integer_inputs_exit_0_2_or_3(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "tangle.dg"
    bad = []
    for _ in range(3):
        n = rng.randint(8, 12)
        letters = (rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randint(0, 20 * n)))
        braid = f"{n}: " + " ".join(map(str, letters))
        for k in (4, 6, 12, 30):
            code, out = _run(["color", "--braid", braid, "--mod", str(k)])
            if code not in (0, 2, 3):
                bad.append((braid, k, code, out))
    for n in range(2, 7):
        path.write_text(diagram_to_text(compile_expr(random_algebraic_expr(n, rng, max_depth=4))))
        code, out = _run(["boundary", "--diagram", str(path), "--integers"])
        if code not in (0, 2, 3):
            bad.append((path.read_text(), code, out))
    assert not bad, bad[:5]
