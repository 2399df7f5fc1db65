"""Coloring counts are link invariants: seeded braid moves must leave them
unchanged.

Each case draws a braid of 1 to 5 strands and up to 25 letters, applies
one move, and compares the counts of the two closures: conjugation by a
letter, insertion of sigma sigma^-1 (Reidemeister II), insertion of a
braid relator (a far commutation or sigma_i sigma_i+1 sigma_i =
sigma_i+1 sigma_i sigma_i+1, written as a word equal to the identity) and
Markov stabilization w -> w sigma_n^+-1 on n + 1 strands.  The counts are
tri, the Fox counts mod 5, 7 and 6 (6 through the integer invariant
factors) and the Alexander-Burau-Fox count at (p, t) = (7, 3).  A 3-move,
the insertion of sigma_i^+-3, must preserve tri.  Part of the cases go
through `run(["tri", "--braid", ...])`, so the braid parser is in the
loop.
"""

import io
import random

import pytest

from tanglelab.cli import run
from tanglelab.fox_coloring import abf_space, coloring_space, tri
from tanglelab.tangle_core import BraidWord, braid_closure


def random_braid(rng):
    n = rng.randint(1, 5)
    letters = [] if n == 1 else [
        rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 25))
    ]
    return BraidWord(n, letters)


def insert(word, rng, piece):
    at = rng.randint(0, len(word.letters))
    return BraidWord(word.strands, word.letters[:at] + tuple(piece) + word.letters[at:])


def letter(n, rng):
    return rng.choice((1, -1)) * rng.randint(1, n - 1)


def conjugate(word, rng):
    x = letter(word.strands, rng)
    return BraidWord(word.strands, (x, *word.letters, -x))


def r2(word, rng):
    x = letter(word.strands, rng)
    return insert(word, rng, (x, -x))


def relator(word, rng):
    n = word.strands
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    if not pairs:  # two strands: B_2 is free, its relators cancel freely
        piece = (1, -1)
    else:
        i, j = rng.choice(pairs)
        piece = (i, j, i, -j, -i, -j) if j == i + 1 else (i, j, -i, -j)
    if rng.random() < 0.5:  # the inverse relator
        piece = tuple(-x for x in reversed(piece))
    return insert(word, rng, piece)


def stabilize(word, rng):
    n = word.strands
    return BraidWord(n + 1, (*word.letters, rng.choice((1, -1)) * n))


MOVES = {"conjugate": conjugate, "r2": r2, "relator": relator, "stabilize": stabilize}


def counts(word):
    d = braid_closure(word)
    return (
        tri(d),
        coloring_space(d, 5).count,
        coloring_space(d, 7).count,
        coloring_space(d, 6).count,
        abf_space(d, 7, 3).count,
    )


def cli_tri(word):
    out = io.StringIO()
    text = f"{word.strands}: " + " ".join(map(str, word.letters))
    assert run(["tri", "--braid", text], stdout=out) == 0, out.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("seed", range(6))
def test_braid_moves_preserve_the_coloring_counts(seed):
    rng = random.Random(seed)
    moved = 0
    for case in range(50):
        word = random_braid(rng)
        before = counts(word)
        for name, move in MOVES.items():
            if word.strands == 1 and name != "stabilize":
                continue
            after = move(word, rng)
            assert counts(after) == before, (name, word, after)
            if case % 10 == 0:
                assert cli_tri(after) == cli_tri(word) == f"tri = {before[0]}\n"
            moved += 1
    assert moved >= 150


def test_three_moves_preserve_tri():
    rng = random.Random(7)
    for _ in range(300):
        word = random_braid(rng)
        if word.strands == 1:
            word = BraidWord(2, ())
        x = letter(word.strands, rng)
        after = insert(word, rng, (x, x, x))
        assert tri(braid_closure(after)) == tri(braid_closure(word)), (word, after)
