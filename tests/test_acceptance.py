"""Acceptance criteria, one test per criterion, every assertion exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion, or `python3 tests/test_acceptance.py` for the same
report standalone.
"""

import random
import time
from itertools import product
from math import comb

import coset_oracle as oracle
import pytest
from example_links import figure_eight, trefoil, trivial_link

from tanglelab import burnside3 as bg
from tanglelab import coset_enumeration as ce
from tanglelab import fox_coloring as fox
from tanglelab import move_calculus as mv
from tanglelab import symplectic_lagrangian as sym
from tanglelab.exact_linear import SubspaceModP
from tanglelab.tangle_core import (
    BraidWord,
    Frac,
    Infinity,
    Integer,
    braid_closure,
    compile_expr,
    pretzel,
    random_algebraic_expr,
)

CHEN = BraidWord(5, (-1, 2, 3, -4, 3) * 4)

_budgets = {}


def _criterion(k, budget_seconds):
    """Track elapsed wall time against the stated runtime budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.time() - self.t0
            _budgets[k] = (elapsed, budget_seconds)
            if exc_type is None:
                print(f"CRITERION {k}: PASS ({elapsed:.1f}s / budget {budget_seconds}s)")
                assert elapsed < budget_seconds, (
                    f"criterion {k} exceeded its runtime budget: "
                    f"{elapsed:.1f}s >= {budget_seconds}s"
                )
            else:
                print(f"CRITERION {k}: FAIL ({elapsed:.1f}s)")
            return False

    return _Timer()


def brute_count(diagram, k):
    arcs = sorted(diagram.arcs)
    idx = {a: i for i, a in enumerate(arcs)}
    total = 0
    for x in product(range(k), repeat=len(arcs)):
        ok = True
        for c in diagram.crossings:
            if (2 * x[idx[c.over]] - x[idx[c.under_in]] - x[idx[c.under_out]]) % k:
                ok = False
                break
        if ok:
            total += 1
    return total * k**diagram.closed_components


def small_diagram_corpus(max_arcs=6):
    """Diagrams with at most max_arcs arcs for the brute-force oracle."""
    rng = random.Random(2024)
    out = [
        trefoil(),
        figure_eight(),
        trivial_link(1),
        trivial_link(2),
        braid_closure(BraidWord(2, (1, 1))),
        braid_closure(BraidWord(2, (1, -1))),
        braid_closure(BraidWord(2, (1, 1, 1, 1))),
        braid_closure(BraidWord(3, (1, 2, 1, 2))),
        compile_expr(Integer(3)),
        compile_expr(Integer(-4)),
        compile_expr(pretzel(2, -2)),
    ]
    for _ in range(40):
        d = compile_expr(random_algebraic_expr(2, rng, max_depth=2))
        if len(d.arcs) <= max_arcs:
            out.append(d)
    return [d for d in out if len(d.arcs) <= max_arcs]


def test_criterion_1_coloring_counts():
    with _criterion(1, 5):
        assert fox.tri(trefoil()) == 9
        for n in range(1, 7):
            assert fox.tri(trivial_link(n)) == 3**n
        assert fox.coloring_space(figure_eight(), 5).count == 25
        for d in small_diagram_corpus(6):
            for k in (3, 4, 5, 6, 9):
                assert fox.coloring_space(d, k).count == brute_count(d, k)


def test_criterion_2_lagrangian_images():
    with _criterion(2, 120):
        rng = random.Random(20240)
        total = 0
        spaces = {(p, n): sym.build_form(p, n) for p in (3, 5, 7) for n in (2, 3, 4)}
        while total < 500:
            n = rng.choice((2, 3, 4))
            d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
            for p in (3, 5, 7):
                img = fox.boundary_image(d, p)
                assert img.dim == n, (d, p)
                red = fox.reduced_boundary_image(d, p)
                assert sym.is_lagrangian(red, spaces[(p, n)]), (d, p)
            total += 1


def test_criterion_3_lagrangian_counts():
    with _criterion(3, 60):
        for (p, n), want in (
            ((3, 2), 4),
            ((3, 3), 40),
            ((3, 4), 1120),
            ((5, 2), 6),
            ((5, 3), 156),
        ):
            got = len(sym.enumerate_lagrangians(p, n))
            assert got == want == sym.lagrangian_count(p, n), (p, n, got)


def test_criterion_4_matching_census():
    with _criterion(4, 30):
        census = {n: sym.matching_census(n) for n in (2, 3, 4)}
        assert census == {2: 3, 3: 15, 4: 105}
        counts = {n: sym.lagrangian_count(2, n) for n in (2, 3, 4)}
        assert counts == {2: 3, 3: 15, 4: 135}
        # the odd-factor reading of the census formula matches exactly;
        # equality with the Lagrangian count holds through n = 3 and
        # fails strictly from n = 4 on
        for n in (2, 3, 4):
            odd = 1
            for i in range(1, n):
                odd *= 2 * i + 1
            assert census[n] == odd
        assert census[4] < counts[4]
        assert census[3] == counts[3]
        assert census[2] == counts[2]


def test_criterion_5_realization():
    with _criterion(5, 300):
        witnesses, missing = sym.realize_lagrangians(3, 2)
        assert not missing
        assert set(witnesses.values()) == {
            Integer(0),
            Integer(1),
            Integer(-1),
            Infinity(),
        }
        witnesses, missing = sym.realize_lagrangians(5, 2)
        assert not missing
        assert set(witnesses.values()) == {
            Integer(k) for k in (-2, -1, 0, 1, 2)
        } | {Infinity()}
        witnesses, missing = sym.realize_lagrangians(3, 3)
        assert not missing
        assert len(witnesses) == 40


def test_criterion_6_virtual_index():
    with _criterion(6, 5):
        for p in (2, 3, 5, 7):
            assert fox.virtual_index(compile_expr(pretzel(p, -p))) == p


def test_criterion_7_move_invariance_and_certificates():
    with _criterion(7, 120):
        rng = random.Random(777)
        moves = [(Frac.make(13, 5), 13), (Frac.make(5, 2), 5), (Frac.make(3, 1), 3)]
        sites = 0
        while sites < 100:
            frac, p = moves[sites % 3]
            d = compile_expr(random_algebraic_expr(2, rng, max_depth=3))
            arcs = sorted(d.arcs)
            if len(arcs) < 2:
                continue
            a, b = rng.sample(arcs, 2)
            report = mv.invariance_harness(d, (a, b), frac, p)
            assert report.unchanged
            sites += 1
        rng = random.Random(778)
        replayed = 0
        while replayed < 200:
            p = rng.choice((3, 5, 7, 11, 13))
            f = Frac.make(rng.randint(-99, 99), rng.randint(1, 99))
            res = mv.reduce_rational(f, p)
            assert mv.replay_certificate(f, res.certificate, p) == res.target
            for step in res.certificate:
                assert step.fraction.num % p == 0
            assert res.target in mv.horizontal_family(p)
            replayed += 1


def test_criterion_8_burnside_core():
    with _criterion(8, 600):
        assert bg.enumerate_group(1) == 3
        assert bg.enumerate_group(2) == 27
        assert bg.enumerate_group(3) == 3**7
        assert bg.enumerate_group(4) == 3**14
        # exhaustive associativity at r = 2
        bg.consistency_check(2)
        # exponent 3 and 2-Engel on 1e5 random instances at r = 4
        rng = random.Random(88)
        r = 4
        one = bg.identity(r)

        def rand():
            return bg.BurnsideElement(
                r,
                tuple(rng.randrange(3) for _ in range(r)),
                tuple(rng.randrange(3) for _ in range(comb(r, 2))),
                tuple(rng.randrange(3) for _ in range(comb(r, 3))),
            )

        for _ in range(50000):
            g = rand()
            assert bg.multiply(bg.multiply(g, g), g) == one
        for _ in range(50000):
            g, h = rand(), rand()
            assert bg.commutator(bg.commutator(g, h), h) == one


def test_criterion_9_chen_obstruction():
    with _criterion(9, 60):
        u = (1, -2, 3, -4)
        w = (-1, 2, -3, 4)
        inv = lambda t: tuple(-x for x in reversed(t))
        P = u + w + (4,) + inv(u) + inv(w) + (-4,)
        el = bg.evaluate_word(4, P)
        assert not el.is_identity()
        assert not any(el.a)
        for kill in range(1, 6):
            assert bg.obstruction(CHEN, kill=kill).verdict == "OBSTRUCTED"


def test_criterion_10_pipeline_sanity():
    with _criterion(10, 10):
        rep = bg.obstruction(BraidWord(2, (1, 1, 1)))
        assert rep.verdict == "INCONCLUSIVE"
        assert all(e.is_identity() for e in rep.relator_images)
        rep = bg.obstruction(BraidWord(3, (1, -2, 1, -2, 1, -2)))
        assert rep.quotient == 1


def test_criterion_11_braid_quotients():
    with _criterion(11, 300):
        count, sizes, _ = ce.conjugacy_classes(ce.certify_braid_quotient(3, 4))
        assert (count, sum(sizes)) == (16, 96)
        tab34 = oracle.enumerate_cosets(oracle.braid_presentation(3, 4))
        assert tab34.order == 96
        count, classes, _ = oracle.conjugacy_classes(tab34)
        assert count == 16
        from test_coset_enumeration import B3_MOD4_CLASS_WORDS

        cls_of = {}
        for ci, cls in enumerate(classes):
            for c in cls:
                cls_of[c] = ci
        hit = [cls_of[oracle.trace(tab34, w)] for w in B3_MOD4_CLASS_WORDS]
        assert len(set(hit)) == 16
        assert oracle.word_equal(tab34, (1, 2) * 6, (1, -2) * 3)
        b53 = ce.certify_braid_quotient(5, 3)
        assert b53.word_equal((1, 2, 3, 4) * 10, (-1, 2, 3, -4, 3) * 4)
        assert oracle.enumerate_cosets(oracle.braid_presentation(3, 3)).order == 24


def test_criterion_12_abf():
    with _criterion(12, 5):
        d = trefoil()
        assert fox.abf_space(d, 7, 3).count == 49
        assert fox.abf_space(d, 7, 2).count == 7
        # brute-force oracle
        idx = {a: i for i, a in enumerate(sorted(d.arcs))}
        for t, want in ((3, 49), (2, 7)):
            tinv = pow(t, 5, 7)
            total = 0
            for x in product(range(7), repeat=len(d.arcs)):
                ok = True
                for c in d.crossings:
                    tt = t if c.sign > 0 else tinv
                    if (x[idx[c.under_out]] - (1 - tt) * x[idx[c.over]] - tt * x[idx[c.under_in]]) % 7:
                        ok = False
                        break
                if ok:
                    total += 1
            assert total == want


if __name__ == "__main__":
    import sys

    failures = 0
    tests = sorted(
        ((k, v) for k, v in dict(globals()).items() if k.startswith("test_criterion")),
        key=lambda kv: int(kv[0].split("_")[2]),
    )
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"  detail: {exc}")
    sys.exit(1 if failures else 0)
