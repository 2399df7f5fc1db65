import hashlib
import io
import random
import time
from fractions import Fraction
from math import factorial

import coset_oracle as oracle
import pytest
from coset_oracle import (
    Presentation,
    braid_presentation,
    enumerate_cosets,
    trace,
    word_equal,
)

from tanglelab import coset_enumeration as ce
from tanglelab.cli import run
from tanglelab.errors import BudgetExceededError, CrossCheckError

# class representatives of B_3/(sigma_i^4), transcribed from the known
# 16-element list (identity through the 3-braid of the Borromean rings)
B3_MOD4_CLASS_WORDS = [
    (),
    (1,),
    (-1,),
    (1, 1),
    (1, 2),
    (-1, 2),
    (-1, -2),
    (1, 1, 2),
    (1, 1, -2),
    (1, 1, 2, 2),
    (1, -2, 1, -2),
    (1, 2, 2, 1, -2),
    (1, -2, 1, 1, -2),
    (1, 2, 2, 1, 2, 2),
    (-1, 2, 2, -1, 2, 2),
    (1, -2, 1, -2, 1, -2),
]


def test_cyclic_group():
    tab = enumerate_cosets(Presentation(1, ((1, 1, 1),)))
    assert tab.order == 3
    count, classes, _ = oracle.conjugacy_classes(tab)
    assert count == 3  # abelian: every element is its own class


def test_presentation_reduction():
    p = Presentation(2, ((1, -1), (1, 2, -2, -1, 1, 1, 1)))
    assert p.relators == ((1, 1, 1),)
    with pytest.raises(ValueError):
        Presentation(1, ((2,),))


def test_braid_presentation_shapes():
    p34 = braid_presentation(3, 4)
    assert p34.generators == 2
    assert len(p34.relators) == 2
    p25 = braid_presentation(2, 5)
    assert p25.generators == 1
    assert p25.relators == ((1,) * 5,)
    p53 = braid_presentation(5, 3)
    assert p53.generators == 4
    assert len(p53.relators) == 3 + 3 + 1


def test_braid_quotient_orders():
    assert enumerate_cosets(braid_presentation(2, 5)).order == 5
    assert enumerate_cosets(braid_presentation(3, 4)).order == 96
    assert enumerate_cosets(braid_presentation(3, 3)).order == 24
    assert enumerate_cosets(braid_presentation(4, 3)).order == 648


def test_columns_are_permutations_and_relators_fix_rows():
    # enumerate_cosets verifies internally; re-check here explicitly
    pres = braid_presentation(3, 4)
    tab = enumerate_cosets(pres)
    n = tab.order
    for x in range(2 * tab.generators):
        assert sorted(row[x] for row in tab.table) == list(range(n))
    for rel in pres.relators:
        for c in range(n):
            assert trace(tab, rel, c) == c


def test_order_independent_of_relator_order():
    rng = random.Random(2)
    pres = braid_presentation(3, 4)
    base = enumerate_cosets(pres).order
    rels = list(pres.relators)
    for _ in range(4):
        rng.shuffle(rels)
        assert enumerate_cosets(Presentation(2, tuple(rels))).order == base


def test_budget_guard():
    # the free group on two generators never completes
    with pytest.raises(BudgetExceededError):
        enumerate_cosets(Presentation(2, ((1, 2, -1, -2),)), max_cosets=500)


def test_word_equal_basics():
    pres = braid_presentation(3, 4)
    tab = enumerate_cosets(pres)
    assert word_equal(tab, (1, 2, 1), (2, 1, 2))
    assert not word_equal(tab, (1,), (2, 2))
    w = (1, -2, 1, 1)
    assert word_equal(tab, w, w)


def test_center_square_identity_b3():
    # (s1 s2)^6 equals (s1 s2^-1)^3 modulo fourth powers
    tab = enumerate_cosets(braid_presentation(3, 4))
    assert word_equal(tab, (1, 2) * 6, (1, -2) * 3)
    # and not vacuously: neither word is the identity
    assert not word_equal(tab, (1, 2) * 6, ())


def test_b3_classes_and_representatives():
    count, sizes, _ = ce.conjugacy_classes(ce.certify_braid_quotient(3, 4))
    assert (count, sum(sizes)) == (16, 96)
    tab = enumerate_cosets(braid_presentation(3, 4))
    count, classes, reps = oracle.conjugacy_classes(tab)
    assert count == 16
    sizes = [len(c) for c in classes]
    assert sum(sizes) == 96
    assert all(96 % s == 0 for s in sizes)
    cls_of = {}
    for ci, cls in enumerate(classes):
        for c in cls:
            cls_of[c] = ci
    # pairwise non-conjugate and covering all classes; on failure name
    # the offending transcribed word rather than just counting
    seen = {}
    for w in B3_MOD4_CLASS_WORDS:
        ci = cls_of[trace(tab, w)]
        assert ci not in seen, (
            f"transcribed words {seen[ci]} and {w} are conjugate"
        )
        seen[ci] = w
    assert len(seen) == 16


def test_canonical_words_are_shortlex_consistent():
    tab = enumerate_cosets(braid_presentation(3, 3))
    words = oracle.canonical_words(tab)
    assert words[0] == ()
    for c, w in enumerate(words):
        assert trace(tab, w) == c


def _parabolic_index(n, k):
    sub = [(i,) for i in range(1, n - 1)]
    return enumerate_cosets(braid_presentation(n, k), subgroup=sub).order


def test_parabolic_indices():
    # [B_n/(s^k) : <s_1..s_{n-2}>], e.g. 155520 / 648 = 240 at (5, 3)
    for (n, k), index in {
        (3, 3): 8, (4, 3): 27, (5, 3): 240, (3, 4): 24, (3, 5): 120,
    }.items():
        assert _parabolic_index(n, k) == index


def test_subgroup_generators_fix_coset_0():
    pres = braid_presentation(4, 3)
    sub = ((1,), (1, 2, -1))
    tab = enumerate_cosets(pres, subgroup=sub)
    for w in sub:
        assert trace(tab, w) == 0
    # <s_1, s_1 s_2 s_1^-1> = <s_1, s_2>
    assert tab.order == 27
    assert enumerate_cosets(pres, subgroup=((),)).order == 648
    # the regular table does not close <s_1> at coset 0
    with pytest.raises(CrossCheckError, match="moves coset 0"):
        oracle._verify(enumerate_cosets(pres), pres, sub)


def test_certified_order_equals_regular_table():
    cases = [(2, k) for k in range(2, 7)] + [(n, 2) for n in range(2, 7)]
    cases += [(3, 3), (3, 4), (3, 5), (4, 3)]
    for n, k in cases:
        q = ce.certify_braid_quotient(n, k)
        assert q.order == enumerate_cosets(braid_presentation(n, k)).order
    # 42 radix-3 digits at (7, 2) need two int64 key words
    assert ce.certify_braid_quotient(7, 2).order == 5040


def test_matrix_word_equal_agrees_with_table():
    rng = random.Random(8)
    for n, k in ((3, 4), (4, 3), (3, 5)):
        q = ce.certify_braid_quotient(n, k)
        tab = enumerate_cosets(braid_presentation(n, k))
        hits = 0
        for _ in range(150):
            w1 = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                  for _ in range(rng.randint(0, 12))]
            # half the pairs are equal by construction: w1 times a relator
            w2 = list(w1)
            if rng.random() < 0.5:
                i = rng.randint(1, n - 1)
                w2 += [i] * k
            else:
                w2 = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                      for _ in range(rng.randint(0, 12))]
            want = word_equal(tab, w1, w2)
            assert q.word_equal(w1, w2) == want, (n, k, w1, w2)
            hits += want
        assert 50 < hits < 150


def test_word_letters_out_of_range():
    q = ce.certify_braid_quotient(3, 3)
    tab = enumerate_cosets(braid_presentation(3, 3))
    for bad in ((0,), (-3,), (1, 7)):
        with pytest.raises(ValueError, match="out of range"):
            q.word_equal(bad, ())
        with pytest.raises(ValueError, match="out of range"):
            trace(tab, bad)
    with pytest.raises(ValueError, match="out of range"):
        ce.certify_braid_quotient(2, 3).word_equal((1,), (2,))


def _cli(argv):
    buf = io.StringIO()
    return run(argv, stdout=buf), buf.getvalue()


def test_wrong_burau_field_fails_the_certificate(monkeypatch):
    # t = 1 makes the block a transposition, of order 2, not 3
    monkeypatch.setitem(ce._BURAU_FIELDS, 3, (7, 1))
    with pytest.raises(CrossCheckError, match="fail the relator"):
        ce.certify_braid_quotient(3, 3)
    code, out = _cli(["braid-quotient", "--n", "3", "--k", "3"])
    assert code == 4
    assert out.startswith("error = Burau matrices over F_7 at t = 1 ")


def test_inflated_upper_bound_fails_the_certificate(monkeypatch):
    real = ce._coxeter_order
    monkeypatch.setattr(ce, "_coxeter_order", lambda *a: real(*a) + 1)
    with pytest.raises(CrossCheckError, match="differs from the Burau image"):
        ce.certify_braid_quotient(4, 3)
    code, out = _cli(["braid-quotient", "--n", "3", "--k", "4", "--count-only"])
    assert (code, out) == (
        4,
        "error = Coxeter order 97 differs from the Burau image order 96\n",
    )


def test_deflated_upper_bound_fails_the_certificate_above(monkeypatch):
    real = ce._coxeter_order
    monkeypatch.setattr(ce, "_coxeter_order", lambda *a: real(*a) - 1)
    with pytest.raises(CrossCheckError, match="order above 96"):
        ce.certify_braid_quotient(3, 4)
    code, out = _cli(["braid-quotient", "--n", "3", "--k", "4"])
    assert (code, out) == (
        4,
        "error = Coxeter order 95 differs from the Burau image "
        "order above 96\n",
    )


def test_orbit_product_matches_the_whole_group_search():
    cases = [(n, 2) for n in range(3, 8)]
    cases += [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]
    for n, k in cases:
        p, t = ce._BURAU_FIELDS[k]
        order = ce.certify_braid_quotient(n, k).order
        assert oracle.burau_image_order(n, p, t, order) == order, (n, k)
        assert ce._burau_orbit(2, n, p, t) == k
        for m in range(3, n + 1):
            assert ce._burau_orbit(m, n, p, t) == _parabolic_index(m, k), (n, k, m)


def _coxeter_formula(n, k):
    # |B_n/(s_i^k)| = (f/2)^(n-1) n! for the f = 4k / (4 - (n-2)(k-2))
    # faces of the Platonic solid {n,k} (Coxeter, Factor groups of the
    # braid group, 1957)
    f = Fraction(4 * k, 4 - (n - 2) * (k - 2))
    return (f / 2) ** (n - 1) * factorial(n)


def test_certified_order_matches_coxeters_formula():
    # the formula here shares no code with `_coxeter_order`, and the
    # parabolic coset bound of the Todd-Coxeter oracle none with either
    for n in range(2, 13):
        for k in range(2, 13):
            got = ce._coxeter_order(n, k)
            if (n - 2) * (k - 2) >= 4:
                assert got is None, (n, k)
            else:
                assert got == _coxeter_formula(n, k), (n, k)
    cases = [(2, k) for k in range(2, 7)] + [(n, 2) for n in range(3, 8)]
    cases += [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]
    for n, k in cases:
        order = ce.certify_braid_quotient(n, k).order
        assert order == _coxeter_formula(n, k), (n, k)
        assert oracle.parabolic_bound(n, k) == order, (n, k)


def test_certified_order_budget():
    with pytest.raises(BudgetExceededError, match="order 155520 exceeds"):
        ce.certify_braid_quotient(5, 3, budget=150000)
    for n, k in ((6, 3), (3, 6), (4, 4)):
        with pytest.raises(BudgetExceededError):
            ce.certify_braid_quotient(n, k, budget=10**4)


def test_infinite_and_oversized_quotients_exit_3_at_once():
    cases = [["--n", "6", "--k", "3"], ["--n", "4", "--k", "4"], ["--n", "3", "--k", "6"]]
    cases += [argv + ["--classes"] for argv in cases]
    cases += [["--n", "16", "--k", "2"], ["--n", "1000000", "--k", "2"]]
    for argv in cases:
        t0 = time.perf_counter()
        code, out = _cli(["braid-quotient", *argv])
        assert time.perf_counter() - t0 < 0.1, argv
        assert code == 3, argv
        n, k = argv[1], argv[3]
        if k != "2":
            assert out == f"error = B_{n}/(s_i^{k}) is infinite: 1/{n} + 1/{k} <= 1/2 (Coxeter)\n"
        else:
            # B_n/(s^2) is S_n, finite but more than 10! > 10^6 elements
            assert out == (
                "error = braid quotient order is at least 10! = 3628800, "
                "more than the budget of 1000000\n"
            )
    # the factorial bound refuses no order within the budget
    assert _cli(["braid-quotient", "--n", "9", "--k", "2", "--count-only"]) == (0, "362880\n")
    assert _cli(["braid-quotient", "--n", "7", "--k", "3", "--budget", "10"])[1] == (
        "error = braid quotient order is at least 4! = 24, more than the budget of 10\n"
    )


def _digest(tab):
    return hashlib.sha256(str(tab.table).encode()).hexdigest()


# sha256 of str(table.table), recorded from the fixpoint enumerator that
# repeated whole HLT passes until one changed nothing: one pass numbers
# the cosets the same way
REGULAR_DIGESTS = {
    (3, 3): "4cbdd7f4de44df5e911cce6f19b1de10a434887abd82918d209d307a9a521219",
    (3, 4): "378bacb1846c1a64d8e0478fce5f7c91f53144839fc22d27093932cb03c21cfd",
    (4, 3): "4abf2be96e63fe01d3a1bae6d2f70cc788b0ae799c223b3b5cbc4523f1863299",
    (3, 5): "a17766e87c1489158b41cb96f558a5763a98a77362a797c4081c655efe8db067",
}
# <s_1..s_{m-2}> in B_m/(s_i^3), m = 3, 4, 5: the tables of parabolic_bound(5, 3)
PARABOLIC_DIGESTS = {
    3: (8, "fcdc329e2da70eb51c680e278eb4966caa417d7f63f83a773fbecdf396dafa42"),
    4: (27, "a25a13c834b35a8000506dd4f86e6e85f6aacbd849d8ed9fcc7186b23010e760"),
    5: (240, "951d46eb0b81186ba08b2d5165b53f58196d3f7a9259acbd30d52e28fea09922"),
}
CORPUS_DIGEST = "b636ff000798c65fc63e4f4432dc8b83740af4a83fd69d0cee50c8897f3ef5fa"


def _finite_corpus(seed=0, count=40):
    """Seeded finite presentations with subgroups: spherical triangle
    groups <x, y | x^a, y^b, (xy)^c> and rank-3 Coxeter groups, under
    random relator order, rotation and inversion, sometimes with one more
    random relator and up to two random subgroup words."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            a, b, c = rng.choice(
                [(2, 2, 3), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5), (3, 3, 2)]
            )
            g, rels = 2, [(1,) * a, (2,) * b, (1, 2) * c]
        else:
            p, q = rng.choice([(3, 3), (3, 4), (3, 5), (4, 3), (2, 5)])
            g = 3
            rels = [(1, 1), (2, 2), (3, 3), (1, 2) * p, (2, 3) * q, (1, 3) * 2]
        rels = [r[i:] + r[:i] for r in rels for i in [rng.randrange(len(r))]]
        rels = [
            tuple(-x for x in reversed(r)) if rng.random() < 0.3 else r
            for r in rels
        ]
        rng.shuffle(rels)
        if rng.random() < 0.3:
            rels.append(tuple(rng.choice((1, -1)) * rng.randint(1, g)
                              for _ in range(rng.randint(2, 6))))
        sub = [tuple(rng.choice((1, -1)) * rng.randint(1, g)
                     for _ in range(rng.randint(1, 3)))
               for _ in range(rng.choice((0, 0, 1, 2)))]
        out.append((Presentation(g, tuple(rels)), sub))
    return out


def test_one_pass_tables_match_the_fixpoint_digests():
    for (n, k), want in REGULAR_DIGESTS.items():
        assert _digest(enumerate_cosets(braid_presentation(n, k))) == want, (n, k)
    for m, (index, want) in PARABOLIC_DIGESTS.items():
        sub = [(i,) for i in range(1, m - 1)]
        tab = enumerate_cosets(braid_presentation(m, 3), subgroup=sub)
        assert (tab.order, _digest(tab)) == (index, want), m
    h = hashlib.sha256()
    orders = []
    for pres, sub in _finite_corpus():
        tab = enumerate_cosets(pres, subgroup=sub)
        orders.append(tab.order)
        h.update(f"{tab.order}:{tab.table};".encode())
    assert h.hexdigest() == CORPUS_DIGEST, orders
    # not a corpus of trivial groups: A3, B3 and dihedral orders occur
    assert {24, 48, 20} <= set(orders)


# every quotient the Burau classes are checked on, except (5, 3), whose
# regular table takes seconds to build
CLASS_CASES = [(2, k) for k in range(2, 7)] + [(n, 2) for n in range(3, 6)]
CLASS_CASES += [(3, 3), (3, 4), (3, 5), (4, 3)]


def test_burau_classes_match_the_word_tracing_oracle():
    for n, k in CLASS_CASES:
        count, sizes, reps = ce.conjugacy_classes(ce.certify_braid_quotient(n, k))
        want = oracle.conjugacy_classes(enumerate_cosets(braid_presentation(n, k)))
        assert count == want[0], (n, k)
        assert set(zip(reps, sizes)) == set(zip(want[2], map(len, want[1]))), (n, k)
        keys = [oracle.shortlex(w) for w in reps]
        assert all(a < b for a, b in zip(keys, keys[1:])), (n, k)
