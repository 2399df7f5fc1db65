import io
import random

import pytest

from tanglelab import coset_enumeration as ce
from tanglelab.cli import run
from tanglelab.coset_enumeration import (
    CosetTable,
    Presentation,
    braid_presentation,
    canonical_words,
    conjugacy_classes,
    enumerate_cosets,
    trace,
    word_equal,
)
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
    count, classes, _ = conjugacy_classes(tab)
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
    tab = enumerate_cosets(braid_presentation(3, 4))
    count, classes, reps = conjugacy_classes(tab)
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
    words = canonical_words(tab)
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
        ce._verify(enumerate_cosets(pres), pres, sub)


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
    real = ce.parabolic_bound
    monkeypatch.setattr(ce, "parabolic_bound", lambda *a: real(*a) + 1)
    with pytest.raises(CrossCheckError, match="differs from the Burau image"):
        ce.certify_braid_quotient(4, 3)
    code, out = _cli(["braid-quotient", "--n", "3", "--k", "4", "--count-only"])
    assert (code, out) == (
        4,
        "error = parabolic coset bound 97 differs from the Burau image order 96\n",
    )


def test_certified_order_budget():
    with pytest.raises(BudgetExceededError, match="order 155520 exceeds"):
        ce.certify_braid_quotient(5, 3, budget=150000)
    for n, k in ((6, 3), (3, 6), (4, 4)):
        with pytest.raises(BudgetExceededError):
            ce.certify_braid_quotient(n, k, budget=10**4)
