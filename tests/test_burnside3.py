import io
import os
import random
import subprocess
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest

import burnside_oracle as oracle
import tanglelab.burnside3 as bg
from tanglelab import cli
from tanglelab.burnside3 import (
    BurnsideElement,
    commutator,
    conjugate,
    consistency_check,
    enumerate_group,
    evaluate_word,
    generator,
    group_order,
    identity,
    inverse,
    multiply,
    obstruction,
    project_away,
    quotient_order,
)
from tanglelab.errors import CrossCheckError
from tanglelab.tangle_core import BraidWord

CHEN = BraidWord(5, (-1, 2, 3, -4, 3) * 4)


def rand_elem(r, rng):
    return BurnsideElement(
        r,
        tuple(rng.randrange(3) for _ in range(r)),
        tuple(rng.randrange(3) for _ in range(comb(r, 2))),
        tuple(rng.randrange(3) for _ in range(comb(r, 3))),
    )


def test_cube_of_generator_is_identity():
    for r in (1, 2, 3, 4):
        for i in range(1, r + 1):
            assert evaluate_word(r, [i] * 3).is_identity()


def test_word_and_inverse_cancel():
    rng = random.Random(3)
    for r in (2, 3, 4):
        for _ in range(30):
            w = [rng.choice([x for x in range(-r, r + 1) if x]) for _ in range(8)]
            winv = [-x for x in reversed(w)]
            assert evaluate_word(r, w + winv).is_identity()


def test_engel_and_centrality():
    rng = random.Random(5)
    for r in (2, 3, 4):
        for _ in range(40):
            g, h = rand_elem(r, rng), rand_elem(r, rng)
            assert commutator(commutator(g, h), h).is_identity()
    # [[x,y],z] commutes with all generators at r = 3
    x, y, z = (generator(3, i) for i in (1, 2, 3))
    c = commutator(commutator(x, y), z)
    assert not c.is_identity()
    for g in (x, y, z):
        assert multiply(c, g) == multiply(g, c)


def test_group_laws_random():
    rng = random.Random(11)
    for r in (1, 2, 3, 4):
        one = identity(r)
        for _ in range(60):
            g, h, k = (rand_elem(r, rng) for _ in range(3))
            assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
            assert multiply(g, one) == g == multiply(one, g)
            assert multiply(g, inverse(g)) == one
            assert multiply(multiply(g, g), g) == one


def test_orders_and_enumeration_small():
    assert group_order(1) == 3
    assert group_order(2) == 27
    assert group_order(3) == 3**7
    assert group_order(4) == 3**14
    for r in (1, 2, 3):
        assert enumerate_group(r) == oracle.closure_count(r) == group_order(r)


def test_consistency_check_exhaustive_r2():
    assert consistency_check(2) > 27**3


def test_consistency_check_randomized():
    consistency_check(3, seed=1)
    consistency_check(4, seed=2)


def test_consistency_check_counts_like_the_oracle():
    # the count depends on r alone, not on the seed
    for r in range(6):
        want = oracle.consistency_check(r)
        assert consistency_check(r) == consistency_check(r, seed=3) == want, r


def _columns(rows):
    return [np.array(x, dtype=np.int8) for x in zip(*rows)]


def test_column_products_match_multiply_and_inverse():
    # v in normal form, w with exponents (and b, c digits) in -2..2
    rng = random.Random(29)
    for r in range(1, 7):
        dim = bg._dim(r)
        vs = [[rng.randrange(3) for _ in range(dim)] for _ in range(150)]
        ws = [[rng.randrange(-2, 3) for _ in range(dim)] for _ in range(150)]
        prod = bg._product(_columns(vs), _columns(ws), r)
        inv = bg._inverse(_columns(ws), r)
        for i, (v, w) in enumerate(zip(vs, ws)):
            g, h = bg._element(r, v), bg._element(r, w)
            assert bg._element(r, [int(x[i]) for x in prod]) == multiply(g, h)
            assert bg._element(r, [int(x[i]) for x in inv]) == inverse(h)


def _mutated_tables(r):
    """Every step table of `_tables(r)` with one term deleted or with the
    sign of one term flipped."""
    labels, steps = bg._tables(r)
    for k, step in enumerate(steps):
        for i, (target, coeff, sources) in enumerate(step):
            for terms in ((), ((target, -coeff, sources),)):
                step_k = step[:i] + terms + step[i + 1 :]
                yield labels, steps[:k] + (step_k,) + steps[k + 1 :]


def test_column_check_rejects_every_mutation_the_oracle_rejects(monkeypatch):
    tables = bg._tables
    rejected = 0
    for table in _mutated_tables(3):
        monkeypatch.setattr(bg, "_tables", lambda r: table if r == 3 else tables(r))
        try:
            oracle.consistency_check(3, triples=200)
        except CrossCheckError as exc:
            rejected += 1
            with pytest.raises(CrossCheckError, match=f"^{exc}$"):
                consistency_check(3)
    assert rejected == 2 * sum(map(len, tables(3)[1])) == 20


def test_column_check_catches_an_inverse_fault_past_the_overlaps(monkeypatch):
    # the generator overlaps, associativity and exponent-3 checks never
    # call `_inverse`, so one wrong digit in it passes them and first
    # fails the 2-Engel law
    right = bg._inverse

    def wrong(v, r):
        w = right(v, r)
        w[0] = (w[0] + 1) % 3
        return w

    monkeypatch.setattr(bg, "_inverse", wrong)
    with pytest.raises(CrossCheckError, match="^2-Engel failed$"):
        consistency_check(4)


def test_consistency_check_leaves_numpy_random_unimported():
    # importing numpy.random costs about 6 MB of resident memory
    code = (
        "import sys; from tanglelab.burnside3 import consistency_check; "
        "consistency_check(4); print('numpy.random' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(bg.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _key(g):
    return sum(x * 3**d for d, x in enumerate(g.a + g.b + g.c))


def _assert_array_step_matches_multiply(r, elements):
    keys = np.array([_key(g) for g in elements], dtype=np.int32)
    digits = bg._digits(keys, bg._dim(r))
    _, steps = bg._tables(r)
    for k, step in enumerate(steps):
        gen = generator(r, k + 1)
        want = [_key(multiply(g, gen)) for g in elements]
        v = list(digits)
        bg._collect(v, step)
        got = sum(v[d].astype(np.int64) * 3**d for d in range(len(v)))
        assert got.tolist() == want, k
        assert np.array_equal(digits, bg._digits(keys, len(v)))  # not mutated


def test_array_step_matches_multiply_exhaustive_r3():
    keys = range(group_order(3))
    elements = [bg._element(3, [(x // 3**d) % 3 for d in range(7)]) for x in keys]
    assert sorted(map(_key, elements)) == list(keys)
    _assert_array_step_matches_multiply(3, elements)


def test_array_step_matches_multiply_random_r4():
    rng = random.Random(19)
    _assert_array_step_matches_multiply(4, [rand_elem(4, rng) for _ in range(10**4)])


def _unit_collect(v, step, times):
    for _ in range(times % 3):
        bg._collect(v, step)


def _unit_multiply(g, h):
    """multiply with x_k applied h.a[k] times one unit step at a time."""
    _, steps = bg._tables(g.rank)
    v = [*g.a, *g.b, *g.c]
    for step, n in zip(steps, h.a):
        _unit_collect(v, step, n)
    for d, x in enumerate(h.b + h.c, g.rank):
        v[d] = (v[d] + x) % 3
    return bg._element(g.rank, v)


def _unit_inverse(g):
    _, steps = bg._tables(g.rank)
    v = [0] * g.rank + [(-x) % 3 for x in g.b + g.c]
    for k in reversed(range(g.rank)):
        _unit_collect(v, steps[k], -g.a[k])
    return bg._element(g.rank, v)


def _unit_word(r, word):
    _, steps = bg._tables(r)
    v = [0] * bg._dim(r)
    for x in word:
        _unit_collect(v, steps[abs(x) - 1], 1 if x > 0 else -1)
    return bg._element(r, v)


def test_scaled_steps_match_unit_steps():
    r2 = [bg._element(2, [(x // 3**d) % 3 for d in range(3)]) for x in range(27)]
    pairs = [(g, h) for g in r2 for h in r2]
    rng = random.Random(23)
    for r in (3, 4):
        pairs += [(rand_elem(r, rng), rand_elem(r, rng)) for _ in range(500)]
    for g, h in pairs:
        assert multiply(g, h) == _unit_multiply(g, h)
        assert inverse(g) == _unit_inverse(g)
    for r in (1, 2, 3, 4, 5):
        for _ in range(100):
            w = [rng.choice([x for x in range(-r, r + 1) if x]) for _ in range(12)]
            assert evaluate_word(r, w) == _unit_word(r, w)


def test_step_reading_its_own_target_is_refused(monkeypatch):
    step = bg._step

    def bad(index, r, k):
        # x_1 writes b_12; let it also read b_12 for the c_123 digit
        terms = step(index, r, k)
        return terms + ((index[0, 1, 2], 1, (index[0, 1],)),) if k == 0 else terms

    assert bg._tables.__wrapped__(3) == bg._tables(3)
    monkeypatch.setattr(bg, "_step", bad)
    with pytest.raises(CrossCheckError, match="x_1 reads one of its targets"):
        bg._tables.__wrapped__(3)


def test_broken_step_table_fails_the_closure_count(monkeypatch):
    tables = bg._tables
    labels, steps = tables(3)
    # drop the term by which x_1 moves b_12: b_12 then never changes
    b12 = labels.index((0, 1))
    step0 = tuple(t for t in steps[0] if t[0] != b12)
    assert len(step0) == len(steps[0]) - 1
    broken = (labels, (step0,) + steps[1:])
    monkeypatch.setattr(bg, "_tables", lambda r: broken if r == 3 else tables(r))
    with pytest.raises(CrossCheckError, match="closure found 729 elements"):
        enumerate_group(3)
    with pytest.raises(CrossCheckError):
        consistency_check(3)
    out = io.StringIO()
    assert cli.run(["burnside", "enumerate", "-r", "3"], stdout=out) == 4
    assert out.getvalue().startswith("error = closure found 729")


def test_step_reading_a_central_digit_is_refused(monkeypatch):
    step = bg._step

    def bad(index, r, k):
        # x_3 also moves a by the central digit c_123
        terms = step(index, r, k)
        return terms + ((0, 1, (index[0, 1, 2],)),) if k == 2 else terms

    monkeypatch.setattr(bg, "_step", bad)
    monkeypatch.setattr(bg, "_tables", bg._tables.__wrapped__)
    with pytest.raises(CrossCheckError, match="x_3 reads a central digit"):
        enumerate_group(3)
    out = io.StringIO()
    assert cli.run(["burnside", "enumerate", "-r", "3"], stdout=out) == 4
    assert out.getvalue() == "error = the step of x_3 reads a central digit\n"


def test_closure_count_matches_the_oracle_with_one_term_dropped(monkeypatch):
    tables = bg._tables
    labels, steps = tables(3)
    broken = []
    for k, step in enumerate(steps):
        for i in range(len(step)):
            table = steps[:k] + (step[:i] + step[i + 1 :],) + steps[k + 1 :]
            broken.append((labels, table))
    assert len(broken) == sum(map(len, steps)) == 10
    counts = []
    for table in broken:
        monkeypatch.setattr(bg, "_tables", lambda r: table if r == 3 else tables(r))
        want = oracle.closure_count(3, table[1])
        if want == group_order(3):
            assert enumerate_group(3) == want
        else:
            with pytest.raises(CrossCheckError, match=f"closure found {want} elements"):
                enumerate_group(3)
        counts.append(want)
    assert group_order(3) in counts and 729 in counts


def test_enumerate_group_4_peak_memory():
    tracemalloc.start()
    try:
        assert enumerate_group(4) == 3**14
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_P_word_nontrivial_with_trivial_abelianization():
    u = (1, -2, 3, -4)
    w = (-1, 2, -3, 4)
    inv = lambda t: tuple(-x for x in reversed(t))
    P = u + w + (4,) + inv(u) + inv(w) + (-4,)
    el = evaluate_word(4, P)
    assert not el.is_identity()
    assert not any(el.a)


def test_strand_action_inverse_law():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 5)
        i = rng.randint(1, n - 1)
        gens = [generator(n, j) for j in range(1, n + 1)]
        assert bg._strand_images(BraidWord(n, (i, -i))) == gens
        assert bg._strand_images(BraidWord(n, (-i, i))) == gens


def test_strand_action_alternating_product_invariant():
    # the alternating product g1 g2^-1 g3 g4^-1 ... is exactly preserved
    # by the core action of every braid letter
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 5)
        L = rng.randint(1, 10)
        letters = tuple(rng.choice([x for x in range(-n + 1, n) if x]) for _ in range(L))
        state = bg._strand_images(BraidWord(n, letters))
        alt = expected = identity(n)
        for j, g in enumerate(state):
            alt = multiply(alt, g if j % 2 == 0 else inverse(g))
            x = generator(n, j + 1)
            expected = multiply(expected, x if j % 2 == 0 else inverse(x))
        assert alt == expected


def test_project_away_is_homomorphism():
    rng = random.Random(13)
    for r in (2, 3, 4):
        for j in range(1, r + 1):
            for _ in range(25):
                g, h = rand_elem(r, rng), rand_elem(r, rng)
                assert project_away(multiply(g, h), j) == multiply(
                    project_away(g, j), project_away(h, j)
                )


def test_project_away_matches_killed_word_evaluation():
    rng = random.Random(17)
    for _ in range(40):
        r = rng.randint(2, 4)
        w = tuple(rng.choice([x for x in range(-r, r + 1) if x]) for _ in range(10))
        j = rng.randint(1, r)
        killed = tuple(
            (abs(x) - (abs(x) > j)) * (1 if x > 0 else -1) for x in w if abs(x) != j
        )
        assert project_away(evaluate_word(r, w), j) == evaluate_word(r - 1, killed)


def test_obstruction_trivial_braid_inconclusive():
    # no crossings: every strand image is its own generator
    for n in (2, 3, 4, 5):
        for kill in range(1, n + 1):
            rep = obstruction(BraidWord(n, ()), kill=kill)
            assert rep.verdict == "INCONCLUSIVE"
            assert len(rep.relator_images) == n
            assert all(e.is_identity() for e in rep.relator_images)
            assert rep.tri_closure == 3**n


def test_obstruction_trefoil_inconclusive():
    rep = obstruction(BraidWord(2, (1, 1, 1)))
    assert rep.verdict == "INCONCLUSIVE"
    assert all(e.is_identity() for e in rep.relator_images)
    assert rep.tri_closure == 9
    assert rep.quotient == 3  # trivial relators leave all of B(1,3)


def test_obstruction_borromean_full_quotient():
    rep = obstruction(BraidWord(3, (1, -2, 1, -2, 1, -2)))
    assert rep.quotient == 1
    assert rep.tri_closure == 3


def test_obstruction_chen_all_kills():
    for kill in range(1, 6):
        rep = obstruction(CHEN, kill=kill)
        assert rep.verdict == "OBSTRUCTED", kill
    assert obstruction(CHEN).tri_closure == 3**5


def test_obstruction_center_square_word():
    # the 5-braid (s1 s2 s3 s4)^10 reduces to Chen's word by 3-moves,
    # so it must be obstructed as well
    w = BraidWord(5, (1, 2, 3, 4) * 10)
    assert obstruction(w).verdict == "OBSTRUCTED"


def _quotient(words, r):
    return quotient_order([evaluate_word(r, w) for w in words], r)


def test_quotient_order():
    assert _quotient([], 2) == 27
    assert _quotient([(1,), (2,)], 2) == 1
    assert _quotient([(1,)], 1) == 1
    assert _quotient([], 3) == 3**7
    # one generator killed: quotient is B(2,3)
    assert _quotient([(3,)], 3) == 27


# relator words in B(3,3) and the order of the quotient by their normal
# closure: [x1,x2] = x1^-1 x2^-1 x1 x2 and the central [[x1,x2],x3]
B3_RELATOR_SETS = [
    ([], 3**7),
    ([(-2, -1, 2, 1, -3, -1, -2, 1, 2, 3)], 3**6),
    ([(-1, -2, 1, 2)], 3**5),
    ([(-1, -2, 1, 2), (-1, -3, 1, 3)], 3**4),
    ([(3,)], 27),
    ([(1, -2)], 27),
    ([(1,), (2, 3)], 3),
    ([(1,), (2,), (3,)], 1),
]


def test_quotient_order_matches_the_element_bfs():
    rng = random.Random(0)
    for _ in range(300):
        r = rng.randint(1, 2)
        words = [
            [rng.choice((1, -1)) * rng.randint(1, r) for _ in range(rng.randint(0, 8))]
            for _ in range(rng.randint(0, 3))
        ]
        images = [evaluate_word(r, w) for w in words]
        assert quotient_order(images, r) == oracle.quotient_order_elements(images, r)
    for words, want in B3_RELATOR_SETS:
        images = [evaluate_word(3, w) for w in words]
        assert quotient_order(images, 3) == want, words
        assert oracle.quotient_order_elements(images, 3) == want, words


def _quotient_and_tri(word, kill=None):
    rep = obstruction(word, kill=kill)
    return quotient_order(rep.relator_images, word.strands - 1), rep.tri_closure


def test_quotient_is_invariant_under_kills_conjugation_and_stabilization():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(2, 4)
        length = rng.randint(0, 10)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        word = BraidWord(n, letters)
        want = _quotient_and_tri(word)
        for kill in range(1, n):
            assert _quotient_and_tri(word, kill) == want, (word, kill)
        x = rng.choice((1, -1)) * rng.randint(1, n - 1)
        assert _quotient_and_tri(BraidWord(n, (x, *letters, -x))) == want, (word, x)
        sign = rng.choice((1, -1))
        stabilized = BraidWord(n + 1, (*letters, sign * n))
        assert _quotient_and_tri(stabilized) == want, (word, sign)
    for kill in range(1, 6):
        assert quotient_order(obstruction(CHEN, kill).relator_images, 4) == 3**10
