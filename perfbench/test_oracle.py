"""The oracle against brute force on small cases.

    python3 -m pytest perfbench/test_oracle.py
"""

import random
from itertools import product

import numpy as np
import pytest

import oracle
from workloads import _Strands, random_braid

BRUTE_LIMIT = 200_000


def _closed(strands, slices):
    """Closed diagram from (level, sign) crossings and (level, 0) cap-cups."""
    s = _Strands(strands)
    for i, sign in slices:
        if sign:
            s.cross(i, sign)
        else:
            s.cap_cup(i)
    s.close()
    return s.diagram(open_ends=False)


def brute_count(crossings, circles, k, signs=None, t=-1):
    """Colorings of every arc by enumeration of all k^arcs assignments.

    With signs, the twisted relation out = (1-t) over + t in holds at
    positive crossings and t^-1 replaces t at negative ones; without, the
    Fox relation 2 over = in + out.
    """
    arcs = sorted({a for c in crossings for a in c})
    if k ** len(arcs) > BRUTE_LIMIT:
        return None
    col = {a: i for i, a in enumerate(arcs)}
    X = np.indices((k,) * len(arcs)).reshape(len(arcs), -1).T if arcs else np.zeros((1, 0), int)
    ok = np.ones(len(X), dtype=bool)
    for n, (o, i, u) in enumerate(crossings):
        xo, xi, xu = X[:, col[o]], X[:, col[i]], X[:, col[u]]
        if signs is None:
            ok &= (2 * xo - xi - xu) % k == 0
        else:
            tt = t % k if signs[n] > 0 else pow(t, -1, k)
            ok &= ((1 - tt) * xo + tt * xi - xu) % k == 0
    return int(ok.sum()) * k**circles


@pytest.mark.parametrize("k", [3, 5, 6, 9])
def test_fox_closure_counts_match_brute_force(k):
    rng = random.Random(k)
    checked = 0
    while checked < 25:
        strands = rng.choice((2, 3, 4))
        letters = random_braid(rng, strands, rng.randrange(0, 7))
        crossings, _, circles = _closed(strands, [(abs(x) - 1, x) for x in letters])
        want = brute_count(crossings, circles, k)
        if want is None:
            continue
        assert oracle.closure_coloring_count(strands, letters, k) == want, letters
        checked += 1


def test_abf_closure_counts_match_brute_force():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        strands = rng.choice((2, 3, 4))
        letters = random_braid(rng, strands, rng.randrange(0, 7))
        crossings, _, circles = _closed(strands, [(abs(x) - 1, x) for x in letters])
        want = brute_count(crossings, circles, 7, signs=letters, t=3)
        if want is None:
            continue
        assert oracle.closure_coloring_count(strands, letters, 7, t=3) == want, letters
        checked += 1


def test_rank_count_matches_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        strands = rng.choice((3, 4, 5))
        letters = random_braid(rng, strands, rng.randrange(1, 30))
        for p, t in ((5, -1), (7, -1), (7, 3), (11, 2)):
            M = oracle.braid_action(strands, letters, p, t)
            assert oracle.fixed_point_count_prime(M, p) == oracle.fixed_point_count(M, p)


def test_big_prime_figure_eight():
    # determinant 5: over F_p with p > 5 only the constant colorings remain
    p = 4294967311
    assert oracle.is_prime(p)
    assert oracle.closure_coloring_count(3, [1, -2, 1, -2], p) == p


def test_numerator_closure_counts_match_brute_force():
    """N(a/b) for a twist vector of odd length is the 4-plat closure of
    s2^a1 s1^-a2 s2^a3; its Fox colorings are counted by brute force and
    compared with k gcd(k, num)."""
    rng = random.Random(3)
    for _ in range(30):
        entries = [rng.choice((1, -1)) * rng.randrange(1, 4) for _ in range(rng.choice((1, 3)))]
        slices = [(0, 0), (2, 0)]
        for j, a in enumerate(entries):
            level, sign = (1, 1) if j % 2 == 0 else (0, -1)
            slices += [(level, sign if a > 0 else -sign)] * abs(a)
        slices += [(0, 0), (2, 0)]
        s = _Strands(4)
        for level, sign in slices:
            if sign:
                s.cross(level, sign)
            else:
                s.cap_cup(level)
        crossings, _, circles = s.diagram(open_ends=False)
        slope = oracle.twist_vector_slope(entries)
        for k in (3, 5):
            want = brute_count(crossings, circles, k)
            if want is not None:
                assert oracle.numerator_closure_count(slope, k) == want, entries


def test_conway_slopes():
    assert oracle.conway_slope("3") == (3, 3)
    assert oracle.conway_slope("r(2)") == (oracle.Fraction(-1, 2), 2)
    assert oracle.conway_slope("(r(2)*1)") == (oracle.Fraction(1, 2), 3)
    assert oracle.conway_slope("r(0)")[0] is None
    assert oracle.conway_slope("T(2,3)") == (oracle.Fraction(7, 2), 5)
    assert oracle.twist_vector_slope([2, 3]) == 3 + oracle.Fraction(1, 2)


def test_tangle_boundary_dimension_by_brute_force():
    """Boundary colorings of small random n-tangles span an n-dimensional
    space that holds the monochromatic vector and the alternating sums."""
    from workloads import random_tangle

    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(10):
            crossings, boundary, circles = random_tangle(rng, n, rng.randrange(1, 5))
            arcs = sorted({a for c in crossings for a in c} | set(boundary))
            p = 3
            if p ** len(arcs) > BRUTE_LIMIT:
                continue
            col = {a: i for i, a in enumerate(arcs)}
            rows = []
            for x in product(range(p), repeat=len(arcs)):
                if all((2 * x[col[o]] - x[col[i]] - x[col[u]]) % p == 0 for o, i, u in crossings):
                    rows.append([x[col[a]] for a in boundary])
            psi, _ = oracle.rref(rows, p)
            assert len(psi) == n
            assert len(oracle.rref(psi + [[1] * (2 * n)], p)[0]) == n
            for r in psi:
                assert sum((-1) ** i * v for i, v in enumerate(r)) % p == 0


def test_lagrangian_counts_by_brute_force():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        d = 2 * n - 2
        found = set()
        for rows in product(product(range(p), repeat=d), repeat=n - 1):
            if oracle.is_lagrangian([list(r) for r in rows], p, n):
                found.add(tuple(map(tuple, oracle.rref([list(r) for r in rows], p)[0])))
        assert len(found) == oracle.lagrangian_count(p, n)


def _heisenberg(word):
    """B(2,3) is the Heisenberg group over F_3: x -> [[1,1,0],[0,1,0],[0,0,1]],
    y -> [[1,0,0],[0,1,1],[0,0,1]]."""
    gens = {1: np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            2: np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]])}
    m = np.eye(3, dtype=int)
    for x in word:
        g = gens[abs(x)] if x > 0 else np.linalg.matrix_power(gens[abs(x)], 2)
        m = m @ g % 3
    return m


def test_burnside_word_claims_in_heisenberg_group():
    rng = random.Random(2)
    assert [oracle.burnside_order(r) for r in (1, 2, 3, 4)] == [3, 27, 3**7, 3**14]
    for _ in range(50):
        w = [rng.choice((1, -1)) * rng.randrange(1, 3) for _ in range(rng.randrange(1, 9))]
        v = [rng.choice((1, -1)) * rng.randrange(1, 3) for _ in range(rng.randrange(1, 9))]
        one = np.eye(3, dtype=int)
        assert (_heisenberg(w * 3) == one).all()
        assert (_heisenberg(oracle.commutator(oracle.commutator(w, v), v)) == one).all()
        m = _heisenberg(w)
        assert [int(m[0, 1]), int(m[1, 2])] == oracle.exponent_sums(w, 2)
