import io
import math
import random
from itertools import product
from operator import mul

import numpy as np
import pytest
from example_links import borromean_rings, figure_eight, trefoil, trivial_link

import tanglelab.exact_linear as xl
from tanglelab.cli import run
from tanglelab.errors import CrossCheckError, NotPrimeError
from tanglelab.exact_linear import SubspaceModP
from tanglelab.fox_coloring import (
    ImageTable,
    _kernel_mod_p,
    _relation_rows,
    abf_space,
    boundary_image,
    braid_coloring_space,
    coloring_space,
    expr_boundary_image,
    reduced_boundary_image,
    tri,
    virtual_index,
)
from tanglelab.tangle_core import (
    BraidWord,
    Compose,
    Infinity,
    Integer,
    Planar,
    Rational,
    Rot,
    Sigma,
    braid_closure,
    compile_expr,
    parse_conway,
    pretzel,
    random_algebraic_expr,
    rational_expr,
    slope,
)


def brute_count(diagram, k):
    """Count Fox k-colorings by enumerating all arc assignments."""
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


def brute_abf_count(diagram, p, t):
    arcs = sorted(diagram.arcs)
    idx = {a: i for i, a in enumerate(arcs)}
    tinv = pow(t, p - 2, p)
    total = 0
    for x in product(range(p), repeat=len(arcs)):
        ok = True
        for c in diagram.crossings:
            tt = t if c.sign > 0 else tinv
            if (x[idx[c.under_out]] - (1 - tt) * x[idx[c.over]] - tt * x[idx[c.under_in]]) % p:
                ok = False
                break
        if ok:
            total += 1
    return total * p**diagram.closed_components


def test_unknot_any_k():
    unknot = braid_closure(BraidWord(2, (1,)))
    for k in (2, 3, 4, 5, 6, 9):
        assert coloring_space(unknot, k).count == k


def test_trefoil_counts():
    d = trefoil()
    assert tri(d) == 9
    assert coloring_space(d, 3).count == brute_count(d, 3) == 9


def test_trivial_links_tri():
    for n in range(1, 6):
        assert tri(trivial_link(n)) == 3**n


def test_figure_eight_five_colorings():
    d = figure_eight()
    assert brute_count(d, 5) == 25
    assert coloring_space(d, 5).count == 25


def test_borromean_tri():
    d = borromean_rings()
    assert brute_count(d, 3) == 3
    assert tri(d) == 3


def test_composite_k_against_bruteforce():
    rng = random.Random(42)
    diagrams = [
        trefoil(),
        figure_eight(),
        compile_expr(Rational(2, 2)),
        compile_expr(Integer(4)),
        braid_closure(BraidWord(2, (1, 1, 1, 1))),
    ]
    for _ in range(10):
        e = random_algebraic_expr(2, rng, max_depth=2)
        d = compile_expr(e)
        if len(d.arcs) <= 5:
            diagrams.append(d)
    for d in diagrams:
        if len(d.arcs) > 5:
            continue
        for k in (4, 6, 9):
            assert coloring_space(d, k).count == brute_count(d, k), (d, k)


def test_monochromatic_check_agrees_with_membership(monkeypatch):
    # the image check adds up the echelon rows instead of reducing the
    # all-ones vector; feed it kernels no diagram has, with and without
    # the monochromatic colorings, and compare with `contains`
    import tanglelab.fox_coloring as fox

    d = compile_expr(Integer(2))
    assert d.boundary == (1, 0, 3, 2)
    fox._ensure_calibrated()
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        p = rng.choice((3, 5, 7))
        rows = []
        for _ in range(rng.randint(0, 3)):
            a, b, c = (rng.randrange(p) for _ in range(3))
            rows.append([a, b, c, (a - b + c) % p])  # the alternating condition
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [1, 1, 1, 1])
        basis = [[v[1], v[0], v[3], v[2]] for v in rows]  # boundary arcs -> arc order
        monkeypatch.setattr(fox, "_kernel_mod_p", lambda _d, _p, basis=basis: (
            {a: a for a in range(4)}, basis))
        img = SubspaceModP.from_vectors(rows, p, 4)
        seen.add(img.contains([1, 1, 1, 1]))
        if img.contains([1, 1, 1, 1]):
            assert boundary_image(d, p) == img
        else:
            with pytest.raises(CrossCheckError, match="monochromatic colorings missing"):
                boundary_image(d, p)
    assert seen == {True, False}


def test_monochromatic_always_colors():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.choice((2, 3))
        d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
        for k in (3, 5):
            arcs, basis = _kernel_mod_p(d, k)
            kernel = SubspaceModP.from_vectors(basis, k, len(arcs))
            assert len(basis) == kernel.dim
            assert coloring_space(d, k).count == k ** (kernel.dim + d.closed_components)
            if kernel.ambient:
                assert kernel.contains([1] * kernel.ambient)


def test_prime_kernel_matches_bruteforce():
    rng = random.Random(8)
    for _ in range(20):
        d = compile_expr(random_algebraic_expr(2, rng, max_depth=2))
        if len(d.arcs) > 5:
            continue
        for p in (2, 3, 5):
            assert coloring_space(d, p).count == brute_count(d, p)


def test_boundary_image_zero_and_infinity():
    for p in (3, 5, 7):
        img0 = boundary_image(compile_expr(Integer(0)), p)
        assert img0 == SubspaceModP.from_vectors([[1, 0, 0, 1], [0, 1, 1, 0]], p, 4)
        imginf = boundary_image(compile_expr(Infinity()), p)
        assert imginf == SubspaceModP.from_vectors([[1, 1, 0, 0], [0, 0, 1, 1]], p, 4)


def test_boundary_image_twist_relations():
    # x4 - x1 = k (x2 - x1), x3 = x2 + x4 - x1 for the k-twist tangle
    for p in (3, 5, 7):
        for k in range(-4, 5):
            img = boundary_image(compile_expr(Integer(k)), p)
            want = SubspaceModP.from_vectors(
                [[1, 0, -k, 1 - k], [0, 1, 1 + k, k]], p, 4
            )
            assert img == want, (p, k)


def test_rational_slope_law():
    rng = random.Random(4)
    for _ in range(60):
        entries = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randint(1, 4))]
        e = Rational(*entries)
        s = slope(e)
        pq, q = s.num, s.den
        for p in (3, 5, 7):
            img = boundary_image(compile_expr(e), p)
            want = SubspaceModP.from_vectors(
                [[1, 1, 1, 1], [0, q, pq + q, pq]], p, 4
            )
            assert img == want, (entries, p)


def test_equal_slopes_equal_boundary_images():
    # pairs of distinct expressions with the same slope: a twist vector
    # and the canonical re-expansion of its value
    from tanglelab.tangle_core import cf_vector

    rng = random.Random(14)
    pairs = [(Rational(2, 3, 2), rational_expr([2, 3, 2]))]
    for _ in range(25):
        entries = [rng.choice([1, 2, 3, -1, -2]) for _ in range(rng.randint(1, 4))]
        e1 = Rational(*entries)
        v = slope(e1)
        if v.is_inf:
            continue
        e2 = Rational(*cf_vector(v))
        pairs.append((e1, e2))
    for e1, e2 in pairs:
        assert slope(e1) == slope(e2)
        for p in (3, 5, 7):
            assert boundary_image(compile_expr(e1), p) == boundary_image(
                compile_expr(e2), p
            ), (e1, e2, p)


def test_boundary_image_dimension_is_n():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.choice((2, 3, 4))
        d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
        for p in (3, 5):
            assert boundary_image(d, p).dim == n, d


def test_reduced_image_dimension_and_zero_tangle():
    d0 = compile_expr(Integer(0))
    red = reduced_boundary_image(d0, 3)
    assert red == SubspaceModP.from_vectors([[0, 1]], 3, 2)
    rng = random.Random(100)
    for _ in range(60):
        n = rng.choice((2, 3))
        d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
        for p in (3, 5):
            assert reduced_boundary_image(d, p).dim == n - 1


def test_not_prime_raises():
    with pytest.raises(NotPrimeError):
        boundary_image(compile_expr(Integer(1)), 6)


def test_virtual_index_examples():
    assert virtual_index(compile_expr(Integer(0))) == 1
    for p in (2, 3, 5, 7):
        assert virtual_index(compile_expr(pretzel(p, -p))) == p
    assert virtual_index(compile_expr(Rational(2, 3, 2))) == 1


def test_abf_trefoil():
    d = trefoil()
    assert abf_space(d, 7, 3).count == 49 == brute_abf_count(d, 7, 3)
    assert abf_space(d, 7, 2).count == 7 == brute_abf_count(d, 7, 2)


def test_abf_t_equals_one_counts_components():
    for braid, ncomp in [
        (BraidWord(2, (1, 1, 1)), 1),
        (BraidWord(3, (1, -2, 1, -2, 1, -2)), 3),
        (BraidWord(2, (1, 1)), 2),
        (BraidWord(3, (1, 1)), 3),
        (BraidWord(4, ()), 4),
    ]:
        d = braid_closure(braid)
        for p in (3, 5, 7):
            assert abf_space(d, p, 1).count == p**ncomp


def test_abf_requires_orientation_and_unit_t():
    d = compile_expr(Integer(2))
    with pytest.raises(ValueError):
        abf_space(d, 5, 2)
    with pytest.raises(ValueError):
        abf_space(trefoil(), 5, 0)


def test_abf_matches_bruteforce_random():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 3)
        L = rng.randint(1, 4)
        w = BraidWord(n, tuple(rng.choice([x for x in range(-n + 1, n) if x]) for _ in range(L)))
        d = braid_closure(w)
        if len(d.arcs) > 6:
            continue
        for p, t in ((3, 2), (5, 3), (7, 5)):
            assert abf_space(d, p, t).count == brute_abf_count(d, p, t)


FOX_MODULI = (2, 3, 4, 5, 6, 7, 8, 9, 12, 25, 27, 4294967311)
ABF_PAIRS = ((7, 3), (5, 2), (11, 4), (3, 2))


@pytest.mark.parametrize("seed", range(5))
def test_braid_route_counts_like_the_closure_diagram(seed):
    # the strand action and the closure diagram are independent routes:
    # the diagram route relabels arcs and eliminates crossings x arcs
    rng = random.Random(300 + seed)
    words = [BraidWord(1, ()), BraidWord(rng.randint(2, 12), ())]
    for _ in range(100):
        n = rng.randint(1, 12)
        letters = [x for x in range(1 - n, n) if x]
        words.append(BraidWord(n, [rng.choice(letters) for _ in range(rng.randint(0, 16) * (n > 1))]))
    for w in words:
        d = braid_closure(w)
        for k in FOX_MODULI:
            assert braid_coloring_space(w, k).count == coloring_space(d, k).count, (w, k)
        for p, t in ABF_PAIRS:
            assert braid_coloring_space(w, p, t).count == abf_space(d, p, t).count, (w, p, t)


def test_braid_route_rejects_what_the_diagram_routes_reject():
    w = BraidWord(3, (1, -2, 1, -2))
    d = braid_closure(w)
    for k, t, message in ((1, None, "at least 2"), (0, None, "at least 2"), (6, 3, "not prime"),
                          (6, -1, "not prime"), (7, 7, "invertible"), (7, 0, "invertible")):
        for route in (lambda: braid_coloring_space(w, k, t),
                      lambda: coloring_space(d, k) if t is None else abf_space(d, k, t)):
            with pytest.raises(ValueError, match=message):
                route()


def test_abf_matrix_at_p_minus_one_is_fox_matrix():
    rng = random.Random(8)
    diagrams = [trefoil(), figure_eight(), borromean_rings()]
    for _ in range(20):
        n = rng.randint(2, 4)
        L = rng.randint(0, 8)
        letters = tuple(rng.choice([x for x in range(-n + 1, n) if x]) for _ in range(L))
        diagrams.append(braid_closure(BraidWord(n, letters)))
    diagrams += [compile_expr(random_algebraic_expr(2, rng, 3)) for _ in range(10)]

    def relation_matrix(d, t=-1, tinv=-1):
        arcs, rows = _relation_rows(d, t, tinv)
        M = np.zeros((len(rows), len(arcs)), dtype=np.int64)
        for r, row in enumerate(rows):
            for col, a in row:
                M[r, col] += a
        return arcs, M

    for d in diagrams:
        arcs, fox = relation_matrix(d)
        # Fox: twice the over color is the sum of the under colors
        index = {a: i for i, a in enumerate(arcs)}
        want = np.zeros_like(fox)
        for r, c in enumerate(d.crossings):
            want[r, index[c.over]] += 2
            want[r, index[c.under_in]] -= 1
            want[r, index[c.under_out]] -= 1
        assert np.array_equal(fox, want)
        for p in (3, 5, 7):
            abf_arcs, abf = relation_matrix(d, p - 1, p - 1)
            assert abf_arcs == arcs
            assert np.array_equal(abf % p, fox % p)
            if all(c.sign is not None for c in d.crossings):
                assert abf_space(d, p, p - 1) == coloring_space(d, p)


# ---------------------------------------------------------------------------
# Structural boundary images of expression trees.


def test_structural_image_matches_criterion_2_corpus():
    # the trees and primes of acceptance criterion 2
    rng = random.Random(20240)
    for _ in range(500):
        n = rng.choice((2, 3, 4))
        e = random_algebraic_expr(n, rng, max_depth=3)
        d = compile_expr(e)
        for p in (3, 5, 7):
            assert expr_boundary_image(e, p) == boundary_image(d, p), (e, p)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structural_image_matches_compiled_random_trees(n):
    rng = random.Random(900 + n)
    tables = {p: ImageTable(p) for p in (2, 3, 5, 7)}
    for _ in range(60):
        e = random_algebraic_expr(n, rng, max_depth=4)
        d = compile_expr(e)
        for p, table in tables.items():
            want = boundary_image(d, p)
            assert expr_boundary_image(e, p) == want, (e, p)
            # a table kept across the trees of one prime gives the same images
            assert table.images[table.expr(e)] == want, (e, p)


def _fiber_product(left, right, p):
    """Spanning vectors of the image of the composition: pairs of vectors
    of the two images that agree on the glued points (left[2n-1-k] =
    right[k], as in `_glue_compose`), projected to left[:n] + right[n:],
    from one kernel of the n x (a + b) gluing system."""
    n, a = left.ambient // 2, len(left.rows)
    system = [
        [u[2 * n - 1 - k] for u in left.rows] + [-w[k] % p for w in right.rows]
        for k in range(n)
    ]
    kept = list(zip(*left.rows))[:n], list(zip(*right.rows))[n:]
    return [
        [sum(map(mul, c, col)) for col in kept[0]]
        + [sum(map(mul, c[a:], col)) for col in kept[1]]
        for c in xl._kernel_basis(system, p, a + len(right.rows))
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_compose_matches_the_fiber_product_oracle(p, n):
    # every pair of 30 sampled ids of a seeded table, both ways round:
    # right operands whose glued projection is onto and ones where it is not
    rng = random.Random(100 * p + n)
    table = ImageTable(p)
    for _ in range(10):
        table.expr(random_algebraic_expr(n, rng, max_depth=3))
    ids = rng.sample(range(len(table.images)), min(30, len(table.images)))
    ranks = {sum(k < n for k in table.images[j].pivots) for j in ids}
    assert n in ranks and len(ranks) > 1, ranks
    for i in ids:
        for j in ids:
            left, right = table.images[i], table.images[j]
            want = SubspaceModP.from_vectors(_fiber_product(left, right, p), p, 2 * n)
            assert table.images[table.compose(i, j)] == want, (i, j)


def test_rotating_a_rotated_id_interns_nothing_new(monkeypatch):
    # rotations are memoized by the root of the rotation orbit, also
    # once an image interned on its own turns out to be in that orbit
    table = ImageTable(3)
    leaf = table.leaf(Sigma(3, 1, 1))
    other = ImageTable(3)
    twin_image = other.images[other.rot(other.leaf(Sigma(3, 1, 1)), 2)]
    twin = table._intern(twin_image.rows, 6)
    orbit = [table.rot(leaf, k) for k in range(6)]
    assert orbit[2] == twin
    calls = []
    intern = table._intern
    monkeypatch.setattr(table, "_intern", lambda *a: calls.append(a) or intern(*a))
    held = len(table.images)
    for start, j in [*enumerate(orbit), (2, twin)]:
        for k in range(-7, 8):
            assert table.rot(j, k) == orbit[(start + k) % 6], (start, k)
    assert (calls, len(table.images)) == ([], held)


def test_structural_image_of_twist_tangles():
    for k in range(-40, 41):
        for p in (2, 3, 5, 7):
            want = boundary_image(compile_expr(Integer(k)), p)
            assert expr_boundary_image(Integer(k), p) == want, (k, p)


def test_structural_image_of_leaves_and_rational_tangles():
    for n in (2, 3, 4, 5, 6):
        for i in range(1, n):
            for sign in (1, -1):
                e = Sigma(n, i, sign)
                for p in (2, 3, 5, 7):
                    assert expr_boundary_image(e, p) == boundary_image(compile_expr(e), p)
    rng = random.Random(31)
    for _ in range(40):
        entries = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        e = Rot(Rational(*entries)) if rng.random() < 0.5 else Rational(*entries)
        for p in (3, 5, 7, 11):
            assert expr_boundary_image(e, p) == boundary_image(compile_expr(e), p), (e, p)
    for e in (Infinity(), Compose(Infinity(), Infinity())):
        assert expr_boundary_image(e, 3) == boundary_image(compile_expr(e), 3)


def test_structural_image_needs_no_compile_for_long_twists():
    # the closed form of a twist region: no crossing is built
    k = 10**12
    img = expr_boundary_image(Integer(k), 7)
    assert img == SubspaceModP.from_vectors([[1, 1, 1, 1], [0, 1, 1 + k, k]], 7, 4)


def test_structural_image_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        expr_boundary_image(Integer(1), 4)
    with pytest.raises(ValueError, match="equal widths"):
        expr_boundary_image(Compose(Integer(1), Sigma(3, 1, 1)), 3)
    with pytest.raises(ValueError, match="no boundary"):
        expr_boundary_image(Planar(()), 3)
    with pytest.raises(TypeError):
        expr_boundary_image(Rot("1"), 3)


def test_structural_image_of_long_rotation_chains():
    # k quarter turns are one corner shift by k mod 2n: chains of 2n and
    # more turns wrap around, on leaves and inside compositions
    rng = random.Random(77)
    for n in (2, 3, 4):
        for _ in range(12):
            e = random_algebraic_expr(n, rng, max_depth=2)
            k = rng.randrange(2 * n, 6 * n)
            chain = e
            for _ in range(k):
                chain = Rot(chain)
            for e2 in (chain, Compose(chain, Rot(Rot(chain)))):
                for p in (3, 5):
                    want = boundary_image(compile_expr(e2), p)
                    assert expr_boundary_image(e2, p) == want, (e2, p)


def test_each_query_tests_primality_once():
    # every routine checks its own modulus, and `is_prime` is memoized:
    # testing this prime costs tens of microseconds, and it runs once per
    # query however many routines check it
    p, expr = 4294967311, parse_conway("T(2,3,2)")
    link, tangle = braid_closure(BraidWord(3, (1, -2, 1, -2))), compile_expr(expr)
    boundary_image(tangle, 5)  # the one-time calibration tests 5
    queries = (
        lambda: coloring_space(link, p),
        lambda: abf_space(link, p, 3),
        lambda: boundary_image(tangle, p),
        lambda: reduced_boundary_image(tangle, p),
        lambda: expr_boundary_image(expr, p),
        lambda: run(["color", "--mod", str(p), "--braid", "3: 1 -2 1 -2"], io.StringIO()),
        lambda: run(["boundary", "--p", str(p), "--conway", "T(2,3,2)"], io.StringIO()),
    )
    for i, query in enumerate(queries):
        xl.is_prime.cache_clear()
        query()
        info = xl.is_prime.cache_info()
        assert (info.misses, info.currsize) == (1, 1), (i, info)
