import hashlib
import math
import random
from collections import Counter
from itertools import permutations

import pytest
from example_links import figure_eight, trefoil, trivial_link

from tanglelab import move_calculus, tangle_core
from tanglelab.errors import BudgetExceededError, ConwaySyntaxError, NotRationalError
from tanglelab.fox_coloring import ImageTable, expr_boundary_image, tri
from tanglelab.move_calculus import boundary_invariant, splice_identity_site
from tanglelab.tangle_core import (
    INF,
    BraidWord,
    Compose,
    Frac,
    Infinity,
    Integer,
    Planar,
    Rational,
    Rot,
    Sigma,
    TangleDiagram,
    braid_closure,
    cf_eval,
    cf_vector,
    check_crossing_parity,
    closure,
    compile_expr,
    compose,
    diagram_to_text,
    noncrossing_matchings,
    parse_braid,
    parse_conway,
    parse_diagram_text,
    pretzel,
    print_conway,
    random_algebraic_expr,
    rational_expr,
    rotate,
    slope,
)


def test_parse_basic():
    assert parse_conway("0") == Integer(0)
    assert parse_conway("(r(1)*1)") == Compose(Rot(Integer(1)), Integer(1))
    assert parse_conway("T(2,3,2)") == Rational(2, 3, 2)
    assert parse_conway(" inf ") == Infinity()
    assert parse_conway("-17") == Integer(-17)


def test_parse_errors_carry_position():
    with pytest.raises(ConwaySyntaxError):
        parse_conway("(1*")
    with pytest.raises(ConwaySyntaxError):
        parse_conway("foo")
    with pytest.raises(ConwaySyntaxError):
        parse_conway("1 2")
    with pytest.raises(ConwaySyntaxError):
        parse_conway(str(2**40))


def test_print_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        e = random_conway(rng, 3)
        assert parse_conway(print_conway(e)) == e


def random_conway(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        c = rng.random()
        if c < 0.5:
            return Integer(rng.randint(-4, 4))
        if c < 0.7:
            return Infinity()
        return Rational(*[rng.choice([1, 2, 3, -1, -2]) for _ in range(rng.randint(1, 3))])
    if rng.random() < 0.5:
        return Rot(random_conway(rng, depth - 1))
    return Compose(random_conway(rng, depth - 1), random_conway(rng, depth - 1))


def test_compile_twists():
    d = compile_expr(Integer(3))
    assert len(d.crossings) == 3
    assert d.closed_components == 0
    assert d.n == 2


def test_compile_infinity_squared_makes_circle():
    d = compile_expr(Compose(Infinity(), Infinity()))
    assert d.closed_components == 1
    assert len(d.crossings) == 0
    # boundary connectivity is the infinity tangle: x1-x2 and x3-x4
    b = d.boundary
    assert b[0] == b[1] and b[2] == b[3] and b[0] != b[2]


def test_compile_rational_crossing_count():
    d = compile_expr(Rational(2, 3, 2))
    assert len(d.crossings) == 7
    assert d.closed_components == 0


def test_rotate_four_times_identity():
    for text in ("T(2,3)", "(r(1)*1)", "inf", "-2"):
        e = parse_conway(text)
        d1 = compile_expr(e)
        d2 = compile_expr(Rot(Rot(Rot(Rot(e)))))
        assert d1 == d2


def test_rotate_zero_gives_infinity_connectivity():
    d = compile_expr(Rot(Integer(0)))
    b = d.boundary
    assert b[0] == b[1] and b[2] == b[3]


def test_arc_and_crossing_wellformedness_random():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.choice((2, 3, 4))
        e = random_algebraic_expr(n, rng, max_depth=3)
        d = compile_expr(e)
        d.validate()
        assert d.n == n


# sha256 of the printed draws of n in {2, 3, 4}, depth in {3, 4} and
# seeds 0..199, one line each: `move-check` sees these same trees
DRAWS_SHA256 = "37426e4f39d7d0b6599ad691d8879659236bf1f13887b20ed02c3470d51e3750"


def test_random_draws_are_pinned():
    h = hashlib.sha256()
    for n in (2, 3, 4):
        for depth in (3, 4):
            for seed in range(200):
                e = random_algebraic_expr(n, random.Random(seed), depth)
                h.update(print_conway(e).encode() + b"\n")
    assert h.hexdigest() == DRAWS_SHA256


def test_slope_values():
    assert slope(Rational(2, 3, 2)) == Frac.make(16, 7)
    assert slope(Integer(0)) == Frac.make(0)
    assert slope(Infinity()) == INF
    assert slope(compose(Integer(1), Integer(2))) == Frac.make(3)
    assert slope(rotate(Integer(2))) == Frac.make(-1, 2)
    # full turn preserves the slope
    e = Rational(3, -2, 1)
    assert slope(Rot(Rot(Rot(Rot(e))))) == slope(e)


def test_slope_rejects_nonrational():
    with pytest.raises(NotRationalError):
        slope(pretzel(3, -3))


def test_slope_matches_rational_expansion():
    rng = random.Random(9)
    for _ in range(80):
        entries = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randint(1, 5))]
        v = cf_eval(entries)
        assert slope(rational_expr(entries)) == v
        assert slope(Rational(*entries)) == v


def test_cf_vector_roundtrip():
    rng = random.Random(31)
    for _ in range(200):
        num = rng.randint(-40, 40)
        den = rng.randint(1, 40)
        f = Frac.make(num, den)
        assert cf_eval(cf_vector(f)) == f


def test_braid_permutation_and_closure_counts():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(2, 5)
        L = rng.randint(0, 8)
        w = BraidWord(n, tuple(rng.choice([x for x in range(-n + 1, n) if x]) for _ in range(L)))
        d = braid_closure(w)
        assert len(d.crossings) == L
        perm = w.permutation()
        ncomp = count_cycles(perm)
        assert diagram_components(d) == ncomp


def count_cycles(perm):
    seen = set()
    c = 0
    for s in range(len(perm)):
        if s not in seen:
            c += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return c


def diagram_components(d):
    """Count link components: arcs joined through crossings' under-strands
    plus free circles."""
    parent = {a: a for a in d.arcs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in d.crossings:
        ra, rb = find(c.under_in), find(c.under_out)
        parent[rb] = ra
    comps = {find(a) for a in d.arcs}
    return len(comps) + d.closed_components


def test_trefoil_shape():
    d = trefoil()
    assert len(d.arcs) == 3
    assert len(d.crossings) == 3
    assert d.closed_components == 0


def test_figure_eight_shape():
    d = figure_eight()
    assert len(d.arcs) == 4
    assert len(d.crossings) == 4


def test_trivial_links():
    for n in range(1, 5):
        d = trivial_link(n)
        assert d.closed_components == n
        assert not d.arcs


def test_closures():
    t0 = compile_expr(Integer(0))
    num = closure(t0, "numerator")
    assert num.closed_components == 2 and not num.crossings
    den = closure(t0, "denominator")
    assert den.closed_components == 1 and not den.crossings
    tre = closure(compile_expr(Integer(3)), "numerator")
    assert len(tre.crossings) == 3
    assert diagram_components(tre) == 1


def test_parse_braid_forms():
    w = parse_braid("braid 2: 1 1 1")
    assert w == BraidWord(2, (1, 1, 1))
    assert parse_braid("3: 1 -2") == BraidWord(3, (1, -2))
    with pytest.raises(ValueError):
        parse_braid("2: 5")


def test_diagram_text_roundtrip():
    for d in (trefoil(), compile_expr(Rational(2, 3)), compile_expr(Infinity())):
        text = diagram_to_text(d)
        d2 = parse_diagram_text(text)
        assert d2 == d
    with_comment = "# a trefoil\nX 0 1 2 1\nX 2 0 1 1\nX 1 2 0 1\n"
    d = parse_diagram_text(with_comment)
    assert len(d.crossings) == 3 and d.boundary == ()


def test_noncrossing_matchings_are_catalan():
    assert [len(noncrossing_matchings(n)) for n in (1, 2, 3, 4)] == [1, 2, 5, 14]
    for m in noncrossing_matchings(3):
        # every chord of a planar matching joins opposite parities
        assert all((a + b) % 2 == 1 for a, b in m.pairs)
    # the filter of `all_matchings` keeps its lexicographic order, on
    # which seeded expressions and the realization closure depend
    for n in range(1, 7):
        ms = [m.pairs for m in noncrossing_matchings(n)]
        assert len(ms) == math.comb(2 * n, n) // (n + 1), n
        assert all(x < y for x, y in zip(ms, ms[1:])), n
        for m in ms:
            assert sorted(p for pair in m for p in pair) == list(range(1, 2 * n + 1))
            crossing = [(u, v) for u, v in permutations(m, 2) if u[0] < v[0] < u[1] < v[1]]
            assert not crossing, m


def test_expr_width_checks():
    # the width of an expression is read off its structural image
    assert expr_boundary_image(Rational(2, 2), 3).ambient == 4
    assert expr_boundary_image(Sigma(3, 2, -1), 3).ambient == 6
    with pytest.raises(ValueError, match="equal widths"):
        expr_boundary_image(Compose(Integer(1), Sigma(3, 1, 1)), 3)
    with pytest.raises(ValueError, match="defined for 2-tangles"):
        boundary_invariant(Sigma(3, 2, -1), 5)


def test_crossing_count_is_the_compiled_count():
    rng = random.Random(44)
    exprs = [Compose(Rot(Integer(-7)), Rational(3, -2)), Infinity(), Planar(((1, 2), (3, 4)))]
    for _ in range(30):
        exprs.append(Rational(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]))
        exprs.append(random_algebraic_expr(rng.randint(2, 4), rng, max_depth=4))
    for e in exprs:
        assert tangle_core._crossing_count(e) == len(compile_expr(e).crossings), e


def test_rational_compiles_like_its_expansion():
    # `Rational` leaves are built by a loop, the expansion by recursion:
    # the diagrams and the interned boundary images must be the same
    rng = random.Random(45)
    for _ in range(150):
        v = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12))]
        assert compile_expr(Rational(*v)) == compile_expr(rational_expr(v)), v
        for p in (2, 5):
            loop, tree = ImageTable(p), ImageTable(p)
            assert loop.expr(Rot(Rational(*v))) == tree.expr(Rot(rational_expr(v)))
            assert loop.images == tree.images, (v, p)


def _sigma_composed_build(b, expr):
    """The compiler with every twist region built as a 0-tangle composed
    with |k| one-crossing tangles `Sigma(2, 1, sign k)`: the oracle for
    twist regions hung from the corners as a 2-strand braid."""
    if isinstance(expr, Integer):
        corners = tangle_core._build_planar(b, ((1, 4), (2, 3)))
        s = 1 if expr.k > 0 else -1
        for _ in range(abs(expr.k)):
            corners = tangle_core._glue_compose(b, corners, tangle_core._build_sigma(b, 2, 1, s))
        return corners
    if isinstance(expr, Rational):
        return tangle_core._fold_twists(
            expr.entries,
            lambda k: _sigma_composed_build(b, Integer(k)),
            lambda corners, k: corners[-k:] + corners[:-k],
            lambda left, right: tangle_core._glue_compose(b, left, right),
        )
    if isinstance(expr, Rot):
        corners = _sigma_composed_build(b, expr.child)
        return [corners[-1]] + corners[:-1]
    if isinstance(expr, Compose):
        left = _sigma_composed_build(b, expr.left)
        return tangle_core._glue_compose(b, left, _sigma_composed_build(b, expr.right))
    return tangle_core._build(b, expr)  # crossingless leaves and Sigma


def _sigma_composed(expr):
    b = tangle_core._Builder()
    return b.finish(_sigma_composed_build(b, expr))


def test_twist_regions_compile_like_composed_crossings():
    rng = random.Random(47)
    exprs = [Integer(k) for k in range(-40, 41)]
    exprs += [Rational(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]) for _ in range(60)]
    exprs += [random_algebraic_expr(n, rng, max_depth=4) for n in (2, 3) for _ in range(150)]
    closed = 0
    for e in exprs:
        want = _sigma_composed(e)
        got = compile_expr(e)
        assert diagram_to_text(got) == diagram_to_text(want), e
        if got.n == 2:
            for kind in ("numerator", "denominator"):
                assert diagram_to_text(closure(got, kind)) == diagram_to_text(closure(want, kind))
                closed += 1
    assert closed > 300


def test_a_twist_region_builds_one_arc_per_crossing(monkeypatch):
    arcs = []
    new_arc = tangle_core._Builder.new_arc

    def counted(self, ends):
        arcs.append(ends)
        return new_arc(self, ends)

    monkeypatch.setattr(tangle_core._Builder, "new_arc", counted)
    for k in range(-30, 31):
        arcs.clear()
        assert len(compile_expr(Integer(k)).crossings) == abs(k)
        assert arcs == [2, 2] + [1] * abs(k), k


def test_numerator_closure_of_a_twist_vector_has_tri_by_its_numerator():
    # the numerator closure of T(v) is the 2-bridge link of cf_eval(v),
    # whose 3-colorings are 9 when 3 divides the numerator, else 3
    rng = random.Random(46)
    for _ in range(300):
        v = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(1, 40))]
        want = 9 if cf_eval(v).num % 3 == 0 else 3
        assert tri(closure(compile_expr(Rational(*v)), "numerator")) == want, v


def test_compile_budget(monkeypatch):
    monkeypatch.setattr(tangle_core, "MAX_CROSSINGS", 10)
    assert len(compile_expr(Compose(Integer(4), Rational(3, -3))).crossings) == 10
    for e in (Integer(11), Integer(-11), Compose(Integer(4), Rational(3, 4))):
        with pytest.raises(BudgetExceededError, match="exceed the budget of 10"):
            compile_expr(e)


def test_planar_diagrams_pass_the_crossing_parity_check():
    rng = random.Random(45)
    for _ in range(200):
        d = compile_expr(random_algebraic_expr(rng.randint(2, 5), rng, max_depth=4))
        assert parse_diagram_text(diagram_to_text(d)) == d
    for _ in range(100):
        n = rng.randint(2, 5)
        length = rng.randint(0, 30)
        letters = [rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(length)]
        d = braid_closure(BraidWord(n, letters))
        assert check_crossing_parity(d) is d


def test_crossing_parity_rejects_a_closed_strand_crossed_once():
    # arc 9 is a closed loop over one crossing of the strand 1 -> 2 -> 3
    with pytest.raises(ValueError, match="arc 9 has an odd crossing count"):
        parse_diagram_text("X 0 1 2\nX 9 2 3\nB 1 0 0 3\n")
    # two closed loops crossing each other once each way: 2 crossings
    d = parse_diagram_text("X 5 6 6\nX 6 5 5\n")
    assert len(d.crossings) == 2


def test_crossing_parity_names_the_smallest_arc_of_two_odd_closed_strands():
    # the loops 12 (three crossings) and 7 (one) are both odd; 12 comes
    # first in the file, and the even loop {5, 10} has a smaller arc
    text = "X 12 1 2\nX 7 2 3\nX 12 5 10\nX 12 10 5\nB 1 3\n"
    with pytest.raises(ValueError, match=r"arc 7 has an odd crossing count \(1\)"):
        parse_diagram_text(text)
    # the strand {4, 6, 11} runs under the loop 12 three times: both are
    # odd, and the strand's smallest arc 4 is named, not the arc 6 read first
    with pytest.raises(ValueError, match=r"arc 4 has an odd crossing count \(3\)"):
        parse_diagram_text("X 12 6 4\nX 12 11 6\nX 12 4 11\n")


def test_validate_names_the_smallest_bad_arc():
    # the arc set iterates 40 before 9, and both arcs have a bad end count
    d = TangleDiagram(frozenset({9, 40}), (), (40, 9, 9, 9), 0)
    with pytest.raises(ValueError, match=r"^arc 9 has an end count of 3, not 0 or 2$"):
        d.validate()
    d = TangleDiagram(frozenset({3, 8, 40}), (), (40, 8, 3, 8, 40, 40), 0)
    with pytest.raises(ValueError, match=r"^arc 3 has an end count of 1, not 0 or 2$"):
        d.validate()


def _reference_load(b, diagram):
    """`_load_diagram` one arc and one crossing at a time, through
    `_Builder.new_arc` and `_Builder.add_crossing`."""
    ends = Counter(diagram.boundary)
    ids = {a: b.new_arc(ends[a]) for a in sorted(diagram.arcs)}
    for over, under_in, under_out, sign in diagram.crossings:
        b.add_crossing(ids[over], ids[under_in], ids[under_out], sign)
    b.circles += diagram.closed_components
    return ids, [ids[a] for a in diagram.boundary]


def test_bulk_loader_builds_what_one_arc_at_a_time_builds(monkeypatch):
    rng = random.Random(43)
    fractions = [Frac.make(3, 1), Frac.make(5, 2), Frac.make(-13, 5), Frac.make(7, -3)]
    cases = []
    while len(cases) < 240:
        n = rng.choice((2, 2, 2, 3))
        d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
        if len(d.arcs) >= 2:
            cases.append((d, tuple(rng.sample(sorted(d.arcs), 2)), rng.choice(fractions)))
    for _ in range(20):  # closed diagrams: no boundary at all
        w = BraidWord(3, [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(5)])
        d = braid_closure(w)
        cases.append((d, tuple(rng.sample(sorted(d.arcs), 2)), rng.choice(fractions)))
    assert sum(d.closed_components > 0 for d, _, _ in cases) >= 20
    assert sum(len(set(d.boundary)) < len(d.boundary) for d, _, _ in cases) >= 20

    def build():
        out = []
        for d, site, f in cases:
            if d.n == 2:
                out += [closure(d, "numerator"), closure(d, "denominator")]
            out.append(splice_identity_site(d, site, f))
        return out

    bulk = build()
    monkeypatch.setattr(tangle_core, "_load_diagram", _reference_load)
    monkeypatch.setattr(move_calculus, "_load_diagram", _reference_load)
    assert build() == bulk
