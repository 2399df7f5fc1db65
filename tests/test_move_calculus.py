import io
import random

import pytest
from dense_oracle import dense_count, dense_reduced_image
from example_links import point_to_line, trefoil

import tanglelab.move_calculus as mv
from tanglelab import cli
from tanglelab.errors import CrossCheckError, InvalidSiteError, NotPrimeError
from tanglelab.fox_coloring import coloring_space, reduced_boundary_image, tri
from tanglelab.move_calculus import (
    boundary_invariant,
    certificate_lines,
    fraction_shift_identities,
    horizontal_family,
    invariance_harness,
    line_to_point,
    mq_to_fraction,
    reduce_2algebraic,
    reduce_rational,
    replay_certificate,
    splice_identity_site,
    target_table,
)
from tanglelab.tangle_core import (
    INF,
    Compose,
    Frac,
    Infinity,
    Integer,
    Rational,
    Rot,
    braid_closure,
    BraidWord,
    compile_expr,
    compose,
    parse_conway,
    pretzel,
    random_algebraic_expr,
    rational_expr,
    rotate,
)


def test_mq_to_fraction():
    assert mq_to_fraction(2, 2) == Frac.make(5, 2)
    assert mq_to_fraction(2, 3) == Frac.make(7, 3)
    assert mq_to_fraction(1, 1) == Frac.make(2, 1)


def test_fraction_shift_identities():
    assert fraction_shift_identities(13, 5) == (Frac.make(13, 8), Frac.make(-13, 18))
    assert fraction_shift_identities(3, 1) == (Frac.make(3, 2), Frac.make(-3, 4))
    assert fraction_shift_identities(5, 2) == (Frac.make(5, 3), Frac.make(-5, 7))
    with pytest.raises(ValueError):
        fraction_shift_identities(6, 3)


def test_horizontal_family_has_p_plus_one_points():
    for p in (3, 5, 7, 11, 13):
        assert len(horizontal_family(p)) == p + 1
        assert len(target_table(p)) == p + 1


def test_boundary_invariant_examples():
    assert boundary_invariant(Integer(0), 3) == (0, 1)
    # r(1) has point [-1 : 1], normalized to leading coefficient one
    a, b = boundary_invariant(rotate(Integer(1)), 5)
    assert (a, b) == (1, (5 - 1) % 5)  # [-1 : 1] = [1 : -1]
    pt = boundary_invariant(Compose(Rot(Integer(1)), Rot(Integer(1))), 3)
    assert pt == boundary_invariant(Integer(1), 3)  # -2 = 1 mod 3


def test_boundary_invariant_structural_vs_direct_random():
    # the structural gluing rules must agree with the compiled image;
    # boundary_invariant raises on any mismatch, so this is a hard check
    rng = random.Random(202)
    counts = {p: 0 for p in (3, 5, 7, 11, 13)}
    for _ in range(1000):
        e = random_algebraic_expr(2, rng, max_depth=3)
        for p in counts:
            boundary_invariant(e, p)
            counts[p] += 1
    assert all(v == 1000 for v in counts.values())


def test_boundary_invariant_rejects_p2():
    with pytest.raises(NotPrimeError):
        boundary_invariant(Integer(1), 2)


def test_boundary_invariant_infinity_heavy_expressions():
    # compositions of infinity tangles close circles; the structural
    # gluing rules must still match the compiled diagrams exactly
    rng = random.Random(99)

    def deep(depth):
        if depth == 0 or rng.random() < 0.35:
            c = rng.random()
            if c < 0.3:
                return parse_conway("inf")
            if c < 0.7:
                return Integer(rng.randint(-3, 3))
            return Rational(*[rng.choice([1, 2, -1, -2]) for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.4:
            return Rot(deep(depth - 1))
        return Compose(deep(depth - 1), deep(depth - 1))

    circles = 0
    for _ in range(300):
        e = deep(4)
        circles += compile_expr(e).closed_components
        for p in (3, 7, 13):
            boundary_invariant(e, p)  # raises CrossCheckError on mismatch
    assert circles > 0  # the corpus really does exercise closed components


def test_reduce_rational_examples():
    res = reduce_rational(Frac.make(3, 1), 3)
    assert res.target == Frac.make(0)
    assert len(res.certificate) == 1

    res = reduce_rational(Frac.make(16, 7), 3)
    assert res.target == Frac.make(1)
    assert replay_certificate(Frac.make(16, 7), res.certificate, 3) == res.target

    res = reduce_rational(Frac.make(5, 1), 13)
    assert res.target == Frac.make(5)
    assert res.certificate == ()


def test_forced_large_s_happens_only_at_five_mod_thirteen():
    # audit: for p <= 13, a kill of the innermost column k needs a move
    # with |s| > 1 exactly when p = 13 and k = +-5 mod 13, and the
    # two-part decomposition into s = +-1 moves always exists there
    from tanglelab.move_calculus import _best_kill, _composite_parts

    for p in (3, 5, 7, 11, 13):
        half = (p - 1) // 2
        for a1 in range(-half, half + 1):
            if a1 % p == 0:
                continue
            kprime, s = _best_kill(a1, p)
            forced = abs(s) > 1
            assert forced == (p == 13 and abs(a1) == 5), (p, a1, s)
            if forced:
                parts = _composite_parts(a1, kprime, p)
                assert len(parts) == 2
                for m, mp in parts:
                    assert abs(m * mp + 1) == p


def test_reduce_rational_vertical_five_mod_13_needs_composite():
    # 1/5 mod 13 forces a kill with |s| = 2, recorded as two part moves
    res = reduce_rational(Frac.make(1, 5), 13)
    assert replay_certificate(Frac.make(1, 5), res.certificate, 13) == res.target
    kills = [s for s in res.certificate if s.op[0] == "kill"]
    assert any(abs(s.fraction.num // 13) > 1 for s in kills)
    forced = [s for s in kills if abs(s.fraction.num // 13) > 1]
    for s in forced:
        assert len(s.parts) == 2
        for part in s.part_fractions():
            assert part.num % 13 == 0
            assert abs(part.num) == 13


def test_reduce_rational_random_replay():
    rng = random.Random(55)
    for p in (3, 5, 7, 11, 13):
        for _ in range(60):
            f = Frac.make(rng.randint(-60, 60), rng.randint(1, 60))
            res = reduce_rational(f, p)
            # target is in the horizontal family
            assert res.target in horizontal_family(p)
            # all step fractions divisible by p
            for step in res.certificate:
                assert step.fraction.num % p == 0
            # replay lands exactly on the target
            assert replay_certificate(f, res.certificate, p) == res.target
            # and the target is projectively equal to f mod p
            table = target_table(p)
            fp = (f.num % p, f.den % p)
            from tanglelab.move_calculus import _proj

            assert table[_proj(*fp, p)] == res.target


def test_multiple_of_p_numerator_reduces_to_zero_tangle():
    # a tangle of fraction sp/q is projectively [0 : 1] mod p, so its
    # reduction target is the 0 tangle, via moves only
    rng = random.Random(65)
    for p in (3, 5, 7, 11, 13):
        for _ in range(25):
            s = rng.choice([x for x in range(-4, 5) if x])
            q = rng.randint(1, 30)
            while q % p == 0 or __import__("math").gcd(abs(s * p), q) != 1:
                q = rng.randint(1, 30)
            f = Frac.make(s * p, q)
            res = reduce_rational(f, p)
            assert res.target == Frac.make(0), (p, f)
            assert replay_certificate(f, res.certificate, p) == res.target


def test_half_denominator_expansions_mod_11():
    from tanglelab.tangle_core import cf_eval

    assert cf_eval([2, 5]) == Frac.make(11, 2)  # 5 + 1/2
    assert cf_eval([-3, 4]) == Frac.make(11, 3)  # 4 - 1/3
    assert cf_eval([-4, 3]) == Frac.make(11, 4)  # 3 - 1/4
    assert cf_eval([5, 2]) == Frac.make(11, 5)  # 2 + 1/5


def test_certificate_lines_format():
    res = reduce_rational(Frac.make(16, 7), 3)
    lines = certificate_lines(res)
    assert lines
    for line in lines:
        assert line.startswith("MOVE ")
        frac, _, path = line[len("MOVE ") :].partition(" AT ")
        num, _, den = frac.partition("/")
        assert int(num) % 3 == 0
        assert int(den) != 0


def test_reduce_2algebraic():
    res = reduce_2algebraic(Integer(0), 5)
    assert res.target == Frac.make(0)
    res = reduce_2algebraic(Rational(2, 3, 2), 5)
    assert res.target == Frac.make(-2)  # 16/7 = 3 = -2 mod 5
    assert res.certificate  # rational input gets a certificate
    res = reduce_2algebraic(pretzel(3, -3), 5)
    assert res.target in horizontal_family(5)
    assert res.certificate == ()  # not rational: invariant-only


def test_reduce_2algebraic_compiles_once(monkeypatch):
    # the compiled diagram serves both the cross-check and the circle count
    compiled = []

    def compile_and_count(expr):
        compiled.append(expr)
        return compile_expr(expr)

    monkeypatch.setattr(mv, "compile_expr", compile_and_count)
    expr = parse_conway("(r((2*-3))*1)")
    assert reduce_2algebraic(expr, 5).circles == compile_expr(expr).closed_components
    assert compiled == [expr]


def test_reduce_2algebraic_borromean_tangle():
    # the standard 2-algebraic tangle presentation of the Borromean rings
    e3 = Integer(1)
    e4 = Integer(-1)
    t = compose(
        compose(rotate(compose(rotate(compose(e3, e3)), rotate(compose(e4, e4)))),
                rotate(compose(e3, e3))),
        rotate(compose(e4, e4)),
    )
    res = reduce_2algebraic(t, 3)
    assert res.target in horizontal_family(3)


def test_splice_preserves_colorings_trefoil_3move():
    d = trefoil()
    arcs = sorted(d.arcs)
    for site in [(arcs[0], arcs[1]), (arcs[1], arcs[2]), (arcs[0], arcs[2])]:
        rep = invariance_harness(d, site, Frac.make(3, 1), 3)
        assert rep.count_before == rep.count_after == 9


def test_splice_invalid_site():
    d = trefoil()
    with pytest.raises(InvalidSiteError):
        splice_identity_site(d, (0, 0), Frac.make(3, 1))
    with pytest.raises(InvalidSiteError):
        splice_identity_site(d, (0, 99), Frac.make(3, 1))


def test_invariance_random_sites():
    rng = random.Random(7)
    cases = [(Frac.make(13, 5), 13), (Frac.make(5, 2), 5), (Frac.make(3, 1), 3)]
    for frac, p in cases:
        for _ in range(12):
            e = random_algebraic_expr(2, rng, max_depth=3)
            d = compile_expr(e)
            arcs = sorted(d.arcs)
            if len(arcs) < 2:
                continue
            a, b = rng.sample(arcs, 2)
            invariance_harness(d, (a, b), frac, p)  # raises on any change


def test_invariance_on_links_too():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 3)
        L = rng.randint(2, 6)
        w = BraidWord(n, tuple(rng.choice([x for x in range(-n + 1, n) if x]) for _ in range(L)))
        d = braid_closure(w)
        arcs = sorted(d.arcs)
        if len(arcs) < 2:
            continue
        a, b = rng.sample(arcs, 2)
        invariance_harness(d, (a, b), Frac.make(5, 2), 5)


def test_nonpreserving_fraction_rejected():
    with pytest.raises(ValueError):
        invariance_harness(trefoil(), (0, 1), Frac.make(2, 1), 3)


def test_splice_site_on_closed_overpass_loop():
    # closure of s1 s1^-1 contains an arc that only ever passes over;
    # cutting it must still work as a move site
    d = braid_closure(BraidWord(2, (1, -1)))
    arcs = sorted(d.arcs)
    for site in [(arcs[0], arcs[1]), (arcs[1], arcs[0]), (arcs[0], arcs[2])]:
        rep = invariance_harness(d, site, Frac.make(3, 1), 3)
        assert rep.count_before == rep.count_after


def test_reduce_rational_huge_fractions():
    rng = random.Random(1)
    for _ in range(80):
        f = Frac.make(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))
        for p in (3, 13):
            res = reduce_rational(f, p)
            assert replay_certificate(f, res.certificate, p) == res.target


def test_line_to_point_inverts_point_to_line():
    for p in (3, 5, 7, 11):
        points = [(1, b) for b in range(p)] + [(0, 1)]
        for point in points:
            assert line_to_point(point_to_line(point, p)) == point


def test_reduce_exits_4_when_the_certificate_does_not_replay(monkeypatch):
    honest = mv.reduce_rational

    def drop_last_step(f, p):
        res = honest(f, p)
        assert res.certificate
        return type(res)(res.target, res.circles, res.certificate[:-1])

    argv = ["reduce", "--conway", "T(3,1,2)", "--p", "5"]
    assert cli.run(argv, stdout=io.StringIO()) == 0
    monkeypatch.setattr(mv, "reduce_rational", drop_last_step)
    out = io.StringIO()
    assert cli.run(argv, stdout=out) == 4
    assert out.getvalue().startswith("error = ")


def test_certificate_sites_follow_the_rational_tree():
    # "0" steps into Rot.child or Compose.left, "1" into Compose.right
    rng = random.Random(29)
    for length in range(1, 7):
        for _ in range(40):
            v = rng.sample([x for x in range(-9, 10) if x], length)
            node = rational_expr(v)
            for step in filter(None, mv._innermost_path(length).split(".")):
                if isinstance(node, Rot):
                    assert step == "0"
                    node = node.child
                else:
                    assert isinstance(node, Compose)
                    node = node.left if step == "0" else node.right
            assert node == Integer(v[0] if length % 2 else -v[0]), v


def _two_route_data(diagram, p):
    """The harness's coloring data computed the old way, as an oracle:
    one elimination for the count and another for the boundary image."""
    count = coloring_space(diagram, p).count
    image = reduced_boundary_image(diagram, p) if diagram.n >= 2 else None
    return count, image


def _dense_data(diagram, p):
    """The same data from the dense relation matrix, which shares no code
    with `reduced_boundary_image` and the harness."""
    image = dense_reduced_image(diagram, p) if diagram.n >= 2 else None
    return dense_count(diagram, p), image


def test_one_kernel_harness_data_equals_two_routes():
    rng = random.Random(12)
    closed = 0
    for n in (2, 3):
        for _ in range(25):
            d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
            closed += d.closed_components > 0
            for p in (3, 5, 7, 13):
                assert mv._coloring_data(d, p) == _two_route_data(d, p)
                assert mv._coloring_data(d, p) == _dense_data(d, p)
    assert closed >= 5  # closed components add to the count


def test_harness_report_equals_two_routes_on_spliced_diagrams():
    rng = random.Random(13)
    for n in (2, 3):
        for p in (3, 5, 7, 13):
            frac = Frac.make(p, rng.choice((1, 2, 3)))
            for _ in range(4):
                d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
                arcs = sorted(d.arcs)
                if len(arcs) < 2:
                    continue
                rep = invariance_harness(d, tuple(rng.sample(arcs, 2)), frac, p)
                assert (rep.count_before, rep.image_before) == _two_route_data(d, p)
                assert (rep.count_after, rep.image_after) == _two_route_data(rep.spliced, p)
                assert (rep.count_before, rep.image_before) == _dense_data(d, p)
                assert (rep.count_after, rep.image_after) == _dense_data(rep.spliced, p)


def test_cached_twist_tangle_splices_like_a_fresh_one(monkeypatch):
    rng = random.Random(14)
    cases = []
    for frac in (Frac.make(3, 1), Frac.make(13, 5), Frac.make(-5, 2)):
        for _ in range(5):
            d = compile_expr(random_algebraic_expr(2, rng, max_depth=3))
            arcs = sorted(d.arcs)
            if len(arcs) >= 2:
                cases.append((d, tuple(rng.sample(arcs, 2)), frac))
    mv._twist_tangle.cache_clear()
    cached = [splice_identity_site(d, site, f) for d, site, f in cases]
    assert mv._twist_tangle.cache_info().hits == len(cases) - 3
    monkeypatch.setattr(mv, "_twist_tangle", mv._twist_tangle.__wrapped__)
    assert cached == [splice_identity_site(d, site, f) for d, site, f in cases]
