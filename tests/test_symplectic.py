import hashlib
import io
import random
from itertools import product

import numpy as np
import pytest

from tanglelab import cli
from tanglelab import symplectic_lagrangian as sl
from tanglelab.errors import BudgetExceededError, CrossCheckError
from tanglelab.exact_linear import SubspaceModP
from tanglelab.fox_coloring import ImageTable, reduced_boundary_image
from tanglelab.symplectic_lagrangian import (
    all_matchings,
    build_form,
    enumerate_lagrangians,
    is_lagrangian,
    lagrangian_count,
    matching_census,
    matching_image,
    realize_lagrangians,
)
from tanglelab.tangle_core import (
    Infinity,
    Integer,
    compile_expr,
    random_algebraic_expr,
)


def test_build_form_small():
    s = build_form(3, 2)
    assert s.gram == ((0, 1), (2, 0))
    s4 = build_form(3, 3)
    G = s4.gram_matrix()
    assert G.shape == (4, 4)
    # skew symmetric with zero diagonal
    assert not ((G + G.T) % 3).any()
    assert not G.diagonal().any()
    build_form(2, 3)  # nondegenerate over F_2, would raise otherwise


def test_gram_skew_nondegenerate_various():
    for p in (2, 3, 5, 7):
        for n in (2, 3, 4):
            s = build_form(p, n)
            G = s.gram_matrix()
            assert not ((G + G.T) % p).any()


def test_lagrangian_counts():
    assert lagrangian_count(3, 2) == 4
    assert lagrangian_count(3, 3) == 40
    assert lagrangian_count(3, 4) == 1120
    assert lagrangian_count(5, 2) == 6
    assert lagrangian_count(5, 3) == 156
    assert lagrangian_count(2, 4) == 3 * 5 * 9


def test_is_lagrangian_basics():
    s = build_form(5, 2)
    zero = SubspaceModP.from_vectors([], 5, 2)
    assert not is_lagrangian(zero, s)
    f1 = SubspaceModP.from_vectors([[1, 0]], 5, 2)
    assert is_lagrangian(f1, s)
    whole = SubspaceModP.from_vectors([[1, 0], [0, 1]], 5, 2)
    assert not is_lagrangian(whole, s)


def test_enumerate_small():
    lag32 = enumerate_lagrangians(3, 2)
    assert len(lag32) == 4
    assert len({s.rows for s in lag32}) == 4
    lag22 = enumerate_lagrangians(2, 2)
    assert len(lag22) == 3
    lag33 = enumerate_lagrangians(3, 3)
    assert len(lag33) == 40
    s = build_form(3, 3)
    for L in lag33:
        assert is_lagrangian(L, s)
        # canonical form is idempotent
        assert SubspaceModP.from_vectors(L.rows, 3, 4) == L


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_enumerate_matches_brute_force(p, n):
    d, m = 2 * n - 2, n - 1
    space = build_form(p, n)
    vectors = list(product(range(p), repeat=d))
    subspaces = {
        SubspaceModP.from_vectors(vs, p, d) for vs in product(vectors, repeat=m)
    }
    want = {s.rows for s in subspaces if is_lagrangian(s, space)}
    got = enumerate_lagrangians(p, n)
    assert {s.rows for s in got} == want
    assert [s.rows for s in got] == sorted(want)


def test_enumerate_counts_beyond_small_cases():
    for p, n, want in ((2, 4, 135), (2, 5, 2295), (7, 3, 400)):
        assert len(enumerate_lagrangians(p, n)) == want == lagrangian_count(p, n)


def test_enumeration_count_mismatch_is_a_cross_check(monkeypatch):
    count = sl.lagrangian_count
    monkeypatch.setattr(sl, "lagrangian_count", lambda p, n: count(p, n) + 1)
    with pytest.raises(CrossCheckError, match="expected 41"):
        enumerate_lagrangians(3, 3)
    out = io.StringIO()
    assert cli.run(["lagrangians", "--p", "3", "--n", "3"], stdout=out) == 4


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda cell: np.concatenate([cell, cell]), "80 Lagrangians"),
        (lambda cell: cell[:, ::-1], "not a Lagrangian in RREF"),
    ],
)
def test_enumeration_certificate_catches_a_broken_walk(monkeypatch, corrupt, message):
    walk = sl._schubert_cell
    monkeypatch.setattr(sl, "_schubert_cell", lambda *a: corrupt(walk(*a)))
    with pytest.raises(CrossCheckError, match=message):
        enumerate_lagrangians(3, 3)


def test_enumeration_certificate_catches_a_matrix_that_is_not_isotropic(monkeypatch):
    # one free entry of one matrix goes up by 1: the matrix stays in RREF
    # and distinct from the rest, and only the isotropy product sees it
    p, space = 3, build_form(3, 3)
    walk, corrupted = sl._schubert_cell, []

    def corrupt(pivots, G, p):
        cell = walk(pivots, G, p)
        if corrupted:
            return cell
        m = cell.shape[1]
        for t, j, c in product(range(len(cell)), range(m), range(cell.shape[2])):
            if c > pivots[j] and c not in pivots:
                broken = cell[t].copy()
                broken[j, c] = (broken[j, c] + 1) % p
                if (broken @ G @ broken.T % p).any():
                    cell[t] = broken
                    corrupted.append(broken.tolist())
                    break
        return cell

    monkeypatch.setattr(sl, "_schubert_cell", corrupt)
    with pytest.raises(CrossCheckError, match="is not a Lagrangian in RREF"):
        enumerate_lagrangians(p, 3)
    assert corrupted
    (broken,) = corrupted
    assert SubspaceModP.from_vectors(broken, p, 4).rows == tuple(map(tuple, broken))
    assert not is_lagrangian(SubspaceModP.from_vectors(broken, p, 4), space)


def test_enumerate_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_lagrangians(13, 6, budget=10**4)


def test_random_tangle_images_are_lagrangian():
    rng = random.Random(123)
    for _ in range(80):
        n = rng.choice((2, 3))
        p = rng.choice((3, 5))
        space = build_form(p, n)
        d = compile_expr(random_algebraic_expr(n, rng, max_depth=3))
        img = reduced_boundary_image(d, p)
        assert is_lagrangian(img, space)


def test_images_of_3_tangles_land_in_the_40():
    lag33 = {s.rows for s in enumerate_lagrangians(3, 3)}
    rng = random.Random(17)
    for _ in range(500):
        d = compile_expr(random_algebraic_expr(3, rng, max_depth=3))
        img = reduced_boundary_image(d, 3)
        assert img.rows in lag33


def test_matching_counts():
    assert [len(all_matchings(n)) for n in (2, 3, 4)] == [3, 15, 105]


def test_matching_census_values():
    assert matching_census(2) == 3
    assert matching_census(3) == 15
    assert matching_census(4) == 105
    # every matching image is distinct through n = 5: the census equals
    # the double factorial, and falls strictly below the Lagrangian
    # count from n = 4 on
    assert matching_census(5) == 945
    assert matching_census(4) < lagrangian_count(2, 4)
    assert matching_census(5) < lagrangian_count(2, 5)
    assert matching_census(3) == lagrangian_count(2, 3)


def test_matching_images_span_by_all_but_the_last_pair():
    for n in range(1, 6):
        want = {matching_image(m, n).rows for m in all_matchings(n)}
        assert sl._matching_images(n) == want


def test_matching_images_are_lagrangian_mod2():
    for n in (2, 3, 4):
        space = build_form(2, n)
        for m in all_matchings(n):
            img = matching_image(m, n)
            assert is_lagrangian(img, space)


def test_realize_32():
    witnesses, missing = realize_lagrangians(3, 2, generator_budget=100)
    assert not missing
    kinds = {type(e).__name__ for e in witnesses.values()}
    exprs = set(witnesses.values())
    assert exprs == {Integer(-1), Integer(0), Integer(1), Infinity()}


def test_realize_52():
    witnesses, missing = realize_lagrangians(5, 2, generator_budget=100)
    assert not missing
    assert set(witnesses.values()) == {
        Integer(-2),
        Integer(-1),
        Integer(0),
        Integer(1),
        Integer(2),
        Infinity(),
    }


def test_realize_33():
    witnesses, missing = realize_lagrangians(3, 3, generator_budget=20000)
    assert not missing
    assert len(witnesses) == 40


def test_realize_propagates_cross_checks(monkeypatch):
    def broken(diagram, p):
        raise CrossCheckError("boundary image disagrees")

    monkeypatch.setattr(sl, "reduced_boundary_image", broken)
    with pytest.raises(CrossCheckError):
        realize_lagrangians(3, 2)
    out = io.StringIO()
    argv = ["lagrangians", "--p", "3", "--n", "2", "--realize"]
    assert cli.run(argv, stdout=out) == 4


# realized / unrealized: every odd-p Lagrangian is reached, and mod 2
# the closure stops at the images of all matchings (matching_census)
@pytest.mark.parametrize(
    "p,n,realized,unrealized",
    [(3, 3, 40, 0), (5, 3, 156, 0), (2, 2, 3, 0), (2, 3, 15, 0), (2, 4, 105, 30)],
)
def test_realize_counts_are_exact(p, n, realized, unrealized):
    witnesses, missing = realize_lagrangians(p, n)
    assert (len(witnesses), len(missing)) == (realized, unrealized)
    if p == 2:
        assert realized == matching_census(n)


def test_realize_without_a_certificate_exits_4(monkeypatch):
    # one matching image fewer: the 105 images the closure reaches at
    # (2, 4) no longer equal the certified bound, and 30 Lagrangians
    # stay unreached
    every = sl.all_matchings
    monkeypatch.setattr(sl, "all_matchings", lambda n: every(n)[:-1])
    with pytest.raises(CrossCheckError, match="no certificate"):
        realize_lagrangians(2, 4)
    out = io.StringIO()
    argv = ["lagrangians", "--p", "2", "--n", "4", "--realize"]
    assert cli.run(argv, stdout=out) == 4
    assert out.getvalue() == (
        "error = the closure reached 105 of 135 Lagrangians mod 2 "
        "and no certificate bounds the rest\n"
    )


# sha256 of the `lagrangians --realize` stdout; --seed is accepted and
# ignored, so every seed prints the same
REALIZE_STDOUT_SHA256 = {
    (3, 3, 0, None): "a3a51de53a996e6239d0a1b77db015f149c3fe215e459bdf833a9cac979e7a5a",
    (3, 3, 1, None): "a3a51de53a996e6239d0a1b77db015f149c3fe215e459bdf833a9cac979e7a5a",
    (3, 3, 2, None): "a3a51de53a996e6239d0a1b77db015f149c3fe215e459bdf833a9cac979e7a5a",
    (3, 3, 3, None): "a3a51de53a996e6239d0a1b77db015f149c3fe215e459bdf833a9cac979e7a5a",
    (5, 3, 0, None): "33eb5f8332bcf58afe09c3e6e9f7c7e13ec6ccde406cab3a4cda945c51ed3d4a",
    (2, 4, 0, None): "fa9ea50cc7582566063448a082d99500e825c2760ad276fda09404970edf53b5",
    (3, 2, 0, None): "01c23e5e8ede4e98ca3319431fa7e9980e2783e82824db3e3e8323cf29eede03",
    (3, 2, 1, None): "01c23e5e8ede4e98ca3319431fa7e9980e2783e82824db3e3e8323cf29eede03",
    (5, 2, 0, None): "f563f6b757f0273a3d0a269b47e094534657f3987d0cf741b712e9d18db293fd",
    (5, 2, 1, None): "f563f6b757f0273a3d0a269b47e094534657f3987d0cf741b712e9d18db293fd",
}


# sha256 of the stdout of the listing and census queries
QUERY_STDOUT_SHA256 = {
    "lagrangians --p 3 --n 4": "270d026ffe5cb7f1373b3132e6841ba3ac78dc8871bedf400a63a8b89b0601ce",
    "lagrangians --p 5 --n 3": "3e3311e6178d907e97186523c684aba0c1e898f7e56af05a82e247cba1283ff2",
    "census --n 5": "a4a49b4eb3873a5db80f7707d67417896e062167300f0d2183901a1e353a5a74",
}


@pytest.mark.parametrize("query", sorted(QUERY_STDOUT_SHA256))
def test_listing_and_census_stdout_is_pinned(query):
    out = io.StringIO()
    assert cli.run(query.split(), stdout=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == QUERY_STDOUT_SHA256[query]


@pytest.mark.parametrize("p,n,seed,budget", sorted(REALIZE_STDOUT_SHA256, key=str))
def test_realize_stdout_is_pinned(p, n, seed, budget):
    argv = ["lagrangians", "--p", str(p), "--n", str(n), "--realize", "--seed", str(seed)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    out = io.StringIO()
    assert cli.run(argv, stdout=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == REALIZE_STDOUT_SHA256[p, n, seed, budget]


def test_realize_cross_checks_structural_images(monkeypatch):
    # a rotation rule that shifts every image once too often: the
    # witnesses it finds disagree with their compiled diagrams.  At n = 2
    # the horizontal family alone hits every Lagrangian, with no rotation.
    right = ImageTable.rot
    monkeypatch.setattr(ImageTable, "rot", lambda table, i, k: right(table, i, k + 1))
    with pytest.raises(CrossCheckError, match="disagrees with the compiled"):
        realize_lagrangians(3, 3)
    out = io.StringIO()
    argv = ["lagrangians", "--p", "3", "--n", "3", "--realize"]
    assert cli.run(argv, stdout=out) == 4
    assert out.getvalue().startswith("error = structural image ")
