"""Cross-checks of the sparse unit-pivot route against dense elimination.

The oracle (`dense_oracle`) builds the dense crossings x arcs relation
matrix directly from the crossings (2 / -1 / -1 for Fox, (1-t) / t / -1
for ABF) and solves it with the dense eliminators: `kernel_mod_p` over
F_p, and over Z the transform-building Smith form kept in `smith_oracle`.
Virtual indices are checked against the gcd of the maximal nonzero
minors of the reduced lattice, computed without a Smith form.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from example_links import trivial_link

from tanglelab import exact_linear as xl
from tanglelab.fox_coloring import (
    _f_coordinates,
    _kernel_mod_p,
    _relation_rows,
    abf_space,
    boundary_image,
    coloring_space,
    virtual_index,
)
from tanglelab.tangle_core import (
    BraidWord,
    Compose,
    Rot,
    TangleDiagram,
    braid_closure,
    closure,
    compile_expr,
    diagram_to_text,
    parse_conway,
    parse_diagram_text,
    pretzel,
    random_algebraic_expr,
    rational_expr,
)

import smith_oracle as oracle
from dense_oracle import dense_boundary_image, dense_matrix


def dense_kernel(d, p, t=-1, tinv=-1):
    arcs, M = dense_matrix(d, t, tinv)
    return xl.kernel_mod_p(M, len(arcs), p)


def sparse_kernel(d, p, t=-1, tinv=-1):
    """The span of the kernel basis the counts are read from, after
    checking that the basis is independent: the counts use its length."""
    arcs, basis = _kernel_mod_p(d, p, t, tinv)
    span = xl.SubspaceModP.from_vectors(basis, p, len(arcs))
    assert len(basis) == span.dim, (d, p, t)
    return span


def dense_factors(d):
    _, M = dense_matrix(d)
    return oracle.snf(M.tolist(), M.shape[1])[0]


def fraction_det(M):
    """Determinant of a square integer matrix by elimination over Q."""
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        r = next((r for r in range(c, len(M)) if M[r][c]), None)
        if r is None:
            return 0
        if r != c:
            M[c], M[r] = M[r], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return int(det)


def minors_gcd(rows):
    """gcd of the r x r minors of a nonzero integer matrix, r its rank:
    the index of its row lattice in the saturation, without a Smith form."""
    for r in range(min(len(rows), len(rows[0])), 0, -1):
        g = 0
        for I in combinations(range(len(rows)), r):
            for J in combinations(range(len(rows[0])), r):
                g = gcd(g, fraction_det([[rows[i][j] for j in J] for i in I]))
        if g:
            return g
    raise ValueError("zero matrix")


def dense_virtual_index(d):
    arcs, M = dense_matrix(d)
    index = {a: i for i, a in enumerate(arcs)}
    cols = [index[a] for a in d.boundary]
    reduced = []
    for v in oracle.int_kernel(M.tolist(), len(arcs)):
        c, residual = _f_coordinates([v[i] for i in cols], d.n)
        assert residual == 0
        if any(c):
            reduced.append(c)
    return minors_gcd(reduced) if reduced else 1


def shuffled(d, rng):
    crossings = list(d.crossings)
    rng.shuffle(crossings)
    return TangleDiagram(d.arcs, tuple(crossings), d.boundary, d.closed_components)


def random_word(rng, n, length):
    letters = [x for x in range(-n + 1, n) if x]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def closures(seed, count=40):
    rng = random.Random(seed)
    out = [trivial_link(3), braid_closure(BraidWord(4, ())), braid_closure(BraidWord(3, (1, 1)))]
    for _ in range(count):
        d = braid_closure(random_word(rng, rng.randint(2, 5), rng.randint(0, 60)))
        out.append(d)
        out.append(shuffled(d, rng))
    # a crossing-free component next to a knotted one, and extra free circles
    text = diagram_to_text(braid_closure(BraidWord(2, (1, 1, 1))))
    out.append(parse_diagram_text(text + "O 2\n"))
    return out


def tangles(seed, count=40):
    rng = random.Random(seed)
    out = [compile_expr(pretzel(3, -3)), compile_expr(parse_conway("0"))]
    for entries in ([3, -2] * 12, [2, 3, 2], [5, -1, 7, 2, -3], [-40, 17, 9]):
        out.append(compile_expr(rational_expr(entries)))
    for _ in range(count):
        d = compile_expr(random_algebraic_expr(rng.randint(2, 4), rng, max_depth=4))
        out.append(d)
        out.append(shuffled(d, rng))
    # a diagram file round trip, crossings reversed
    d = compile_expr(parse_conway("T(3,-2,4)"))
    lines = diagram_to_text(d).splitlines()
    out.append(parse_diagram_text("\n".join(lines[-2::-1] + lines[-1:]) + "\n"))
    return out


def pretzel_tangles(seed, count=40):
    """(p,-p) pretzels, of virtual index p, and rotated compositions of
    two of them, whose indices can reach the product of the two."""
    rng = random.Random(seed)
    out = [compile_expr(pretzel(p, -p)) for p in range(1, 12)]
    for _ in range(count):
        p, q = rng.randint(1, 10), rng.randint(1, 10)
        pair = [pretzel(p, -p), pretzel(q * rng.choice((1, 2)), -q)]
        for i in range(2):
            for _ in range(rng.randrange(4)):
                pair[i] = Rot(pair[i])
        out.append(compile_expr(Compose(*pair)))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_prime_counts_and_kernels_match_dense(seed):
    rng = random.Random(seed)
    diagrams = closures(seed) + tangles(seed)
    diagrams += [closure(d, rng.choice(["numerator", "denominator"]))
                 for d in tangles(seed + 10, 10) if d.n == 2]
    for d in diagrams:
        for p in (2, 3, 5, 7):
            ker = dense_kernel(d, p)
            assert sparse_kernel(d, p) == ker, (d, p)
            assert coloring_space(d, p).count == p ** (ker.dim + d.closed_components)


@pytest.mark.parametrize("seed", [3, 4])
def test_invariant_factors_match_dense_snf(seed):
    for d in closures(seed, 25) + tangles(seed, 25):
        factors = dense_factors(d)
        for k in (4, 6, 9, 12):
            space = coloring_space(d, k)
            assert space.invariant_factors == factors, (d, k)


def wide_closure(rng, strands):
    word = tuple(rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(20 * strands))
    return braid_closure(BraidWord(strands, word))


def test_wide_closures_obey_the_chinese_remainder_theorem():
    # composite moduli run through the integer factors, primes through
    # the sparse F_p path: the counts must multiply
    for strands in (10, 14, 20):
        d = wide_closure(random.Random(5), strands)
        col = {k: coloring_space(d, k).count for k in (2, 3, 5, 6, 30)}
        assert col[6] == col[2] * col[3], strands
        assert col[30] == col[2] * col[3] * col[5], strands


def test_factors_of_an_eight_strand_closure_match_the_oracle():
    d = wide_closure(random.Random(5), 8)
    arcs, rows = _relation_rows(d)
    free, residual, _ = xl.eliminate_units(rows, len(arcs))
    want = (1,) * (len(arcs) - len(free)) + oracle.snf(residual, len(free))[0]
    assert coloring_space(d, 6).invariant_factors == want


def test_boundary_images_and_virtual_index_match_dense():
    for d in tangles(5):
        for p in (3, 5, 7):
            assert boundary_image(d, p) == dense_boundary_image(d, p), (d, p)
        if d.n >= 2:
            assert virtual_index(d) == dense_virtual_index(d), d


def test_virtual_index_of_pretzel_tangles_matches_minors():
    diagrams = pretzel_tangles(9)
    indices = [virtual_index(d) for d in diagrams]
    assert indices[:11] == list(range(1, 12))
    assert max(indices) > 11
    for d, index in zip(diagrams, indices):
        assert index == dense_virtual_index(d), d


def test_abf_matches_dense():
    rng = random.Random(6)
    for _ in range(40):
        d = braid_closure(random_word(rng, rng.randint(2, 5), rng.randint(0, 50)))
        for d in (d, shuffled(d, rng)):
            for p, t in ((7, 3), (5, 2)):
                tinv = pow(t, -1, p)
                ker = dense_kernel(d, p, t, tinv)
                assert sparse_kernel(d, p, t, tinv) == ker, (d, p, t)
                count = p ** (ker.dim + d.closed_components)
                assert abf_space(d, p, t).count == count, (d, p, t)


def test_residual_of_long_closure_is_small():
    # a 4-strand closure taken top to bottom propagates from one seed per
    # strand; shuffled, it may need a seed or two more
    rng = random.Random(7)
    d = braid_closure(random_word(rng, 4, 800))
    for d, most in ((d, 4), (shuffled(d, rng), 6)):
        arcs, rows = _relation_rows(d)
        for p in (None, 3):
            free, residual, _ = xl.eliminate_units(rows, len(arcs), p)
            assert len(free) <= most
            assert len(residual) == len(rows) - (len(arcs) - len(free))


def test_nested_twist_vector_needs_no_residual():
    # twist regions nested in alternating directions are peeled from the
    # boundary in and propagated from the inside out: no left-over rows
    d = compile_expr(rational_expr([3, -2] * 20))
    arcs, rows = _relation_rows(d)
    free, residual, _ = xl.eliminate_units(rows, len(arcs))
    assert (len(free), residual) == (2, [])


def check_against_dense(rows, ncols):
    """The unit-pivot route on one sparse system against the dense
    oracles: invariant factors, the saturated integer kernel and the
    kernels over F_p, each through `expand`, and the nullity count."""
    M = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, a in row:
            M[r, c] += a
    free, residual, expand = xl.eliminate_units(rows, ncols)
    pivots = ncols - len(free)
    assert len(residual) == len(rows) - pivots
    want = oracle.snf(M.tolist(), ncols)[0]
    assert (1,) * pivots + xl.snf(residual, len(free)) == want
    kernel = xl.int_kernel(residual, len(free))
    assert oracle.same_lattice(kernel, oracle.int_kernel(residual, len(free)), len(free))
    for v in kernel:
        assert not (M @ np.array(expand(v))).any()
    for p in (2, 3, 5):
        free, residual, expand = xl.eliminate_units(rows, ncols, p)
        R = np.array(residual, dtype=np.int64).reshape(len(residual), len(free))
        basis = [expand(v) for v in xl.kernel_mod_p(R, len(free), p).rows]
        got = xl.SubspaceModP.from_vectors(basis, p, ncols)
        want = xl.kernel_mod_p(M, ncols, p)
        assert got == want
        sparse = xl.sparse_kernel_mod_p(rows, ncols, p)
        assert xl.SubspaceModP.from_vectors(sparse, p, ncols) == want
        assert xl.sparse_nullity_mod_p(rows, ncols, p) == len(sparse) == want.dim


def test_eliminate_units_on_random_sparse_systems():
    rng = random.Random(8)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        rows = []
        for _ in range(nrows):
            cols = rng.sample(range(ncols), rng.randint(1, min(3, ncols)))
            rows.append(tuple((c, rng.choice((-2, -1, 1, 1, 2, 3))) for c in cols))
        check_against_dense(rows, ncols)


def test_eliminate_units_adds_up_repeated_columns():
    # rows that name a column more than once, with coefficients that add
    # up to 0 over Z or only mod 2, 3 or 5, and zero entries: each row's
    # leading column may vanish, which moves its preferred pivot
    rng = random.Random(12)
    repeated = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = [(rng.randrange(ncols), rng.choice((-2, -1, 0, 1, 1, 2, 3)))
                   for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 2)):
                c, a = rng.randrange(ncols), rng.choice((-1, 1, 2, 3))
                b = rng.choice((-a, 2 - a, 3 - a, 5 - a, 6 - a))
                row[rng.randint(0, len(row)):0] = [(c, a)]
                row.append((c, b))
            repeated += len({c for c, _ in row}) < len(row)
            rows.append(tuple(row))
        check_against_dense(rows, ncols)
    assert repeated > 500


def test_counts_from_the_nullity_equal_the_basis_route():
    # the counts read no kernel vector: p ** nullity must equal p to the
    # length of the expanded basis that boundary images are read from
    for d in closures(13, 20) + tangles(13, 20):
        for p in (2, 3, 5, 7, 4294967311):
            _, basis = _kernel_mod_p(d, p)
            assert coloring_space(d, p).count == p ** (len(basis) + d.closed_components), (d, p)
    for d in closures(14, 20):
        _, basis = _kernel_mod_p(d, 7, 3, 5)
        assert abf_space(d, 7, 3).count == 7 ** (len(basis) + d.closed_components), d
