"""The symplectic structure on reduced boundary colorings: the form on
F_p^(2n-2) in the f-basis, Lagrangian tests, counting and enumeration,
the mod-2 matching census, and the realization of Lagrangians by
algebraic tangles.
"""

from collections import namedtuple
from itertools import combinations

from . import exact_linear as xl
from .errors import BudgetExceededError, CrossCheckError
from .exact_linear import SubspaceModP
from .fox_coloring import (
    ImageTable,
    _pair_rows,
    reduce_image,
    reduce_to_f_basis,
    reduced_boundary_image,
)
from .move_calculus import horizontal_family
from .tangle_core import (
    Compose,
    Infinity,
    Integer,
    Sigma,
    all_matchings,
    compile_expr,
    noncrossing_matchings,
    print_conway,
    rotate,
)
from .value import Value

__all__ = [
    "SymplecticSpace",
    "build_form",
    "is_lagrangian",
    "lagrangian_count",
    "enumerate_lagrangians",
    "matching_census",
    "matching_image",
    "realize_lagrangians",
]

ENUMERATION_BUDGET = 10**6


class SymplecticSpace(Value, namedtuple("SymplecticSpace", "p n gram")):
    """F_p^(2n-2) with the tridiagonal form phi(f_i, f_j) = [j = i+1] - [j = i-1]."""

    __slots__ = ()

    @property
    def dimension(self):
        return 2 * self.n - 2

    def gram_matrix(self):
        import numpy as np
        return np.array(self.gram, dtype=np.int64)


def build_form(p, n):
    xl.check_prime(p)
    if n < 2:
        raise ValueError("need n >= 2")
    d = 2 * n - 2
    gram = tuple(
        tuple(1 if j == i + 1 else p - 1 if j == i - 1 else 0 for j in range(d))
        for i in range(d)
    )
    if xl.kernel_mod_p(gram, d, p).dim:
        raise CrossCheckError("form is degenerate")
    return SymplecticSpace(p, n, gram)


def is_lagrangian(subspace, space):
    """True iff the subspace is isotropic of the maximal dimension n-1."""
    if subspace.ambient != space.dimension:
        raise ValueError("ambient dimension mismatch")
    if subspace.dim != space.n - 1:
        return False
    import numpy as np
    # Python-int entries: exact for every prime
    rows = np.array([subspace.rows], dtype=object)
    return bool(_isotropic(rows, np.array(space.gram, dtype=object), space.p)[0])


def _isotropic(cells, G, p):
    """For a stack (k, m, d) of row matrices, whether phi(u, w) = 0 mod p
    for every pair of rows u, w of each: (M G mod p) M^T mod p vanishes.
    Reducing after each product keeps int64 entries below d p^2."""
    return ((cells @ G % p) @ cells.transpose(0, 2, 1) % p == 0).all(axis=(1, 2))


def lagrangian_count(p, n):
    """prod_{i=1}^{n-1} (p^i + 1)."""
    xl.check_prime(p)
    if n < 2:
        raise ValueError("need n >= 2")
    out = 1
    for i in range(1, n):
        out *= p**i + 1
    return out


def enumerate_lagrangians(p, n, budget=ENUMERATION_BUDGET):
    """All Lagrangian subspaces, canonical and sorted by rows.

    A walk over the Schubert cells of the Lagrangian Grassmannian in
    reduced row echelon form.  For each pivot set P of size n-1 the rows
    are filled top-down: row j has a 1 at P[j], zeros at the other
    pivots and left of P[j], and free entries elsewhere.  The condition
    phi(r_i, r_j) = 0 for the earlier rows r_i is linear in the free
    entries of r_j, so one array test keeps or drops each filling.  RREF
    is unique, so every Lagrangian comes out exactly once.

    Certificate: every output is isotropic (one product per cell, by
    `_isotropic`) with n-1 rows, is its own canonical form under
    SubspaceModP.from_vectors, the outputs are pairwise distinct, and
    there are exactly prod (p^i + 1) of them.
    """
    space = build_form(p, n)
    count = lagrangian_count(p, n)
    if count > budget:
        raise BudgetExceededError(
            f"{count} Lagrangians exceed the budget of {budget}"
        )
    d = space.dimension
    G = space.gram_matrix()
    out = []
    for pivots in combinations(range(d), n - 1):
        cell = _schubert_cell(pivots, G, p)
        for M, ok in zip(cell.tolist(), _isotropic(cell, G, p).tolist()):
            s = SubspaceModP.from_vectors(M, p, d)
            if not ok or s.rows != tuple(map(tuple, M)):
                raise CrossCheckError(f"{M} is not a Lagrangian in RREF")
            out.append(s)
    out.sort(key=lambda s: s.rows)
    distinct = len({s.rows for s in out})
    if distinct != len(out) or distinct != count:
        raise CrossCheckError(
            f"enumeration found {len(out)} Lagrangians ({distinct} distinct), "
            f"expected {count}"
        )
    return out


def _schubert_cell(pivots, G, p):
    """Row matrices, stacked (k, len(pivots), d), of the isotropic
    subspaces whose RREF has exactly these pivot columns."""
    import numpy as np
    d = G.shape[0]
    cell = np.zeros((1, 0, d), dtype=np.int64)
    for c in pivots:
        free = [k for k in range(c + 1, d) if k not in pivots]
        f = len(free)
        rows = np.zeros((p**f, d), dtype=np.int64)
        rows[:, c] = 1
        rows[:, free] = np.indices((p,) * f).reshape(f, p**f).T
        # phi(r_i, row) for every earlier row r_i of every partial matrix
        ok = ~((cell @ G % p) @ rows.T % p).any(axis=1)
        keep, pick = np.nonzero(ok)
        cell = np.concatenate([cell[keep], rows[pick, None]], axis=1)
    return cell


# ---------------------------------------------------------------------------
# The mod-2 census over abstract perfect matchings.


def matching_image(pairs, n):
    """Reduced mod-2 boundary image of the crossingless tangle whose
    boundary points are identified along the matching: mod 2 every
    crossing relation degenerates to equality of the two under arcs, so
    any diagram's 2-colorings factor through such a matching."""
    reduced = reduce_to_f_basis(_pair_rows(pairs, n), 2, n)
    return SubspaceModP.from_vectors(reduced, 2, 2 * n - 2)


def matching_census(n):
    """Number of distinct reduced mod-2 images over all matchings."""
    if n < 1:
        raise ValueError("census needs n >= 1")
    if n > 8:
        raise BudgetExceededError("census limited to n <= 8")
    return len(_matching_images(n))


def _matching_images(n):
    """The rows of `matching_image(m, n)` over all matchings m, as a set.

    Each pair's reduced row is computed once.  A matching is spanned by
    its first n - 1 pair rows: its n pair rows sum to the all-ones
    vector, which `reduce_to_f_basis` sends to zero, so the last row
    lies in the span of the others."""
    pairs = list(combinations(range(1, 2 * n + 1), 2))
    reduced = dict(zip(pairs, reduce_to_f_basis(_pair_rows(pairs, n), 2, n)))
    return {
        SubspaceModP.from_vectors([reduced[pair] for pair in m[:-1]], 2, 2 * n - 2).rows
        for m in all_matchings(n)
    }


# ---------------------------------------------------------------------------
# Realization by algebraic tangles.


def realize_lagrangians(p, n, generator_budget=20000):
    """Algebraic tangles whose reduced boundary images are Lagrangians,
    one per Lagrangian reached.  Returns (witness map, unrealized list).

    One breadth-first closure over the ids of an `ImageTable`.  The
    leaves are the horizontal family and the crossings +-1 for n = 2,
    and the noncrossing matchings and `Sigma` crossings for n >= 3.
    Each image reached adds its 2n - 1 rotations and its products on
    the right with every rotated leaf (a product on the left is the pi
    rotation of one on the right).  The first tree to reach a
    Lagrangian, a shallowest one, is its witness.  `generator_budget`
    bounds the enumeration of the targets (BudgetExceededError when
    there are more Lagrangians).

    Every witness is compiled once and its reduced boundary image
    compared with the structural one.  The unrealized list is exact:
    either the closure reached every Lagrangian, or p = 2 and it
    reached exactly the images of all matchings, which contain every
    mod-2 image (`matching_image`).  Anything else is a CrossCheckError.
    """
    targets = enumerate_lagrangians(p, n, budget=generator_budget)
    remaining = {s.rows: s for s in targets}
    table = ImageTable(p)
    if n == 2:
        leaves = [Infinity() if s.is_inf else Integer(s.num) for s in horizontal_family(p)]
        leaves += [e for e in (Integer(1), Integer(-1)) if e not in leaves]
    else:
        sigmas = [Sigma(n, i, s) for i in range(1, n) for s in (1, -1)]
        leaves = [*noncrossing_matchings(n), *sigmas]
    order, exprs, reached, found = [], {}, set(), {}

    def trees():
        # (id, expression) in breadth-first order; `order` grows as the
        # loop below reaches new ids.  Every rotated leaf has its own
        # tree before any product could claim its id.
        for e in leaves:
            yield table.leaf(e), e
        for e in leaves:
            for k in range(1, 2 * n):
                yield table.rot(table.leaf(e), k), rotate(e, k)
        right = list(order)
        for i in order:
            for k in range(1, 2 * n):
                yield table.rot(i, k), rotate(exprs[i], k)
            for j in right:
                yield table.compose(i, j), Compose(exprs[i], exprs[j])

    for i, expr in trees():
        if i in exprs:
            continue
        exprs[i] = expr
        order.append(i)
        red = reduce_image(table.images[i])
        reached.add(red.rows)
        if remaining.pop(red.rows, None) is not None:
            found[red] = expr
            if not remaining:
                break
    for img, expr in found.items():
        direct = reduced_boundary_image(compile_expr(expr), p)
        if direct != img:
            raise CrossCheckError(
                f"structural image {img.rows} of {print_conway(expr)} disagrees "
                f"with the compiled diagram image {direct.rows} mod {p}"
            )
    if remaining and not (p == 2 and reached == _matching_images(n)):
        raise CrossCheckError(
            f"the closure reached {len(found)} of {len(targets)} Lagrangians "
            f"mod {p} and no certificate bounds the rest"
        )
    return found, sorted(remaining.values(), key=lambda s: s.rows)
