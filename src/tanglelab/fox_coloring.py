"""Fox k-coloring spaces of diagrams, boundary restriction maps, the
reduction into the symplectic quotient, virtual Lagrangian indices over
the integers, and Alexander-Burau-Fox colorings over prime fields.

A coloring assigns an element of Z_k to every arc so that at each
crossing twice the over color equals the sum of the two under colors.
For an n-tangle the restriction to the 2n boundary points lands in the
codimension-1 subspace cut out by the alternating sum condition; its
image modulo the monochromatic line is the invariant studied here,
written in the basis f_k = e_k + e_{k+1} with the last f-coordinate
normalized to zero.
"""

from collections import namedtuple
from math import gcd, prod
from operator import mul

from . import exact_linear as xl
from .errors import AlternatingConditionError, CalibrationError, CrossCheckError
from .exact_linear import SubspaceModP
from .tangle_core import (
    Compose,
    Infinity,
    Integer,
    Planar,
    Rational,
    Rot,
    Sigma,
    _fold_twists,
    compile_expr,
)
from .value import Value

__all__ = [
    "ColoringSpace",
    "coloring_space",
    "braid_coloring_space",
    "tri",
    "boundary_image",
    "reduced_boundary_image",
    "expr_boundary_image",
    "ImageTable",
    "reduce_image",
    "reduce_to_f_basis",
    "virtual_index",
    "abf_space",
]


class ColoringSpace(Value, namedtuple(
    "ColoringSpace", "modulus count invariant_factors", defaults=(None,)
)):
    """The number of colorings of one diagram.

    For prime modulus p the count is p^(kernel dimension); for composite
    modulus k the invariant factors of the integer relation matrix are
    kept and the count is k^(free rank) * prod gcd(k, d_i).  Free circles
    always contribute a full factor of the modulus each.
    """

    __slots__ = ()


def _relation_rows(diagram, t=-1, tinv=-1):
    """The column of each arc (a dict, arcs in sorted order) and the
    sparse crossing relations c = (1-t) a + t b (a over, b entering
    under, c exiting under), one row per crossing with tinv in place of t
    at negative crossings, as (column, coefficient) pairs led by the
    exiting under-arc, the row's preferred pivot.  At t = tinv = -1 this
    is the Fox relation 2a = b + c at every crossing."""
    index = dict(zip(sorted(diagram.arcs), range(len(diagram.arcs))))
    rows = []
    for over, under_in, under_out, sign in diagram.crossings:
        tt = t if sign is None or sign > 0 else tinv
        rows.append(((index[under_out], -1), (index[over], 1 - tt), (index[under_in], tt)))
    return index, rows


def _kernel_mod_p(diagram, p, t=-1, tinv=-1):
    """The column of each arc and an independent basis (vectors over all
    arcs, one per free column) of the crossing relations' kernel mod p."""
    index, rows = _relation_rows(diagram, t, tinv)
    return index, xl.sparse_kernel_mod_p(rows, len(index), p)


def _twist(k, t):
    """(-1, -1) for Fox colorings (t None), else (t, t^-1) mod prime k."""
    if t is None:
        if k < 2:
            raise ValueError("modulus must be at least 2")
        return -1, -1
    xl.check_prime(k)
    t %= k
    if t == 0:
        raise ValueError("t must be invertible mod p")
    return t, pow(t, k - 2, k)


def _count(k, rows, ncols, closed):
    """The ColoringSpace of sparse relation rows over ncols columns mod k
    (as `eliminate_units` reads them), with k more per closed circle."""
    if xl.is_prime(k):  # the count needs the nullity, not a kernel basis
        return ColoringSpace(k, k ** (xl.sparse_nullity_mod_p(rows, ncols, k) + closed))
    free, residual, _ = xl.eliminate_units(rows, ncols)
    factors = (1,) * (ncols - len(free)) + xl.snf(residual, len(free))
    count = prod(gcd(d, k) if d else k for d in factors)
    return ColoringSpace(k, count * k ** (ncols - len(factors) + closed), factors)


def coloring_space(diagram, k):
    """All Fox k-colorings of the diagram."""
    _twist(k, None)
    arcs, rows = _relation_rows(diagram)
    return _count(k, rows, len(arcs), diagram.closed_components)


def braid_coloring_space(word, k, t=None):
    """The count `coloring_space` (t None) or `abf_space` gives for
    `braid_closure(word)`, from the strand action: each position's color
    is a sparse row over the top strands (residues mod k nearest zero,
    so -1 stays a unit), and the closure asks bottom colors to equal top
    ones."""
    t, tinv = _twist(k, t)
    h = k // 2
    cur = {}  # the row of each position a letter moved: t is a unit, so never zero
    for x in word.letters:
        i = abs(x) - 1
        left, right = cur.get(i) or {i: 1}, cur.get(i + 1) or {i + 1: 1}
        over, under, tt = (left, right, t) if x > 0 else (right, left, tinv)
        s, get = 1 - tt, over.get  # the under strand leaves as s over + tt under
        out = {j: r for j, a in under.items() if (r := (tt * a + s * get(j, 0) + h) % k - h)}
        for j, a in over.items():
            if j not in under and (r := (s * a + h) % k - h):
                out[j] = r
        cur[i], cur[i + 1] = (out, over) if x > 0 else (over, out)
    rows, columns = [], {}  # columns: the strands some relation uses
    for i, row in cur.items():
        a = (row.pop(i, 0) - 1 + h) % k - h  # bottom color less top color
        row = {i: a, **row} if a else row
        if row:
            rows.append([(columns.setdefault(j, len(columns)), b) for j, b in row.items()])
    return _count(k, rows, len(columns), word.strands - len(columns))


def tri(diagram):
    """Number of Fox 3-colorings."""
    return coloring_space(diagram, 3).count


# ---------------------------------------------------------------------------
# Boundary restriction.

_calibrated = False


def _ensure_calibrated():
    """One-time check that the compiler's corner convention satisfies the
    twist-tangle relations x4 - x1 = k (x2 - x1), x3 = x2 + x4 - x1."""
    global _calibrated
    if _calibrated:
        return
    _calibrated = True
    p = 5
    for k in (1, 2):
        img = boundary_image(compile_expr(Integer(k)), p)
        if img != SubspaceModP.from_vectors(_integer_rows(k), p, 4):
            _calibrated = False
            raise CalibrationError(
                f"twist tangle T({k}) violates the corner convention"
            )


def boundary_image(diagram, p):
    """Image of the coloring space in F_p^(2n), restricted to boundary
    points in counterclockwise order."""
    return _boundary_data(diagram, p)[1]


def _boundary_data(diagram, p):
    """The nullity of the crossing relations over F_p, `boundary_image`
    and `reduced_boundary_image` (None below two strands), with the
    checks of both, from one elimination and one kernel.  One
    f-coordinate pass per image row checks the alternating condition and
    gives the reduced row."""
    xl.check_prime(p)
    n = diagram.n
    if n < 1:
        raise ValueError("diagram has no boundary")
    _ensure_calibrated()
    index, basis = _kernel_mod_p(diagram, p)
    cols = [index[a] for a in diagram.boundary]
    img = SubspaceModP.from_vectors([[v[i] for i in cols] for v in basis], p, 2 * n)
    f_rows = []
    for v in img.rows:
        c, residual = _f_coordinates(v, n)
        if residual % p:
            raise AlternatingConditionError(
                f"boundary coloring {v} violates the alternating condition mod {p}"
            )
        f_rows.append([x % p for x in c])
    # a vector is in the image iff it is the sum of the echelon rows
    # weighted by its pivot entries: for all-ones, the plain sum
    if [sum(col) % p for col in zip(*img.rows)] != [1] * (2 * n):
        raise CrossCheckError("monochromatic colorings missing from boundary image")
    reduced = SubspaceModP.from_vectors(f_rows, p, 2 * n - 2) if n > 1 else None
    return len(basis), img, reduced


def _f_coordinates(v, n):
    """Integer f-basis (f_k = e_k + e_{k+1}) coordinates of the boundary
    vector v with the f_{2n-1} coordinate normalized to zero by the
    monochromatic relation and dropped, and the residual of v outside
    the span of the f-basis (its alternating sum, up to sign)."""
    c = []
    prev = 0
    for j in range(2 * n - 1):
        prev = int(v[j]) - prev
        c.append(prev)
    last = c[-1]
    if last:
        # f1 + f3 + ... + f_{2n-1} is monochromatic, hence zero in the
        # quotient: cancel the last coordinate with it
        for j in range(0, 2 * n - 1, 2):
            c[j] -= last
    return c[:-1], int(v[2 * n - 1]) - prev


def reduce_to_f_basis(vectors, p, n):
    """Rewrite boundary vectors in the f-basis (f_k = e_k + e_{k+1}),
    normalize the f_{2n-1} coordinate to zero using the monochromatic
    relation, and drop it.  Returns vectors in F_p^(2n-2)."""
    out = []
    for v in vectors:
        c, residual = _f_coordinates(v, n)
        if residual % p:
            raise AlternatingConditionError(
                "vector is outside the span of the f-basis"
            )
        out.append([x % p for x in c])
    return out


def reduce_image(img):
    """A boundary image (from `boundary_image`) modulo monochromatic
    colorings, written in the f-basis coordinates of F_p^(2n-2)."""
    n = img.ambient // 2
    if n < 2:
        raise ValueError("reduction needs an n-tangle with n >= 2")
    reduced = reduce_to_f_basis(img.rows, img.p, n)
    return SubspaceModP.from_vectors(reduced, img.p, 2 * n - 2)


def reduced_boundary_image(diagram, p):
    """Boundary image modulo monochromatic colorings, written in the
    f-basis coordinates of F_p^(2n-2)."""
    xl.check_prime(p)
    if diagram.n < 2:
        raise ValueError("reduction needs an n-tangle with n >= 2")
    return _boundary_data(diagram, p)[2]


# ---------------------------------------------------------------------------
# Boundary images of expression trees, without compiling.


def _integer_rows(k):
    """The boundary image of the twist tangle with k crossings: the corner
    convention x4 - x1 = k (x2 - x1), x3 = x2 + x4 - x1."""
    return [[1, 1, 1, 1], [0, 1, 1 + k, k]]


def _pair_rows(pairs, n):
    """e_i + e_j for each pair (i, j) of 1-indexed boundary points."""
    rows = []
    for i, j in pairs:
        v = [0] * (2 * n)
        v[i - 1] = v[j - 1] = 1
        rows.append(v)
    return rows


def _sigma_rows(n, level, sign):
    """The straight strands, and over + 2 u_out and u_in - u_out for the
    crossing (2 over = u_in + u_out), at the corners `_build_sigma` uses:
    the over strand enters on the left at `over` and leaves on the right
    at the other level, and so does the under strand."""
    over, under = (level, level - 1) if sign > 0 else (level - 1, level)
    right = 2 * n - 1  # right-side corner of the left corner j is right - j
    straight = [ell for ell in range(1, n + 1) if ell not in (level, level + 1)]
    rows = _pair_rows([(ell, 2 * n + 1 - ell) for ell in straight], n)
    v = [0] * (2 * n)
    v[over] = v[right - under] = 1
    v[right - over] = 2
    w = [0] * (2 * n)
    w[under] = 1
    w[right - over] = -1
    return rows + [v, w]


def _leaf_rows(expr):
    """Spanning rows of the boundary image of a leaf, and their length."""
    if isinstance(expr, Integer):
        return _integer_rows(expr.k), 4
    if isinstance(expr, Infinity):
        return _pair_rows(((1, 2), (3, 4)), 2), 4
    if isinstance(expr, Planar):
        return _pair_rows(expr.pairs, len(expr.pairs)), 2 * len(expr.pairs)
    if isinstance(expr, Sigma):
        return _sigma_rows(expr.n, expr.i, expr.sign), 2 * expr.n
    raise TypeError(f"not a tangle expression: {expr!r}")


class ImageTable:
    """Boundary images mod p, interned: id i names the image `images[i]`.

    The structural rules run on ids: `leaf(expr)` memoized by the
    expression, `rot(i, k)` (`Rot` applied k times) as one corner shift,
    and `compose(i, j)` memoized by (i, j), with one `_lift` per right
    operand; `expr` walks a tree through them.  Each id records its origin
    (root, offset): the id it was first interned by rotating, and by how
    much (itself and 0 if it was not).  `rot` is memoized by (root, offset
    + k mod 2n), so a rotation of a rotated id is computed at most once;
    when a rotation returns an id interned before with another root, that
    root is re-rooted, so the two rotation orbits share one memo.
    """

    def __init__(self, p):
        xl.check_prime(p)
        self.p, self.images, self._origins = p, [], []
        self._ids, self._leaves, self._rots, self._composes, self._lifts = {}, {}, {}, {}, {}

    def _intern(self, vectors, width, origin=None):
        img = SubspaceModP.from_vectors(vectors, self.p, width)
        i = self._ids.setdefault((width, img.rows), len(self.images))
        if i == len(self.images):
            self.images.append(img)
            self._origins.append(origin or (i, 0))
        return i

    def leaf(self, expr):
        i = self._leaves.get(expr)
        if i is None:
            if isinstance(expr, Rational):
                i = _fold_twists(
                    expr.entries, lambda k: self.leaf(Integer(k)), self.rot, self.compose
                )
            else:
                i = self._intern(*_leaf_rows(expr))
            self._leaves[expr] = i
        return i

    def _origin(self, i):
        # (root, offset) of i, through the roots merged since it was interned
        root, offset = self._origins[i]
        while self._origins[root][0] != root:
            root, shift = self._origins[root]
            offset += shift
        return root, offset

    def rot(self, i, k):
        # the corner shift of `_build`, k steps: position k takes corner 0
        width = self.images[i].ambient
        root, offset = self._origin(i)
        k = (offset + k) % (width or 1)
        j = self._rots.get((root, k)) if k else root
        if j is None:
            shifted = [r[-k:] + r[:-k] for r in self.images[root].rows]
            j = self._rots[root, k] = self._intern(shifted, width, (root, k))
            top, above = self._origin(j)
            if top != root:  # j was held already: one orbit, one root
                self._origins[top] = root, k - above
        return j

    def compose(self, i, j):
        c = self._composes.get((i, j))
        if c is None:
            left, right = self.images[i], self.images[j]
            if left.ambient != right.ambient:
                raise ValueError("composed tangles must have equal widths")
            p, n = self.p, left.ambient // 2
            r, cols, zero = self._lift(j)
            # the fiber product over the glued points (left[2n-1-k] = right[k],
            # as in `_glue_compose`) projected to left[:n] + right[n:] is the
            # span of the rows below the r residual pivots, and of `zero`
            rows = []
            for u in left.rows:
                g = u[: n - 1 : -1]
                x = [sum(map(mul, g, col)) % p for col in cols]
                rows.append(x[:r] + list(u[:n]) + x[r:])
            used = len(xl._rref_raw(rows, p, r)[1])
            vectors = [row[r:] for row in rows[used:]] + zero
            c = self._composes[i, j] = self._intern(vectors, left.ambient)
        return c

    def _lift(self, j):
        """For the right operand j: the rank deficit r of its glued
        projection, r + n columns over a glued part g (the projection's
        annihilator, then the lift of g to the kept coordinates), and its
        zero-glued rows, all read off the echelon rows of image j."""
        lift = self._lifts.get(j)
        if lift is None:
            img, n = self.images[j], self.images[j].ambient // 2
            rows = dict(zip(img.pivots, img.rows))
            echelon = [list(rows[k][:n]) for k in img.pivots if k < n]
            kept = [rows[k][n:] if k in rows else (0,) * n for k in range(n)]
            zero = [(0,) * n + rows[k][n:] for k in img.pivots if k >= n]
            cols = xl._kernel_basis(echelon, self.p, n)
            lift = self._lifts[j] = (len(cols), cols + list(zip(*kept)), zero)
        return lift

    def expr(self, expr):
        k = 0
        while isinstance(expr, Rot):
            expr, k = expr.child, k + 1
        if isinstance(expr, Compose):
            i = self.compose(self.expr(expr.left), self.expr(expr.right))
        else:
            i = self.leaf(expr)
        return self.rot(i, k)


def expr_boundary_image(expr, p):
    """The boundary image of `compile_expr(expr)` (as `boundary_image`
    gives it) computed from the expression tree without compiling.

    Leaves have closed forms; `Rot` shifts the corners and `Compose` is
    the fiber product of the two images over the glued points, both by
    the rules of a fresh `ImageTable(p)`, which checks that p is prime.
    """
    table = ImageTable(p)
    img = table.images[table.expr(expr)]
    if not img.ambient:
        raise ValueError("diagram has no boundary")
    return img


# ---------------------------------------------------------------------------
# Integer colorings: virtual Lagrangian index.


def virtual_index(diagram):
    """Index of the reduced boundary lattice inside its saturation.

    Over the integers the reduced boundary image is a finite index
    sublattice of a Lagrangian; the saturation is that Lagrangian, and
    the index is the product of the nonzero invariant factors of any
    matrix whose rows generate the reduced image.
    """
    n = diagram.n
    if n < 2:
        raise ValueError("virtual index needs an n-tangle with n >= 2")
    index, rows = _relation_rows(diagram)
    free, left, expand = xl.eliminate_units(rows, len(index))
    cols = [index[a] for a in diagram.boundary]
    reduced = []
    for v in map(expand, xl.int_kernel(left, len(free))):
        c, residual = _f_coordinates([v[i] for i in cols], n)
        if residual:
            raise AlternatingConditionError(
                "integer coloring violates the alternating condition"
            )
        if any(c):
            reduced.append(c)
    return prod(d for d in xl.snf(reduced, 2 * n - 2) if d)


# ---------------------------------------------------------------------------
# Alexander-Burau-Fox colorings.


def abf_space(diagram, p, t):
    """Colorings with the twisted relation c = (1-t) a + t b at positive
    crossings (a over, b entering under, c exiting under) and the
    inverse twist at negative crossings.

    Only diagrams that carry a braid orientation on every crossing are
    accepted; t must be invertible mod p.
    """
    t, tinv = _twist(p, t)
    if any(c.sign is None for c in diagram.crossings):
        raise ValueError("crossing lacks a braid orientation tag")
    arcs, rows = _relation_rows(diagram, t, tinv)
    return _count(p, rows, len(arcs), diagram.closed_components)
