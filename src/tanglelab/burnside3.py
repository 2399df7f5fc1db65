"""Exact arithmetic in the free exponent-3 Burnside groups B(r,3), the
core relators of braid closures evaluated in them, and the obstruction
test for reducibility of links to trivial links by 3-moves.

B(r,3) is finite, nilpotent of class at most 3, and 2-Engel.  Elements
are collected normal forms (a, b, c): generator exponents, exponents of
the pair commutators [x_i, x_j] (i < j), and exponents of the central
triple commutators [[x_i, x_j], x_k] (i < j < k), all mod 3.  The
collection rules are

    x_j x_i       = x_i x_j [x_j, x_i]        with [x_j, x_i] = b_ij^-1,
    b_ij x_k      = x_k b_ij c_(ijk sorted)^(sign of the sorting),
    c central, all cubes trivial, b's commute with each other.

Full alternation of the triple bracket and triviality on repeated
indices follow from the 2-Engel law.  `_tables` writes the rules as one
step per generator, the single source of the arithmetic, and `_Kernels`
turns each rank's steps, once, into generated straight-line Python with
one line per written digit: a step, a whole product and an inverse.  No
other routine computes with a step's terms.  `_product` and `_inverse`
(which `multiply` and `inverse` wrap), `evaluate_word`, `enumerate_group`
and the strand action of `obstruction` run the compiled code, on lists
of int digits and of numpy digit columns alike.  The table is certified by
`consistency_check`, as whole-column products through `_product` and
`_inverse`, and by the closure count 3^(r + C(r,2) + C(r,3)) for
r = 1..4.  No step reads a central digit, so the closure is a
breadth-first search over the 3^(r + C(r,2)) elements of B(r,3) modulo
its centre, and the central part is the F_3 span of the central
holonomies of its edges (Schreier's lemma on a central extension; Sims,
Computation with Finitely Presented Groups, 4.1).
"""

from collections import namedtuple
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import comb, prod
from random import Random

from .errors import BudgetExceededError, CrossCheckError
from .exact_linear import SubspaceModP
from .tangle_core import _strand_action
from .value import Value

__all__ = [
    "BurnsideElement",
    "identity",
    "generator",
    "multiply",
    "inverse",
    "conjugate",
    "commutator",
    "evaluate_word",
    "group_order",
    "enumerate_group",
    "consistency_check",
    "obstruction",
    "ObstructionReport",
    "quotient_order",
    "project_away",
]

_CELLS = 1 << 20  # digits (dim x columns) per chunk of `consistency_check`


def _step(index, r, k):
    """The terms of right-multiplication by x_k (see `_tables`)."""
    terms = []
    # x_k crosses the commutator zone: b_ij x_k = x_k b_ij c^sign
    for i in range(r):
        for j in range(i + 1, r):
            if k not in (i, j):
                # the sign of sorting (i, j, k) is odd only for i < k < j
                sign = -1 if i < k < j else 1
                terms.append((index[tuple(sorted((i, j, k)))], sign, (index[i, j],)))
    # x_k crosses the generator blocks x_j^a_j, j > k, to its left
    for j in range(k + 1, r):
        terms.append((index[k, j], -1, (j,)))
        for l in range(j + 1, r):
            terms.append((index[k, j, l], -1, (j, l)))
    terms.append((k, 1, ()))
    return tuple(terms)


@lru_cache(maxsize=None)
def _tables(r):
    """Digit labels of B(r,3) and the step table of the generators.

    A normal form is one flat digit vector v: the r generator exponents,
    then one b digit per pair i < j, then one c digit per triple
    i < j < k; labels[d] is the index set of digit d.  steps[k] is the
    rule for right-multiplying by x_k: each term (target, coeff, sources)
    adds coeff * prod(v[s] for s in sources) to v[target], mod 3.  No
    step reads one of its own targets (CrossCheckError otherwise), so the
    terms apply in place in any order and x_k^n adds n times as much.
    No step reads a central digit either (CrossCheckError otherwise), so
    the centre is only ever added to (see `enumerate_group`).
    """
    labels = [lab for size in (1, 2, 3) for lab in combinations(range(r), size)]
    index = {lab: d for d, lab in enumerate(labels)}
    steps = tuple(_step(index, r, k) for k in range(r))
    nbase = r + comb(r, 2)
    for k, step in enumerate(steps):
        sources = {s for _, _, sources in step for s in sources}
        if max(sources, default=-1) >= nbase:
            raise CrossCheckError(f"the step of x_{k + 1} reads a central digit")
        if sources & {t for t, _, _ in step}:
            raise CrossCheckError(f"the step of x_{k + 1} reads one of its targets")
    return tuple(labels), steps


class BurnsideElement(namedtuple("BurnsideElement", "rank a b c")):
    """Collected normal form in B(rank, 3)."""

    __slots__ = ()

    def is_identity(self):
        return not (any(self.a) or any(self.b) or any(self.c))


def _element(rank, v):
    """The element with flat digit vector v (see `_tables`)."""
    nb, v = rank + rank * (rank - 1) // 2, tuple(v)
    # without the namedtuple's own __new__, a Python-level call
    return tuple.__new__(BurnsideElement, (rank, v[:rank], v[rank:nb], v[nb:]))


def identity(rank):
    return _element(rank, [0] * _dim(rank))


def generator(rank, i):
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range")
    v = [0] * _dim(rank)
    v[i - 1] = 1
    return _element(rank, v)


def _lines(step, digit="v[{}]", n="n"):
    """The step (see `_tables`) as lines of Python adding n times its
    terms to the digits, mod 3: one line per target digit t, one
    `+ n * v[s] * v[u]` per term (a minus sign for a negative coeff)."""
    terms = {}
    for target, coeff, sources in step:
        factors = ([str(abs(coeff))] if abs(coeff) != 1 else []) + [n]
        factors += [digit.format(s) for s in sources]
        sign = "+" if coeff > 0 else "-"
        terms.setdefault(target, []).append(f" {sign} {' * '.join(factors)}")
    return [
        f"{digit.format(t)} = ({digit.format(t)}{''.join(inc)}) % 3"
        for t, inc in terms.items()
    ]


def _define(name, params, body, r):
    """The function `def name(params):` with the given body lines,
    compiled from source."""
    src = "\n    ".join([f"def {name}({params}):", *body])
    namespace = {}
    exec(compile(src, f"<B({r},3) {name}>", "exec"), namespace)
    return namespace[name]


class _Kernels:
    """The step table `steps` of `_tables` as generated straight-line
    Python, each kernel compiled on its first use.

    collect[k](v, n) right-multiplies the digit list v by x_k^n in place
    and returns v.  product(v, w) returns the digits of v times the
    normal form w, collecting w's word onto v; inverse(v) returns those
    of v^-1 = C^-c B^-b x_r^-a_r ... x_1^-a_1.  Both hold the digits in
    local variables and return new lists.  Digits are ints or numpy
    digit columns alike: lists are written by replacing entries, never
    by mutating them, and only int exponents that are zero are skipped.
    No step reads its own targets, so its lines apply in any order.
    """

    def __init__(self, steps):
        self.steps, self.r = steps, len(steps)
        self.v, self.u, self.w = (
            [f"{x}{d}" for d in range(_dim(self.r))] for x in "vuw"
        )

    def _apply(self, k, n):
        """The step of x_k^n on the local digits v0, v1, ..."""
        return [f"if {n}.__class__ is not int or {n}:"] + [
            "    " + line for line in _lines(self.steps[k], "v{}", n)
        ]

    @cached_property
    def collect(self):
        return tuple(
            _define(f"collect_{k}", "v, n", [*_lines(step), "return v"], self.r)
            for k, step in enumerate(self.steps)
        )

    @cached_property
    def product(self):
        r, v, w = self.r, self.v, self.w
        body = [f"[{', '.join(v)}] = v", f"[{', '.join(w)}] = w"]
        for k in range(r):
            body += self._apply(k, f"w{k}")
        tail = [f"(v{d} + w{d}) % 3" for d in range(r, len(v))]
        body.append(f"return [{', '.join(v[:r] + tail)}]")
        return _define("product", "v, w", body, r)

    @cached_property
    def inverse(self):
        r, v = self.r, self.v
        body = [f"[{', '.join(self.u)}] = u"]
        body += [f"v{d} = {'0' if d < r else f'-u{d} % 3'}" for d in range(len(v))]
        for k in range(r - 1, -1, -1):
            body += [f"n = -u{k}", *self._apply(k, "n")]
        body.append(f"return [{', '.join(v)}]")
        return _define("inverse", "u", body, r)


@lru_cache(maxsize=None)
def _kernels(r):
    """The steps of `_tables(r)` as `_Kernels`."""
    return _Kernels(_tables(r)[1])


def _product(v, w, r):
    """The digits of v times the normal form w (see `_Kernels`)."""
    return _kernels(r).product(v, w)


def _inverse(v, r):
    """The digits of v^-1 (see `_Kernels`)."""
    return _kernels(r).inverse(v)


def multiply(g, h):
    """Product in B(r,3) (`_product`)."""
    (r, a, b, c), (rank, x, y, z) = g, h  # unpacked: field reads are slower
    if r != rank:
        raise ValueError("rank mismatch")
    return _element(r, _product(a + b + c, x + y + z, r))


def inverse(g):
    r, a, b, c = g
    return _element(r, _inverse(a + b + c, r))


def conjugate(g, by):
    return multiply(multiply(inverse(by), g), by)


def commutator(g, h):
    return multiply(multiply(inverse(g), inverse(h)), multiply(g, h))


def evaluate_word(rank, word):
    """Image of a signed-letter word (letters in +-1..+-rank)."""
    collect = _kernels(rank).collect
    v = [0] * _dim(rank)
    for letter in word:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
        collect[abs(letter) - 1](v, 1 if letter > 0 else -1)
    return _element(rank, v)


def group_order(r):
    return 3 ** (r + comb(r, 2) + comb(r, 3))


def _dim(r):
    return r + comb(r, 2) + comb(r, 3)


def _digits(keys, dim):
    """Digit columns (dim x n, int8) of radix-3 keys sum(v[d] * 3^d)."""
    import numpy as np
    digits = np.empty((dim, keys.size), dtype=np.int8)
    q = keys
    for d in range(dim):
        q, digits[d] = np.divmod(q, 3)
    return digits


def enumerate_group(r):
    """Closure of the identity under right multiplication by the
    generators, as a certificate of the collection table, walked over
    B(r,3) modulo its centre.

    A step moves the base digits a|b by a bijection of their own and adds
    to the central digits c an amount read off a|b alone (`_tables`
    refuses any other step).  So the breadth-first search runs over the
    3^(r + C(r,2)) radix-3 base keys only, and label[y] keeps the central
    digits (as a radix-3 key) of the element by which base key y was
    first reached.  Each level decodes the frontier elements, keyed
    base + 3^nbase * label (int32, since 3^14 < 2^31), into int8 digit
    columns and runs every generator's compiled step on them.
    Every edge to base key y' with central digits c' has the holonomy
    c' - label[y'], digit by digit mod 3, and the holonomies met are
    marked in a bool bitmap of size 3^C(r,3).  By Schreier's lemma the
    holonomies span the central digits reachable over base key 0, so the
    closure has reached_bases * 3^rank elements, rank the F_3 rank of the
    holonomies: exactly the count of a search over all 3^dim keys.
    The step table is consistent only if the closure reaches exactly
    3^(r + C(r,2) + C(r,3)) elements; any other count raises
    CrossCheckError.  Raises BudgetExceededError for r > 4: the search
    then stays within the 3^10 base keys of r = 4.
    """
    import numpy as np
    if r > 4:
        raise BudgetExceededError("enumeration supported for r <= 4")
    order = group_order(r)
    dim, nbase = _dim(r), r + comb(r, 2)
    m = dim - nbase
    shift = np.int32(3**nbase)
    _, steps = _tables(r)
    collect = _kernels(r).collect
    label = np.full(3**nbase, -1, dtype=np.int32)
    label[0] = 0
    # the digits of every central key, and minus[c, l] the key of c - l
    central = _digits(np.arange(3**m, dtype=np.int32), m)
    diff = (central[:, :, None] - central[:, None, :]) % 3
    minus = np.tensordot(3 ** np.arange(m), diff, 1)
    holonomy = np.zeros(3**m, dtype=bool)
    frontier = np.zeros(1, dtype=np.int32)
    while frontier.size:
        digits = _digits(frontier, dim)
        level = np.zeros(label.size, dtype=bool)
        for step, collect_k in zip(steps, collect):
            v = collect_k(list(digits), 1)
            keys = frontier.copy()
            for d in {target for target, _, _ in step}:
                keys += (v[d] - digits[d]) * np.int32(3**d)
            centre, base = np.divmod(keys, shift)
            fresh = label[base] < 0
            label[base[fresh]] = centre[fresh]
            level[base[fresh]] = True
            holonomy[minus[centre, label[base]]] = True
        frontier = np.flatnonzero(level).astype(np.int32)
        frontier += shift * label[frontier]
    holonomies = central[:, holonomy].T.tolist()
    rank = SubspaceModP.from_vectors(holonomies, 3, m).dim
    total = np.count_nonzero(label >= 0) * 3**rank
    if total != order:
        raise CrossCheckError(
            f"closure found {total} elements, expected {order}: the "
            "collection table is inconsistent"
        )
    return total


def consistency_check(r, seed=0):
    """Guard the collection table: the generator overlaps
    (x_i^+-1 x_j) x_k = x_i^+-1 (x_j x_k), associativity on 2000 random
    (or all, for r = 2) triples, exponent 3, the 2-Engel law and inverses
    on 2000 random elements, and centrality of the weight-3 digits.  Each
    check runs on digit columns through `_product` and `_inverse`, the
    code of `multiply` and `inverse`, in chunks of at most _CELLS digits.
    Raises CrossCheckError on any failure; returns the number of checks.
    """
    import numpy as np
    rng, dim = Random(seed), _dim(r)
    n, width = 2000, max(1, _CELLS // (dim or 1))

    def mul(*vs):
        return reduce(lambda v, w: _product(v, w, r), vs)

    def comm(g, h):
        return mul(_inverse(g, r), _inverse(h, r), g, h)

    def assoc(g, h, k):
        return mul(g, h, k), mul(g, mul(h, k))

    def drawn(k):  # k random operands per check, digits uniform mod 3
        def draw(lo, hi):
            size, cells = k * dim * (hi - lo), np.empty(0, np.uint8)
            while cells.size < size:  # bytes 255 are drawn again: 3 | 255
                more = np.frombuffer(rng.randbytes(size - cells.size), np.uint8)
                cells = np.concatenate((cells, more[more < 255]))
            digits = (cells % 3).astype(np.int8).reshape(k, dim, hi - lo)
            return [list(x) for x in digits]

        return n, draw

    def picked(bases, shape):  # operand j: column i[j] of bases[j], i over shape
        return prod(shape), lambda lo, hi: [
            [x[i] for x in base]
            for base, i in zip(bases, np.unravel_index(np.arange(lo, hi), shape))
        ]

    def check(failure, total, draw, law):
        for lo in range(0, total, width):
            lhs, rhs = law(*draw(lo, min(lo + width, total)))
            if np.any(reduce(np.logical_or, map(np.not_equal, lhs, rhs), False)):
                raise CrossCheckError(failure)
        return total

    one, units = [0] * dim, np.eye(dim, dtype=np.int8)
    gens, central = list(units[:, :r]), list(units[:, r + comb(r, 2) :])
    letters = [np.concatenate((x, 2 * x)) for x in gens]  # x_i, x_i^-1 = x_i^2
    overlaps = picked((letters, gens, gens), (2 * r, r, r))
    if r == 2:
        space = list(_digits(np.arange(3**dim), dim))
        samples = picked((space,) * 3, (3**dim,) * 3)
    else:
        samples = drawn(3)
    return (
        check("generator overlap failed", *overlaps, assoc)
        + check("associativity failed", *samples, assoc)
        + check("exponent 3 failed", *drawn(1), lambda g: (mul(g, g, g), one))
        + check("2-Engel failed", *drawn(2), lambda g, h: (comm(comm(g, h), h), one))
        + check("inverse failed", *drawn(1), lambda g: (mul(g, _inverse(g, r)), one))
        + check(
            "weight-3 generator is not central",
            *picked((central, gens), (comb(r, 3), r)),
            lambda z, g: (mul(z, g), mul(g, z)),
        )
    )


# ---------------------------------------------------------------------------
# Obstructions for braid closures.


@lru_cache(maxsize=None)
def _kept(r, j):
    """The digits of B(r,3) whose labels avoid generator j (1-based)."""
    labels, _ = _tables(r)
    return tuple(d for d, label in enumerate(labels) if j - 1 not in label)


def project_away(element, j):
    """Quotient map B(r,3) -> B(r-1,3) killing generator j (1-based):
    drop every digit whose label contains j-1.  The labels that avoid
    j-1 keep their order, so what is left is the normal form in B(r-1,3)."""
    v = element.a + element.b + element.c
    return _element(element.rank - 1, [v[d] for d in _kept(element.rank, j)])


class ObstructionReport(Value, namedtuple(
    "ObstructionReport", "verdict relator_images tri_closure"
)):
    # no __slots__: `quotient` is cached in the instance dict

    @cached_property
    def quotient(self):
        """|B(n-1,3) / N| for the normal closure N of the relator images,
        computed on first use; None when n - 1 > 3."""
        r = self.relator_images[0].rank
        return quotient_order(self.relator_images, r) if r <= 3 else None


def _strand_images(word):
    """Images in B(n,3) of the strand generators after the braid acts by
    `tangle_core._strand_action` under the core rule: the over strand o
    and the under strand u leave as (o u^-1 o, o).  The images stay
    collected digit lists, so their size does not grow with the braid
    length; only the final ones become elements."""
    n, kernels = word.strands, _kernels(word.strands)
    product, inverse = kernels.product, kernels.inverse
    state = [[int(d == j) for d in range(_dim(n))] for j in range(n)]
    _strand_action(word.letters, state, lambda o, u, x: product(product(o, inverse(u)), o))
    return [_element(n, v) for v in state]


@lru_cache(maxsize=1)
def _closure_relators(word):
    """The core relators (image of g_j) g_j^-1 of the braid closure in
    B(n,3), and tri of the closure: the part of `obstruction` shared by
    every kill.  tri is 3^(n - rank) of the relators' generator digits,
    which span the abelianized core (Fox) relations over F_3."""
    n, dim = word.strands, _dim(word.strands)
    product = _kernels(n).product
    relators = tuple(  # g_j^-1 is the digit vector with a 2 at j
        _element(n, product(img.a + img.b + img.c, [2 * (d == j) for d in range(dim)]))
        for j, img in enumerate(_strand_images(word))
    )
    rank = SubspaceModP.from_vectors([rel.a for rel in relators], 3, n).dim
    return relators, 3 ** (n - rank)


def obstruction(word, kill=None):
    """Evaluate the core relators of the braid closure in B(n-1, 3)
    after killing one strand generator (the last by default).

    OBSTRUCTED means some relator is non-identity: the closure's
    exponent-3 quotient group is then a proper quotient of B(n-1,3), so
    the link is not 3-move equivalent to T_n, the trivial link with n
    components, n the strand count.  It says nothing about T_m for
    m < n: the closures of `2: 1` and `3: 1 2` are unknots, and both are
    OBSTRUCTED.  Comparing `quotient_order` with |B(m-1,3)| for the m of
    tri = 3^m would test against the trivial link that tri allows.
    INCONCLUSIVE never claims reducibility.  Calls for the same braid
    and different kills share one evaluation.
    """
    n = word.strands
    if n - 1 > 4:
        raise BudgetExceededError("obstruction supported for at most 5 strands")
    if kill is None:
        kill = n
    if not 1 <= kill <= n:
        raise ValueError(f"no strand generator {kill}")
    relators, tri_closure = _closure_relators(word)
    images = tuple(project_away(rel, kill) for rel in relators)
    verdict = (
        "OBSTRUCTED" if any(not e.is_identity() for e in images) else "INCONCLUSIVE"
    )
    return ObstructionReport(verdict, images, tri_closure)


def quotient_order(images, r):
    """|B(r,3) / N| for the normal closure N of the elements `images`.

    Digit d (in `_tables` order a|b|c) is additive on the normal subgroup
    G_d of the elements whose first d digits are zero, and [G_d, B(r,3)]
    lies in G_(d+1).  Each element is sifted: multiplied by the stored
    element of its leading digit d until that digit is zero (at most
    twice), or, if none is stored, stored as s_d and its commutators with
    the generators queued.  By induction down the series, the products of
    the s_e with e >= d form a normal subgroup of order 3^(their number),
    which is N for d = 0 (Sims, Computation with Finitely Presented
    Groups, ch. 9).  At most `_dim(r)` elements are stored and
    len(images) + r * _dim(r) sifted, so no budget is needed.
    """
    gens = [generator(r, i + 1) for i in range(r)]
    stored = {}
    queue = list(images)
    while queue:
        g = queue.pop()
        while not g.is_identity():
            d = next(d for d, x in enumerate(g.a + g.b + g.c) if x)
            if d not in stored:
                stored[d] = g
                queue += [commutator(g, x) for x in gens]
                break
            g = multiply(g, stored[d])
    return group_order(r) // 3 ** len(stored)
