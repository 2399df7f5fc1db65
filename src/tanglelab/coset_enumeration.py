"""Todd-Coxeter coset enumeration for finitely presented groups, with
braid-quotient presentations, certified braid-quotient orders, word
equality, and conjugacy classes.

The enumerator builds the Schreier graph of a subgroup with a union-find
over vertices in one HLT pass: the subgroup generators are scanned at
coset 0, then every live vertex in turn is scanned against every
relator (defining new vertices as needed, the endpoint unified with the
start) and its missing edges are filled by definition.  For a finite
index this terminates with the coset table, which is re-verified before
it is returned.

The order of B_n/(s_i^k) is certified by two bounds that must agree
(Coxeter, *Factor groups of the braid group*, 1957, gives the finite
cases).  The upper bound multiplies the indices of the parabolic
subgroups <s_1..s_{m-2}> in B_m/(s_i^k) for m = 3..n; it holds because
the image of that subgroup is a quotient of B_{m-1}/(s_i^k).  The lower
bound multiplies the sizes of the orbits of e_m, m = 2..n, under the
unreduced Burau matrices of s_1..s_{m-1} over F_p at a t whose negative
is a primitive k-th root of unity (see `certify_braid_quotient`).  Equal
bounds make the Burau map an isomorphism, so words compare as
matrix products and conjugacy classes are orbits on the Burau matrices.
"""

import math
from collections import namedtuple

from .errors import BudgetExceededError, CrossCheckError
from .value import Value

__all__ = [
    "Presentation",
    "braid_presentation",
    "CosetTable",
    "enumerate_cosets",
    "parabolic_bound",
    "BraidQuotient",
    "certify_braid_quotient",
    "trace",
    "word_equal",
    "conjugacy_classes",
]

UNDEF = -1


def _freely_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclically_reduce(word):
    w = _freely_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


class Presentation(Value, namedtuple("Presentation", "generators relators")):
    """Relator words as tuples of nonzero signed generator indices."""

    __slots__ = ()

    def __new__(cls, generators, relators):
        rels = []
        for rel in relators:
            red = _cyclically_reduce(rel)
            _letters_of(red, generators)
            if red:
                rels.append(red)
        return super().__new__(cls, generators, tuple(rels))


def braid_presentation(n, k):
    """B_n/(sigma_i^k): braid and commutation relators plus one torsion
    relator sigma_1^k (all generators are conjugate, so one suffices)."""
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 strands and torsion k >= 2")
    g = n - 1
    relators = []
    for i in range(1, g):
        relators.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, g + 1):
        for j in range(i + 2, g + 1):
            relators.append((i, j, -i, -j))
    relators.append((1,) * k)
    return Presentation(g, tuple(relators))


class CosetTable(Value, namedtuple("CosetTable", "generators table")):
    """Complete coset table: row per coset (row 0 is the subgroup),
    column per letter (generator g -> 2g-2, inverse -> 2g-1)."""

    __slots__ = ()

    @property
    def order(self):
        """Number of cosets: the group order over the trivial subgroup."""
        return len(self.table)


def _letters_of(word, generators):
    """Table columns of a word of signed generator indices; a letter
    outside 1 <= |x| <= generators is a ValueError."""
    out = []
    for x in word:
        if not 0 < abs(x) <= generators:
            raise ValueError(
                f"letter {x} out of range: need 1 <= |x| <= {generators}"
            )
        out.append(2 * (abs(x) - 1) + (0 if x > 0 else 1))
    return out


def enumerate_cosets(pres, max_cosets=10**6, subgroup=()):
    """Complete the coset table of the subgroup generated by the words
    `subgroup` (the trivial subgroup by default); raises
    BudgetExceededError when more than max_cosets vertices get created
    (the index may be infinite or the budget too small)."""
    g = pres.generators
    width = 2 * g
    rel_letters = [_letters_of(r, g) for r in pres.relators]
    sub_letters = [_letters_of(_freely_reduce(w), g) for w in subgroup]
    labels = [0]
    neighbors = [[UNDEF] * width]

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def new_vertex():
        if len(labels) >= max_cosets:
            raise BudgetExceededError(
                f"coset enumeration exceeded {max_cosets} vertices"
            )
        v = len(labels)
        labels.append(v)
        neighbors.append([UNDEF] * width)
        return v

    def unify(a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            rowa, rowb = neighbors[a], neighbors[b]
            neighbors[b] = None
            for x in range(width):
                nb = rowb[x]
                if nb != UNDEF:
                    na = rowa[x]
                    if na == UNDEF:
                        rowa[x] = nb
                    else:
                        stack.append((na, nb))

    def scan_and_fill(alpha, letters):
        """Classic bidirectional relator scan: trace forward and backward
        to the stall points, then deduce the closing edge or fill the gap
        with one definition and resume."""
        f = alpha
        i = 0
        b = alpha
        j = len(letters) - 1
        while True:
            while i <= j:
                nxt = neighbors[f][letters[i]]
                if nxt == UNDEF:
                    break
                f = find(nxt)
                i += 1
            if i > j:
                if f != b:
                    unify(f, b)
                return
            while j >= i:
                prv = neighbors[b][letters[j] ^ 1]
                if prv == UNDEF:
                    break
                b = find(prv)
                j -= 1
            if j < i:
                unify(f, b)
                return
            if i == j:
                x = letters[i]
                neighbors[f][x] = b
                neighbors[b][x ^ 1] = f
                return
            x = letters[i]
            d = new_vertex()
            neighbors[f][x] = d
            neighbors[d][x ^ 1] = f
            f = d
            i += 1

    # one HLT pass: close the subgroup generators at coset 0, then scan
    # every relator at each live vertex in turn and fill its row.  A
    # closed relator cycle stays closed when vertices merge, and coset 0
    # stays live (a coincidence keeps the smaller label), so the pass
    # completes the table; `_verify` checks that it did.
    for letters in sub_letters:
        scan_and_fill(0, letters)
    idx = 0
    while idx < len(labels):
        if labels[idx] == idx:
            for letters in rel_letters:
                scan_and_fill(idx, letters)
                if labels[idx] != idx:
                    break  # collapsed into an earlier vertex
            else:
                for x in range(width):
                    if neighbors[idx][x] == UNDEF:
                        d = new_vertex()
                        neighbors[idx][x] = d
                        neighbors[d][x ^ 1] = idx
        idx += 1
    live = [i for i in range(len(labels)) if labels[i] == i]
    rank = {v: i for i, v in enumerate(live)}
    table = []
    for v in live:
        if UNDEF in neighbors[v]:
            raise CrossCheckError("incomplete table after enumeration")
        table.append(tuple(rank[find(d)] for d in neighbors[v]))
    result = CosetTable(g, tuple(table))
    _verify(result, pres, subgroup)
    return result


def _verify(table, pres, subgroup=()):
    for word in subgroup:
        if trace(table, word) != 0:
            raise CrossCheckError("a subgroup generator moves coset 0")
    n = table.order
    width = 2 * pres.generators
    for x in range(width):
        seen = bytearray(n)
        for row in table.table:
            seen[row[x]] = 1
        if not all(seen):
            raise CrossCheckError("a generator column is not a permutation")
    for rel in pres.relators:
        letters = _letters_of(rel, pres.generators)
        for c in range(n):
            d = c
            for x in letters:
                d = table.table[d][x]
            if d != c:
                raise CrossCheckError("a relator does not fix every coset")


def trace(table, word, start=0):
    c = start
    for x in _letters_of(word, table.generators):
        c = table.table[c][x]
    return c


def word_equal(table, w1, w2):
    """True iff w1 and w2 represent the same element of the group whose
    regular coset table is `table`."""
    inv2 = tuple(-x for x in reversed(tuple(w2)))
    return trace(table, tuple(w1) + inv2) == 0


# (p, t) with -t a primitive k-th root of unity mod p, so the Burau
# block of every s_i has order k.  Coxeter's finite quotients with n >= 3
# all have k <= 5; B_2/(s^k) is cyclic and needs no field.
_BURAU_FIELDS = {2: (3, 1), 3: (7, 5), 4: (5, 3), 5: (11, 2)}


def parabolic_bound(n, k, max_cosets=10**6):
    """Upper bound on |B_n/(s_i^k)|: k times the index of <s_1..s_{m-2}>
    in B_m/(s_i^k) for each m = 3..n."""
    bound = k
    for m in range(3, n + 1):
        subgroup = [(i,) for i in range(1, m - 1)]
        table = enumerate_cosets(
            braid_presentation(m, k), max_cosets, subgroup=subgroup
        )
        bound *= table.order
    return bound


def _burau_right(mats, code, p, t):
    """mats (a matrix or a batch of them, entries < p < 256 as bytes)
    times the Burau matrix of one letter, given as its table column:
    s_i rewrites only columns i and i+1 (counting from 1), as
    (a, b) -> ((1-t)a + b, ta)."""
    import numpy as np
    i = code >> 1
    a = mats[..., i].astype(np.int64)
    b = mats[..., i + 1].astype(np.int64)
    out = mats.copy()
    if code & 1:
        u = pow(t, -1, p)
        out[..., i] = u * b % p
        out[..., i + 1] = (a + (1 - u) * b) % p
    else:
        out[..., i] = ((1 - t) * a + b) % p
        out[..., i + 1] = t * a % p
    return out


def _burau_keys(n, p):
    """Sortable keys of batches of Burau matrices over F_p.  Every row of
    a Burau matrix sums to 1, so the first n-1 columns identify it; they
    are packed as radix-p digits into int64 words."""
    import numpy as np
    digits = n * (n - 1)
    per_word = 1
    while p ** (per_word + 1) < 2**63:
        per_word += 1
    words = -(-digits // per_word)
    weights = np.zeros((digits, words), dtype=np.int64)
    for j in range(digits):
        weights[j, j // per_word] = p ** (j % per_word)

    def keys(batch):
        w = batch[:, :, : n - 1].reshape(len(batch), digits) @ weights
        if words == 1:
            return w[:, 0]
        # several words sort and compare as one byte string
        return np.ascontiguousarray(w).view(np.dtype((np.void, 8 * words)))[:, 0]

    return keys


def _burau_orbit(m, n, p, t):
    """Size of the orbit of the unit row vector e_m of F_p^n under the
    Burau matrices of s_1..s_{m-1}, by breadth-first search: v -> v S_i
    rewrites coordinates i and i+1 as (a, b) -> ((1-t)a + b, ta).  The
    matrices have finite order, so the positive letters close the orbit."""
    start = tuple(int(j == m - 1) for j in range(n))
    orbit, seen = [start], {start}
    for v in orbit:
        for i in range(m - 1):
            a, b = v[i], v[i + 1]
            w = v[:i] + (((1 - t) * a + b) % p, t * a % p) + v[i + 2 :]
            if w not in seen:
                seen.add(w)
                orbit.append(w)
    return len(orbit)


class BraidQuotient(Value, namedtuple("BraidQuotient", "n k order p t", defaults=(0, 0))):
    """B_n/(s_i^k) with its certified order and, for n >= 3, the field
    F_p and parameter t of its faithful Burau representation."""

    __slots__ = ()

    def matrix(self, word):
        """Burau matrix of a word of signed generator indices."""
        import numpy as np
        mat = np.eye(self.n, dtype=np.uint8)
        for code in _letters_of(word, self.n - 1):
            mat = _burau_right(mat, code, self.p, self.t)
        return mat

    def word_equal(self, w1, w2):
        """True iff w1 and w2 represent the same element."""
        if self.n == 2:
            _letters_of(tuple(w1) + tuple(w2), 1)
            return (sum(w1) - sum(w2)) % self.k == 0
        return bool((self.matrix(w1) == self.matrix(w2)).all())


def certify_braid_quotient(n, k, budget=10**6):
    """B_n/(s_i^k) with its order certified as parabolic_bound = the
    product of Burau orbit sizes.  Raises BudgetExceededError when a
    parabolic index or the bound exceeds `budget` (an infinite quotient
    does), and CrossCheckError when the matrices fail a relator or the
    bounds differ.

    Let G_m be the group generated by the Burau matrices S_1..S_{m-1},
    acting on row vectors.  S_i rewrites only coordinates i and i+1, so
    G_{m-1} fixes e_m, and by orbit-stabilizer |G_m| >= |e_m G_m| |G_{m-1}|
    (Sims, *Computation with Finitely Presented Groups*); hence |G_n| >=
    the product of |e_m G_m| over m = 2..n.  The relator
    check makes G_n a quotient of B_n/(s_i^k), so |G_n| <= parabolic_bound,
    and product = bound certifies the order and that the Burau map is
    faithful.  Each orbit is at most [G_m : G_{m-1}], itself at most the
    Todd-Coxeter index, so the bounds agree exactly when every level does.
    """
    pres = braid_presentation(n, k)
    upper = parabolic_bound(n, k, budget)
    if upper > budget:
        raise BudgetExceededError(
            f"braid quotient order {upper} exceeds the budget of {budget}"
        )
    if n == 2:
        return BraidQuotient(n, k, upper)
    p, t = _BURAU_FIELDS[k]  # the bound is finite, so k <= 5 (Coxeter)
    quotient = BraidQuotient(n, k, upper, p, t)
    for rel in pres.relators:
        if not quotient.word_equal(rel, ()):
            raise CrossCheckError(
                f"Burau matrices over F_{p} at t = {t} fail the relator {rel}"
            )
    image = math.prod(_burau_orbit(m, n, p, t) for m in range(2, n + 1))
    if image != upper:
        raise CrossCheckError(
            f"parabolic coset bound {upper} differs from the Burau image "
            f"order{' above' if image > upper else ''} {image}"
        )
    return quotient


def conjugacy_classes(quotient, budget=10**6):
    """Conjugacy classes of a certified `BraidQuotient`: (count, sizes,
    representatives), each representative the shortlex-least word of its
    class (letters g1 < g1^-1 < g2 < ...), in increasing order.

    A breadth-first search from the identity multiplies every element on
    the right by all 2(n-1) letters, candidates laid out parent by parent
    and then letter by letter, so the Burau matrices are numbered in the
    shortlex order of their least words.  Conjugation by s_i permutes
    them (looked up by the keys of S_i^-1 M S_i); a class is an orbit,
    represented by its least element.  A count other than the certified
    order is a CrossCheckError.  B_2/(s^k) is Z_k, one class per element:
    e, 1, -1, 1 1, -1 -1, ... with floor(k^2/4) letters in all, more than
    `budget` of them a BudgetExceededError.
    """
    import numpy as np
    n, k, p, t = quotient.n, quotient.k, quotient.p, quotient.t
    if n == 2:
        letters = (k // 2) * ((k + 1) // 2)
        if letters > budget:
            raise BudgetExceededError(
                f"the {k} class representatives have {letters} letters, "
                f"more than the budget of {budget}"
            )
        words = [(), *((s,) * j for j in range(1, k // 2 + 1) for s in (1, -1))]
        return k, [1] * k, words[:k]
    keys = _burau_keys(n, p)
    width = 2 * (n - 1)
    levels = [np.eye(n, dtype=np.uint8)[None]]
    parent, letter = [np.array([-1])], [np.array([-1])]
    visited = keys(levels[0])
    while len(levels[-1]) and len(visited) <= quotient.order:
        frontier = levels[-1]
        cands = np.stack(
            [_burau_right(frontier, x, p, t) for x in range(width)], axis=1
        ).reshape(-1, n, n)
        fresh, first = np.unique(keys(cands), return_index=True)
        pos = np.minimum(np.searchsorted(visited, fresh), len(visited) - 1)
        new = visited[pos] != fresh
        first = np.sort(first[new])  # first occurrences, in shortlex order
        levels.append(cands[first])
        parent.append(len(visited) - len(frontier) + first // width)
        letter.append((first % width // 2 + 1) * (1 - 2 * (first & 1)))
        visited = np.sort(np.concatenate([visited, fresh[new]]), kind="stable")
    if len(visited) != quotient.order:
        raise CrossCheckError(
            f"the Burau search reached {len(visited)} elements, "
            f"certified order is {quotient.order}"
        )
    mats = np.concatenate(levels)
    number = np.argsort(keys(mats))  # element numbers in key order
    conjugations = []
    for i in range(1, n):
        conj = quotient.matrix((-i,)).astype(np.int16) @ mats.astype(np.int16) % p
        conj = (conj @ quotient.matrix((i,)).astype(np.int16) % p).astype(np.uint8)
        conjugations.append(number[np.searchsorted(visited, keys(conj))])
    # each label falls to the least element of its orbit: labels only
    # decrease within the orbit, and a fixed point is constant along every
    # cycle of every conjugation, hence on the orbit
    label = np.arange(len(mats))
    while True:
        low = label[label]
        for perm in conjugations:
            np.minimum(low, label[perm], out=low)
        if np.array_equal(low, label):
            break
        label = low
    least, sizes = np.unique(label, return_counts=True)
    parent, letter = np.concatenate(parent).tolist(), np.concatenate(letter).tolist()
    reps = []
    for e in least.tolist():
        word = ()
        while e:
            word, e = (letter[e], *word), parent[e]
        reps.append(word)
    return len(reps), sizes.tolist(), reps
