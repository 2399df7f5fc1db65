"""Braid quotients B_n/(s_i^k): certified orders, word equality and
conjugacy classes, all read off the Burau representation.

The order of B_n/(s_i^k) is certified by two bounds that must agree.
The upper bound is Coxeter's theorem (*Factor groups of the braid
group*, 1957): the quotient is finite iff 1/n + 1/k > 1/2, and then its
order is (f/2)^(n-1) n! with f = 4k / (4 - (n-2)(k-2)), the number of
faces of the Platonic solid {n, k}.  The lower bound multiplies the
sizes of the orbits of e_m, m = 2..n, under the unreduced Burau matrices
of s_1..s_{m-1} over F_p at a t whose negative is a primitive k-th root
of unity (see `certify_braid_quotient`).  Equal bounds make the Burau
map an isomorphism, so words compare as matrix products and conjugacy
classes are orbits on the Burau matrices.
"""

import math
from collections import namedtuple

from .errors import BudgetExceededError, CrossCheckError
from .value import Value

__all__ = ["BraidQuotient", "certify_braid_quotient", "conjugacy_classes"]


def _letters_of(word, generators):
    """Letter codes of a word of signed generator indices (generator g ->
    2g-2, its inverse -> 2g-1); a letter outside 1 <= |x| <= generators
    is a ValueError."""
    out = []
    for x in word:
        if not 0 < abs(x) <= generators:
            raise ValueError(
                f"letter {x} out of range: need 1 <= |x| <= {generators}"
            )
        out.append(2 * (abs(x) - 1) + (0 if x > 0 else 1))
    return out


def _braid_relators(n, k):
    """Relators of B_n/(s_i^k): braid and commutation relators plus one
    torsion relator s_1^k (all generators are conjugate, so one suffices)."""
    g = n - 1
    for i in range(1, g):
        yield (i, i + 1, i, -(i + 1), -i, -(i + 1))
    for i in range(1, g + 1):
        for j in range(i + 2, g + 1):
            yield (i, j, -i, -j)
    yield (1,) * k


def _coxeter_order(n, k):
    """|B_n/(s_i^k)| by Coxeter's formula (2k/d)^(n-1) n!, d = 4 -
    (n-2)(k-2), or None when d <= 0 (1/n + 1/k <= 1/2: infinite)."""
    d = 4 - (n - 2) * (k - 2)
    if d <= 0:
        return None
    return (2 * k) ** (n - 1) * math.factorial(n) // d ** (n - 1)


# (p, t) with -t a primitive k-th root of unity mod p, so the Burau
# block of every s_i has order k.  Coxeter's finite quotients with n >= 3
# all have k <= 5; B_2/(s^k) is cyclic and needs no field.
_BURAU_FIELDS = {2: (3, 1), 3: (7, 5), 4: (5, 3), 5: (11, 2)}


def _burau_right(mats, code, p, t):
    """mats (a matrix or a batch of them, entries < p < 256 as bytes)
    times the Burau matrix of one letter, given as its code:
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
    """B_n/(s_i^k) with its order certified as Coxeter's order = the
    product of Burau orbit sizes.  Raises ValueError unless n, k >= 2,
    BudgetExceededError when the order exceeds `budget` (an infinite
    quotient does, at once), and CrossCheckError when the matrices fail
    a relator or the bounds differ.

    Let G_m be the group generated by the Burau matrices S_1..S_{m-1},
    acting on row vectors.  S_i rewrites only coordinates i and i+1, so
    G_{m-1} fixes e_m, and by orbit-stabilizer |G_m| >= |e_m G_m| |G_{m-1}|
    (Sims, *Computation with Finitely Presented Groups*); hence |G_n| >=
    the product of |e_m G_m| over m = 2..n.  The relator check makes G_n
    a quotient of B_n/(s_i^k), so |G_n| <= Coxeter's order, and product
    = order certifies the order and that the Burau map is faithful.  The
    upper bound rests on a cited theorem, as the lower bound rests on
    orbit-stabilizer; no presentation of the quotient is enumerated.
    """
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 strands and torsion k >= 2")
    # Coxeter's ratio 2k/d is at least 1 (d <= 4 <= 2k), so a finite order
    # is at least n! and an infinite one passes every budget: a budget
    # below n! is refused before the order is built
    least = 1
    for m in range(2, n + 1):
        least *= m
        if least > budget:
            raise BudgetExceededError(
                f"braid quotient order is at least {m}! = {least}, "
                f"more than the budget of {budget}"
            )
    order = _coxeter_order(n, k)
    if order is None:
        raise BudgetExceededError(
            f"B_{n}/(s_i^{k}) is infinite: 1/{n} + 1/{k} <= 1/2 (Coxeter)"
        )
    if order > budget:
        raise BudgetExceededError(
            f"braid quotient order {order} exceeds the budget of {budget}"
        )
    if n == 2:
        return BraidQuotient(n, k, order)
    p, t = _BURAU_FIELDS[k]  # the order is finite, so k <= 5 (Coxeter)
    quotient = BraidQuotient(n, k, order, p, t)
    for rel in _braid_relators(n, k):
        if not quotient.word_equal(rel, ()):
            raise CrossCheckError(
                f"Burau matrices over F_{p} at t = {t} fail the relator {rel}"
            )
    image = math.prod(_burau_orbit(m, n, p, t) for m in range(2, n + 1))
    if image != order:
        raise CrossCheckError(
            f"Coxeter order {order} differs from the Burau image "
            f"order{' above' if image > order else ''} {image}"
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
