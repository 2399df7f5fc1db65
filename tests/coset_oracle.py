"""Todd-Coxeter coset enumeration, kept as the test oracle for braid
quotients: coset tables give reference orders, word equality and
conjugacy classes, and the order of the Burau image comes from a search
over the whole group.

The enumerator builds the Schreier graph of a subgroup with a union-find
over vertices in one HLT pass: the subgroup generators are scanned at
coset 0, then every live vertex in turn is scanned against every
relator (defining new vertices as needed, the endpoint unified with the
start) and its missing edges are filled by definition.  For a finite
index this terminates with the coset table, which is re-verified before
it is returned.  `parabolic_bound` multiplies the indices of the
parabolic subgroups <s_1..s_{m-2}> in B_m/(s_i^k) for m = 3..n, an upper
bound on |B_n/(s_i^k)| that shares no code with Coxeter's formula.

Every coset gets its shortlex-least word from a breadth-first search,
and each conjugate a^-1 * elt(c) * a is found by tracing a^-1, the word
of c and a from coset 0: one walk along a word per element and
generator.
"""

from collections import namedtuple

import numpy as np

from tanglelab.coset_enumeration import (
    _braid_relators,
    _burau_keys,
    _burau_right,
    _letters_of,
)
from tanglelab.errors import BudgetExceededError, CrossCheckError
from tanglelab.value import Value

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
    """B_n/(sigma_i^k) on the relators that `certify_braid_quotient`
    checks against the Burau matrices."""
    return Presentation(n - 1, tuple(_braid_relators(n, k)))


class CosetTable(Value, namedtuple("CosetTable", "generators table")):
    """Complete coset table: row per coset (row 0 is the subgroup),
    column per letter (generator g -> 2g-2, inverse -> 2g-1)."""

    __slots__ = ()

    @property
    def order(self):
        """Number of cosets: the group order over the trivial subgroup."""
        return len(self.table)


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


def canonical_words(table):
    """Shortlex-least word reaching each coset from the identity; the
    letter order is g1 < g1^-1 < g2 < ..."""
    n = table.order
    width = 2 * table.generators
    words = [None] * n
    words[0] = ()
    queue = [0]
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for x in range(width):
            d = table.table[c][x]
            if words[d] is None:
                letter = (x // 2 + 1) * (1 if x % 2 == 0 else -1)
                words[d] = words[c] + (letter,)
                queue.append(d)
    return words


def conjugacy_classes(table):
    """Partition of the group elements (cosets of the regular action)
    into conjugacy classes; returns (count, classes, representatives)
    with one shortlex-least representative word per class."""
    n = table.order
    words = canonical_words(table)
    gens = list(range(1, table.generators + 1))
    seen = [False] * n
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = {i}
        queue = [i]
        while queue:
            c = queue.pop()
            for a in gens:
                # index of a^-1 * elt(c) * a
                start = trace(table, (-a,))
                mid = trace(table, words[c], start)
                d = trace(table, (a,), mid)
                if d not in orbit:
                    orbit.add(d)
                    queue.append(d)
        for c in orbit:
            seen[c] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cls: cls[0])
    reps = [min((words[c] for c in cls), key=shortlex) for cls in classes]
    return len(classes), classes, reps


def shortlex(word):
    """Sort key of a word: length first, then letters in the order
    g1 < g1^-1 < g2 < g2^-1 < ..."""
    return len(word), [2 * abs(x) - (x > 0) for x in word]


def burau_image_order(n, p, t, limit):
    """Order of the group generated by the Burau matrices of s_1..s_{n-1}
    over F_p (p < 256), by breadth-first search over right
    multiplications; once it passes `limit` the search stops and returns
    the count so far.

    Matrices are compared by `_burau_keys`.  Each level is deduplicated
    with np.unique and searched against the sorted keys already visited.
    """
    if not 1 < p < 256:
        raise ValueError(f"Burau entries are bytes: need 1 < p < 256, got {p}")
    keys = _burau_keys(n, p)
    frontier = np.eye(n, dtype=np.uint8)[None]
    visited = keys(frontier)
    while len(frontier) and len(visited) <= limit:
        cands = np.concatenate(
            [_burau_right(frontier, 2 * i, p, t) for i in range(n - 1)]
        )
        fresh, first = np.unique(keys(cands), return_index=True)
        pos = np.minimum(np.searchsorted(visited, fresh), len(visited) - 1)
        new = visited[pos] != fresh
        frontier = cands[first[new]]
        visited = np.sort(np.concatenate([visited, fresh[new]]), kind="stable")
    return len(visited)
