"""Todd-Coxeter coset enumeration for finitely presented groups, with
braid-quotient presentations, word equality, and conjugacy classes.

The enumerator builds the Schreier graph of the trivial subgroup with a
union-find over vertices: every live vertex is scanned against every
relator (defining new vertices as needed) and the endpoint is unified
with the start; missing edges are then filled by definition.  For a
finite quotient this terminates with the regular representation, which
is re-verified before the table is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, CrossCheckError

__all__ = [
    "Presentation",
    "braid_presentation",
    "parse_presentation",
    "CosetTable",
    "enumerate_cosets",
    "trace",
    "word_equal",
    "conjugacy_classes",
    "canonical_words",
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


@dataclass(frozen=True)
class Presentation:
    """Relator words as tuples of nonzero signed generator indices."""

    generators: int
    relators: tuple

    def __post_init__(self):
        rels = []
        for rel in self.relators:
            red = _cyclically_reduce(rel)
            for x in red:
                if x == 0 or abs(x) > self.generators:
                    raise ValueError(f"letter {x} out of range")
            if red:
                rels.append(red)
        object.__setattr__(self, "relators", tuple(rels))


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


def parse_presentation(text):
    """Read 'gens <n>' then one relator per line of signed indices."""
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("gens"):
        raise ValueError("presentation file must start with 'gens <n>'")
    g = int(lines[0].split()[1])
    rels = tuple(tuple(int(x) for x in ln.split()) for ln in lines[1:])
    return Presentation(g, rels)


@dataclass(frozen=True)
class CosetTable:
    """Complete coset table over the trivial subgroup: row per coset,
    column per letter (generator g -> 2g-2, inverse -> 2g-1)."""

    generators: int
    table: tuple

    @property
    def order(self):
        return len(self.table)

    def step(self, coset, letter):
        """letter: signed generator index."""
        col = 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)
        return self.table[coset][col]


def _letters_of(word):
    return [2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in word]


def enumerate_cosets(pres, max_cosets=10**6, strategy=0):
    """Complete the coset table of the trivial subgroup; raises
    BudgetExceededError when more than max_cosets vertices get created
    (the group may be infinite or the budget too small).

    `strategy` rotates the per-vertex relator processing order; the
    resulting group order must not depend on it.
    """
    g = pres.generators
    width = 2 * g
    rel_letters = [_letters_of(r) for r in pres.relators]
    if rel_letters and strategy:
        k = strategy % len(rel_letters)
        rel_letters = rel_letters[k:] + rel_letters[:k]
    labels = [0]
    neighbors = [[UNDEF] * width]
    events = 0  # definitions plus coincidences, for fixpoint detection

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def new_vertex():
        nonlocal events
        if len(labels) >= max_cosets:
            raise BudgetExceededError(
                f"coset enumeration exceeded {max_cosets} vertices"
            )
        events += 1
        v = len(labels)
        labels.append(v)
        neighbors.append([UNDEF] * width)
        return v

    def unify(a, b):
        nonlocal events
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            events += 1
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

    # repeat full passes until a pass makes no definition and finds no
    # coincidence: a collapse can hand an already-processed vertex new
    # edges whose relator cycles still need scanning
    while True:
        before = events
        idx = 0
        while idx < len(labels):
            if labels[idx] == idx:
                for letters in rel_letters:
                    scan_and_fill(find(idx), letters)
                    if labels[idx] != idx:
                        break  # collapsed into an earlier vertex
                else:
                    c = find(idx)
                    for x in range(width):
                        if neighbors[c][x] == UNDEF:
                            d = new_vertex()
                            neighbors[c][x] = d
                            neighbors[d][x ^ 1] = c
            idx += 1
        if events == before:
            break

    live = [i for i in range(len(labels)) if labels[i] == i]
    rank = {v: i for i, v in enumerate(live)}
    table = []
    for v in live:
        row = neighbors[v]
        out = []
        for x in range(width):
            if row[x] == UNDEF:
                raise CrossCheckError("incomplete table after enumeration")
            out.append(rank[find(row[x])])
        table.append(tuple(out))
    result = CosetTable(g, tuple(table))
    _verify(result, pres)
    return result


def _verify(table, pres):
    n = table.order
    width = 2 * pres.generators
    for x in range(width):
        seen = bytearray(n)
        for row in table.table:
            seen[row[x]] = 1
        if not all(seen):
            raise CrossCheckError("a generator column is not a permutation")
    for rel in pres.relators:
        letters = _letters_of(rel)
        for c in range(n):
            d = c
            for x in letters:
                d = table.table[d][x]
            if d != c:
                raise CrossCheckError("a relator does not fix every coset")


def trace(table, word, start=0):
    c = start
    for x in _letters_of(word):
        c = table.table[c][x]
    return c


def word_equal(pres_or_table, w1, w2, max_cosets=10**6):
    """True iff w1 and w2 represent the same element of the quotient."""
    if isinstance(pres_or_table, CosetTable):
        table = pres_or_table
    else:
        table = enumerate_cosets(pres_or_table, max_cosets)
    inv2 = tuple(-x for x in reversed(tuple(w2)))
    return trace(table, tuple(w1) + inv2) == 0


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
    reps = []
    for cls in classes:
        best = min((len(words[c]), words[c]) for c in cls)
        reps.append(best[1])
    return len(classes), classes, reps
