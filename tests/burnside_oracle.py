"""Test oracles for B(r,3): the full-key breadth-first closure, the
element-at-a-time consistency check, and the normal closure by
breadth-first search over its elements.

In the closure, elements are radix-3 keys of their whole digit vectors
a|b|c (int32, since 3^14 < 2^31).  Each level decodes the frontier keys
into int8 digit columns, runs every generator's step on them with
`_collect`, re-keys only the digits the step writes, marks the resulting
keys in a bool bitmap of size 3^dim and keeps the keys not visited
before as the next frontier.  It walks every element of the group, so
it is run only up to r = 3 by the tests.

The consistency check multiplies one `BurnsideElement` at a time with
`multiply`, `inverse` and `commutator`, and counts its checks exactly as
`burnside3.consistency_check` does on digit columns.

The normal closure conjugates the non-identity images by the generators
until no new element appears, then lists every element of the subgroup
they generate.  It walks all of N, at most 3^7 elements at r = 3, the
largest rank at which the tests run it against the polycyclic sift of
`burnside3.quotient_order`.
"""

import random
from itertools import product
from math import comb

import numpy as np

from tanglelab import burnside3 as bg
from tanglelab.errors import CrossCheckError


def closure_count(r, steps=None):
    """The number of elements reached from the identity by right
    multiplication with the steps (default: those of `_tables(r)`)."""
    dim = bg._dim(r)
    if steps is None:
        _, steps = bg._tables(r)
    size = 3**dim
    visited = np.zeros(size, dtype=bool)
    visited[0] = True
    frontier = np.zeros(1, dtype=np.int32)
    total = 1
    while frontier.size:
        digits = bg._digits(frontier, dim)
        level = np.zeros(size, dtype=bool)
        for step in steps:
            v = list(digits)
            bg._collect(v, step)
            keys = frontier.copy()
            for d in {target for target, _, _ in step}:
                keys += (v[d] - digits[d]) * np.int32(3**d)
            level[keys] = True
        level &= ~visited
        visited |= level
        frontier = np.flatnonzero(level).astype(np.int32)
        total += frontier.size
    return total


def consistency_check(r, seed=0, triples=None, exhaustive=None):
    """Associativity on random (or all, for r = 2) triples, exponent 3,
    the 2-Engel law and inverses on random elements, the generator-pair
    overlaps and centrality of the weight-3 digits, one element at a
    time.  Raises CrossCheckError on any failure; returns the number of
    checks performed."""
    rng = random.Random(seed)
    if exhaustive is None:
        exhaustive = r == 2
    checks = 0

    def rand():
        return bg._element(r, [rng.randrange(3) for _ in range(bg._dim(r))])

    gens = [bg.generator(r, i + 1) for i in range(r)]
    one = bg.identity(r)
    # generator-pair overlaps: (x_i x_j) x_k == x_i (x_j x_k)
    for gi in gens + [bg.inverse(g) for g in gens]:
        for gj in gens:
            for gk in gens:
                lhs = bg.multiply(bg.multiply(gi, gj), gk)
                rhs = bg.multiply(gi, bg.multiply(gj, gk))
                if lhs != rhs:
                    raise CrossCheckError("generator overlap failed")
                checks += 1
    if exhaustive:
        space = [bg._element(r, v) for v in product(range(3), repeat=bg._dim(r))]
        for g in space:
            for h in space:
                gh = bg.multiply(g, h)
                for k in space:
                    if bg.multiply(gh, k) != bg.multiply(g, bg.multiply(h, k)):
                        raise CrossCheckError("associativity failed")
                    checks += 1
    else:
        n = triples if triples is not None else 2000
        for _ in range(n):
            g, h, k = rand(), rand(), rand()
            if bg.multiply(bg.multiply(g, h), k) != bg.multiply(g, bg.multiply(h, k)):
                raise CrossCheckError("associativity failed")
            checks += 1
    n = triples if triples is not None else 2000
    for _ in range(n):
        g, h = rand(), rand()
        if bg.multiply(bg.multiply(g, g), g) != one:
            raise CrossCheckError("exponent 3 failed")
        if not bg.commutator(bg.commutator(g, h), h).is_identity():
            raise CrossCheckError("2-Engel failed")
        if bg.multiply(g, bg.inverse(g)) != one:
            raise CrossCheckError("inverse failed")
        checks += 3
    # weight-3 part is central
    for d in range(r + comb(r, 2), bg._dim(r)):
        z = bg._element(r, [int(e == d) for e in range(bg._dim(r))])
        for g in gens:
            if bg.multiply(z, g) != bg.multiply(g, z):
                raise CrossCheckError("weight-3 generator is not central")
            checks += 1
    return checks


def quotient_order_elements(images, r):
    order = bg.group_order(r)
    gens = [bg.generator(r, i + 1) for i in range(r)]
    seeds = [e for e in images if not e.is_identity()]
    if not seeds:
        return order
    # close the seed set under conjugation by the generators
    conj = set()
    frontier = list(seeds)
    while frontier:
        g = frontier.pop()
        if g in conj:
            continue
        conj.add(g)
        for x in gens:
            frontier.append(bg.conjugate(g, x))
    # subgroup generated by the conjugates
    elems = {bg.identity(r)}
    frontier = [bg.identity(r)]
    while frontier:
        g = frontier.pop()
        for h in conj:
            gh = bg.multiply(g, h)
            if gh not in elems:
                elems.add(gh)
                frontier.append(gh)
    size = len(elems)
    if order % size:
        raise CrossCheckError("normal closure size does not divide the group order")
    return order // size
