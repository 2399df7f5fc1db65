"""Canonical words and conjugacy classes by tracing words through the
coset table, kept as a test oracle.

Every coset gets its shortlex-least word from a breadth-first search,
and each conjugate a^-1 * elt(c) * a is found by tracing a^-1, the word
of c and a from coset 0: one walk along a word per element and
generator.
"""

from tanglelab.coset_enumeration import trace


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
