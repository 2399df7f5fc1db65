"""The full-key breadth-first closure of B(r,3), kept as a test oracle.

Elements are radix-3 keys of their whole digit vectors a|b|c (int32,
since 3^14 < 2^31).  Each level decodes the frontier keys into int8
digit columns, runs every generator's step on them with `_collect`,
re-keys only the digits the step writes, marks the resulting keys in a
bool bitmap of size 3^dim and keeps the keys not visited before as the
next frontier.  It walks every element of the group, so it is run only
up to r = 3 by the tests.
"""

import numpy as np

from tanglelab import burnside3 as bg


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
