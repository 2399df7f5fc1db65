"""Dense oracles for the coloring data of a diagram.

They build the crossings x arcs relation matrix straight from the
crossings (2 / -1 / -1 for Fox, (1-t) / t / -1 for ABF) and solve it with
the dense `kernel_mod_p`, so they share no code with the sparse route
(`eliminate_units`, `expand`) or with the f-coordinates of
`fox_coloring`.
"""

import numpy as np

from tanglelab import exact_linear as xl


def dense_matrix(d, t=-1, tinv=-1):
    arcs = sorted(d.arcs)
    index = {a: i for i, a in enumerate(arcs)}
    M = np.zeros((len(d.crossings), len(arcs)), dtype=np.int64)
    for r, c in enumerate(d.crossings):
        tt = t if c.sign is None or c.sign > 0 else tinv
        M[r, index[c.over]] += 1 - tt
        M[r, index[c.under_in]] += tt
        M[r, index[c.under_out]] -= 1
    return arcs, M


def dense_count(d, p):
    """The number of Fox p-colorings: p to the kernel dimension plus one
    free color per closed component."""
    arcs, M = dense_matrix(d)
    return p ** (xl.kernel_mod_p(M, len(arcs), p).dim + d.closed_components)


def dense_boundary_image(d, p):
    arcs, M = dense_matrix(d)
    index = {a: i for i, a in enumerate(arcs)}
    B = xl.kernel_mod_p(M, len(arcs), p).rows
    rows = [[v[index[a]] for a in d.boundary] for v in B]
    return xl.SubspaceModP.from_vectors(rows, p, 2 * d.n)


def dense_reduced_image(d, p):
    """The boundary image modulo monochromatic colorings in f-coordinates:
    v = sum c_k f_k (f_k = e_k + e_{k+1}) has c_k the alternating partial
    sum v_k - v_{k-1} + ... +- v_1; adding c_{2n-1} times the
    monochromatic f_1 + f_3 + ... + f_{2n-1} makes the last coordinate
    zero, and it is dropped."""
    n, img = d.n, dense_boundary_image(d, p)
    rows = []
    for v in img.rows:
        c = [sum((-1) ** (k - j) * v[j] for j in range(k + 1)) for k in range(2 * n - 1)]
        assert sum((-1) ** j * x for j, x in enumerate(v)) % p == 0, v
        rows.append([(x - c[-1] * (k % 2 == 0)) % p for k, x in enumerate(c[:-1])])
    return xl.SubspaceModP.from_vectors(rows, p, 2 * n - 2)
