"""Exact linear algebra: echelon forms over prime fields, invariant
factors and saturated kernels over the integers, canonical subspace
representations, and sparse unit-pivot elimination.

Everything here is exact and runs on Python ints; prime-field rows are
lists of residues mod p.  Integer work builds no transform matrix: a
fraction-free elimination gives the rank and a nonzero minor D of rank
size, which the nonzero invariant factors divide, so Hermite forms of
the rows plus D Z^m are taken modulo D and stay below D, and the results
are re-checked against the ranks over every prime below 50.

Sparse relation systems (a few nonzero entries per row, such as the
crossing relations of a diagram) first go through `eliminate_units`,
which takes unit pivots that cause no fill and leaves a small residual
over the columns that stayed free for the dense routines.  Unit pivots
are unimodular, so the residual has the same kernel up to the `expand`
map and, over the integers, the same nonunit invariant factors.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod
from operator import mul

from .errors import CrossCheckError, NotPrimeError, PrimalityBoundError
from .value import Value

__all__ = [
    "is_prime",
    "check_prime",
    "SubspaceModP",
    "kernel_mod_p",
    "eliminate_units",
    "sparse_kernel_mod_p",
    "sparse_nullity_mod_p",
    "snf",
    "int_kernel",
]

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=256)
def is_prime(p):
    """Deterministic Miller-Rabin primality test for p below 3.3e24;
    raises PrimalityBoundError for a larger p it cannot rule out.
    Memoized, so every routine can test its own modulus."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p < _MR_BASES[-1] ** 2:
        return True
    if p >= _MR_BOUND:
        raise PrimalityBoundError(
            f"modulus {p} is beyond the deterministic primality bound {_MR_BOUND}"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """Raise NotPrimeError unless the modulus p is prime."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _residues(rows, p, width):
    """The rows as lists of Python-int residues mod p (Python ints when
    p is None), each of the given width."""
    out = [[int(x) if p is None else int(x) % p for x in row] for row in rows]
    if any(len(row) != width for row in out):
        raise ValueError(f"expected vectors of length {width}")
    return out


def _rref_raw(R, p, ncols):
    """Row-reduce the residue rows R (lists over ncols columns; R is
    reordered and its rows rebound) over F_p; returns (the nonzero
    reduced rows, pivot cols)."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(R):
            break
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], -1, p)
        pivot = R[r] = [x * inv % p for x in R[r]]
        for j, row in enumerate(R):
            f = row[c]
            if f and j != r:
                R[j] = [(x - f * y) % p for x, y in zip(row, pivot)]
        pivots.append(c)
    return R[: len(pivots)], pivots


class SubspaceModP(Value, namedtuple("SubspaceModP", "p ambient rows pivots")):
    """A subspace of F_p^d in reduced row echelon form.

    The representation is canonical: two subspaces are equal iff their
    (p, ambient, rows) triples are identical.
    """

    __slots__ = ()

    @classmethod
    def from_vectors(cls, vectors, p, ambient):
        check_prime(p)
        R, piv = _rref_raw(_residues(vectors, p, ambient), p, ambient)
        return cls(p, ambient, tuple(map(tuple, R)), tuple(piv))

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, vector):
        """Membership test by reduction against the echelon basis."""
        (v,) = _residues([vector], self.p, self.ambient)
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                v = [(x - f * y) % self.p for x, y in zip(v, row)]
        return not any(v)

    def vectors(self):
        """Iterate over all vectors of the subspace (small spaces only)."""
        for coeffs in product(range(self.p), repeat=self.dim):
            v = [0] * self.ambient
            for a, row in zip(coeffs, self.rows):
                v = [(x + a * y) % self.p for x, y in zip(v, row)]
            yield tuple(v)


def _kernel_basis(R, p, ncols):
    """A basis of the right kernel of the residue rows R over F_p."""
    R, piv = _rref_raw(R, p, ncols)
    basis = []
    for f in range(ncols):
        if f not in piv:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(R, piv):
                v[c] = -row[f] % p
            basis.append(v)
    return basis


def kernel_mod_p(rows, ncols, p):
    """Right kernel {x in F_p^ncols : M x = 0} of the matrix M with these
    rows, canonical form; all of F_p^ncols when there are no rows."""
    check_prime(p)
    basis = _kernel_basis(_residues(rows, p, ncols), p, ncols)
    return SubspaceModP.from_vectors(basis, p, ncols)


def sparse_kernel_mod_p(rows, ncols, p):
    """A basis (full vectors of length ncols, not canonical) of the
    solutions over F_p of a sparse system given as for
    `eliminate_units`; only its residual is row-reduced."""
    check_prime(p)
    free, residual, expand = eliminate_units(rows, ncols, p)
    return [expand(v) for v in _kernel_basis(residual, p, len(free))]


def sparse_nullity_mod_p(rows, ncols, p):
    """The dimension over F_p of the solutions of a sparse system given
    as for `eliminate_units`: its free columns less the rank of its
    residual, with no solution vector built."""
    check_prime(p)
    free, residual, _ = eliminate_units(rows, ncols, p)
    return len(free) - len(_rref_raw(residual, p, len(free))[1])


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination.


def eliminate_units(rows, ncols, p=None):
    """Eliminate a sparse linear system by unit pivots.

    `rows` is a sequence of sparse rows over columns 0..ncols-1, each a
    sequence of (column, coefficient) pairs (repeated columns add up)
    whose first pair names the row's preferred pivot column.  Over F_p
    (p prime) every nonzero entry is a unit; over the integers (p None)
    only +1 and -1 are.  Only pivots that cause no fill are taken:

    - forward: a row whose columns are all determined but one, with a
      unit there, determines that column as an expression in the free
      columns;
    - peeling: an undetermined column that only one pending row still
      uses, with a unit there, is solved from that row afterwards.

    When neither applies, a pending row with the fewest undetermined
    columns (the first in the given order on ties) frees one of them,
    another than its preferred column if it can.  A braid closure then
    propagates forward from one seed per strand, in any crossing order,
    and a tangle nested outside in is peeled from its boundary.  Rows
    that found no pivot are left over.

    Returns (free, residual, expand): the free columns in increasing
    order; the left-over rows rewritten over the free columns (zero rows
    kept, so the residual has len(rows) - pivots rows); and a function
    from a vector over the free columns to the full vector.  The
    solutions of the system are the expanded solutions of the residual,
    and over the integers the invariant factors of the system are
    (1,) * pivots followed by those of the residual.
    """
    neg_inv = {1: -1, -1: 1} if p is None else {}  # unit u -> -u^-1 (mod p)

    def unit_scale(u):
        # -u^-1 for a unit u met for the first time, cached; None for a nonunit
        if p is not None:
            neg_inv[u] = -pow(u, -1, p) % p
            return neg_inv[u]

    sparse = []
    for row in rows:
        r = {c: a % p for c, a in row if a % p} if p else {c: a for c, a in row if a}
        if len(r) < len(row):  # a repeated column or a zero: add up, then drop zeros
            r = {}
            for c, a in row:
                r[c] = r.get(c, 0) + a
            r = {c: a % p for c, a in r.items() if a % p} if p else {
                c: a for c, a in r.items() if a}
        sparse.append(r)
    rows_of = [[] for _ in range(ncols)]
    for i, r in enumerate(sparse):
        for c in r:
            rows_of[c].append(i)
    uses = [len(ix) for ix in rows_of]  # pending rows per column
    undetermined = [len(r) for r in sparse]  # per row
    known = [False] * ncols  # free or forward-determined
    pivoted = [False] * len(sparse)
    exprs = {}  # forward column -> {free column: coefficient}
    peeled = []  # (column, row, -unit^-1), solved in reverse order
    ready = [i for i, n in enumerate(undetermined) if n == 1]
    lonely = [c for c, n in enumerate(uses) if n == 1]

    while True:
        if ready:  # forward: row i determines its one undetermined column c
            i = ready.pop()
            if pivoted[i] or undetermined[i] != 1:
                continue
            r = sparse[i]
            for c in r:
                if not known[c]:
                    break
            scale = neg_inv.get(r[c]) or unit_scale(r[c])
            if scale is None:
                continue
            # c = scale * (the rest of row i), each known column substituted
            out = {}
            for j, a in r.items():
                if j != c:
                    a *= scale
                    e = exprs.get(j)
                    if e is None:
                        out[j] = out.get(j, 0) + a
                    else:
                        for k, b in e.items():
                            out[k] = out.get(k, 0) + a * b
            exprs[c] = {j: a % p for j, a in out.items() if a % p} if p else {
                j: a for j, a in out.items() if a}
        elif lonely:  # peeling: row i retires, c is known but determines nothing
            c = lonely.pop()
            if known[c] or uses[c] != 1:
                continue
            for i in rows_of[c]:
                if not pivoted[i]:
                    break
            scale = neg_inv.get(sparse[i][c]) or unit_scale(sparse[i][c])
            if scale is None:
                continue
            peeled.append((c, i, scale))
            known[c], c = True, None
        else:  # free a column of the first pending row with fewest undetermined
            i, fewest = None, ncols + 1
            for k, n in enumerate(undetermined):
                if n and n < fewest and not pivoted[k]:
                    i, fewest = k, n
            if i is None:
                break
            row = sparse[i]
            first, *rest = [j for j in row if not known[j]]
            # keep the preferred pivot (the row's leading column) unknown if possible
            c = rest[0] if rest and first == next(iter(row)) else first
            i = None
        if i is not None:  # retire row i
            pivoted[i] = True
            for j in sparse[i]:
                n = uses[j] - 1
                uses[j] = n
                if n == 1:
                    lonely.append(j)
        if c is not None:  # determine column c
            known[c] = True
            for k in rows_of[c]:
                n = undetermined[k] - 1
                undetermined[k] = n
                if n == 1:
                    ready.append(k)

    solved = set(exprs).union(c for c, _, _ in peeled)
    free = tuple(c for c in range(ncols) if c not in solved)
    position = {c: i for i, c in enumerate(free)}
    residual = []
    for i, r in enumerate(sparse):
        if not pivoted[i]:
            dense = [0] * len(free)
            for j, a in r.items():
                e = exprs.get(j)
                if e is None:
                    dense[position[j]] += a
                else:
                    for k, b in e.items():
                        dense[position[k]] += a * b
            residual.append(dense if p is None else [a % p for a in dense])

    def expand(v):
        x = [0] * ncols
        for c, a in zip(free, v):
            x[c] = int(a)
        for c, e in exprs.items():
            x[c] = sum(b * x[j] for j, b in e.items())
        for c, i, scale in reversed(peeled):
            y = scale * sum(a * x[j] for j, a in sparse[i].items() if j != c)
            # reduce as we go: a chain of peeled columns would otherwise
            # grow its representatives by a factor of up to p per step
            x[c] = y if p is None else y % p
        return x if p is None else [a % p for a in x]

    return free, residual, expand


# ---------------------------------------------------------------------------
# Integer matrices: invariant factors and saturated kernels.

_CHECK_PRIMES = _MR_BASES + (43, 47)


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) for a > 0, b >= 0, and
    (a, 1, 0) whenever a divides b: a pivot row that divides its column
    is then kept as it is, which ends the alternation of `_smith_mod`."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b % a:
        q = b // a
        a, b, s0, s1, t0, t1 = b - q * a, a, s1 - q * s0, s0, t1 - q * t0, t0
    return a, s0, t0


def _bareiss(rows, m):
    """Fraction-free Gauss-Jordan elimination of integer rows of width m.

    Returns (R, pivots, d): d is a nonzero minor of rank size (1 at rank
    0) and R, one row per pivot column, is d times the reduced row
    echelon form.  Every division is exact (Sylvester's identity).
    """
    R = [row[:] for row in rows]
    pivots, d = [], 1
    for c in range(m):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        pivot, a = R[r], R[r][c]
        for j, row in enumerate(R):
            if j != r:
                R[j] = [(a * x - row[c] * y) // d for x, y in zip(row, pivot)]
        pivots.append(c)
        d = a
    return R[: len(pivots)], pivots, d


def _hnf_mod(rows, m, D):
    """Hermite basis of the lattice of the integer rows (width m) plus
    D Z^m: an upper-triangular m x m matrix with positive diagonal, each
    entry above a pivot reduced modulo that pivot.

    All arithmetic is mod D (Domich, Kannan and Trotter 1987).  In each
    column extended gcds fold the rows into the pivot row; folding in
    D e_c leaves D/g times the pivot row, which stays in the work.
    """
    work, H = [[x % D for x in row] for row in rows], []
    for c in range(m):
        h, rest = None, []
        for row in work:
            if not row[c]:
                rest.append(row)
            elif h is None:
                h = row
            else:
                g, s, t = _xgcd(h[c], row[c])
                a, b = h[c] // g, row[c] // g
                rest.append([(a * y - b * x) % D for x, y in zip(h, row)])
                h = [(s * x + t * y) % D for x, y in zip(h, row)]
        if h is None:
            h = [D if j == c else 0 for j in range(m)]
        else:
            g, s, _ = _xgcd(h[c], D)
            rest.append([D // g * x % D for x in h])
            h = [s * x % D for x in h]
        H.append(h)
        work = [row for row in rest if any(row)]
    for c, h in enumerate(H):
        for j in range(c):
            q = H[j][c] // h[c]
            H[j] = [x - q * y for x, y in zip(H[j], h)]
    return H


def _smith_mod(rows, m, D):
    """Smith diagonal, a divisibility chain of m entries, of the rows plus
    D Z^m: row and column Hermite forms alternate until the matrix is
    diagonal (Kannan and Bachem 1979)."""
    H = _hnf_mod(rows, m, D)
    while any(H[i][j] for i in range(m) for j in range(i + 1, m)):
        H = _hnf_mod([list(col) for col in zip(*H)], m, D)
    diag = [H[i][i] for i in range(m)]
    for i, j in combinations(range(m), 2):
        g = gcd(diag[i], diag[j])
        diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _rank_mod(rows, q, m):
    return len(_rref_raw(_residues(rows, q, m), q, m)[1])


def snf(A, m):
    """Invariant factors of the integer matrix A with m columns: min(rows,
    m) of them, a divisibility chain with the zeros last.  The nonzero
    ones divide a minor d of rank size: they lead the Smith diagonal of
    the rows plus |d| Z^m."""
    rows = _residues(A, None, m)
    _, pivots, d = _bareiss(rows, m)
    rank = len(pivots)
    nonzero = tuple(_smith_mod(rows, m, abs(d))[:rank])
    if any(b % a for a, b in zip(nonzero, nonzero[1:])) or d % prod(nonzero):
        raise CrossCheckError("invariant factors are not a chain dividing the minor d")
    for q in _CHECK_PRIMES:
        if sum(a % q == 0 for a in nonzero) != rank - _rank_mod(rows, q, m):
            raise CrossCheckError(f"invariant factors disagree with the rank mod {q}")
    return nonzero + (0,) * (min(len(rows), m) - rank)


def int_kernel(A, m):
    """Basis (rows) of the saturated integer kernel {x in Z^m : A x = 0};
    all of Z^m when A has no rows.

    With R = d RREF(A) and D = |d|, the free coordinates y of the kernel
    vectors form {y : R_free y = 0 mod D} = {y : H y = 0 mod D}, H the
    Hermite basis of the rows of R_free plus D Z^F, and the columns of
    D H^-1 are a basis.  The pivot coordinates are -R_free y / d.
    """
    rows = _residues(A, None, m)
    R, pivots, d = _bareiss(rows, m)
    free = [c for c in range(m) if c not in pivots]
    R_free = [[row[c] for c in free] for row in R]
    H = _hnf_mod(R_free, len(free), abs(d))
    basis = []
    for j in range(len(free)):
        y = [0] * len(free)
        for i in range(j, -1, -1):
            y[i] = ((i == j) * abs(d) - sum(map(mul, H[i][i + 1 :], y[i + 1 :]))) // H[i][i]
        x = dict(zip(free, y))
        x.update((c, -sum(map(mul, row, y)) // d) for row, c in zip(R_free, pivots))
        basis.append([x[c] for c in range(m)])
    if any(sum(map(mul, row, v)) for row in rows for v in basis):
        raise CrossCheckError("kernel basis does not solve the system")
    for q in _CHECK_PRIMES:
        if _rank_mod(basis, q, m) != len(basis):
            raise CrossCheckError(f"kernel basis is not saturated at {q}")
    return basis
