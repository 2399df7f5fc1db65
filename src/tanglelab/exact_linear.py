"""Exact linear algebra: echelon forms over prime fields, Smith normal
form and saturated kernels over the integers, canonical subspace
representations, and sparse unit-pivot elimination.

Everything here is exact and runs on Python ints, so nothing overflows
for any prime or integer entry: prime-field work keeps every row as a
list of residues mod p.  The index of a lattice in its saturation needs
no routine of its own: it is the product of the nonzero invariant
factors of any matrix whose rows generate the lattice.

Sparse relation systems (a few nonzero entries per row, such as the
crossing relations of a diagram) first go through `eliminate_units`,
which takes unit pivots that cause no fill (a row with one unknown
column left, or a column that one row alone still uses) and leaves only
a small residual matrix over the columns that stayed free for the dense
eliminators.  Unit pivots are unimodular row and column operations, so
the residual has the same kernel up to the `expand` map and, over the
integers, the same nonunit invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import CrossCheckError, NotPrimeError, PrimalityBoundError

__all__ = [
    "is_prime",
    "SubspaceModP",
    "kernel_mod_p",
    "eliminate_units",
    "sparse_kernel_mod_p",
    "SNFResult",
    "snf",
    "int_kernel",
]

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin primality test for p below 3.3e24;
    raises PrimalityBoundError for a larger p it cannot rule out."""
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


def _check_prime(p):
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")


def _residues(rows, p, width):
    """The rows as lists of Python-int residues mod p, each of the given
    width."""
    out = [[int(x) % p for x in row] for row in rows]
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


@dataclass(frozen=True)
class SubspaceModP:
    """A subspace of F_p^d in reduced row echelon form.

    The representation is canonical: two subspaces are equal iff their
    (p, ambient, rows) triples are identical.
    """

    p: int
    ambient: int
    rows: tuple
    pivots: tuple

    @classmethod
    def from_vectors(cls, vectors, p, ambient):
        _check_prime(p)
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

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.rows)

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
    _check_prime(p)
    basis = _kernel_basis(_residues(rows, p, ncols), p, ncols)
    return SubspaceModP.from_vectors(basis, p, ncols)


def sparse_kernel_mod_p(rows, ncols, p):
    """A basis (full vectors of length ncols, not canonical) of the
    solutions over F_p of a sparse system given as for
    `eliminate_units`; only its residual is row-reduced."""
    _check_prime(p)
    free, residual, expand = eliminate_units(rows, ncols, p)
    return [expand(v) for v in _kernel_basis(residual, p, len(free))]


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
    unit = bool if p is not None else (lambda a: a == 1 or a == -1)
    sparse = []
    for row in rows:
        r = {}
        for c, a in row:
            r[c] = r.get(c, 0) + a
        if p is not None:
            r = {c: a % p for c, a in r.items()}
        sparse.append({c: a for c, a in r.items() if a})
    rows_of = [[] for _ in range(ncols)]
    for i, r in enumerate(sparse):
        for c in r:
            rows_of[c].append(i)
    uses = [len(ix) for ix in rows_of]  # pending rows per column
    undetermined = [len(r) for r in sparse]  # per row
    known = [False] * ncols  # free or forward-determined
    pivoted = [False] * len(sparse)
    exprs = {}  # forward column -> {free column: coefficient}
    peeled = []  # (column, row), solved in reverse order
    ready = [i for i, n in enumerate(undetermined) if n == 1]
    lonely = [c for c, n in enumerate(uses) if n == 1]

    def inverse(u):
        return u if p is None else pow(u, -1, p)

    def substitute(terms):
        out = {}
        for c, a in terms:
            e = exprs.get(c)
            if e is None:
                out[c] = out.get(c, 0) + a
            else:
                for j, b in e.items():
                    out[j] = out.get(j, 0) + a * b
        if p is not None:
            out = {c: a % p for c, a in out.items()}
        return {c: a for c, a in out.items() if a}

    def retire(i):
        pivoted[i] = True
        for j in sparse[i]:
            uses[j] -= 1
            if uses[j] == 1:
                lonely.append(j)

    def determine(c):
        known[c] = True
        for i in rows_of[c]:
            undetermined[i] -= 1
            if undetermined[i] == 1:
                ready.append(i)

    while True:
        if ready:
            i = ready.pop()
            if pivoted[i] or undetermined[i] != 1:
                continue
            r = sparse[i]
            c = next(j for j in r if not known[j])
            if unit(r[c]):
                scale = -inverse(r[c])
                exprs[c] = substitute((j, a * scale) for j, a in r.items() if j != c)
                retire(i)
                determine(c)
            continue
        if lonely:
            c = lonely.pop()
            if known[c] or uses[c] != 1:
                continue
            i = next(i for i in rows_of[c] if not pivoted[i])
            if unit(sparse[i][c]):
                peeled.append((c, i))
                known[c] = True
                retire(i)
            continue
        pending = [i for i in range(len(sparse)) if not pivoted[i] and undetermined[i]]
        if not pending:
            break
        row = sparse[min(pending, key=undetermined.__getitem__)]
        first, *rest = [j for j in row if not known[j]]
        # keep the preferred pivot (the row's leading column) unknown if possible
        determine(rest[0] if rest and first == next(iter(row)) else first)

    solved = set(exprs).union(c for c, _ in peeled)
    free = tuple(c for c in range(ncols) if c not in solved)
    position = {c: i for i, c in enumerate(free)}
    residual = []
    for i, r in enumerate(sparse):
        if not pivoted[i]:
            dense = [0] * len(free)
            for c, a in substitute(r.items()).items():
                dense[position[c]] = a
            residual.append(dense)

    def expand(v):
        x = [0] * ncols
        for c, a in zip(free, v):
            x[c] = int(a)
        for c, e in exprs.items():
            x[c] = sum(b * x[j] for j, b in e.items())
        for c, i in reversed(peeled):
            r = sparse[i]
            y = -inverse(r[c]) * sum(a * x[j] for j, a in r.items() if j != c)
            # reduce as we go: a chain of peeled columns would otherwise
            # grow its representatives by a factor of up to p per step
            x[c] = y if p is None else y % p
        return x if p is None else [a % p for a in x]

    return free, residual, expand


# ---------------------------------------------------------------------------
# Integer matrices: Smith normal form and saturated kernels.


def _pyint_matrix(A):
    return [[int(x) for x in row] for row in A]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors d1 | d2 | ... and the unimodular column
    transform V of a Smith normal form U @ A @ V == diag(factors)."""

    factors: tuple
    V: tuple


def _snf_inplace(A):
    """Smith normal form of A; returns (factors, U, V).

    Pivot choice: smallest absolute value in the remaining block, rows
    scanned before columns, first occurrence wins.  Deterministic.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    U = _identity(n)
    V = _identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        Ad, As = A[dst], A[src]
        for j in range(m):
            Ad[j] += q * As[j]
        Ud, Us = U[dst], U[src]
        for j in range(n):
            Ud[j] += q * Us[j]

    def addmul_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(n, m)
    while t < limit:
        # locate the pivot: minimal |value| over the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    q = -(A[i][t] // A[t][t])
                    addmul_row(i, t, q)
                    if A[i][t]:
                        # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, m):
                if A[t][j]:
                    q = -(A[t][j] // A[t][t])
                    addmul_col(j, t, q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility: pivot must divide the rest of the block
        fixed = True
        p0 = A[t][t]
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % p0:
                    addmul_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    factors = [A[i][i] for i in range(limit)]
    return factors, U, V


def snf(A):
    """Smith normal form of A, with U @ A @ V = D and the divisibility
    chain of D verified."""
    orig = _pyint_matrix(A)
    work = [row[:] for row in orig]
    factors, U, V = _snf_inplace(work)
    n = len(orig)
    m = len(orig[0]) if n else 0
    check = _matmul(_matmul(U, orig), V) if n and m else []
    for i in range(n):
        for j in range(m):
            want = factors[i] if (i == j and i < len(factors)) else 0
            if check[i][j] != want:
                raise CrossCheckError(f"SNF verification failed at ({i},{j})")
    for i in range(len(factors) - 1):
        if factors[i] and factors[i + 1] % factors[i]:
            raise CrossCheckError("SNF divisibility chain broken")
        if factors[i] == 0 and factors[i + 1] != 0:
            raise CrossCheckError("SNF zero factor precedes nonzero")
    return SNFResult(tuple(factors), tuple(tuple(r) for r in V))


def int_kernel(A, m):
    """Basis (rows) of the saturated integer kernel {x in Z^m : A x = 0};
    all of Z^m when A has no rows."""
    if not len(A):
        return _identity(m)
    res = snf(A)
    rank = sum(1 for d in res.factors if d)
    # the columns of V past the rank span the kernel
    return [[row[j] for row in res.V] for j in range(rank, m)]
