"""The transform-building Smith normal form, kept as a test oracle.

Smallest-pivot Euclid steps on rows and columns build unimodular U and V
with U A V = diag(factors), and the product is checked.  The transforms
(and on wide inputs the matrix itself) grow without bound, so this runs
only on the small dense test corpus.
"""


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(A, B):
    m = len(B[0]) if B else 0
    return [[sum(a * B[t][j] for t, a in enumerate(row) if a) for j in range(m)] for row in A]


def _snf_inplace(A, m):
    """Smith normal form of A (n x m, rewritten in place); returns
    (factors, U, V).  Pivot: smallest absolute value in the remaining
    block, rows scanned before columns, first occurrence wins."""
    n = len(A)
    U, V = _identity(n), _identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for row in A + V:
            row[dst] += q * row[src]

    t, limit = 0, min(n, m)
    while t < limit:
        block = [(abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, m) if A[i][j]]
        if not block:
            break
        _, bi, bj = min(block)
        swap_rows(t, bi)
        swap_cols(t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    addmul_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, m):
                if A[t][j]:
                    addmul_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # the pivot must divide the rest of the block
        bad = next((i for i in range(t + 1, n) if any(A[i][j] % A[t][t] for j in range(t + 1, m))), None)
        if bad is not None:
            addmul_row(t, bad, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return [A[i][i] for i in range(limit)], U, V


def snf(A, m):
    """(factors, V): the invariant factors of A and a unimodular V with
    U A V diagonal, the product checked."""
    orig = [[int(x) for x in row] for row in A]
    factors, U, V = _snf_inplace([row[:] for row in orig], m)
    want = [[factors[i] if i == j and i < len(factors) else 0 for j in range(m)] for i in range(len(orig))]
    assert _matmul(_matmul(U, orig), V) == want
    return tuple(factors), V


def int_kernel(A, m):
    """Basis (rows) of the saturated kernel: the columns of V past the rank."""
    factors, V = snf(A, m)
    rank = sum(1 for d in factors if d)
    return [[row[j] for row in V] for j in range(rank, m)]


def same_lattice(K1, K2, m):
    """Whether the rows of K1 and of K2 span one lattice: L1 is inside
    L1 + L2 with index prod(factors of L1) / prod(factors of L1 + L2)
    when the ranks agree, and likewise L2."""

    def rank_and_index(K):
        factors = [d for d in snf(K, m)[0] if d] if K else []
        index = 1
        for d in factors:
            index *= d
        return len(factors), index

    both = rank_and_index(K1 + K2)
    return rank_and_index(K1) == both == rank_and_index(K2)
