import math
import random
from itertools import product

import numpy as np
import pytest

from tanglelab.errors import NotPrimeError, PrimalityBoundError
from tanglelab.exact_linear import (
    _MR_BOUND,
    SubspaceModP,
    int_kernel,
    is_prime,
    kernel_mod_p,
    snf,
)

import smith_oracle as oracle


def brute_kernel(M, p):
    """All solutions of M x = 0 mod p by enumeration."""
    M = np.asarray(M) % p
    ncols = M.shape[1]
    sols = []
    for x in product(range(p), repeat=ncols):
        if not ((M @ np.array(x)) % p).any():
            sols.append(x)
    return set(sols)


def test_primality():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    with pytest.raises(NotPrimeError):
        SubspaceModP.from_vectors([[1]], 4, 1)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)
    ]


def test_miller_rabin_pseudoprimes_and_bound():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    # smallest strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and
    # 12 prime bases
    strong = (
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
    )
    for n in carmichael + strong:
        assert not is_prime(n), n
    for q in (2**31 - 1, 2**61 - 1, 4294967311, 10**15 + 37, 10**24 + 7):
        assert is_prime(q), q
    # above the bound a small factor still rules a number out
    assert not is_prime(_MR_BOUND + 1)
    assert not is_prime(3 * (2**89 - 1))
    # the bound itself is a strong pseudoprime to all 13 bases
    for n in (_MR_BOUND, 2**89 - 1):
        with pytest.raises(PrimalityBoundError):
            is_prime(n)


def test_kernel_mod_large_prime_is_exact():
    # (p - 1)^2 overflows int64: elimination runs on Python ints
    p = 4294967311
    rng = random.Random(2)
    for _ in range(20):
        M = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        K = kernel_mod_p(M, 6, p)
        assert K.dim == 2
        for v in K.rows:
            for row in M:
                assert sum(a * x for a, x in zip(row, v)) % p == 0
        assert SubspaceModP.from_vectors(M, p, 6).dim == 4
        S = SubspaceModP.from_vectors(K.rows, p, 6)
        assert S == K and S.contains([2 * x for x in K.rows[0]])


def test_kernel_of_x_equals_y():
    # kernel of [1, p-1] mod p is the diagonal x = y
    for p in (3, 5, 7, 13):
        K = kernel_mod_p([[1, p - 1]], 2, p)
        assert K.dim == 1
        assert K.rows == ((1, 1),)


def test_rref_identity():
    S = SubspaceModP.from_vectors(np.eye(4, dtype=int), 5, 4)
    assert S.rows == tuple(tuple(int(x) for x in row) for row in np.eye(4, dtype=int))
    assert S.pivots == (0, 1, 2, 3)


def test_rref_canonical_under_row_ops():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            M = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)])
            S1 = SubspaceModP.from_vectors(M, p, m)
            # random invertible row operations preserve the row space
            N = M.copy()
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    N[i] = (N[i] + rng.randrange(1, p) * N[j]) % p
                else:
                    N[i] = (N[i] * rng.randrange(1, p)) % p if rng.random() < 0.5 else N[i]
            S2 = SubspaceModP.from_vectors(N, p, m)
            assert S1 == S2
            assert SubspaceModP.from_vectors(S1.rows, p, m) == S1


def _span(rows, p, m):
    """Every F_p combination of the rows, by enumeration."""
    span = {(0,) * m}
    for row in rows:
        span = {tuple((x + a * y) % p for x, y in zip(v, row)) for v in span for a in range(p)}
    return span


def _rank_mod_p(rows, p):
    """Rank over F_p by elimination from the last column to the first,
    pivoting on the last row with a nonzero entry and inverting by
    Fermat: none of the choices `_rref_raw` makes."""
    rows, rank = [[int(x) % p for x in row] for row in rows], 0
    for c in reversed(range(len(rows[0]) if rows else 0)):
        live = [i for i in range(len(rows) - rank) if rows[i][c]]
        if not live:
            continue
        last = len(rows) - rank - 1
        rows[live[-1]], rows[last] = rows[last], rows[live[-1]]
        pivot, inv = rows[last], pow(rows[last][c], p - 2, p)
        for j in range(last):
            f = rows[j][c] * inv % p
            rows[j] = [(x - f * y) % p for x, y in zip(rows[j], pivot)]
        rank += 1
    return rank


def _check_rref(S, M, p, m):
    """The echelon rules for S = from_vectors(M, p, m), and its row space
    against M: leading 1s at strictly increasing pivots with zeros above
    and below, every row of M in the span, and equal spans by enumeration
    when p^rows <= 5000 (else equal dimensions: M's rank mod p)."""
    assert (S.p, S.ambient, len(S.pivots)) == (p, m, S.dim)
    assert list(S.pivots) == sorted(set(S.pivots))
    for r, (row, c) in enumerate(zip(S.rows, S.pivots)):
        assert len(row) == m and all(0 <= x < p for x in row)
        assert not any(row[:c]) and row[c] == 1
        assert all(other[c] == 0 for i, other in enumerate(S.rows) if i != r)
    for v in M:
        # the coefficient of each echelon row is v's entry in its pivot column
        w = [int(x) % p for x in v]
        for row, c in zip(S.rows, S.pivots):
            w = [(x - w[c] * y) % p for x, y in zip(w, row)]
        assert not any(w), (v, S)
    if p ** len(M) <= 5000:
        assert _span(S.rows, p, m) == _span([[int(x) for x in v] for v in M], p, m)
    else:
        assert S.dim == _rank_mod_p(M, p)


def test_from_vectors_against_an_independent_echelon_reference():
    rng = random.Random(31)
    checked = 0
    for p in (2, 3, 5, 13, 4294967311):
        span = min(p, 7)
        for rows, m in product(range(7), range(1, 9)):
            M = [[rng.randint(-span, span) for _ in range(m)] for _ in range(rows)]
            if rows >= 2:  # a zero row and a duplicate row
                M[rng.randrange(rows)] = [0] * m
                M[rng.randrange(rows)] = list(M[rng.randrange(rows)])
            for vectors in (M, np.array(M, dtype=np.int64).reshape(rows, m)):
                S = SubspaceModP.from_vectors(vectors, p, m)
                _check_rref(S, M, p, m)
                checked += 1
    assert checked == 2 * 5 * 7 * 8


def test_rank_nullity_and_annihilation():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(50):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            M = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)])
            row = SubspaceModP.from_vectors(M, p, m)
            ker = kernel_mod_p(M, m, p)
            assert row.dim + ker.dim == m
            for v in ker.rows:
                assert not ((M @ np.array(v)) % p).any()


def test_kernel_matches_bruteforce():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(15):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            M = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            K = kernel_mod_p(M, m, p)
            assert set(K.vectors()) == brute_kernel(M, p)


def test_subspace_membership():
    S = SubspaceModP.from_vectors([[1, 1, 0], [0, 0, 1]], 3, 3)
    assert S.contains([2, 2, 1])
    assert not S.contains([1, 0, 0])
    assert all(S.contains(r) for r in SubspaceModP.from_vectors([[1, 1, 2]], 3, 3).rows)


def test_subspace_echelon_structure():
    # pivots strictly increasing, pivot entries 1, pivot columns
    # otherwise zero, no zero rows
    rng = random.Random(77)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        M = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        S = SubspaceModP.from_vectors(M, p, m)
        assert list(S.pivots) == sorted(set(S.pivots))
        for r, c in enumerate(S.pivots):
            assert S.rows[r][c] == 1
            assert all(S.rows[r2][c] == 0 for r2 in range(S.dim) if r2 != r)
            assert all(x == 0 for x in S.rows[r][:c])
        assert all(any(row) for row in S.rows)


def test_snf_basics():
    assert snf([[2, 0], [0, 3]], 2) == (1, 6)
    assert snf([[0, 0], [0, 0]], 2) == (0, 0)
    assert snf([[0, 5], [0, 0]], 2) == (5, 0)
    assert snf([[4, 6, 0]], 3) == (2,)
    assert snf([], 3) == ()


def test_snf_random_properties():
    rng = random.Random(19)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        factors = snf(A, m)  # the F_q rank checks run on every call
        assert factors == oracle.snf(A, m)[0]
        facs = [d for d in factors if d]
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0
        if n == m:
            det = round(np.linalg.det(np.array(A, dtype=float)))
            if det != 0:
                assert math.prod(factors) == abs(det)


def test_factors_and_kernels_match_the_oracle():
    rng = random.Random(20)
    for _ in range(400):
        n, m = rng.randint(0, 7), rng.randint(1, 7)
        bound = rng.choice((1, 2, 6, 1000))
        A = [[rng.randint(-bound, bound) * (rng.random() < 0.7) for _ in range(m)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            A[-1] = [a + 2 * b for a, b in zip(A[0], A[1])]
        assert snf(A, m) == oracle.snf(A, m)[0], A
        assert oracle.same_lattice(int_kernel(A, m), oracle.int_kernel(A, m), m), A


def test_int_kernel():
    A = [[1, -1, 0], [0, 0, 0]]
    K = int_kernel(A, 3)
    assert len(K) == 2
    for v in K:
        assert v[0] == v[1]
    # the kernel of 2y + 2z = 0 is saturated: all its invariant factors are 1
    K = int_kernel([[0, 2, 2]], 3)
    assert len(K) == 2 and all(2 * v[1] + 2 * v[2] == 0 for v in K)
    assert snf(K, 3) == (1, 1)


def test_int_kernel_without_relations_is_everything():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert int_kernel([], 3) == identity
    assert int_kernel([[0, 0, 0]], 3) == identity
    assert int_kernel(np.zeros((0, 2), dtype=int), 2) == [[1, 0], [0, 1]]
