"""Independent answers for the benchmark's queries.

Nothing here imports tanglelab: every expected value is derived from the
query's own parameters with numpy, Python ints and fractions.Fraction.

`verify(query, code, text)` returns None when the answer is accepted and
a one-line reason when the oracle rejects it.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

# Largest number of strand-color tuples counted by enumeration; above it
# the modulus must be prime and the count comes from a rank over F_p.
ENUM_LIMIT = 10**6


# ---------------------------------------------------------------------------
# Braid closures: colorings are the fixed points of the braid's action on
# the colors of its strands.  At a positive letter sigma_i the strand at
# position i passes over position i+1; the under strand leaves with color
# (1 - t) over + t under_in (t^-1 at negative letters).  Fox colorings are
# the case t = -1.


def braid_action(strands, letters, k, t=-1):
    """Matrix M over Z_k (lists of Python ints) with bottom colors M x for
    top colors x."""
    t %= k
    tinv = pow(t, -1, k)
    rows = [[int(i == j) for j in range(strands)] for i in range(strands)]
    for x in letters:
        i = abs(x) - 1
        a, b = rows[i], rows[i + 1]
        if x > 0:
            out = [((1 - t) * u + t * v) % k for u, v in zip(a, b)]
            rows[i], rows[i + 1] = out, a
        else:
            out = [((1 - tinv) * v + tinv * u) % k for u, v in zip(a, b)]
            rows[i], rows[i + 1] = b, out
    return rows


def fixed_point_count(M, k):
    """Number of x in Z_k^n with M x = x, by enumerating all k^n tuples."""
    n = len(M)
    X = np.indices((k,) * n).reshape(n, -1).T
    Y = X @ np.array(M, dtype=np.int64).T % k
    return int(np.all(Y == X, axis=1).sum())


@lru_cache(maxsize=None)
def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def rref(rows, p):
    """Reduced row echelon form over F_p with Python ints: (rows, pivots)."""
    R = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(R[0]) if R else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(R)) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R[:r], pivots


def fixed_point_count_prime(M, p):
    """Number of fixed points of M over F_p: p^(n - rank(M - I))."""
    n = len(M)
    A = [[M[i][j] - (i == j) for j in range(n)] for i in range(n)]
    return p ** (n - len(rref(A, p)[0]))


def closure_coloring_count(strands, letters, k, t=-1):
    """Colorings of the braid closure with values in Z_k."""
    M = braid_action(strands, letters, k, t)
    if k**strands <= ENUM_LIMIT:
        return fixed_point_count(M, k)
    if not is_prime(k):
        raise ValueError(f"modulus {k} is too large to enumerate and not prime")
    return fixed_point_count_prime(M, k)


# ---------------------------------------------------------------------------
# Rational 2-tangles in Conway notation.  Slopes are Fractions, with None
# standing for 1/0; Rot sends s to -1/s and Compose adds slopes.

_TOKEN = re.compile(r"\s*(-?\d+|inf|[rT()*,])")


def _tokens(text):
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad Conway text at {pos}: {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _recip(s):
    if s is None:
        return Fraction(0)
    return None if s == 0 else 1 / s


def _add(a, b):
    return None if a is None or b is None else a + b


def twist_vector_slope(entries):
    """Fold g -> a + 1/g from the innermost entry outwards."""
    g = Fraction(entries[0])
    for a in entries[1:]:
        g = _add(_recip(g), Fraction(a))
    return g


def conway_slope(text):
    """Slope and crossing count of a rational Conway expression."""
    toks = _tokens(text)
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        tok = take()
        if tok == "inf":
            return None, 0
        if tok == "r":
            take()
            s, c = expr()
            take()
            r = _recip(s)
            return (None if r is None else -r), c
        if tok == "(":
            a, ca = expr()
            take()
            b, cb = expr()
            take()
            return _add(a, b), ca + cb
        if tok == "T":
            take()
            entries = [int(take())]
            while take() == ",":
                entries.append(int(take()))
            return twist_vector_slope(entries), sum(abs(e) for e in entries)
        return Fraction(int(tok)), abs(int(tok))

    s, crossings = expr()
    if pos != len(toks):
        raise ValueError(f"trailing Conway input in {text!r}")
    return s, crossings


def slope_pair(s):
    """(num, den) with den >= 0 and (1, 0) for infinity."""
    return (1, 0) if s is None else (s.numerator, s.denominator)


def rational_boundary_lines(s, p):
    """Exact `boundary --p` output of a rational tangle of slope s.

    The twist tangle T(k) colors its corners (x1, x2, x3, x4) by
    x4 - x1 = k (x2 - x1), x3 = x2 + x4 - x1; in the f-basis with the last
    coordinate normalized away its reduced image is the line through
    (-k, 1), and in general through (-num, den).
    """
    num, den = slope_pair(s)
    c0, c1 = -num % p, den % p
    psi, _ = rref([[1, 1, 1, 1], [c0, (c0 + c1) % p, c1, 0]], p)
    psihat, _ = rref([[c0, c1]], p)
    lines = [f"psi_dim = {len(psi)}"]
    lines += [f"psi[{i}] = " + " ".join(map(str, r)) for i, r in enumerate(psi)]
    lines.append(f"psihat_dim = {len(psihat)}")
    lines += [f"psihat[{i}] = " + " ".join(map(str, r)) for i, r in enumerate(psihat)]
    return lines


def numerator_closure_count(s, k):
    """Fox k-colorings of N(num/den): the two-bridge link of determinant
    |num| has k * gcd(k, num) of them."""
    return k * math.gcd(k, slope_pair(s)[0])


def horizontal_target(s, p):
    """The representative of s mod p among (1-p)/2 .. (p-1)/2 and inf."""
    num, den = slope_pair(s)
    if den % p == 0:
        return "inf"
    v = num * pow(den, -1, p) % p
    return str(v - p if v > p // 2 else v)


# ---------------------------------------------------------------------------
# Boundary subspaces and the symplectic form on F_p^(2n-2) in the f-basis:
# omega(f_i, f_(i+1)) = 1 = -omega(f_(i+1), f_i), all other pairs 0.


def omega(u, v, p):
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(len(u) - 1)) % p


def is_lagrangian(rows, p, n):
    if len(rows) != n - 1 or any(len(r) != 2 * n - 2 for r in rows):
        return False
    if len(rref(rows, p)[0]) != n - 1:
        return False
    return all(omega(u, v, p) == 0 for u, v in combinations(rows, 2))


def lagrangian_count(p, n):
    return math.prod(p**i + 1 for i in range(1, n))


def _subspace_block(lines, name, ambient):
    """Parse `name_dim = d` and d rows `name[i] = ...` from the front."""
    m = re.fullmatch(rf"{name}_dim = (\d+)", lines[0]) if lines else None
    if not m:
        raise ValueError(f"missing {name}_dim")
    d = int(m.group(1))
    rows = []
    for i in range(d):
        head = f"{name}[{i}] = "
        if i + 1 >= len(lines) or not lines[i + 1].startswith(head):
            raise ValueError(f"missing {head.strip()}")
        row = [int(x) for x in lines[i + 1][len(head):].split()]
        if len(row) != ambient:
            raise ValueError(f"{name}[{i}] has length {len(row)}")
        rows.append(row)
    return rows, lines[d + 1:]


def check_boundary(lines, p, n):
    psi, rest = _subspace_block(lines, "psi", 2 * n)
    psihat, rest = _subspace_block(rest, "psihat", 2 * n - 2)
    if rest:
        return "unexpected trailing lines"
    if len(psi) != n or len(rref(psi, p)[0]) != n:
        return f"psi has dimension {len(psi)}, expected {n}"
    for row in psi:
        if sum((-1) ** i * x for i, x in enumerate(row)) % p:
            return "psi row violates the alternating condition"
    if len(rref(psi + [[1] * (2 * n)], p)[0]) != n:
        return "monochromatic coloring outside psi"
    if not is_lagrangian(psihat, p, n):
        return "psihat is not a Lagrangian of the benchmark's form"
    return None


# ---------------------------------------------------------------------------
# Exponent-3 Burnside words.


def word_inverse(w):
    return [-x for x in reversed(w)]


def commutator(u, v):
    return word_inverse(u) + word_inverse(v) + u + v


def burnside_order(r):
    return 3 ** (r + math.comb(r, 2) + math.comb(r, 3))


def exponent_sums(word, r):
    a = [0] * r
    for x in word:
        a[abs(x) - 1] += 1 if x > 0 else -1
    return [v % 3 for v in a]


# ---------------------------------------------------------------------------
# Dispatch on the query kind.


def _expect(lines, want):
    if lines != want:
        return f"expected {want[:3]}, got {lines[:3]}"
    return None


def _kv(lines, key):
    prefix = f"{key} = "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def verify(query, code, text):
    if code != 0:
        return f"exit code {code}: {text.strip()[:120]}"
    try:
        return _CHECKS[query["kind"]](query["spec"], text.splitlines())
    except (ValueError, IndexError) as exc:
        return f"unparseable output ({exc}): {text.strip()[:120]}"


def _check_closure(spec, lines):
    count = closure_coloring_count(spec["strands"], spec["letters"], spec["k"], spec["t"])
    return _expect(lines, [f"{spec['key']} = {count}"])


def _check_rational_tri(spec, lines):
    s, _ = conway_slope(spec["conway"])
    count = numerator_closure_count(s, 3) if spec["closure"] else 9
    return _expect(lines, [f"tri = {count}"])


def _check_rational_boundary(spec, lines):
    s, _ = conway_slope(spec["conway"])
    return _expect(lines, rational_boundary_lines(s, spec["p"]))


def _check_virtual_index(spec, lines):
    # a rational tangle's reduced integer image is the primitive line
    # through (-num, den), hence saturated
    return _expect(lines, ["virtual_index = 1"])


def _check_tangle_boundary(spec, lines):
    return check_boundary(lines, spec["p"], spec["n"])


def _check_reduce(spec, lines):
    s, _ = conway_slope(spec["conway"])
    p = spec["p"]
    head = [f"target = {horizontal_target(s, p)}", "circles = 0"]
    if lines[:2] != head:
        return f"expected {head}, got {lines[:2]}"
    for line in lines[2:]:
        m = re.fullmatch(r"MOVE (-?\d+)/(\d+) AT [0-9.]*", line)
        if not m or int(m.group(1)) % p:
            return f"bad certificate line {line!r}"
    return None


def _check_move_check(spec, lines):
    if len(lines) != 3 or lines[0] != f"move = {spec['p']}" or lines[2] != "violations = 0":
        return f"unexpected move-check output {lines}"
    checked = int(_kv(lines, "checked") or -1)
    if not 1 <= checked <= spec["trials"]:
        return f"checked = {checked} outside 1..{spec['trials']}"
    return None


def _parse_rows(text):
    return [[int(x) for x in r.split()] for r in text.split(";")]


def _check_lagrangians(spec, lines):
    p, n = spec["p"], spec["n"]
    want = lagrangian_count(p, n)
    if not lines or lines[0] != f"count = {want}" or len(lines) != want + 1:
        return f"expected count = {want} and {want} rows"
    seen = set(lines[1:])
    if len(seen) != want:
        return "repeated Lagrangian"
    for line in lines[1:]:
        if not is_lagrangian(_parse_rows(line), p, n):
            return f"not a Lagrangian: {line}"
    return None


def _check_realize(spec, lines):
    p, n = spec["p"], spec["n"]
    total = lagrangian_count(p, n)
    realized = _kv(lines, "realized")
    unrealized = _kv(lines, "unrealized")
    if lines[:1] != [f"lagrangians = {total}"] or realized is None or unrealized is None:
        return "missing realize header"
    realized, unrealized = int(realized), int(unrealized)
    witnesses = [ln for ln in lines[3:] if ln.startswith("witness ")]
    if realized + unrealized != total or len(witnesses) != realized or len(lines) != 3 + realized:
        return f"realized {realized} + unrealized {unrealized} != {total}"
    rows = [ln[len("witness "):].split(" = ")[0] for ln in witnesses]
    if len(set(rows)) != len(rows):
        return "repeated witness"
    for r in rows:
        if not is_lagrangian(_parse_rows(r), p, n):
            return f"witness is not a Lagrangian: {r}"
    return None


def _check_census(spec, lines):
    n = spec["n"]
    odd = math.prod(range(1, 2 * n, 2))
    pow2 = lagrangian_count(2, n)
    return _expect(lines, [
        f"census = {odd}",
        f"product_odd_reading = {odd}",
        f"lagrangian_count = {pow2}",
        "matches_odd_reading = True",
        f"all_lagrangians_realized = {odd == pow2}",
    ])


def _check_burnside_eval(spec, lines):
    r, word = spec["r"], spec["word"]
    if len(lines) != 4 or not lines[1].startswith("a = "):
        return f"unexpected eval output {lines}"
    if spec["trivial"]:
        return _expect(lines, [
            "TRIVIAL",
            "a = " + " ".join(["0"] * r),
            "b = " + " ".join(["0"] * math.comb(r, 2)),
            "c = " + " ".join(["0"] * math.comb(r, 3)),
        ])
    if lines[1] != "a = " + " ".join(map(str, exponent_sums(word, r))):
        return "abelianization differs from the exponent sums mod 3"
    zero = all(set(ln.split(" = ")[1].split()) <= {"0"} for ln in lines[1:])
    if lines[0] != ("TRIVIAL" if zero else "NONTRIVIAL"):
        return "TRIVIAL flag disagrees with the normal form"
    return None


def _check_enumerate(spec, lines):
    return _expect(lines, [f"enumerated = {burnside_order(spec['r'])}"])


def _check_consistency(spec, lines):
    if len(lines) != 2 or lines[1] != "consistent = True" or int(_kv(lines, "checks") or 0) < 1:
        return f"unexpected check output {lines}"
    return None


def _check_obstruct(spec, lines):
    n, letters = spec["strands"], spec["letters"]
    kills = [_kv(lines, f"kill_{j}") for j in range(1, n + 1)]
    if any(v not in ("OBSTRUCTED", "INCONCLUSIVE") for v in kills):
        return f"bad kill lines {lines}"
    expect = spec["expect"]
    if expect and any(v != expect for v in kills):
        return f"expected every kill {expect}, got {kills}"
    verdict = "OBSTRUCTED" if "OBSTRUCTED" in kills else "INCONCLUSIVE"
    want = [f"kill_{j} = {v}" for j, v in enumerate(kills, start=1)]
    want += [f"verdict = {verdict}", f"tri = {closure_coloring_count(n, letters, 3)}"]
    if n - 1 <= 3:
        quotient = _kv(lines, "quotient_order")
        if quotient is None:
            return "missing quotient_order"
        order = burnside_order(n - 1)
        if expect == "INCONCLUSIVE" and int(quotient) != order:
            return f"trivial relators must leave the whole group of order {order}"
        if order % int(quotient):
            return f"quotient order {quotient} does not divide {order}"
        want.append(f"quotient_order = {quotient}")
    return _expect(lines, want)


def _check_braid_quotient(spec, lines):
    if lines[:1] != [f"order = {spec['order']}"]:
        return f"expected order = {spec['order']}, got {lines[:1]}"
    rest = lines[1:]
    if spec["classes"] is not None:
        if rest[:1] != [f"classes = {spec['classes']}"]:
            return f"expected classes = {spec['classes']}"
        sizes = [int(ln.rsplit(" = ", 1)[1]) for ln in rest[1:1 + spec["classes"]]]
        if len(sizes) != spec["classes"] or sum(sizes) != spec["order"]:
            return "class sizes do not partition the group"
        rest = rest[1 + spec["classes"]:]
    want = ["equal = True"] if spec["word_equal"] else []
    return _expect(rest, want)


_CHECKS = {
    "closure": _check_closure,
    "rational_tri": _check_rational_tri,
    "rational_boundary": _check_rational_boundary,
    "virtual_index": _check_virtual_index,
    "tangle_boundary": _check_tangle_boundary,
    "reduce": _check_reduce,
    "move_check": _check_move_check,
    "lagrangians": _check_lagrangians,
    "realize": _check_realize,
    "census": _check_census,
    "burnside_eval": _check_burnside_eval,
    "enumerate": _check_enumerate,
    "consistency": _check_consistency,
    "obstruct": _check_obstruct,
    "braid_quotient": _check_braid_quotient,
}
