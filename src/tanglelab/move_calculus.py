"""Rational move calculus: (m,q)-move fractions, generator identities,
the projective boundary invariant of 2-tangles, reduction of rational
tangles to the horizontal family with move certificates, reduction of
algebraic expressions by invariant, and a splice-and-recheck harness
for move invariance of coloring spaces.

A move with fraction sp/q splices the sp/q twist tangle in place of an
identity 2-subtangle; when p divides the numerator this preserves Fox
p-colorings.  Certificates below act on twist vectors (see
tangle_core.cf_vector): an "entry" step changes the innermost twist
region by a multiple of p, a "kill" step removes the innermost region
against a horizontal k' with k * k' = 1 mod p, which is the insertion
of the twist tangle T(-k, k') of fraction (k k' - 1)/k = sp/k.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd

from . import fox_coloring as fox
from .errors import (
    BudgetExceededError,
    CrossCheckError,
    InvalidSiteError,
    NotPrimeError,
    NotRationalError,
)
from .exact_linear import is_prime
from .tangle_core import (
    INF,
    Frac,
    Rational,
    _Builder,
    _load_diagram,
    cf_eval,
    cf_vector,
    compile_expr,
    slope,
)
from .value import Value

__all__ = [
    "MoveStep",
    "ReductionResult",
    "mq_to_fraction",
    "fraction_shift_identities",
    "horizontal_family",
    "target_table",
    "boundary_invariant",
    "reduce_rational",
    "replay_certificate",
    "reduce_2algebraic",
    "certificate_lines",
    "splice_identity_site",
    "invariance_harness",
    "HarnessReport",
]


def mq_to_fraction(m, q):
    """Fraction of the (m,q)-move: m horizontal then q vertical twists
    splice the (mq+1)/q tangle."""
    return Frac.make(m * q + 1, q)


def fraction_shift_identities(p, q):
    """The two shifted move fractions p/(p-q) and p/(-(p+q)), with the
    generating identities verified exactly:
    p/(p-q) = 1 + 1/(-1 + p/q),  p/(-(p+q)) = -1 + 1/(1 + p/q)."""
    if q == 0 or gcd(abs(p), abs(q)) != 1:
        raise ValueError("p and q must be coprime with q nonzero")
    pq = Frac.make(p, q)
    first = Frac.make(p, p - q)
    second = Frac.make(p, -(p + q))
    if pq.add_int(-1).recip().add_int(1) != first:
        raise CrossCheckError("shift identity for p/(p-q) failed")
    if pq.add_int(1).recip().add_int(-1) != second:
        raise CrossCheckError("shift identity for p/(-(p+q)) failed")
    return first, second


# ---------------------------------------------------------------------------
# Projective boundary invariant.


def _proj(a, b, p):
    a %= p
    b %= p
    if a == 0 and b == 0:
        raise ValueError("not a projective point")
    if a:
        inv = pow(a, p - 2, p)
        return (1, b * inv % p)
    return (0, 1)


def _proj_of_frac(f, p):
    return _proj(f.num, f.den, p)


def line_to_point(line):
    """The projective point [-x : y] of a reduced boundary image line
    span{(x, y)}."""
    ((x, y),) = line.rows
    return _proj(-x, y, line.p)


def boundary_invariant(expr, p):
    """Projective boundary point of a 2-tangle expression, read from its
    structural boundary image (`fox.expr_boundary_image`) and always
    cross-checked against the reduced boundary image of the compiled
    diagram."""
    return _checked_boundary_point(expr, p)[0]


def _check_odd_prime(p):
    """Raise NotPrimeError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")


def _checked_boundary_point(expr, p):
    """`boundary_invariant` and the diagram it compiled for the check."""
    _check_odd_prime(p)
    image = fox.expr_boundary_image(expr, p)
    if image.ambient != 4:
        raise ValueError("boundary invariant is defined for 2-tangles")
    line = fox.reduce_image(image)
    diagram = compile_expr(expr)
    direct = fox.reduced_boundary_image(diagram, p)
    if direct != line or line.dim != 1:
        raise CrossCheckError(
            f"structural image {line.rows} and the compiled diagram image "
            f"{direct.rows} mod {p} are not one line"
        )
    return line_to_point(line), diagram


def horizontal_family(p):
    """Reduction targets: integers (1-p)/2 .. (p-1)/2 and infinity."""
    half = (p - 1) // 2
    return [Frac.make(k) for k in range(-half, half + 1)] + [INF]


def target_table(p):
    """Bijection between the p+1 targets and the points of P^1(F_p)."""
    table = {}
    for t in horizontal_family(p):
        table[_proj_of_frac(t, p)] = t
    if len(table) != p + 1:
        raise CrossCheckError("horizontal family points are not distinct")
    return table


# ---------------------------------------------------------------------------
# Certificates.


class MoveStep(Value, namedtuple("MoveStep", "fraction site op parts", defaults=((),))):
    """One rational move on the evolving twist vector.

    `fraction` is the fraction of the spliced tangle; its numerator is
    s p for the ambient prime p (s = numerator // p).  `op` drives the
    exact replay: ("entry", delta) adds delta to the innermost region,
    ("kill", kprime) removes the innermost region against kprime.
    `parts` decomposes a forced |s| > 1 step into two s = +-1 moves,
    stored as the block pairs ((m1, m1'), (m2, m2')): the inner block
    nests in the outer one so that [m2, m2' + m1, m1'] carries the same
    fraction as the whole step.
    """

    __slots__ = ()

    def part_fractions(self):
        return tuple(Frac.make(m * mp + 1, m) for m, mp in self.parts)


class ReductionResult(Value, namedtuple("ReductionResult", "target circles certificate")):
    __slots__ = ()


def _symrep(a, p):
    half = (p - 1) // 2
    return (a + half) % p - half


def _best_kill(a1, p):
    """kprime = a1^{-1} mod p minimizing |s| where a1*kprime - 1 = s p."""
    k0 = pow(a1 % p, p - 2, p)
    best = None
    for t in range(-((abs(a1) + 4)), abs(a1) + 5):
        k = k0 + t * p
        s, r = divmod(a1 * k - 1, p)
        if r:
            raise CrossCheckError(f"{k} is not an inverse of {a1} mod {p}")
        cand = (abs(s), abs(k), k, s)
        if best is None or cand < best:
            best = cand
    return best[2], best[3]


def _composite_parts(a1, kprime, p):
    """Decompose the insertion of T(-a1, kprime) (fraction sp/a1,
    |s| > 1) into two moves with |s| = 1: an outer block T(m1, m1')
    holding an inner block T(m2, m2') so that the assembled twist vector
    [m2, m2' + m1, m1'] has the same fraction."""
    net = Frac.make(a1 * kprime - 1, a1)
    for m1p in range(-p, p + 1):
        if m1p % p == 0:
            continue
        res = (-pow(m1p % p, p - 2, p)) % p
        for m1 in (res - p, res, res + p):
            if m1 == 0 or abs(m1 * m1p + 1) != p:
                continue
            rest = net.add_int(-m1p)
            if rest.num == 0:
                continue
            Y = rest.recip()
            if Y.is_inf:
                continue
            base = Y.num // Y.den
            for X in (base, base + 1):
                rem = Y.add_int(-X)
                if rem.num == 0:
                    continue
                m2f = rem.recip()
                if not m2f.is_integer:
                    continue
                m2 = m2f.num
                m2p = X - m1
                if m2 == 0 or abs(m2 * m2p + 1) != p:
                    continue
                return ((m1, m1p), (m2, m2p))
    return ()


def _innermost_path(length):
    """Dotted child-index path of the innermost twist leaf in the
    expansion of a twist vector of the given length."""
    horizontal_first = length % 2 == 1
    segs = []
    for pos in range(1, length):
        vertical = ((pos % 2) == 1) == horizontal_first
        segs.append("0.1.0.0.0" if vertical else "0")
    segs.reverse()
    if not horizontal_first:
        segs.append("0")
    return ".".join(segs)


def _normalize_vector(v):
    """Undo innermost regions by isotopy: [0, y, rest] is isotopic to
    [rest] (kink removal) and [0, y] is the infinity tangle; a single
    crossing [e, y, rest] with e = +-1 flips into the next region,
    [y + e, rest]."""
    while len(v) >= 2 and v[0] in (-1, 0, 1):
        if v[0]:
            v = [v[1] + v[0]] + v[2:]
        elif len(v) == 2:
            return v, True
        else:
            v = v[2:]
    return v, False


# Characters of site paths one certificate may name.  A step's path
# grows with the twist vector, so `reduce --p 5` on T(1 x n) names about
# 0.6 n^2 characters (2.4 MB of MOVE lines at n = 2000); the cap bounds
# its output and time near n = 4000.
MAX_SITE_CHARS = 10**7


def reduce_rational(f, p):
    """Reduce an exact fraction to its mod-p class representative in the
    horizontal family, with a replayable move certificate;
    BudgetExceededError when its site paths pass MAX_SITE_CHARS."""
    _check_odd_prime(p)
    if not isinstance(f, Frac):
        f = Frac.make(*f) if isinstance(f, tuple) else Frac.make(f)
    steps = []
    if f.is_inf:
        return ReductionResult(INF, 0, ())
    v = list(cf_vector(f))
    site_chars = 0

    def site():
        nonlocal site_chars
        path = _innermost_path(len(v))
        site_chars += len(path)
        if site_chars > MAX_SITE_CHARS:
            raise BudgetExceededError(
                f"the certificate names more than {MAX_SITE_CHARS} characters of site paths"
            )
        return path

    def emit_entry(delta):
        steps.append(MoveStep(Frac.make(delta, 1), site(), ("entry", delta)))

    while True:
        v, at_inf = _normalize_vector(v)
        if at_inf:
            return ReductionResult(INF, 0, tuple(steps))
        if len(v) == 1:
            h = _symrep(v[0], p)
            if h != v[0]:
                emit_entry(h - v[0])
                v = [h]
            return ReductionResult(Frac.make(h), 0, tuple(steps))
        a1 = v[0]
        if a1 % p == 0:
            emit_entry(-a1)
            v = [0] + v[1:]
            continue
        h1 = _symrep(a1, p)
        if h1 != a1:
            emit_entry(h1 - a1)
            v = [h1] + v[1:]
            continue
        kprime, s = _best_kill(a1, p)
        parts = _composite_parts(a1, kprime, p) if abs(s) > 1 else ()
        steps.append(
            MoveStep(
                fraction=Frac.make(a1 * kprime - 1, a1),
                site=site(),
                op=("kill", kprime),
                parts=parts,
            )
        )
        v = [v[1] + kprime] + v[2:]


def replay_certificate(f, certificate, p):
    """Re-execute a certificate on exact fractions; returns the final
    value and checks every step's legality along the way."""
    if f.is_inf:
        if certificate:
            raise CrossCheckError("infinity reduces with an empty certificate")
        return INF
    v = list(cf_vector(f))
    for step in certificate:
        if step.fraction.num % p:
            raise CrossCheckError(f"move fraction {step.fraction} not divisible by {p}")
        v, at_inf = _normalize_vector(v)
        if at_inf:
            raise CrossCheckError("certificate continues past the infinity tangle")
        kind = step.op[0]
        if kind == "entry":
            delta = step.op[1]
            if delta % p:
                raise CrossCheckError("entry step is not a multiple of p")
            v = [v[0] + delta] + v[1:]
        elif kind == "kill":
            kprime = step.op[1]
            if len(v) < 2:
                raise CrossCheckError("kill step on a single twist region")
            if (v[0] * kprime - 1) % p:
                raise CrossCheckError("kill step violates k k' = 1 mod p")
            if Frac.make(v[0] * kprime - 1, v[0]) != step.fraction:
                raise CrossCheckError("kill step fraction mismatch")
            if step.parts:
                (m1, m1p), (m2, m2p) = step.parts
                if (m1 * m1p + 1) % p or (m2 * m2p + 1) % p:
                    raise CrossCheckError("composite part is not a p-move")
                if cf_eval([m2, m2p + m1, m1p]) != step.fraction:
                    raise CrossCheckError(
                        "composite parts do not assemble to the step fraction"
                    )
            v = [v[1] + kprime] + v[2:]
        else:
            raise CrossCheckError(f"unknown certificate op {kind!r}")
    v, at_inf = _normalize_vector(v)
    if at_inf:
        return INF
    return cf_eval(v)


def certificate_lines(result):
    """Serialize: one 'MOVE p/q AT <path>' line per step; a composite
    step contributes its two part moves."""
    lines = []
    for step in result.certificate:
        if step.parts:
            for i, part in enumerate(step.part_fractions()):
                suffix = step.site + (".0" if i else "")
                lines.append(f"MOVE {part.num}/{part.den} AT {suffix}")
        else:
            lines.append(f"MOVE {step.fraction.num}/{step.fraction.den} AT {step.site}")
    return lines


def reduce_2algebraic(expr, p):
    """Reduce any 2-tangle expression to its horizontal-family target by
    the cross-checked boundary invariant; rational expressions also get
    a move certificate, replayed on the slope before it is returned."""
    point, diagram = _checked_boundary_point(expr, p)
    target = target_table(p)[point]
    circles = diagram.closed_components
    certificate = ()
    try:
        s = slope(expr)
    except NotRationalError:
        s = None
    if s is not None:
        res = reduce_rational(s, p)
        if res.target != target:
            raise CrossCheckError(
                f"certificate target {res.target} disagrees with invariant {target}"
            )
        if replay_certificate(s, res.certificate, p) != target:
            raise CrossCheckError(f"the certificate of {s} does not replay to {target}")
        certificate = res.certificate
    return ReductionResult(target, circles, certificate)


# ---------------------------------------------------------------------------
# Splice harness.


def _cut_arc(builder, boundary_list, a):
    """Cut an arc near one extremity; returns (left, right) builder ids,
    right is None when the arc is a closed loop (single cut point).

    The extremity moved to the fresh arc is the last boundary occurrence
    if any, else the first under-crossing slot; either choice is a valid
    planar position for the cut, and the coloring relations only see the
    incidence structure.

    Nothing may be glued in the builder yet: every id is its own root,
    so ids are compared without `find`.
    """
    positions = [i for i, x in enumerate(boundary_list) if x == a]
    if positions:
        # a keeps its other ends: one boundary end moves out, one cut
        # end comes in, net zero
        a2 = builder.new_arc(2)
        boundary_list[positions[-1]] = a2
        return a, a2
    for rec in builder.crossings:
        for slot in (1, 2):  # under_in, under_out
            if rec[slot] == a:
                a2 = builder.new_arc(1)
                builder.touched[a2] = True
                rec[slot] = a2
                builder.ends[a] += 1
                return a, a2
    # closed loop: the single cut exposes both new ends on the same arc
    builder.ends[a] += 2
    return a, None


@lru_cache(maxsize=16)
def _twist_tangle(f):
    """The compiled twist tangle of fraction f (diagrams are immutable)."""
    return compile_expr(Rational(*cf_vector(f)))


def splice_identity_site(diagram, site, f):
    """Replace the identity 2-subtangle running along the two given arcs
    by the twist tangle of fraction f."""
    arc_a, arc_b = site
    if arc_a == arc_b or arc_a not in diagram.arcs or arc_b not in diagram.arcs:
        raise InvalidSiteError(f"site {site} is not two distinct arcs")
    tangle = _twist_tangle(f)
    builder = _Builder()
    ids, boundary_list = _load_diagram(builder, diagram)
    _, (nw, sw, se, ne) = _load_diagram(builder, tangle)
    la, ra = _cut_arc(builder, boundary_list, ids[arc_a])
    lb, rb = _cut_arc(builder, boundary_list, ids[arc_b])
    builder.glue(la, nw)
    builder.glue(ra if ra is not None else builder.find(la), ne)
    builder.glue(lb, sw)
    builder.glue(rb if rb is not None else builder.find(lb), se)
    return builder.finish(boundary_list)


class HarnessReport(Value, namedtuple(
    "HarnessReport", "count_before count_after image_before image_after spliced"
)):
    __slots__ = ()

    @property
    def unchanged(self):
        return (
            self.count_before == self.count_after
            and self.image_before == self.image_after
        )


def _coloring_data(diagram, p):
    """The p-coloring count and the reduced boundary image (None below
    two strands) from one elimination: `coloring_space(diagram, p).count`
    and `reduced_boundary_image(diagram, p)`."""
    if diagram.n < 2:
        return fox.coloring_space(diagram, p).count, None
    nullity, _, reduced = fox._boundary_data(diagram, p)
    return p ** (nullity + diagram.closed_components), reduced


def invariance_harness(diagram, site, f, p):
    """Splice the tangle of fraction f (numerator divisible by p) at the
    site and check that the p-coloring count and the reduced boundary
    image are unchanged."""
    _check_odd_prime(p)
    if f.num % p:
        raise ValueError(f"move fraction {f} does not preserve {p}-colorings")
    before_count, before_image = _coloring_data(diagram, p)
    spliced = splice_identity_site(diagram, site, f)
    after_count, after_image = _coloring_data(spliced, p)
    report = HarnessReport(before_count, after_count, before_image, after_image, spliced)
    if not report.unchanged:
        raise CrossCheckError(
            f"move {f} changed the coloring data at site {site}: "
            f"count {before_count} -> {after_count}"
        )
    return report
