"""Tangle diagrams, Conway algebraic expressions, braid words, and the
compilers between them.

Conventions (fixed once, everything downstream depends on them):

* A compiled n-tangle has 2n boundary points listed counterclockwise,
  positions 1..n running down the left side and n+1..2n up the right
  side.  For a 2-tangle this is x1 = NW, x2 = SW, x3 = SE, x4 = NE.
* The 0-tangle is two horizontal strands (x1-x4, x2-x3); the infinity
  tangle is two vertical strands (x1-x2, x3-x4).
* A positive twist crossing has the SW-NE strand on top, so the twist
  tangle with k crossings satisfies the usual coloring relations
  x4 - x1 = k (x2 - x1), x3 = x2 + x4 - x1.
* `Rot` is the counterclockwise quarter turn: corner lists rotate one
  step, and slopes transform by s -> -1/s.
"""

import re
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import (
    BudgetExceededError,
    ConwaySyntaxError,
    CrossCheckError,
    NotRationalError,
)
from .value import Value

__all__ = [
    "Frac",
    "INF",
    "Crossing",
    "TangleDiagram",
    "Integer",
    "Infinity",
    "Rot",
    "Compose",
    "Rational",
    "Planar",
    "Sigma",
    "rotate",
    "compose",
    "parse_conway",
    "print_conway",
    "compile_expr",
    "slope",
    "rational_expr",
    "cf_vector",
    "cf_eval",
    "BraidWord",
    "parse_braid",
    "braid_closure",
    "closure",
    "parse_diagram_text",
    "check_crossing_parity",
    "diagram_to_text",
    "all_matchings",
    "noncrossing_matchings",
    "random_algebraic_expr",
    "pretzel",
]


# ---------------------------------------------------------------------------
# Exact fractions with a single point at infinity (1, 0).


class Frac(Value, namedtuple("Frac", "num den")):
    """Reduced fraction num/den with den >= 0; (1, 0) is infinity."""

    __slots__ = ()

    @staticmethod
    def make(num, den=1):
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a tangle slope")
            return Frac(1, 0)
        if den < 0:
            num, den = -num, -den
        g = gcd(abs(num), den)
        if g > 1:
            num, den = num // g, den // g
        return Frac(num, den)

    @property
    def is_inf(self):
        return self.den == 0

    @property
    def is_integer(self):
        return self.den == 1

    def recip(self):
        return Frac.make(self.den, self.num)

    def add_int(self, k):
        return Frac.make(self.num + k * self.den, self.den)

    def rot(self):
        """Slope of the rotated tangle: s -> -1/s."""
        return Frac.make(-self.den, self.num)

    def add(self, other):
        if self.is_inf or other.is_inf:
            return INF
        return Frac.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __str__(self):
        """The text inf, num or num/den; BudgetExceededError when a term
        has more digits than the interpreter converts to text."""
        if self.is_inf:
            return "inf"
        try:
            return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        except ValueError:
            raise BudgetExceededError(
                f"a term of the fraction has more than {sys.get_int_max_str_digits()} "
                "digits, the interpreter's bound for printing an integer"
            ) from None


INF = Frac(1, 0)


# ---------------------------------------------------------------------------
# Diagrams.


class Crossing(Value, namedtuple(
    "Crossing", "over under_in under_out sign", defaults=(None,)
)):
    """One crossing: the over arc and the two under arcs.

    `sign` is the braid-orientation tag (+1/-1) when the diagram came
    from a braid word; plain tangle compilation leaves it None.
    """

    __slots__ = ()


class TangleDiagram(Value, namedtuple(
    "TangleDiagram", "arcs crossings boundary closed_components"
)):
    __slots__ = ()

    @property
    def n(self):
        return len(self.boundary) // 2

    def validate(self):
        if len(self.boundary) % 2:
            raise ValueError("boundary length must be even")
        ends = dict.fromkeys(self.arcs, 0)
        for over, under_in, under_out, _ in self.crossings:
            if over not in ends or under_in not in ends or under_out not in ends:
                a = next(a for a in (over, under_in, under_out) if a not in ends)
                raise ValueError(f"crossing references unknown arc {a}")
            ends[under_in] += 1
            ends[under_out] += 1
        for a in self.boundary:
            if a not in ends:
                raise ValueError(f"boundary references unknown arc {a}")
            ends[a] += 1
        if not all(k in (0, 2) for k in ends.values()):
            a, k = min((a, k) for a, k in ends.items() if k not in (0, 2))
            raise ValueError(f"arc {a} has an end count of {k}, not 0 or 2")
        if self.closed_components < 0:
            raise ValueError("negative closed component count")
        return self


# ---------------------------------------------------------------------------
# Expressions.


class Integer(Value, namedtuple("Integer", "k")):
    __slots__ = ()


class Infinity(Value, namedtuple("Infinity", "")):
    __slots__ = ()


class Rot(Value, namedtuple("Rot", "child")):
    __slots__ = ()


class Compose(Value, namedtuple("Compose", "left right")):
    __slots__ = ()


class Rational(Value, namedtuple("Rational", "entries")):
    """Sugar for the standard alternating twist construction; the last
    entry is always a horizontal twist region."""

    __slots__ = ()

    def __new__(cls, *entries):
        if len(entries) == 1 and isinstance(entries[0], (tuple, list)):
            entries = tuple(entries[0])
        if not entries:
            raise ValueError("Rational needs at least one entry")
        return super().__new__(cls, tuple(int(e) for e in entries))


class Planar(Value, namedtuple("Planar", "pairs")):
    """Crossingless n-tangle: a non-crossing perfect matching of the 2n
    boundary points (1-indexed pairs)."""

    __slots__ = ()

    def __new__(cls, pairs):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        seen = sorted(q for p in pairs for q in p)
        if seen != list(range(1, len(seen) + 1)):
            raise ValueError("pairs must partition 1..2n")
        return super().__new__(cls, pairs)


class Sigma(Value, namedtuple("Sigma", "n i sign")):
    """One-crossing n-tangle: levels i and i+1 cross once; sign +1 puts
    the strand entering at level i+1 on top (matching Integer(+1) at
    n = 2, i = 1)."""

    __slots__ = ()

    def __new__(cls, n, i, sign):
        if not (1 <= i < n):
            raise ValueError("crossing level out of range")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, n, i, sign)


def rotate(expr, k=1):
    for _ in range(k):
        expr = Rot(expr)
    return expr


def compose(a, b):
    return Compose(a, b)


# ---------------------------------------------------------------------------
# Conway notation parser and printer.

_TOKEN = re.compile(r"\s*(-?\d+|inf|[rT()*,])")
_MAX_INT = 2**31
# Nesting levels of r(...) and (... * ...) accepted by the parser.  The
# parser and the tree walks after it recurse once per level, so the cap
# keeps every command well inside the interpreter's recursion limit.
_MAX_DEPTH = 300


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ConwaySyntaxError(f"unexpected character {stripped[0]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ConwaySyntaxError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise ConwaySyntaxError(f"expected {want!r}, found {tok!r}", pos)

    def parse_int(self):
        tok, pos = self.next()
        try:
            val = int(tok)
        except ValueError:
            raise ConwaySyntaxError(f"expected integer, found {tok!r}", pos) from None
        if abs(val) >= _MAX_INT:
            raise ConwaySyntaxError("integer literal too large", pos)
        return val

    def parse_expr(self, depth=0):
        tok, pos = self.next()
        if tok == "inf":
            return Infinity()
        if tok in ("r", "(") and depth == _MAX_DEPTH:
            raise ConwaySyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", pos
            )
        if tok == "r":
            self.expect("(")
            inner = self.parse_expr(depth + 1)
            self.expect(")")
            return Rot(inner)
        if tok == "(":
            left = self.parse_expr(depth + 1)
            self.expect("*")
            right = self.parse_expr(depth + 1)
            self.expect(")")
            return Compose(left, right)
        if tok == "T":
            self.expect("(")
            entries = [self.parse_int()]
            while self.peek() == ",":
                self.next()
                entries.append(self.parse_int())
            self.expect(")")
            return Rational(*entries)
        try:
            val = int(tok)
        except ValueError:
            raise ConwaySyntaxError(f"unexpected token {tok!r}", pos) from None
        if abs(val) >= _MAX_INT:
            raise ConwaySyntaxError("integer literal too large", pos)
        return Integer(val)


def parse_conway(text):
    """Parse Conway notation:
    expr := INT | "inf" | "r(" expr ")" | "(" expr "*" expr ")"
          | "T(" INT ("," INT)* ")"
    """
    parser = _Parser(_tokenize(text), text)
    expr = parser.parse_expr()
    if parser.i != len(parser.tokens):
        tok, pos = parser.tokens[parser.i]
        raise ConwaySyntaxError(f"trailing input {tok!r}", pos)
    return expr


def print_conway(expr):
    if isinstance(expr, Integer):
        return str(expr.k)
    if isinstance(expr, Infinity):
        return "inf"
    if isinstance(expr, Rot):
        return f"r({print_conway(expr.child)})"
    if isinstance(expr, Compose):
        return f"({print_conway(expr.left)}*{print_conway(expr.right)})"
    if isinstance(expr, Rational):
        return "T(" + ",".join(str(e) for e in expr.entries) + ")"
    if isinstance(expr, Planar):
        return "M[" + ";".join(f"{a}-{b}" for a, b in expr.pairs) + "]"
    if isinstance(expr, Sigma):
        return f"S[{expr.n},{expr.i},{expr.sign:+d}]"
    raise TypeError(f"not a tangle expression: {expr!r}")


# ---------------------------------------------------------------------------
# The compiler: expression trees to diagrams via a gluing builder.


class _Builder:
    """Union-find arc store shared by all fragments of one compilation."""

    def __init__(self):
        self.parent = []
        self.ends = []  # open boundary endpoints per root
        self.touched = []  # referenced by some crossing
        self.crossings = []
        self.circles = 0

    def new_arc(self, ends):
        i = len(self.parent)
        self.parent.append(i)
        self.ends.append(ends)
        self.touched.append(False)
        return i

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def add_crossing(self, over, under_in, under_out, sign=None):
        over = self.find(over)
        under_in = self.find(under_in)
        under_out = self.find(under_out)
        self.crossings.append([over, under_in, under_out, sign])
        self.touched[over] = self.touched[under_in] = self.touched[under_out] = True

    def braid(self, cur, letters, signed):
        """Hang the braid word `letters` below the strand ends `cur` (root
        arcs, updated in place); positive sigma_i puts position i over
        i+1, and crossings carry the letter's sign if `signed`, else None.
        Each adds one fresh under-arc and glues nothing."""
        pos, neg = (1, -1) if signed else (None, None)
        crossings, ends, touched = self.crossings, self.ends, self.touched
        for x in letters:
            i = abs(x) - 1
            fresh = self.new_arc(1)
            if x > 0:
                over, u_in = cur[i], cur[i + 1]
                crossings.append([over, u_in, fresh, pos])
                cur[i], cur[i + 1] = fresh, over
            else:
                over, u_in = cur[i + 1], cur[i]
                crossings.append([over, u_in, fresh, neg])
                cur[i], cur[i + 1] = over, fresh
            touched[over] = touched[u_in] = touched[fresh] = True
            # u_in's growing end terminates at the crossing
            ends[u_in] -= 1

    def glue(self, a, b):
        """Join one open end of arc a with one open end of arc b."""
        a, b = self.find(a), self.find(b)
        if a != b:
            self.parent[b] = a
            self.ends[a] = self.ends[a] + self.ends[b] - 2
            self.touched[a] = self.touched[a] or self.touched[b]
        else:
            self.ends[a] -= 2
            if self.ends[a] == 0 and not self.touched[a]:
                # a crossing-free circle: count it and forget the arc
                self.circles += 1
                self.ends[a] = -1  # mark dead
        if self.ends[a] < -1:
            raise CrossCheckError("gluing consumed more ends than available")

    def finish(self, corners):
        # deterministic compact relabeling: roots numbered in order of
        # first appearance, crossings first, then boundary; tuple.__new__
        # skips the namedtuple's argument handling
        root = self.parent  # every arc's root, by pointer jumping over all arcs
        while (up := [root[r] for r in root]) != root:
            root = up
        relabel, crossings, new = {}, [], tuple.__new__
        for over, under_in, under_out, sign in self.crossings:
            over = relabel.setdefault(root[over], len(relabel))
            under_in = relabel.setdefault(root[under_in], len(relabel))
            under_out = relabel.setdefault(root[under_out], len(relabel))
            crossings.append(new(Crossing, (over, under_in, under_out, sign)))
        boundary = tuple(relabel.setdefault(root[c], len(relabel)) for c in corners)
        return TangleDiagram(
            frozenset(range(len(relabel))), tuple(crossings), boundary, self.circles
        ).validate()


def _build_planar(b, pairs):
    corners = [None] * (2 * len(pairs))
    for i, j in pairs:
        corners[i - 1] = corners[j - 1] = b.new_arc(2)
    return corners


def _build_sigma(b, n, level, sign):
    corners = [None] * (2 * n)
    for ell in range(1, n + 1):
        if ell not in (level, level + 1):
            corners[ell - 1] = corners[2 * n - ell] = b.new_arc(2)
    over, u_in, u_out = b.new_arc(2), b.new_arc(1), b.new_arc(1)
    # the over strand enters on the left at `top` and leaves on the right
    # at the other level; a positive sign puts level i+1 on top
    top, under = (level, level - 1) if sign > 0 else (level - 1, level)
    corners[top] = corners[2 * n - 1 - under] = over
    corners[under], corners[2 * n - 1 - top] = u_in, u_out
    b.add_crossing(over, u_in, u_out)
    return corners


def _glue_compose(b, left, right):
    n = len(left) // 2
    for k in range(n):
        b.glue(left[2 * n - 1 - k], right[k])
    return [b.find(c) for c in left[:n]] + [b.find(c) for c in right[n:]]


def _build(b, expr):
    if isinstance(expr, Compose):  # the node types are disjoint: most frequent first
        left = _build(b, expr.left)
        right = _build(b, expr.right)
        if len(left) != len(right):
            raise ValueError("composed tangles must have equal widths")
        return _glue_compose(b, left, right)
    if isinstance(expr, Rot):  # a chain of k Rot nodes turns by k at once
        k = 0
        while isinstance(expr, Rot):
            expr, k = expr.child, k + 1
        corners = _build(b, expr)
        k %= len(corners) or 1
        return corners[-k:] + corners[:-k]
    if isinstance(expr, Integer):
        # the braid sigma_1^k hung from the right corners of the 0-tangle
        nw, sw, se, ne = _build_planar(b, ((1, 4), (2, 3)))
        right = [se, ne]
        b.braid(right, (1 if expr.k > 0 else -1,) * abs(expr.k), False)
        return [nw, sw] + right
    if isinstance(expr, Planar):
        return _build_planar(b, expr.pairs)
    if isinstance(expr, Infinity):
        return _build_planar(b, ((1, 2), (3, 4)))
    if isinstance(expr, Sigma):
        return _build_sigma(b, expr.n, expr.i, expr.sign)
    if isinstance(expr, Rational):  # corners turn as under `Rot`, k times
        return _fold_twists(expr.entries, lambda k: _build(b, Integer(k)),
                            lambda corners, k: corners[-k:] + corners[:-k],
                            lambda left, right: _glue_compose(b, left, right))
    raise TypeError(f"not a tangle expression: {expr!r}")


# Crossings one compilation may build.  A twist region compiles to one
# crossing per twist, so without this bound a single Conway integer near
# 2^31 would exhaust memory; `tri --conway 200000` takes about 4 s and
# 235 MB on a 2-core machine.
MAX_CROSSINGS = 200_000


def _crossing_count(expr):
    """Crossings that compiling the expression builds."""
    while isinstance(expr, Rot):
        expr = expr.child
    if isinstance(expr, Compose):
        return _crossing_count(expr.left) + _crossing_count(expr.right)
    if isinstance(expr, Integer):
        return abs(expr.k)
    if isinstance(expr, Rational):
        return sum(abs(e) for e in expr.entries)
    if isinstance(expr, Sigma):
        return 1
    return 0


def compile_expr(expr):
    """Compile an expression tree to a TangleDiagram; BudgetExceededError
    when it has more than MAX_CROSSINGS crossings."""
    crossings = _crossing_count(expr)
    if crossings > MAX_CROSSINGS:
        raise BudgetExceededError(
            f"{crossings} crossings exceed the budget of {MAX_CROSSINGS}"
        )
    b = _Builder()
    corners = _build(b, expr)
    return b.finish(corners)


# ---------------------------------------------------------------------------
# Rational tangles: expansion, evaluation, slopes.


def rational_expr(entries):
    """Expand a twist vector into Rot/Compose/Integer nodes.

    Entries alternate horizontal/vertical twist regions from the inside
    out; the outermost entry is horizontal, so the innermost one is
    horizontal iff the vector length is odd.  Vertical regions go at the
    bottom: stacking E on top of k vertical twists is
    r(Integer(-k) * r^3(E)).
    """
    entries = tuple(int(e) for e in entries)
    if not entries:
        raise ValueError("empty twist vector")
    return _fold_twists(entries, Integer, rotate, Compose)


def _fold_twists(entries, leaf, rot, compose):
    """`rational_expr(entries)` folded by a loop over the entries, so a
    long twist vector does not nest any recursion: leaf(k) stands for
    Integer(k), rot(x, k) for k nested Rot and compose(x, y) for
    Compose(x, y).  The calls come in the order of a left-to-right walk
    of the expanded tree: the vertical integers from the outermost in,
    the innermost entry, then each glue from the inside out."""
    n = len(entries)
    outer = {pos: leaf(-entries[pos]) for pos in range(n - 2, 0, -2)}
    x = leaf(entries[0]) if n % 2 else rot(leaf(-entries[0]), 1)
    for pos in range(1, n):
        if pos in outer:  # vertical
            x = rot(compose(outer[pos], rot(x, 3)), 1)
        else:
            x = compose(x, leaf(entries[pos]))
    return x


def cf_eval(entries):
    """Value of a twist vector: fold g -> a + 1/g from the inside out.
    Each step maps num/den to (a num + den)/num, a matrix of determinant
    -1, so the pair stays coprime and only the sign is normalized."""
    entries = list(entries)
    num, den = entries[0], 1
    for a in entries[1:]:
        num, den = a * num + den, num
    return Frac.make(num, den)


def cf_vector(frac):
    """A twist vector evaluating to `frac` (floor-based expansion)."""
    if frac.is_inf:
        raise NotRationalError("infinity has no twist vector")
    rev = []
    a, b = frac.num, frac.den
    while b != 1:
        q, r = divmod(a, b)
        if not r:  # frac is reduced, so b >= 2 forces a remainder
            raise CrossCheckError(f"{frac} is not a reduced fraction")
        rev.append(q)
        a, b = b, r
    rev.append(a)
    vec = list(reversed(rev))
    if cf_eval(vec) != frac:
        raise CrossCheckError(f"twist vector {vec} does not evaluate to {frac}")
    return vec


def slope(expr):
    """Continued-fraction slope of a rational expression.

    Structural rules: Integer(k) -> k, inf -> 1/0, Rot: s -> -1/s,
    Compose: fraction addition, valid only when at least one side is an
    integer tangle.  Anything else raises NotRationalError.
    """
    if isinstance(expr, Integer):
        return Frac.make(expr.k)
    if isinstance(expr, Infinity):
        return INF
    if isinstance(expr, Rational):
        return cf_eval(expr.entries)
    if isinstance(expr, Rot):
        return slope(expr.child).rot()
    if isinstance(expr, Compose):
        ls, rs = slope(expr.left), slope(expr.right)
        if not (ls.is_integer or rs.is_integer):
            raise NotRationalError(
                "horizontal composition needs an integer tangle on one side"
            )
        return ls.add(rs)
    if isinstance(expr, (Planar, Sigma)):
        raise NotRationalError("slope is defined for 2-strand Conway expressions")
    raise TypeError(f"not a tangle expression: {expr!r}")


# ---------------------------------------------------------------------------
# Braids.


class BraidWord(Value, namedtuple("BraidWord", "strands letters")):
    __slots__ = ()

    def __new__(cls, strands, letters):
        letters = tuple(map(int, letters))
        if strands < 1:
            raise ValueError("need at least one strand")
        if letters and (0 in letters or max(letters) >= strands or -min(letters) >= strands):
            x = next(x for x in letters if x == 0 or abs(x) >= strands)
            raise ValueError(f"braid letter {x} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

    def permutation(self):
        """Bottom position of the strand starting at each top position."""
        pos = list(range(self.strands))  # strand id at each position
        for x in self.letters:
            i = abs(x) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        final = {s: q for q, s in enumerate(pos)}
        return tuple(final[s] for s in range(self.strands))


def parse_braid(text):
    """Parse 'braid <n>: i1 i2 ...' or '<n>: i1 i2 ...'."""
    t = text.strip()
    if t.startswith("braid"):
        t = t[len("braid") :].strip()
    if ":" not in t:
        raise ValueError("braid line needs '<n>: letters'")
    head, _, tail = t.partition(":")
    return BraidWord(int(head.strip()), tail.split())


def braid_closure(word):
    """Diagram of the braid closure; letters are read top to bottom and
    positive sigma_i puts the strand at position i over position i+1."""
    n = word.strands
    b = _Builder()
    top = [b.new_arc(2) for _ in range(n)]
    cur = list(top)
    b.braid(cur, word.letters, True)
    for i in range(n):
        b.glue(cur[i], top[i])
    return b.finish([])


def closure(diagram, kind):
    """Numerator (join top pair then bottom pair) or denominator (left
    then right) closure of a 2-tangle."""
    if diagram.n != 2:
        raise ValueError("closure needs a 2-tangle")
    b = _Builder()
    _, (x1, x2, x3, x4) = _load_diagram(b, diagram)
    if kind in ("numerator", "num", "n"):
        b.glue(x1, x4)
        b.glue(x2, x3)
    elif kind in ("denominator", "den", "d"):
        b.glue(x1, x2)
        b.glue(x3, x4)
    else:
        raise ValueError(f"unknown closure kind {kind!r}")
    return b.finish([])


def _load_diagram(b, diagram):
    """Add a diagram's arcs (in sorted order), crossings and closed
    circles to the builder b for more gluing, in bulk: the arcs are fresh
    roots, so no crossing needs a `find`.  Returns the builder id of each
    diagram arc and the ids of its corners."""
    base, m = len(b.parent), len(diagram.arcs)
    ids = dict(zip(sorted(diagram.arcs), range(base, base + m)))
    corners = [ids[a] for a in diagram.boundary]
    b.parent += range(base, base + m)
    b.ends += [0] * m
    b.touched += [False] * m
    for i in corners:
        b.ends[i] += 1
    for over, under_in, under_out, sign in diagram.crossings:
        x = [ids[over], ids[under_in], ids[under_out], sign]
        b.crossings.append(x)
        b.touched[x[0]] = b.touched[x[1]] = b.touched[x[2]] = True
    b.circles += diagram.closed_components
    return ids, corners


# ---------------------------------------------------------------------------
# Text formats.


def parse_diagram_text(text):
    """Read the line format: 'X over under_in under_out [sign]' (sign 1
    or -1), 'B a1 ... a2n', 'O n_circles'; '#' starts a comment.  The
    diagram must pass `check_crossing_parity`."""
    return check_crossing_parity(_read_diagram_text(text))


def _read_diagram_text(text):
    """The diagram of a text in the line format, with its arc ends
    validated but no planarity check."""
    crossings = []
    boundary = ()
    circles = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        try:
            vals = [int(x) for x in args]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field") from None
        if tag == "X":
            if len(vals) not in (3, 4):
                raise ValueError(f"line {lineno}: X needs 3 arc ids")
            sign = vals[3] if len(vals) == 4 else None
            if sign not in (None, 1, -1):
                raise ValueError(f"line {lineno}: crossing sign must be 1 or -1")
            crossings.append(Crossing(vals[0], vals[1], vals[2], sign))
        elif tag == "B":
            if len(vals) % 2:
                raise ValueError(f"line {lineno}: boundary length must be even")
            boundary = tuple(vals)
        elif tag == "O":
            if len(vals) != 1:
                raise ValueError(f"line {lineno}: O needs one count")
            circles = vals[0]
        else:
            raise ValueError(f"line {lineno}: unknown record {tag!r}")
    arcs = set(boundary)
    for c in crossings:
        arcs.update((c.over, c.under_in, c.under_out))
    return TangleDiagram(frozenset(arcs), tuple(crossings), boundary, circles).validate()


def check_crossing_parity(diagram):
    """Reject (ValueError) a diagram in which a closed strand crosses the
    other strands an odd number of times; returns the diagram.

    Strands are the arcs joined through the under arcs of each crossing.
    In a planar diagram a closed strand is a Jordan curve, and every
    other strand is closed or ends on the boundary circle outside it, so
    it crosses the curve an even number of times.  This is a necessary
    condition for planarity, not a full test."""
    parent = {a: a for a in diagram.arcs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in diagram.crossings:
        parent[find(c.under_in)] = find(c.under_out)
    root = {a: find(a) for a in diagram.arcs}
    count = dict.fromkeys(root.values(), 0)
    for c in diagram.crossings:
        over, under = root[c.over], root[c.under_in]
        if over != under:
            count[over] += 1
            count[under] += 1
    open_strands = {root[a] for a in diagram.boundary}
    for a in sorted(diagram.arcs):
        k = count[root[a]]
        if k % 2 and root[a] not in open_strands:
            raise ValueError(
                f"diagram is not planar: the closed strand through arc {a} "
                f"has an odd crossing count ({k}) with the other strands"
            )
    return diagram


def diagram_to_text(diagram):
    lines = []
    for c in diagram.crossings:
        if c.sign is None:
            lines.append(f"X {c.over} {c.under_in} {c.under_out}")
        else:
            lines.append(f"X {c.over} {c.under_in} {c.under_out} {c.sign}")
    if diagram.boundary:
        lines.append("B " + " ".join(str(a) for a in diagram.boundary))
    if diagram.closed_components:
        lines.append(f"O {diagram.closed_components}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators used by the property suites, `move-check` and the
# realization closure.


def all_matchings(n):
    """All perfect matchings of 1..2n, planar or not, in lexicographic
    order: pairs (a, b) with a < b, sorted by a."""

    def rec(points):
        if not points:
            yield ()
            return
        first = points[0]
        for i in range(1, len(points)):
            for m in rec(points[1:i] + points[i + 1 :]):
                yield ((first, points[i]),) + m

    return list(rec(tuple(range(1, 2 * n + 1))))


@lru_cache(maxsize=None)
def noncrossing_matchings(n):
    """The matchings of `all_matchings(n)` with no two pairs a < c < b < d,
    in the same order, as a tuple of Planar values built once per n."""
    return tuple(
        Planar(m)
        for m in all_matchings(n)
        if not any(c < b < d for (_, b), (c, d) in combinations(m, 2))
    )


def random_algebraic_expr(n, rng, max_depth=4):
    """Random algebraic n-tangle expression: leaves have at most one
    crossing, nodes are r^ka(A) * r^kb(B) with ka, kb < 2n."""
    if max_depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(noncrossing_matchings(n))
        if n == 2:
            return Integer(rng.choice((-1, 1)))
        return Sigma(n, rng.randrange(1, n), rng.choice((-1, 1)))
    a = random_algebraic_expr(n, rng, max_depth - 1)
    b = random_algebraic_expr(n, rng, max_depth - 1)
    return Compose(rotate(a, rng.randrange(0, 2 * n)), rotate(b, rng.randrange(0, 2 * n)))


def pretzel(a, b_):
    """Two vertical twist columns side by side (the (a,b) pretzel tangle)."""
    return Compose(Rot(Integer(-a)), Rot(Integer(-b_)))
