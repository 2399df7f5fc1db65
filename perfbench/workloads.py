"""Seeded query lists for the three workloads.

`build(name, seed, workdir)` returns the queries of one pass and the input
profile.  Each query carries the argv the program sees, the oracle's
check and some bookkeeping: a profile label, a baseline-row tag and
whether it belongs to a known-defect class.  Diagram files are written
into `workdir` here, before anything is timed.  The same (name, seed)
always gives the same queries and files.
"""

import random
import statistics
from pathlib import Path

from oracle import commutator, conway_slope

WORKLOADS = ("links", "tangles", "groups")

# A prime above 2^31: prime-field elimination in int64 overflows on it
# (ROADMAP open item 2), so these queries are expected to fail until that
# defect is fixed, and they count in the error rate.
BIG_PRIME = 4294967311

CHEN = (-1, 2, 3, -4, 3) * 4
# (s1 s2 s3 s4)^10 equals Chen's braid in B_5 / (s_i^3) (the paper's identity)
CHEN_IDENTITY = ((1, 2, 3, 4) * 10, CHEN)


def _query(argv, kind, label, spec, *, crossings=None, arcs=None, modulus=None,
           tag=None, defect=False):
    return {
        "argv": [str(a) for a in argv],
        "kind": kind,
        "label": label,
        "spec": spec,
        "crossings": crossings,
        "arcs": arcs,
        "modulus": modulus,
        "tag": tag,
        "defect": defect,
    }


def braid_text(strands, letters):
    return f"{strands}: " + " ".join(map(str, letters))


def random_braid(rng, strands, length):
    return [rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(length)]


def geometric_sizes(lo, hi, count):
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


# ---------------------------------------------------------------------------
# Diagrams built slice by slice: strands run left to right at levels
# 0..n-1, a slice is a crossing of levels i, i+1 or a cap-cup pair on them.


class _Strands:
    def __init__(self, n):
        self.parent = []
        self.touched = []
        self.crossings = []
        self.circles = 0
        self.left = [self._new() for _ in range(n)]
        self.cur = list(self.left)

    def _new(self):
        self.parent.append(len(self.parent))
        self.touched.append(False)
        return len(self.parent) - 1

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def _join(self, a, b):
        a, b = self.find(a), self.find(b)
        if a == b:
            if not self.touched[a]:
                self.circles += 1
            return
        self.parent[b] = a
        self.touched[a] = self.touched[a] or self.touched[b]

    def cross(self, i, sign):
        """Positive: the strand at level i passes over level i+1."""
        hi, lo = (i, i + 1) if sign > 0 else (i + 1, i)
        over, under_in, under_out = self.cur[hi], self.cur[lo], self._new()
        self.crossings.append((over, under_in, under_out))
        for a in (over, under_in, under_out):
            self.touched[a] = True
        self.cur[i], self.cur[i + 1] = (under_out, over) if sign > 0 else (over, under_out)

    def cap_cup(self, i):
        self._join(self.cur[i], self.cur[i + 1])
        c = self._new()
        self.cur[i] = self.cur[i + 1] = c

    def close(self):
        for a, b in zip(self.cur, self.left):
            self._join(a, b)

    def diagram(self, open_ends):
        """(crossings, boundary, circles) over compact arc ids."""
        boundary = list(self.left) + list(reversed(self.cur)) if open_ends else []
        ids = {}
        crossings = [tuple(ids.setdefault(self.find(a), len(ids)) for a in c)
                     for c in self.crossings]
        boundary = [ids.setdefault(self.find(a), len(ids)) for a in boundary]
        return crossings, boundary, self.circles


def braid_diagram(strands, letters):
    s = _Strands(strands)
    for x in letters:
        s.cross(abs(x) - 1, x)
    s.close()
    return s.diagram(open_ends=False)


def tangle_text(crossings, boundary, circles):
    lines = [f"X {o} {i} {u}" for o, i, u in crossings]
    lines.append("B " + " ".join(map(str, boundary)))
    if circles:
        lines.append(f"O {circles}")
    return "\n".join(lines) + "\n"


def random_tangle(rng, n, crossings):
    s = _Strands(n)
    made = 0
    while made < crossings:
        i = rng.randrange(n - 1)
        if rng.random() < 0.2:
            s.cap_cup(i)
        else:
            s.cross(i, rng.choice((1, -1)))
            made += 1
    return s.diagram(open_ends=True)


def arc_count(crossings, boundary):
    return len({a for c in crossings for a in c} | set(boundary))


# ---------------------------------------------------------------------------
# Conway expressions.


def random_rational(rng, steps):
    """Rational 2-tangle: each step rotates or adds an integer tangle on one
    side, so every Compose has an integer summand."""
    text = str(rng.choice((-3, -2, -1, 1, 2, 3)))
    for _ in range(steps):
        roll = rng.random()
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        if roll < 0.35:
            text = f"r({text})"
        elif roll < 0.7:
            text = f"({text}*{k})"
        else:
            text = f"({k}*{text})"
    return text


def random_twist_vector(rng, total):
    """T(e1, ..., em) with sum |e_i| == total and |e_i| in 5..40."""
    entries = []
    left = total
    while left:
        e = min(left, rng.randrange(5, 41))
        if 0 < left - e < 5:
            e = left
        entries.append(rng.choice((1, -1)) * e)
        left -= e
    return "T(" + ",".join(map(str, entries)) + ")"


# ---------------------------------------------------------------------------
# Workloads.


def _closure_query(strands, letters, key, argv_tail, k, t=-1, tag=None, defect=False):
    crossings, boundary, _ = braid_diagram(strands, letters)
    return _query(
        [*argv_tail, "--braid", braid_text(strands, letters)],
        "closure",
        " ".join(map(str, argv_tail)),
        {"strands": strands, "letters": letters, "k": k, "t": t, "key": key},
        crossings=len(letters),
        arcs=arc_count(crossings, boundary),
        modulus=k,
        tag=tag,
        defect=defect,
    )


# Sizes below follow fixed schedules and only the content is drawn from the
# seed, so that every seed sends the same amount of work.


def links(rng, workdir):
    """Large diagrams: dense elimination dominates, cubic in crossings."""
    qs = []
    for i, size in enumerate(geometric_sizes(50, 300, 24)):
        strands = 4 + i % 2
        letters = random_braid(rng, strands, size)
        qs.append(_closure_query(strands, letters, "tri", ["tri"], 3))
        qs.append(_closure_query(strands, letters, "abf_col_7(t=3)",
                                 ["color", "--abf-t", "3", "--p", "7"], 7, t=3))
    for i, size in enumerate(geometric_sizes(50, 160, 16)):
        strands = 4 + i % 2
        letters = random_braid(rng, strands, size)
        qs.append(_closure_query(strands, letters, "col_6", ["color", "--mod", "6"], 6))
    for size in (100, 400):
        qs.append(_closure_query(4, random_braid(rng, 4, size), "tri", ["tri"], 3,
                                 tag=f"closure {size} crossings (tri)"))
    qs.append(_closure_query(4, random_braid(rng, 4, 400), "col_6",
                             ["color", "--mod", "6"], 6,
                             tag="closure 400 crossings (--mod 6)"))
    for strands, size in ((4, 40), (5, 50), (4, 60), (5, 70)):
        qs.append(_closure_query(strands, random_braid(rng, strands, size),
                                 f"col_{BIG_PRIME}", ["color", "--mod", BIG_PRIME],
                                 BIG_PRIME, defect=True))
    for i, total in enumerate(geometric_sizes(120, 250, 10)):
        conway = str(rng.choice((1, -1)) * total) if i % 2 else random_twist_vector(rng, total)
        qs.append(_query(["tri", "--conway", conway], "rational_tri", "tri --conway",
                         {"conway": conway, "closure": False},
                         crossings=total, arcs=total + 2, modulus=3))
        qs.append(_query(["tri", "--closure", "numerator", "--conway", conway],
                         "rational_tri", "tri --closure numerator",
                         {"conway": conway, "closure": True},
                         crossings=total, arcs=total, modulus=3))
        qs.append(_query(["boundary", "--p", 5, "--conway", conway], "rational_boundary",
                         "boundary --p 5", {"conway": conway, "p": 5},
                         crossings=total, arcs=total + 2, modulus=5))
        qs.append(_query(["boundary", "--integers", "--conway", conway], "virtual_index",
                         "boundary --integers", {"conway": conway},
                         crossings=total, arcs=total + 2))
    return qs


def tangles(rng, workdir):
    """Thousands of tiny eliminations behind per-call overhead, plus the
    Lagrangian enumeration and the realization search."""
    qs = []
    primes = (3, 5, 7)
    for i in range(54):
        conway = random_rational(rng, 2 + i % 5)
        _, c = conway_slope(conway)
        p = primes[i % 3]
        qs.append(_query(["boundary", "--p", p, "--conway", conway], "rational_boundary",
                         "boundary --conway", {"conway": conway, "p": p},
                         crossings=c, arcs=c + 2, modulus=p))
    for n in (3, 4):
        for i in range(40):
            crossings, boundary, circles = random_tangle(rng, n, 4 + i % 9)
            path = Path(workdir) / f"tangle{n}_{i}.txt"
            path.write_text(tangle_text(crossings, boundary, circles))
            p = primes[i % 3]
            qs.append(_query(["boundary", "--p", p, "--diagram", str(path)],
                             "tangle_boundary", f"boundary --diagram (n={n})",
                             {"n": n, "p": p}, crossings=len(crossings),
                             arcs=arc_count(crossings, boundary), modulus=p))
    for i in range(16):
        p = primes[i % 3]
        if i % 2:
            conway = random_rational(rng, 3 + i % 5)
        else:
            entries = [rng.choice((1, -1)) * rng.randrange(1, 10) for _ in range(2 + i % 4)]
            conway = "T(" + ",".join(map(str, entries)) + ")"
        _, c = conway_slope(conway)
        qs.append(_query(["reduce", "--p", p, "--conway", conway], "reduce", "reduce",
                         {"conway": conway, "p": p}, crossings=c, arcs=c + 2, modulus=p))
    # move-check draws its random trees from its own --seed, and their cost
    # varies with it, so those seeds are fixed.  With 200 queries the p90
    # rank (181) falls near the middle of the 30 checks at p = 13, the
    # slowest block below the five heavy queries: a median of 30 samples
    # moves less with machine speed than the tail of a small block.
    for p, count in ((5, 8), (13, 30)):
        for s in range(count):
            qs.append(_query(["move-check", "--p", p, "--seed", s], "move_check",
                             f"move-check --p {p}", {"p": p, "trials": 25}, modulus=p))
    for p, n in ((3, 3), (5, 3), (3, 4)):
        tag = "enumerate_lagrangians(3,4)" if (p, n) == (3, 4) else None
        qs.append(_query(["lagrangians", "--p", p, "--n", n], "lagrangians",
                         f"lagrangians ({p},{n})", {"p": p, "n": n}, modulus=p, tag=tag))
    # the search's own seed stays 0: its time ranges over 3-15 s between
    # seeds, which would swamp every other difference between runs
    qs.append(_query(["lagrangians", "--p", 3, "--n", 3, "--realize", "--seed", 0],
                     "realize", "lagrangians --realize (3,3)", {"p": 3, "n": 3},
                     modulus=3, tag="realize_lagrangians(3,3)"))
    for n in (4, 5):
        qs.append(_query(["census", "--n", n], "census", f"census (n={n})", {"n": n},
                         modulus=2))
    return qs


def every_layer(rng):
    """One small query for each layer some workload would otherwise leave
    idle, added to every workload so that no per-layer time reads a constant
    zero.  Together they take a few milliseconds."""
    small = random_rational(rng, 3)
    _, c = conway_slope(small)
    letters = random_braid(rng, 3, 6)
    crossings, boundary, _ = braid_diagram(3, letters)
    return [
        _query(["lagrangians", "--p", 3, "--n", 2, "--realize"], "realize",
               "lagrangians --realize (3,2)", {"p": 3, "n": 2}, modulus=3),
        _query(["reduce", "--p", 5, "--conway", small], "reduce", "reduce",
               {"conway": small, "p": 5}, crossings=c, arcs=c + 2, modulus=5),
        _query(["boundary", "--integers", "--conway", small], "virtual_index",
               "boundary --integers", {"conway": small}, crossings=c, arcs=c + 2),
        _query(["burnside", "enumerate", "-r", 2], "enumerate", "burnside enumerate -r 2",
               {"r": 2}, modulus=3),
        _query(["obstruct", "--braid", braid_text(3, letters)], "obstruct",
               "obstruct (3-strand)", {"strands": 3, "letters": letters, "expect": None},
               crossings=len(letters), arcs=arc_count(crossings, boundary), modulus=3),
        _query(["braid-quotient", "--n", 3, "--k", 3, "--classes"], "braid_quotient",
               "braid-quotient n=3 k=3", {"order": 24, "classes": 7, "word_equal": False},
               modulus=3),
    ]


def _cube_conjugates(rng, strands, factors):
    """Product of conjugates w s_i^(+-3) w^-1.  s_i^3 acts trivially on
    B(n,3), so every relator of the closure is trivial there."""
    word = []
    for _ in range(factors):
        w = random_braid(rng, strands, 2)
        i = rng.randrange(1, strands) * rng.choice((1, -1))
        word += w + [i] * 3 + [-x for x in reversed(w)]
    return word


def groups(rng, workdir):
    """Group arithmetic with no linear algebra beyond one tri per obstruct."""
    qs = []
    r = 4

    def word(length):
        return [rng.choice((1, -1)) * rng.randrange(1, r + 1) for _ in range(length)]

    def burnside_eval(w, trivial, label):
        return _query(["burnside", "eval", "-r", r, "--word", " ".join(map(str, w))],
                      "burnside_eval", label, {"r": r, "word": w, "trivial": trivial},
                      modulus=3)

    for _ in range(80):
        qs.append(burnside_eval(word(20), False, "burnside eval (word)"))
    for _ in range(60):
        w = word(7)
        qs.append(burnside_eval(w * 3, True, "burnside eval (cube)"))
    for _ in range(60):
        w, v = word(3), word(2)
        qs.append(burnside_eval(commutator(commutator(w, v), v), True,
                                "burnside eval ([[w,v],v])"))

    def obstruct(strands, letters, expect, label):
        crossings, boundary, _ = braid_diagram(strands, letters)
        return _query(["obstruct", "--braid", braid_text(strands, letters)], "obstruct",
                      label, {"strands": strands, "letters": letters, "expect": expect},
                      crossings=len(letters), arcs=arc_count(crossings, boundary),
                      modulus=3)

    qs.append(obstruct(5, list(CHEN), "OBSTRUCTED", "obstruct (Chen)"))
    # 267 queries: the p90 rank (241) falls near the middle of the 46 random
    # 5-strand obstructs, the slowest block below the three heavy queries,
    # and the p50 rank among the evals, whose words all have 20-24 letters
    for _ in range(46):
        qs.append(obstruct(5, random_braid(rng, 5, 25), None,
                           "obstruct (5-strand)"))
    for strands, count in ((4, 4), (5, 3)):
        for _ in range(count):
            qs.append(obstruct(strands, _cube_conjugates(rng, strands, 2), "INCONCLUSIVE",
                               f"obstruct ({strands}-strand cube conjugates)"))
    for rr in (3, 4):
        qs.append(_query(["burnside", "enumerate", "-r", rr], "enumerate",
                         f"burnside enumerate -r {rr}", {"r": rr}, modulus=3,
                         tag="enumerate_group(4)" if rr == 4 else None))
    qs.append(_query(["burnside", "check", "-r", r, "--seed", rng.randrange(10**6)],
                     "consistency", "burnside check -r 4", {}, modulus=3))
    w1 = " ".join(["1 2"] * 6)
    w2 = " ".join(["1 -2"] * 3)
    for n, k, order, classes, equal, tag in (
        (3, 4, 96, 16, (w1, w2), None),
        (3, 3, 24, 7, None, None),
        (4, 3, 648, None, None, None),
        (5, 3, 155520, None, tuple(" ".join(map(str, x)) for x in CHEN_IDENTITY),
         "B5/(s^3)"),
    ):
        argv = ["braid-quotient", "--n", n, "--k", k]
        if classes is not None:
            argv.append("--classes")
        if equal is not None:
            argv += ["--word-equal", *equal]
        qs.append(_query(argv, "braid_quotient", f"braid-quotient n={n} k={k}",
                         {"order": order, "classes": classes, "word_equal": equal is not None},
                         modulus=k, tag=tag))
    return qs


def profile(queries):
    """What traffic a pass sends: counts, sizes and moduli."""
    counts = {}
    for q in queries:
        counts[q["label"]] = counts.get(q["label"], 0) + 1
    sized = [q for q in queries if q["crossings"] is not None]
    largest = max(sized, key=lambda q: q["crossings"] * q["arcs"])
    return {
        "queries": len(queries),
        "queries_per_command": dict(sorted(counts.items())),
        "crossings_quartiles": [
            round(x, 1) for x in statistics.quantiles([q["crossings"] for q in sized], n=4)
        ],
        "largest_relation_matrix": [largest["crossings"], largest["arcs"]],
        "moduli": sorted({q["modulus"] for q in queries if q["modulus"]}),
        "known_defect_queries": sum(q["defect"] for q in queries),
    }


def build(name, seed, workdir):
    rng = random.Random(f"{name}:{seed}")
    Path(workdir).mkdir(parents=True, exist_ok=True)
    queries = {"links": links, "tangles": tangles, "groups": groups}[name](rng, workdir)
    queries += every_layer(rng)
    # mixed order: the small queries are spread over the whole pass instead of
    # all landing in one stretch of machine speed
    rng.shuffle(queries)
    return queries, profile(queries)
