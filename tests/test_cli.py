import argparse
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import tanglelab
from tanglelab import cli
from tanglelab.cli import run
from tanglelab.move_calculus import MAX_SITE_CHARS, reduce_rational
from tanglelab.tangle_core import cf_eval

_CHEN = "5: " + " ".join(str(x) for x in (-1, 2, 3, -4, 3) * 4)


def capture(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def test_tri_braid():
    code, out = capture(["tri", "--braid", "2: 1 1 1"])
    assert code == 0
    assert out == "tri = 9\n"


def test_tri_closure_of_conway():
    code, out = capture(["tri", "--conway", "3", "--closure", "numerator"])
    assert code == 0
    assert out == "tri = 9\n"


def test_color_composite():
    code, out = capture(["color", "--mod", "6", "--braid", "3: 1 -2 1 -2"])
    assert code == 0
    assert out.startswith("col_6 = ")


def test_color_abf():
    code, out = capture(
        ["color", "--abf-t", "3", "--p", "7", "--braid", "2: 1 1 1"]
    )
    assert code == 0
    assert out == "abf_col_7(t=3) = 49\n"


def test_lagrangian_count_only():
    code, out = capture(["lagrangians", "--p", "3", "--n", "4", "--count-only"])
    assert code == 0
    assert out == "1120\n"


def test_census():
    code, out = capture(["census", "--n", "4"])
    assert code == 0
    assert "census = 105" in out
    assert "matches_odd_reading = True" in out


def test_slope():
    code, out = capture(["slope", "--conway", "T(2,3,2)"])
    assert code == 0
    assert out == "slope = 16/7\n"


def test_reduce():
    code, out = capture(["reduce", "--conway", "T(2,3,2)", "--p", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target = 1"
    assert lines[1] == "circles = 0"
    assert any(line.startswith("MOVE ") for line in lines[2:])


def test_boundary():
    code, out = capture(["boundary", "--conway", "0", "--p", "3"])
    assert code == 0
    assert "psi_dim = 2" in out
    assert "psihat_dim = 1" in out


def test_boundary_virtual_index():
    code, out = capture(
        ["boundary", "--conway", "(r(-5)*r(5))", "--integers"]
    )
    assert code == 0
    assert out == "virtual_index = 5\n"


def test_burnside_eval_word():
    code, out = capture(
        ["burnside", "eval", "-r", "4", "--word",
         "1 -2 3 -4 -1 2 -3 4 4 4 3 -2 1 -4 3 -2 1 -4"]
    )
    assert code == 0
    assert out.splitlines()[0] in ("TRIVIAL", "NONTRIVIAL")


def test_burnside_eval_P_from_file(tmp_path):
    u = (1, -2, 3, -4)
    w = (-1, 2, -3, 4)
    inv = lambda t: tuple(-x for x in reversed(t))
    P = u + w + (4,) + inv(u) + inv(w) + (-4,)
    f = tmp_path / "word.txt"
    f.write_text(" ".join(str(x) for x in P))
    code, out = capture(["burnside", "eval", "-r", "4", "--word-file", str(f)])
    assert code == 0
    assert out.splitlines()[0] == "NONTRIVIAL"


def test_burnside_order():
    code, out = capture(["burnside", "order", "-r", "4"])
    assert code == 0
    assert out == f"order = {3**14}\n"


def test_burnside_check():
    # the counts do not depend on the seed, which picks the random triples
    for seed in ("0", "7"):
        for r, checks in enumerate((8000, 8002, 25699, 8057, 8144, 8300)):
            argv = ["burnside", "check", "-r", str(r), "--seed", seed]
            assert capture(argv) == (0, f"checks = {checks}\nconsistent = True\n"), argv


def test_burnside_negative_rank_exits_2():
    for action in (["order"], ["enumerate"], ["check"], ["eval", "1"]):
        argv = ["burnside", *action, "-r", "-1"]
        assert capture(argv) == (2, "error = -r must not be negative\n"), argv
    assert capture(["burnside", "order", "-r", "0"]) == (0, "order = 1\n")


def test_burnside_eval_positional_word():
    code, out = capture(["burnside", "eval", "-r", "2", "1 1 1"])
    assert code == 0
    assert out.splitlines()[0] == "TRIVIAL"
    code, out = capture(["burnside", "eval", "-r", "2", "1 2"])
    assert code == 0
    assert out.splitlines()[0] == "NONTRIVIAL"


def test_obstruct_trefoil():
    code, out = capture(["obstruct", "--braid", "2: 1 1 1"])
    assert code == 0
    assert "verdict = INCONCLUSIVE" in out
    assert "tri = 9" in out


def test_obstruct_chen():
    code, out = capture(["obstruct", "--braid", _CHEN])
    assert code == 0
    assert "verdict = OBSTRUCTED" in out
    for j in range(1, 6):
        assert f"kill_{j} = OBSTRUCTED" in out


def test_braid_quotient():
    code, out = capture(
        ["braid-quotient", "--n", "3", "--k", "4", "--classes",
         "--word-equal", "1 2 1 2 1 2 1 2 1 2 1 2", "1 -2 1 -2 1 -2"]
    )
    assert code == 0
    assert "order = 96" in out
    assert "classes = 16" in out
    assert "equal = True" in out


def test_move_check():
    code, out = capture(["move-check", "--p", "5", "--fraction", "5/2",
                         "--seed", "1", "--trials", "6"])
    assert code == 0
    assert "violations = 0" in out


def test_move_check_mq_and_shifts():
    code, out = capture(["move-check", "--p", "5", "--mq", "2", "2",
                         "--seed", "1", "--trials", "4"])
    assert code == 0
    assert "mq_fraction = 5/2" in out
    assert "violations = 0" in out
    code, out = capture(["move-check", "--p", "13", "--shifts", "5"])
    assert code == 0
    assert "shift_down = 13/8" in out
    assert "shift_up = -13/18" in out


def test_exit_codes():
    code, _ = capture(["slope", "--conway", "((("])
    assert code == 2
    code, _ = capture(["tri"])  # no diagram source
    assert code == 2
    code, _ = capture(["nonsense"])
    assert code == 2
    code, _ = capture(
        ["braid-quotient", "--n", "5", "--k", "3", "--budget", "100"]
    )
    assert code == 3


def test_realize_budget_bounds_the_enumeration():
    # (3, 5) has 91840 Lagrangians: refused before any is built
    code, out = capture(
        ["lagrangians", "--p", "3", "--n", "5", "--realize", "--budget", "10"]
    )
    assert code == 3
    assert out == "error = 91840 Lagrangians exceed the budget of 10\n"
    code, out = capture(["lagrangians", "--p", "3", "--n", "2", "--realize"])
    assert code == 0
    assert out.startswith("lagrangians = 4\nrealized = 4\n")


def test_realize_seed_is_accepted_and_ignored():
    outs = {capture(["lagrangians", "--p", "3", "--n", "3", "--realize", "--seed", s])
            for s in ("0", "1", "7")}
    assert len(outs) == 1
    code, out = outs.pop()
    assert code == 0
    assert out.startswith("lagrangians = 40\nrealized = 40\nunrealized = 0\n")


def test_conway_nesting_cap():
    from tanglelab.tangle_core import _MAX_DEPTH

    commands = (
        ["tri", "--conway"],
        ["reduce", "--p", "5", "--conway"],
        ["slope", "--conway"],
        ["boundary", "--p", "5", "--conway"],
    )
    at_cap = (
        "r(" * _MAX_DEPTH + "1" + ")" * _MAX_DEPTH,
        "(" * _MAX_DEPTH + "1" + "*1)" * _MAX_DEPTH,
    )
    for text in at_cap:
        for argv in commands:
            code, out = capture(argv + [text])
            assert code == 0, (argv, out)
    over = _MAX_DEPTH + 1
    for text in (
        "r(" * over + "1" + ")" * over,
        "(1*" * over + "1" + ")" * over,
        "r(" * 3000 + "1" + ")" * 3000,
    ):
        for argv in commands:
            code, out = capture(argv + [text])
            assert code == 2
            assert out.startswith(f"error = expression nested deeper than {_MAX_DEPTH}")


def test_determinism():
    for argv in (
        ["lagrangians", "--p", "3", "--n", "3"],
        ["census", "--n", "3"],
        ["reduce", "--conway", "T(3,1,2)", "--p", "5"],
        ["move-check", "--p", "3", "--seed", "4", "--trials", "5"],
    ):
        a = capture(argv)
        b = capture(argv)
        assert a == b


def test_color_mod_large_prime():
    # constant colorings alone give p; int64 elimination printed 1
    p = 4294967311
    code, out = capture(["color", "--mod", str(p), "--braid", "3: 1 -2 1 -2"])
    assert code == 0
    assert int(out.removeprefix(f"col_{p} = ")) >= p


def test_color_modulus_beyond_primality_bound():
    code, out = capture(["color", "--mod", str(2**89 - 1), "--braid", "2: 1 1 1"])
    assert code == 2
    assert out.startswith("error = modulus ")


def _wide_braids():
    rng = random.Random(40)
    letters = [rng.choice([x for x in range(-39, 40) if x]) for _ in range(4000)]
    return {
        "5000: 1": (3**4999, 6**4999),  # one unknot and 4998 circles
        "2000: " + " ".join(map(str, range(1, 2000))): (3, 6),  # an unknot
        "40: " + " ".join(map(str, letters)): (3, 48),
    }


def test_wide_braids_count_as_their_closure_diagrams_did():
    # strands that no letter moves, or that no closing relation uses, are
    # free circles: they must not reach the elimination as columns
    for braid, (tri, col_6) in _wide_braids().items():
        assert capture(["tri", "--braid", braid]) == (0, f"tri = {tri}\n"), braid[:12]
        assert capture(["color", "--mod", "6", "--braid", braid]) == (0, f"col_6 = {col_6}\n")


_B = "3: 1 -2 1 -2"


@pytest.mark.parametrize("argv, want", [
    (["color", "--mod", "1", "--braid", _B], "modulus must be at least 2"),
    (["color", "--mod", "0", "--braid", _B], "modulus must be at least 2"),
    (["color", "--abf-t", "7", "--p", "7", "--braid", _B], "t must be invertible mod p"),
    (["color", "--abf-t", "3", "--p", "6", "--braid", _B], "6 is not prime"),
    (["color", "--abf-t", "-1", "--p", "6", "--braid", _B], "6 is not prime"),
    (["color", "--mod", str(2**89 - 1), "--braid", _B],
     f"modulus {2**89 - 1} is beyond the deterministic primality bound 3317044064679887385961981"),
    (["tri", "--braid", "3: 1 3"], "braid letter 3 out of range for 3 strands"),
    (["color", "--mod", "1", "--braid", "3: 1 -3"], "braid letter -3 out of range for 3 strands"),
    (["tri", "--braid", "0: 1 x"], "invalid literal for int() with base 10: 'x'"),
    (["tri", "--braid", _B, "--closure", "numerator"], "closure needs a 2-tangle"),
    (["color", "--mod", "1", "--braid", _B, "--closure", "denominator"],
     "closure needs a 2-tangle"),
    (["boundary", "--braid", _B], "diagram has no boundary"),
])
def test_braid_errors_keep_their_text_and_order(argv, want):
    # source errors first, then the modulus, its primality, and t
    assert capture(argv) == (2, f"error = {want}\n")


def test_diagram_sign_field_is_plus_or_minus_one(tmp_path):
    f = tmp_path / "trefoil.dg"
    f.write_text("X 0 1 2 1\nX 2 0 1 -1\nX 1 2 0 1\n")
    code, _ = capture(["color", "--abf-t", "3", "--p", "7", "--diagram", str(f)])
    assert code == 0
    # the parent read 0 as negative and 7 as positive: abf_col_7(t=3) = 7
    for text, line in (("X 0 1 2 0\nX 2 0 1 7\nX 1 2 0 -1\n", 1),
                       ("X 0 1 2 1\nX 2 0 1 1\nX 1 2 0 2\n", 3)):
        f.write_text(text)
        code, out = capture(["color", "--abf-t", "3", "--p", "7", "--diagram", str(f)])
        assert code == 2
        assert out == f"error = line {line}: crossing sign must be 1 or -1\n"


def test_boundary_computes_the_image_once(monkeypatch):
    from tanglelab import fox_coloring

    # one elimination gives both psi and psihat; the one-time calibration
    # also reads boundary images, so it runs before the count starts
    fox_coloring._ensure_calibrated()
    calls = []
    data = fox_coloring._boundary_data

    def counted(*args):
        calls.append(args)
        return data(*args)

    monkeypatch.setattr(fox_coloring, "_boundary_data", counted)
    code, out = capture(["boundary", "--p", "5", "--conway", "T(3,2,4)"])
    assert code == 0
    assert "psihat_dim = 1" in out
    assert len(calls) == 1


def test_diagram_file_input(tmp_path):
    f = tmp_path / "trefoil.dg"
    f.write_text("# trefoil\nX 0 1 2\nX 2 0 1\nX 1 2 0\n")
    code, out = capture(["tri", "--diagram", str(f)])
    assert code == 0
    assert out == "tri = 9\n"


def test_failed_cross_check_exits_4(monkeypatch):
    from tanglelab import exact_linear

    smith = exact_linear._smith_mod

    def wrong_factor(rows, m, D):
        factors = smith(rows, m, D)
        return [factors[0] + 1] + factors[1:]

    monkeypatch.setattr(exact_linear, "_smith_mod", wrong_factor)
    code, out = capture(["color", "--mod", "6", "--braid", "3: 1 -2 1 -2"])
    assert code == 4
    assert out == "error = invariant factors are not a chain dividing the minor d\n"


def test_diagram_file_with_a_dangling_arc_end_exits_2(tmp_path):
    # the parent failed these with "violates the alternating condition"
    # (exit 4) on `boundary` and printed a count on `tri`
    f = tmp_path / "dangling.dg"
    for text, arc in (("B 5 4\n", 4), ("B -1 1\n", -1), ("B -2 -1\nX 1 3 4\n", -2)):
        f.write_text(text)
        for argv in (["boundary", "--p", "3"], ["boundary", "--integers"], ["tri"]):
            code, out = capture(argv + ["--diagram", str(f)])
            assert code == 2, (text, argv)
            assert out == f"error = arc {arc} has an end count of 1, not 0 or 2\n"


def test_diagram_file_that_is_not_planar_exits_2(tmp_path):
    # every arc has two ends, but the closed arc 9 passes over one
    # crossing only, which no planar diagram allows
    f = tmp_path / "nonplanar.dg"
    f.write_text("X 0 1 2\nX 9 2 3\nB 1 0 0 3\n")
    code, out = capture(["boundary", "--p", "5", "--diagram", str(f)])
    assert code == 2
    assert out.startswith("error = diagram is not planar: boundary coloring ")
    code, out = capture(["boundary", "--integers", "--diagram", str(f)])
    assert code == 2
    assert out.startswith("error = diagram is not planar: integer coloring ")


def test_census_below_one_exits_2():
    for n in ("0", "-3"):
        assert capture(["census", "--n", n]) == (2, "error = census needs n >= 1\n")
    code, out = capture(["census", "--n", "1"])
    assert code == 0
    assert out.splitlines() == [
        "census = 1",
        "product_odd_reading = 1",
        "lagrangian_count = 1",
        "matches_odd_reading = True",
        "all_lagrangians_realized = True",
    ]


def test_move_check_fraction_zero_over_zero_exits_2():
    code, out = capture(["move-check", "--p", "3", "--fraction", "0/0"])
    assert (code, out) == (2, "error = 0/0 is not a tangle slope\n")


def test_braid_quotient_word_letters_out_of_range_exit_2():
    for words, bad in ((["0", "-2"], "0"), (["7", "1"], "7"), (["1 2", "1 -3"], "-3")):
        code, out = capture(
            ["braid-quotient", "--n", "3", "--k", "3", "--word-equal", *words]
        )
        assert (code, out) == (
            2, f"error = letter {bad} out of range: need 1 <= |x| <= 2\n"
        )
    code, out = capture(
        ["braid-quotient", "--n", "2", "--k", "4", "--word-equal", "1 1 1 1 1", "-1 -1 -1"]
    )
    assert (code, out) == (0, "order = 4\nequal = True\n")


def test_obstruct_kill_zero_exits_2():
    code, out = capture(["obstruct", "--braid", "3: 1 2", "--kill", "0"])
    assert (code, out) == (2, "error = no strand generator 0\n")


def test_move_check_negative_fraction_as_two_arguments():
    for fraction in ("-3/2", "-1/2"):
        assert capture(
            ["move-check", "--p", "3", "--fraction", fraction, "--trials", "2"]
        ) == capture(
            ["move-check", "--p", "3", f"--fraction={fraction}", "--trials", "2"]
        )
    code, out = capture(["move-check", "--p", "3", "--fraction", "-3/2", "--trials", "2"])
    assert (code, out) == (0, "move = -3/2\nchecked = 2\nviolations = 0\n")
    code, out = capture(["move-check", "--p", "3", "--fraction", "-1/2"])
    assert (code, out) == (2, "error = move fraction -1/2 does not preserve 3-colorings\n")


def test_braid_quotient_classes_cross_check_the_certified_order(monkeypatch):
    from tanglelab import coset_enumeration as ce

    monkeypatch.setattr(
        ce, "certify_braid_quotient", lambda n, k, budget: ce.BraidQuotient(n, k, 25, 7, 5)
    )
    code, out = capture(["braid-quotient", "--n", "3", "--k", "3", "--classes"])
    assert (code, out) == (
        4, "error = the Burau search reached 24 elements, certified order is 25\n"
    )


def test_braid_quotient_classes_budget_bounds_only_the_certificate():
    # the order 648 fits in the budget, which the class search reads no further
    argv = ["braid-quotient", "--n", "4", "--k", "3", "--classes", "--budget", "700"]
    code, out = capture(argv)
    assert (code, out.splitlines()[:2]) == (0, ["order = 648", "classes = 24"])


def test_braid_quotient_cyclic_classes_budget_bounds_their_letters():
    # B_2/(s^k) prints k words of floor(k^2/4) letters in all
    argv = ["braid-quotient", "--n", "2", "--k", "4000", "--classes"]
    code, out = capture(argv)
    assert (code, out) == (
        3,
        "error = the 4000 class representatives have 4000000 letters, "
        "more than the budget of 1000000\n",
    )
    argv = ["braid-quotient", "--n", "2", "--k", "5", "--classes", "--budget"]
    assert capture(argv + ["5"])[0] == 3
    code, out = capture(argv + ["6"])
    assert (code, out) == (
        0,
        "order = 5\nclasses = 5\nclass e : size = 1\nclass 1 : size = 1\n"
        "class -1 : size = 1\nclass 1 1 : size = 1\nclass -1 -1 : size = 1\n",
    )


# the class lines are in shortlex order of their representatives, each
# the shortlex-least word of its class, with letters ordered
# g1 < g1^-1 < g2 < ...
CLASS_LINES = {
    (4, 3): (
        "order = 648\n"
        "classes = 24\n"
        "class e : size = 1\n"
        "class 1 : size = 12\n"
        "class -1 : size = 12\n"
        "class 1 2 : size = 36\n"
        "class 1 -2 : size = 54\n"
        "class 1 3 : size = 12\n"
        "class 1 -3 : size = 24\n"
        "class -1 -2 : size = 36\n"
        "class -1 -3 : size = 12\n"
        "class 1 2 3 : size = 54\n"
        "class 1 2 -3 : size = 72\n"
        "class 1 -2 3 : size = 36\n"
        "class 1 -2 -3 : size = 72\n"
        "class -1 2 -3 : size = 36\n"
        "class -1 -2 -3 : size = 54\n"
        "class 1 -2 1 -2 : size = 9\n"
        "class 1 -2 3 -2 : size = 9\n"
        "class -1 2 -3 2 : size = 9\n"
        "class 1 2 -3 2 -3 : size = 36\n"
        "class 1 -2 1 -2 -3 : size = 36\n"
        "class 1 -2 1 3 -2 3 : size = 12\n"
        "class -1 2 -1 -3 2 -3 : size = 12\n"
        "class 1 -2 3 -2 1 -2 3 -2 : size = 1\n"
        "class -1 2 -3 2 -1 2 -3 2 : size = 1\n"
    ),
    (3, 5): (
        "order = 600\n"
        "classes = 45\n"
        "class e : size = 1\n"
        "class 1 : size = 12\n"
        "class -1 : size = 12\n"
        "class 1 1 : size = 12\n"
        "class 1 2 : size = 20\n"
        "class 1 -2 : size = 12\n"
        "class -1 -1 : size = 12\n"
        "class -1 -2 : size = 20\n"
        "class 1 1 2 : size = 30\n"
        "class 1 1 -2 : size = 20\n"
        "class 1 -2 -2 : size = 20\n"
        "class -1 -1 -2 : size = 30\n"
        "class 1 1 2 2 : size = 12\n"
        "class 1 1 -2 -2 : size = 20\n"
        "class 1 -2 1 -2 : size = 12\n"
        "class -1 -1 -2 -2 : size = 12\n"
        "class 1 1 2 -1 2 : size = 12\n"
        "class 1 1 -2 1 -2 : size = 30\n"
        "class 1 -2 1 -2 -2 : size = 30\n"
        "class 1 -2 -1 -1 -2 : size = 12\n"
        "class 1 1 2 1 1 2 : size = 1\n"
        "class 1 1 2 -1 -1 2 : size = 12\n"
        "class 1 1 -2 1 1 -2 : size = 20\n"
        "class 1 1 -2 1 -2 -2 : size = 30\n"
        "class 1 1 -2 -1 -1 -2 : size = 12\n"
        "class 1 -2 1 -2 1 -2 : size = 12\n"
        "class 1 -2 -2 1 -2 -2 : size = 20\n"
        "class -1 -1 -2 -1 -1 -2 : size = 1\n"
        "class 1 1 -2 1 1 -2 -2 : size = 12\n"
        "class 1 1 -2 1 -2 1 -2 : size = 20\n"
        "class 1 1 -2 -2 1 -2 -2 : size = 12\n"
        "class 1 -2 1 -2 1 -2 -2 : size = 20\n"
        "class 1 1 2 2 1 1 2 2 : size = 12\n"
        "class 1 1 -2 1 1 -2 1 -2 : size = 12\n"
        "class 1 1 -2 1 -2 1 -2 -2 : size = 20\n"
        "class 1 -2 1 -2 1 -2 1 -2 : size = 12\n"
        "class 1 1 2 -1 2 1 1 2 2 : size = 1\n"
        "class 1 1 -2 1 1 -2 1 1 -2 : size = 1\n"
        "class 1 1 -2 1 -2 1 1 -2 -2 : size = 12\n"
        "class 1 1 -2 -2 1 -2 1 -2 -2 : size = 12\n"
        "class 1 1 -2 1 -2 1 1 -2 1 -2 : size = 1\n"
        "class 1 -2 1 -2 1 -2 1 -2 1 -2 : size = 1\n"
        "class 1 -2 1 -2 -2 1 -2 1 -2 -2 : size = 1\n"
        "class 1 1 -2 1 -2 1 -2 1 1 -2 -2 : size = 1\n"
        "class 1 1 -2 -2 1 -2 1 -2 1 -2 -2 : size = 1\n"
    ),
}


@pytest.mark.parametrize("n, k", sorted(CLASS_LINES))
def test_braid_quotient_class_lines(n, k):
    code, out = capture(["braid-quotient", "--n", str(n), "--k", str(k), "--classes"])
    assert (code, out) == (0, CLASS_LINES[n, k])



def test_compile_budget_exits_3_without_building():
    # one crossing per twist: 2^31 - 1 of them would exhaust memory
    for argv, crossings in (
        (["tri", "--conway", "2147483647"], 2147483647),
        (["color", "--mod", "5", "--conway", "(1*r(-2147483647))"], 2147483648),
        (["reduce", "--p", "3", "--conway", "2147483647"], 2147483647),
        (["move-check", "--p", "2147483647", "--fraction", "2147483647/1"], 2147483647),
        (["tri", "--conway", "T(100000,100001)"], 200001),
    ):
        start = time.perf_counter()
        code, out = capture(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3, (argv, out)
        assert out == f"error = {crossings} crossings exceed the budget of 200000\n"


def test_diagram_file_with_odd_crossing_parity_exits_2(tmp_path):
    f = tmp_path / "nonplanar.dg"
    # the closed arc 9 passes over one crossing only
    f.write_text("X 0 1 2\nX 9 2 3\nB 1 0 0 3\n")
    want = (
        "error = diagram is not planar: the closed strand through arc 9 "
        "has an odd crossing count (1) with the other strands\n"
    )
    for argv in (["tri"], ["color", "--mod", "5"], ["color", "--mod", "6"]):
        assert capture(argv + ["--diagram", str(f)]) == (2, want), argv
    # the closed arc 9 runs under the open strand 0 once: its colorings
    # meet the alternating condition, and only the parity check sees it
    f.write_text("X 0 9 9\nB 0 0 1 1\n")
    for argv in (["boundary", "--p", "3"], ["boundary", "--integers"], ["tri"]):
        assert capture(argv + ["--diagram", str(f)]) == (2, want), argv
    # crossing the open strand twice is allowed
    f.write_text("X 0 9 8\nX 0 8 9\nB 0 0\n")
    assert capture(["tri", "--diagram", str(f)]) == (0, "tri = 9\n")


def test_negative_budget_or_trials_exits_2():
    for argv, flag in (
        (["lagrangians", "--p", "3", "--n", "3", "--realize", "--budget", "-1"], "budget"),
        (["lagrangians", "--p", "3", "--n", "3", "--budget", "-1"], "budget"),
        (["braid-quotient", "--n", "3", "--k", "3", "--budget", "-5"], "budget"),
        (["move-check", "--p", "3", "--trials", "-3"], "trials"),
    ):
        assert capture(argv) == (2, f"error = --{flag} must not be negative\n"), argv
    # zero is a valid value and keeps its meaning
    assert capture(["move-check", "--p", "3", "--trials", "0"]) == (
        0, "move = 3\nchecked = 0\nviolations = 0\n"
    )
    assert capture(["lagrangians", "--p", "3", "--n", "3", "--realize", "--budget", "0"]) == (
        3, "error = 40 Lagrangians exceed the budget of 0\n"
    )
    code, out = capture(["braid-quotient", "--n", "3", "--k", "3", "--budget", "0"])
    assert code == 3 and out.startswith("error = ")


# Every subcommand, interleaved with parse failures and `error =` exits.
_SEQUENCE = (
    ["tri", "--braid", "2: 1 1 1"],
    ["tri", "--bogus", "1"],
    ["color", "--mod", "6", "--braid", "3: 1 -2 1 -2"],
    ["lagrangians", "--p", "3"],
    ["boundary", "--p", "5", "--conway", "3"],
    ["slope", "--conway", "((("],
    ["slope", "--conway", "T(2,3,2)"],
    ["lagrangians", "--p", "3", "--n", "2", "--realize"],
    ["obstruct"],
    ["census", "--n", "3"],
    ["reduce", "--conway", "T(3,1,2)", "--p", "5"],
    ["move-check", "--p", "3", "--fraction", "-3/2", "--trials", "2"],
    ["move-check", "--p", "3", "--trials", "-3"],
    ["burnside", "eval", "-r", "3", "1", "-2", "1"],
    ["obstruct", "--braid", "3: 1 2", "--kill", "0"],
    ["obstruct", "--braid", "3: 1 2 1 2"],
    ["nonsense"],
    ["braid-quotient", "--n", "3", "--k", "3", "--word-equal", "1 2", "2 1"],
    ["braid-quotient", "--n", "5", "--k", "3", "--budget", "100"],
)


def test_reused_parser_answers_like_a_fresh_process():
    forward = [capture(argv) for argv in _SEQUENCE]
    backward = [capture(argv) for argv in reversed(_SEQUENCE)]
    assert forward == backward[::-1]
    assert {code for code, _ in forward} == {0, 2, 3}
    src = os.path.dirname(os.path.dirname(tanglelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, want in list(zip(_SEQUENCE, forward))[::2]:
        fresh = subprocess.run(
            [sys.executable, "-m", "tanglelab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (fresh.returncode, fresh.stdout) == want, argv


_NUMPY_FREE = (
    ["tri", "--braid", "2: 1 1 1"],
    ["color", "--mod", "6", "--braid", "3: 1 -2 1 -2"],
    ["color", "--abf-t", "3", "--p", "7", "--braid", "2: 1 1 1"],
    ["boundary", "--p", "5", "--conway", "T(3,2,4)"],
    ["boundary", "--integers", "--conway", "T(3,2,4)"],
    ["slope", "--conway", "T(2,3,2)"],
    ["burnside", "eval", "-r", "4", "--word", "1 2"],
    ["obstruct", "--braid", _CHEN],
    ["reduce", "--conway", "T(2,3,2)", "--p", "3"],
    ["move-check", "--p", "5", "--fraction", "5/2"],
    ["census", "--n", "4"],
)
# modules a fresh call should load only when its command calls into them
_LAZY = ("numpy", "dataclasses", "tanglelab.move_calculus",
         "tanglelab.symplectic_lagrangian", "tanglelab.coset_enumeration")


def test_numpy_free_commands_leave_numpy_unloaded():
    # importing numpy is most of the set-up time of a fresh call, and
    # compiling modules it does not use most of the rest; one interpreter
    # runs the whole list and reports the loaded ones after every step
    code = (
        "import io, json, sys\n"
        "import tanglelab\n"
        "from tanglelab import cli\n"
        "lazy = json.loads(sys.argv[2])\n"
        "print('import', *[m for m in lazy if m in sys.modules])\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = cli.run(argv, stdout=io.StringIO())\n"
        "    print(code, *[m for m in lazy if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(tanglelab.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_NUMPY_FREE), json.dumps(_LAZY)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    # tri, color, boundary, slope, burnside eval and obstruct load none;
    # reduce and move-check load move_calculus, census also symplectic
    mv, sym = "tanglelab.move_calculus", "tanglelab.symplectic_lagrangian"
    want = "import\n" + "0\n" * 8 + f"0 {mv}\n" * 2 + f"0 {mv} {sym}\n"
    assert (fresh.returncode, fresh.stdout) == (0, want), fresh.stderr


def test_obstruct_loads_no_fox_layer():
    # obstruct reads tri off its own relators: a lone call in a fresh
    # interpreter compiles no coloring code
    code = (
        "import io, sys\n"
        "from tanglelab import cli\n"
        "code = cli.run(sys.argv[1:], stdout=io.StringIO())\n"
        "print(code, 'tanglelab.fox_coloring' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(tanglelab.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", code, "obstruct", "--braid", _CHEN],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert (fresh.returncode, fresh.stdout) == (0, "0 False\n"), fresh.stderr


def test_numpy_commands_answer_in_a_fresh_process_like_in_process():
    # each command reaches numpy and the modules behind `cli` only through
    # imports local to the functions it calls; one left out fails here on
    # its first use
    src = os.path.dirname(os.path.dirname(tanglelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["burnside", "enumerate", "-r", "2"],
        ["burnside", "check", "-r", "2"],
        ["lagrangians", "--p", "3", "--n", "3"],
        ["lagrangians", "--p", "3", "--n", "2", "--realize"],
        ["braid-quotient", "--n", "3", "--k", "3", "--classes"],
        ["reduce", "--conway", "T(2,3,2)", "--p", "3"],
        ["move-check", "--p", "5", "--fraction", "5/2", "--trials", "3"],
        ["census", "--n", "3"],
        ["obstruct", "--braid", "3: 1 2 1 2"],
        ["lagrangians", "--p", "3", "--n", "4", "--count-only"],
    ):
        want = capture(argv)
        assert want[0] == 0, (argv, want)
        fresh = subprocess.run(
            [sys.executable, "-m", "tanglelab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (fresh.returncode, fresh.stdout) == want, (argv, fresh.stderr)


def test_parser_is_built_once_per_process(monkeypatch):
    made = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        codes = [capture(_SEQUENCE[i % len(_SEQUENCE)])[0] for i in range(50)]
    finally:
        cli.build_parser.cache_clear()
    assert {0, 2, 3} <= set(codes)
    # one top-level parser, then each subcommand parser once
    assert made[0] == "tanglelab"
    assert all(prog.startswith("tanglelab ") for prog in made[1:])
    assert len(set(made[1:])) == len(made) - 1 >= 11


def test_command_parsers_answer_like_the_top_level_parser(monkeypatch, capsys):
    # a known command name skips the top-level parser; with no command
    # parsers to go to, every argv goes through it, and stdout, stderr and
    # exit codes are the same either way
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [*_SEQUENCE, ["tri", "-h"], ["burnside", "-h"], ["nonsense"], []]

    def answers():
        out = []
        for argv in argvs:
            out.append((*capture(argv), capsys.readouterr().err))
        return out

    direct = answers()
    assert {argv[0] for argv in argvs if argv} - set(cli.build_parser().commands) == {
        "nonsense"
    }
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert answers() == direct
    assert {code for code, _, _ in direct} == {0, 2, 3}


def test_help_goes_to_the_given_stream(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = capture(["tri", "-h"])
    assert code == 0
    assert out.startswith("usage: tanglelab tri [-h]")
    src = os.path.dirname(os.path.dirname(tanglelab.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "tanglelab.cli", "tri", "-h"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (fresh.returncode, fresh.stdout) == (code, out)


def test_long_twist_vectors_answer():
    # a `T(...)` leaf compiles by a loop, so neither its length nor the
    # nesting around it reaches the recursion limit
    ones = "T(" + ",".join(["1"] * 400) + ")"
    nested = "r(" * 299 + "T(" + ",".join(["2"] * 231) + ")" + ")" * 299
    for conway in (ones, nested):
        for argv in (["tri"], ["boundary", "--p", "5"], ["boundary", "--integers"],
                     ["reduce", "--p", "5"], ["slope"]):
            code, out = capture([*argv, "--conway", conway])
            assert code == 0, (argv, out[-200:])
    fib = [1, 1]
    while len(fib) < 500:
        fib.append(fib[-1] + fib[-2])
    argv = ["move-check", "--p", "5", "--fraction", f"{fib[-1]}/{fib[-2]}", "--trials", "5"]
    assert capture(argv) == (0, f"move = {fib[-1]}/{fib[-2]}\nchecked = 5\nviolations = 0\n")


def test_enumeration_is_capped_at_rank_4():
    assert capture(["burnside", "enumerate", "-r", "4"]) == (0, f"enumerated = {3**14}\n")
    want = (3, "error = enumeration supported for r <= 4\n")
    assert capture(["burnside", "enumerate", "-r", "5"]) == want


def test_obstruction_is_capped_at_5_strands():
    code, out = capture(["obstruct", "--braid", "5: 1"])
    assert code == 0 and "verdict = " in out
    code, out = capture(["obstruct", "--braid", "3: 1 2"])
    assert code == 0 and "quotient_order = 1\n" in out
    want = (3, "error = obstruction supported for at most 5 strands\n")
    assert capture(["obstruct", "--braid", "6: 1"]) == want


@pytest.fixture
def int_digits_640():
    """The interpreter's int-to-text digit limit lowered to its minimum."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def test_slope_beyond_the_int_digit_limit_exits_3(int_digits_640):
    # T(1 x n) evaluates to F(n+1)/F(n), about 0.209 n digits
    def ones(n):
        return "T(" + ",".join(["1"] * n) + ")"

    code, out = capture(["slope", "--conway", ones(3000)])
    num, den = out.removeprefix("slope = ").split("/")
    assert code == 0 and len(num) == len(den.strip()) == 627, out[:80]
    want = (3, "error = a term of the fraction has more than 640 digits, "
               "the interpreter's bound for printing an integer\n")
    assert capture(["slope", "--conway", ones(3100)]) == want


def test_reduce_certificate_is_capped():
    # each step names the innermost site by a path as long as the twist
    # vector: mod 5, T(1 x 4082) names 9998448 characters, T(1 x 4083)
    # 10003347, and MAX_SITE_CHARS is 10^7
    assert MAX_SITE_CHARS == 10**7
    steps = reduce_rational(cf_eval([1] * 4082), 5).certificate
    assert sum(len(step.site) for step in steps) == 9998448
    ones = "T(" + ",".join(["1"] * 4082) + ")"
    code, out = capture(["reduce", "--p", "5", "--conway", ones])
    assert code == 0 and out.startswith("target = 2\ncircles = 0\nMOVE "), out[:80]
    assert out.count("\n") == 2 + len(steps) + sum(1 for step in steps if step.parts)
    want = (3, "error = the certificate names more than 10000000 characters of site paths\n")
    assert capture(["reduce", "--p", "5", "--conway", ones[:-1] + ",1)"]) == want
    start = time.perf_counter()
    assert capture(["reduce", "--p", "5", "--conway", "T(" + ",".join(["1"] * 40000) + ")"]) == want
    assert time.perf_counter() - start < 20
