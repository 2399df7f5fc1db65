"""Value classes compare and hash with their class, cannot be changed,
print as `Name(field=value, ...)` and keep their validation; the package
exports its names lazily, each from the module that defines it."""

import json
import os
import subprocess
import sys

import pytest
from coset_oracle import CosetTable, Presentation

import tanglelab
from tanglelab import burnside3
from tanglelab.burnside3 import ObstructionReport, obstruction
from tanglelab.coset_enumeration import BraidQuotient
from tanglelab.exact_linear import SubspaceModP
from tanglelab.fox_coloring import ColoringSpace
from tanglelab.move_calculus import HarnessReport, MoveStep, ReductionResult
from tanglelab.symplectic_lagrangian import SymplecticSpace
from tanglelab.tangle_core import (
    INF,
    BraidWord,
    Compose,
    Crossing,
    Frac,
    Infinity,
    Integer,
    Planar,
    Rational,
    Rot,
    Sigma,
    TangleDiagram,
    parse_braid,
    parse_conway,
)
from tanglelab.value import Value

# one instance of every value class
VALUES = (
    Frac(1, 2),
    Crossing(0, 1, 2),
    TangleDiagram(frozenset({0}), (), (0, 0), 0),
    Integer(3),
    Infinity(),
    Rot(Integer(3)),
    Compose(Integer(1), Integer(2)),
    Rational(3),
    Planar(((1, 2), (3, 4))),
    Sigma(3, 1, -1),
    BraidWord(3, (1, -2)),
    SubspaceModP(5, 2, ((1, 0),), (0,)),
    ColoringSpace(3, 9),
    SymplecticSpace(3, 2, ((0, 1), (2, 0))),
    MoveStep(Frac(5, 1), "0", ("entry", 5)),
    ReductionResult(INF, 0, ()),
    HarnessReport(9, 9, None, None, None),
    ObstructionReport("INCONCLUSIVE", (), 3),
    Presentation(1, ((1, 1, 1),)),
    CosetTable(1, ((0, 0),)),
    BraidQuotient(2, 3, 3),
)

# the names `tanglelab/__init__.py` imported eagerly before it became lazy,
# less the Todd-Coxeter ones, which moved to the test oracle
EXPORTED = """INF BraidWord Compose Crossing Frac Infinity Integer Planar Rational
    Rot Sigma TangleDiagram braid_closure cf_eval cf_vector check_crossing_parity
    closure compile_expr compose diagram_to_text parse_braid parse_conway
    parse_diagram_text pretzel print_conway rational_expr rotate slope
    SubspaceModP is_prime kernel_mod_p snf ColoringSpace abf_space boundary_image
    braid_coloring_space coloring_space expr_boundary_image reduced_boundary_image tri virtual_index
    SymplecticSpace build_form enumerate_lagrangians is_lagrangian lagrangian_count
    matching_census realize_lagrangians MoveStep ReductionResult boundary_invariant
    fraction_shift_identities invariance_harness mq_to_fraction reduce_2algebraic
    reduce_rational replay_certificate BurnsideElement consistency_check
    enumerate_group evaluate_word group_order inverse multiply obstruction
    quotient_order BraidQuotient certify_braid_quotient conjugacy_classes""".split()


def test_equality_and_hash_include_the_class():
    # as bare tuples both are ((3,),), and would alias in dicts and caches
    assert Rot(Integer(3)) != Rational(3)
    assert not Rot(Integer(3)) == Rational(3)
    assert hash(Rot(Integer(3))) != hash(Rational(3))
    assert len({Rot(Integer(3)): 0, Rational(3): 1}) == 2
    assert Integer(3) != (3,) and (3,) != Integer(3)
    assert Frac(1, 2) != (1, 2) and not Frac(1, 2) == (1, 2)
    assert Rot(Integer(3)) == parse_conway("r(3)")
    assert hash(Rot(Integer(3))) == hash(parse_conway("r(3)"))
    assert parse_braid("3: 1 -2") == BraidWord(3, (1, -2))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_immutable_true_and_unordered(value):
    assert isinstance(value, Value)
    assert value == type(value)._make(value) and value  # Infinity() is true
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0] if value._fields else "x", None)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(TypeError):
        value < value  # noqa: B015
    # only the report keeps a dict, for its cached quotient
    assert hasattr(value, "__dict__") == isinstance(value, ObstructionReport)


def test_repr_and_defaults():
    assert repr(Frac(1, 0)) == "Frac(num=1, den=0)"
    assert repr(Crossing(0, 1, 2)) == "Crossing(over=0, under_in=1, under_out=2, sign=None)"
    assert Crossing(0, 1, 2).sign is None
    assert repr(parse_conway("(r(1)*T(2,3))")) == (
        "Compose(left=Rot(child=Integer(k=1)), right=Rational(entries=(2, 3)))"
    )
    assert repr(Infinity()) == "Infinity()"
    assert ColoringSpace(3, 9).invariant_factors is None
    assert MoveStep(Frac(5, 1), "0", ("entry", 5)).parts == ()
    assert (BraidQuotient(2, 3, 3).p, BraidQuotient(2, 3, 3).t) == (0, 0)


def test_validation_and_normalization_stay():
    assert Rational([1, "2"]) == Rational(1, 2) == Rational((1, 2))
    assert Rational(1, 2).entries == (1, 2)
    with pytest.raises(ValueError):
        Rational()
    assert Planar([(4, 1), (3, 2)]).pairs == ((1, 4), (2, 3))
    with pytest.raises(ValueError):
        Planar([(1, 3)])
    for args in ((2, 2, 1), (3, 0, 1), (3, 1, 0)):
        with pytest.raises(ValueError):
            Sigma(*args)
    assert BraidWord(3, [1, "-2"]).letters == (1, -2)
    for args in ((0, ()), (3, (3,)), (3, (0,))):
        with pytest.raises(ValueError):
            BraidWord(*args)
    assert Presentation(2, [(1, -1, 2), (2, -2)]).relators == ((2,),)
    with pytest.raises(ValueError):
        Presentation(1, [(2,)])


def test_obstruction_quotient_is_computed_once_on_first_use(monkeypatch):
    calls = []
    real = burnside3.quotient_order

    def counting(images, r):
        calls.append(r)
        return real(images, r)

    monkeypatch.setattr(burnside3, "quotient_order", counting)
    reports = [obstruction(parse_braid("3: 1 2 1 2"), kill=k) for k in (1, 2, 3)]
    assert calls == []
    assert reports[0].quotient == reports[0].quotient
    assert calls == [2]


def test_every_exported_name_imports_from_the_package_in_a_fresh_process():
    assert sorted(tanglelab.__all__) == sorted(EXPORTED)
    code = (
        "import importlib, json, sys\n"
        "import tanglelab\n"
        "for name in json.loads(sys.argv[1]):\n"
        "    ns = {}\n"
        "    exec(f'from tanglelab import {name}', ns)\n"
        "    home = importlib.import_module(f'tanglelab.{tanglelab._MODULE_OF[name]}')\n"
        "    print(name, ns[name] is getattr(home, name))\n"
    )
    src = os.path.dirname(os.path.dirname(tanglelab.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", code, json.dumps(EXPORTED)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    want = "".join(f"{name} True\n" for name in EXPORTED)
    assert (fresh.returncode, fresh.stdout) == (0, want), fresh.stderr
    with pytest.raises(AttributeError):
        tanglelab.no_such_name  # noqa: B018
