"""tanglelab: exact computation with tangles and links.

Fox k-coloring spaces and their boundary restrictions, the symplectic
structure on reduced boundary colorings and its Lagrangians, rational
tangle move calculus with replayable certificates, exponent-3 Burnside
group obstructions to 3-move reducibility, and braid quotients certified
by Todd-Coxeter coset enumeration and the Burau representation.

All types are immutable values and all operations are pure functions;
randomized checks and property suites take explicit seeds.
"""

from .tangle_core import (
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
    braid_closure,
    cf_eval,
    cf_vector,
    check_crossing_parity,
    closure,
    compile_expr,
    compose,
    diagram_to_text,
    parse_braid,
    parse_conway,
    parse_diagram_text,
    pretzel,
    print_conway,
    rational_expr,
    rotate,
    slope,
)
from .exact_linear import (
    SubspaceModP,
    is_prime,
    kernel_mod_p,
    snf,
)
from .fox_coloring import (
    ColoringSpace,
    abf_space,
    boundary_image,
    coloring_space,
    expr_boundary_image,
    reduced_boundary_image,
    tri,
    virtual_index,
)
from .symplectic_lagrangian import (
    SymplecticSpace,
    build_form,
    enumerate_lagrangians,
    is_lagrangian,
    lagrangian_count,
    matching_census,
    realize_lagrangians,
)
from .move_calculus import (
    MoveStep,
    ReductionResult,
    boundary_invariant,
    fraction_shift_identities,
    invariance_harness,
    mq_to_fraction,
    reduce_2algebraic,
    reduce_rational,
    replay_certificate,
)
from .burnside3 import (
    BurnsideElement,
    consistency_check,
    enumerate_group,
    evaluate_word,
    group_order,
    inverse,
    multiply,
    obstruction,
    quotient_order,
)
from .coset_enumeration import (
    BraidQuotient,
    CosetTable,
    Presentation,
    braid_presentation,
    certify_braid_quotient,
    conjugacy_classes,
    enumerate_cosets,
    word_equal,
)

__version__ = "0.1.0"
