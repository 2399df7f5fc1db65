"""tanglelab: exact computation with tangles and links.

Fox k-coloring spaces and their boundary restrictions, the symplectic
structure on reduced boundary colorings and its Lagrangians, rational
tangle move calculus with replayable certificates, exponent-3 Burnside
group obstructions to 3-move reducibility, and braid quotients whose
Burau image is certified against Coxeter's order formula.

All types are immutable values and all operations are pure functions;
randomized checks and property suites take explicit seeds.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, under the module that defines it.  A name is
# imported on first use (PEP 562), so a command loads only the modules
# it calls into.
_EXPORTS = {
    "tangle_core": """INF BraidWord Compose Crossing Frac Infinity Integer Planar
        Rational Rot Sigma TangleDiagram braid_closure cf_eval cf_vector
        check_crossing_parity closure compile_expr compose diagram_to_text
        parse_braid parse_conway parse_diagram_text pretzel print_conway
        rational_expr rotate slope""",
    "exact_linear": "SubspaceModP is_prime kernel_mod_p snf",
    "fox_coloring": """ColoringSpace abf_space boundary_image braid_coloring_space
        coloring_space expr_boundary_image reduced_boundary_image tri virtual_index""",
    "symplectic_lagrangian": """SymplecticSpace build_form enumerate_lagrangians
        is_lagrangian lagrangian_count matching_census realize_lagrangians""",
    "move_calculus": """MoveStep ReductionResult boundary_invariant
        fraction_shift_identities invariance_harness mq_to_fraction
        reduce_2algebraic reduce_rational replay_certificate""",
    "burnside3": """BurnsideElement consistency_check enumerate_group evaluate_word
        group_order inverse multiply obstruction quotient_order""",
    "coset_enumeration": "BraidQuotient certify_braid_quotient conjugacy_classes",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module 'tanglelab' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"tanglelab.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
