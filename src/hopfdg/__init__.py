"""Exact arithmetic on the merge/split algebra of directed graphs.

Graphs combine by disjoint union and split along subsets with no
incoming edge from the outside.  On top of that sit an antipode, a
family of polynomial invariants in the binomial basis, a set function
recording the admissible splits, and an exact max-flow test relating
its polytope to the cone spanned by the edge directions.
"""

from .cones import (Arc, EquivalenceReport, FlowNetwork, FlowResult, SINK,
                    SOURCE, ascent_polytope_points, audit_flow, base_member,
                    build_flow_network, check_cone_polytope_agreement,
                    cone_generators, cone_member, generic_direction_count,
                    max_flow, vertex_sum_count)
from .digraph import (Digraph, EMPTY, disjoint_union, format_graph,
                      parse_graph)
from .errors import (GraphParseError, ResourceLimitError, SizeLimitError,
                     UnboundedFlowError, WorkLimitError)
from .hopf import (BASIC, EDGE, FormalSum, antipode, antipode_masks,
                   basic_char, character_polynomial,
                   character_polynomial_of_sum, edge_char)
from .invariants import (ReciprocityCheck, b_polynomial, brute_strict,
                         brute_weak, check_edge_reciprocity,
                         check_reciprocity, edge_invariant, strict_chromatic,
                         weak_chromatic)
from .rings import BinPoly, Poly, binomial
from .submodular import (ExtBool, INF, Infinity, MorphismCheck,
                         check_low_morphism, direct_sum, lower_half_function)

__version__ = "0.1.0"

__all__ = [
    "Arc", "BASIC", "BinPoly", "Digraph", "EDGE",
    "EMPTY", "EquivalenceReport", "ExtBool", "FlowNetwork", "FlowResult",
    "FormalSum", "GraphParseError", "INF", "Infinity", "MorphismCheck",
    "Poly", "ReciprocityCheck", "ResourceLimitError", "SINK", "SOURCE",
    "SizeLimitError", "UnboundedFlowError", "WorkLimitError",
    "antipode", "antipode_masks", "ascent_polytope_points", "audit_flow",
    "b_polynomial", "base_member", "basic_char", "binomial", "brute_strict",
    "brute_weak", "build_flow_network", "character_polynomial",
    "character_polynomial_of_sum", "check_cone_polytope_agreement",
    "check_edge_reciprocity", "check_low_morphism", "check_reciprocity",
    "cone_generators", "cone_member", "direct_sum", "disjoint_union",
    "edge_char", "edge_invariant", "format_graph", "generic_direction_count",
    "lower_half_function", "max_flow", "parse_graph", "strict_chromatic",
    "vertex_sum_count", "weak_chromatic",
]
