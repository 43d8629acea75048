"""Input is checked once, at the boundary.

Graphs, set functions and Polys the library has already validated are
rebuilt without going back through Digraph(...), ExtBool(...) or
Poly(...), and a set function's operations read only its finite support.  The differential
tests here compare each such build with the checking, dense route it
replaced (oracles in conftest.py), on every digraph with at most 4
vertices and every subset, and on seeded graphs or set functions of 5 to
7 labels.  The error-path tests pin the exception type and message of
every check that stays.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from conftest import (LABELS, all_digraphs, dense_values, oracle_character_polynomial_of_sum,
                      oracle_contract, oracle_coproduct, oracle_direct_sum,
                      oracle_disjoint_union, oracle_is_submodular, oracle_lower_half_function,
                      oracle_relabel, oracle_restrict, random_digraph, tabulate)
from hopfdg import (BASIC, EDGE, INF, SINK, SOURCE, Arc, Digraph, ExtBool, FlowNetwork,
                    FormalSum, antipode, base_member, build_flow_network,
                    character_polynomial_of_sum, check_cone_polytope_agreement,
                    check_low_morphism, cone_member, direct_sum, disjoint_union,
                    lower_half_function)
from hopfdg.cones import membership_flow
from hopfdg.rings import Poly, Q

SMALL = [g for n in range(5) for g in all_digraphs(LABELS[:n])]


def seeded_graphs(seed: int, count: int = 12):
    rng = random.Random(seed)
    return [random_digraph(rng, LABELS[:n]) for n in (5, 6, 7) for _ in range(count)]


def subsets(g: Digraph):
    verts = g.vertices
    return [frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            for mask in range(1 << len(verts))]


def same_graph(got: Digraph, want: Digraph) -> bool:
    return (got == want and hash(got) == hash(want)
            and type(got.vertices) is tuple and type(got.edges) is frozenset)


def test_coproduct_matches_lower_half_check_and_two_restrictions():
    rng = random.Random(83)
    for g in SMALL + seeded_graphs(83):
        subs = subsets(g)
        if len(subs) > 16:
            subs = rng.sample(subs, 16)
        for sub in subs:
            got, want = g.coproduct(sub), oracle_coproduct(g, sub)
            assert (got is None) == (want is None)
            if want is not None:
                assert same_graph(got[0], want[0]) and same_graph(got[1], want[1])


def test_relabel_matches_the_checked_rebuild():
    rng = random.Random(89)
    for g in SMALL + seeded_graphs(89):
        # images interleave with the old labels and come in another order
        images = [f"{lab}{k}" for k, lab in enumerate(reversed(g.vertices))]
        rng.shuffle(images)
        sigma = dict(zip(g.vertices, images))
        assert same_graph(g.relabel(sigma), oracle_relabel(g, sigma))
        assert same_graph(g.relabel(sigma).relabel({v: k for k, v in sigma.items()}), g)


def test_disjoint_union_matches_the_checked_rebuild():
    rng = random.Random(97)
    for g in SMALL + seeded_graphs(97):
        # "a1" sorts between "a" and "b": the two vertex sets interleave
        h = random_digraph(rng, [f"{lab}1" for lab in LABELS[:rng.randint(0, 3)]])
        for left, right in ((g, h), (h, g)):
            assert same_graph(disjoint_union(left, right), oracle_disjoint_union(left, right))


def random_extbool(rng: random.Random, ground) -> ExtBool:
    """Ints, Fractions and INF at random, 0 on the empty set, finite on the full one."""
    def draw():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-5, 5)
        if kind == 1:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return INF
    vals = [0] + [draw() for _ in range((1 << len(ground)) - 1)]
    if len(vals) > 1 and vals[-1] is INF:
        vals[-1] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ExtBool(ground, vals)


def test_direct_sum_matches_the_per_label_loop():
    rng = random.Random(101)
    for _ in range(300):
        labels = list(LABELS[:rng.randint(0, 7)])
        rng.shuffle(labels)
        cut = rng.randint(0, len(labels))
        u = random_extbool(rng, labels[:cut])
        v = random_extbool(rng, labels[cut:])
        got, want = direct_sum(u, v), oracle_direct_sum(u, v)
        assert same_function(got, want)


def same_function(got: ExtBool, want: ExtBool) -> bool:
    return (got == want and hash(got) == hash(want)
            and [type(x) for x in dense_values(got)] == [type(x) for x in dense_values(want)])


def outcome(route, z: ExtBool, sub):
    """route(z, sub), or the type and message of the ValueError it raises."""
    try:
        return route(z, sub)
    except ValueError as exc:
        return type(exc), str(exc)


def same_outcome(route, oracle, z: ExtBool, sub) -> bool:
    """Same function, both None (a zero contraction) or the same error."""
    got, want = outcome(route, z, sub), outcome(oracle, z, sub)
    if isinstance(got, ExtBool) and isinstance(want, ExtBool):
        return same_function(got, want)
    return got == want


def test_cut_function_matches_the_dense_routes_on_small_digraphs():
    for g in SMALL:
        z = lower_half_function(g)
        assert same_function(z, oracle_lower_half_function(g)), g
        assert z.is_submodular() == oracle_is_submodular(z), g
        for sub in subsets(g):
            assert same_outcome(ExtBool.restrict, oracle_restrict, z, sub), (g, sub)
            assert same_outcome(ExtBool.contract, oracle_contract, z, sub), (g, sub)


def shifted_cut_function(rng: random.Random, labels) -> ExtBool:
    """A random graph's cut function plus random int or Fraction weights: submodular."""
    g = random_digraph(rng, labels)
    weight = {v: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 2)))
              for v in labels}
    return tabulate(labels, lambda s: sum(weight[v] for v in s)
                    if g.is_lower_half(s) else INF)


def test_set_function_operations_match_the_dense_routes():
    rng = random.Random(107)
    for k in range(300):
        labels = LABELS[:rng.randint(0, 7)]
        z = random_extbool(rng, labels) if k % 2 else shifted_cut_function(rng, labels)
        assert z.is_submodular() == oracle_is_submodular(z), z
        for _ in range(4):
            sub = frozenset(v for v in labels if rng.random() < 0.5)
            assert same_outcome(ExtBool.restrict, oracle_restrict, z, sub), (z, sub)
            assert same_outcome(ExtBool.contract, oracle_contract, z, sub), (z, sub)


def test_equal_set_functions_built_by_different_routes_hash_equal():
    rng = random.Random(109)
    for _ in range(200):
        labels = LABELS[:rng.randint(0, 6)]
        z = random_extbool(rng, labels)
        s = frozenset(v for v in labels if rng.random() < 0.4)
        t = frozenset(v for v in labels if v not in s and rng.random() < 0.5)
        if z.value(s | t) is not INF and z.value(s) is not INF:
            assert len({z.restrict(s | t).restrict(s), z.restrict(s)}) == 1
    for _ in range(40):
        g = random_digraph(rng, "abc")
        h = random_digraph(rng, "xy")
        merged = direct_sum(lower_half_function(g), lower_half_function(h))
        assert len({merged, lower_half_function(disjoint_union(g, h))}) == 1


def formal_sums(g: Digraph, rng: random.Random):
    """The antipode of g, and a random combination of spanning subgraphs of g."""
    yield antipode(g)
    edges = g.edge_list
    pairs = []
    for _ in range(rng.randint(0, 4)):
        kept = [e for e in edges if rng.random() < 0.5]
        pairs.append((Digraph(g.vertices, kept), rng.randint(-3, 3)))
    yield FormalSum.of(g.vertices, pairs)


@pytest.mark.parametrize("character", [EDGE, BASIC], ids=["edge", "basic"])
def test_character_polynomial_of_sum_matches_the_per_term_sum(character):
    rng = random.Random(103)
    for g in SMALL + seeded_graphs(103, 4):
        for s in formal_sums(g, rng):
            got = character_polynomial_of_sum(s, character)
            want = oracle_character_polynomial_of_sum(s, character)
            assert got == want
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
            assert got.binomial_str() == want.binomial_str()


def random_poly(rng: random.Random) -> Poly:
    """Up to four terms of degree at most 2 per variable, small coefficients."""
    return Poly({(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                 for _ in range(rng.randint(0, 4))})


def checked(p: Poly) -> Poly:
    """p, and its terms rebuilt through Poly(...), which checks each one."""
    assert all(p.terms.values()), p.terms
    assert p == Poly(dict(p.terms)) and list(p.terms) == list(Poly(dict(p.terms)).terms)
    return p


def test_poly_arithmetic_matches_the_checked_rebuild():
    rng = random.Random(113)
    # cancelling cases: p + (-p), p * 0 and (Q + 1) * (Q - 1)
    assert checked(Q + (-Q)) == 0 and checked(Q * 0) == 0
    assert checked((Q + 1) * (Q - 1)) == Q ** 2 - 1
    for _ in range(300):
        a, b = random_poly(rng), random_poly(rng)
        for p in (a + b, b + a, -a, a - b, a + (-a), a * b, a * 0, a * -1, 3 - a,
                  (a + 1) * (a - 1), a ** rng.randint(0, 3)):
            checked(p)


# ------------------------------------------------------------ error paths

def raises_exactly(exc_type, message, fn, *args):
    with pytest.raises(exc_type, match=re.escape(message)) as info:
        fn(*args)
    assert type(info.value) is exc_type and str(info.value) == message


LABEL_RULE = "vertex labels must be non-empty strings without whitespace, '#' or '->'"


@pytest.mark.parametrize("image, message", [
    (5, "labels must be non-empty strings, got 5"),
    ("", "labels must be non-empty strings, got ''"),
    ("x y", f"{LABEL_RULE}, got 'x y'"),
    ("x\ty", f"{LABEL_RULE}, got 'x\\ty'"),
    ("x#", f"{LABEL_RULE}, got 'x#'"),
    ("x->y", f"{LABEL_RULE}, got 'x->y'"),
])
def test_relabel_onto_a_bad_label(g3, image, message):
    raises_exactly(ValueError, message, g3.relabel, {"0": "p", "1": image, "2": "r"})


def test_relabel_reports_the_first_bad_label_in_sorted_order(g3):
    raises_exactly(ValueError, f"{LABEL_RULE}, got 'b c'",
                   g3.relabel, {"0": "z#", "1": "b c", "2": "r"})


@pytest.mark.parametrize("edge, message", [
    ("ab", "edge 'ab' is not a (tail, head) pair"),
    (frozenset("ab"), f"edge {frozenset('ab')!r} is not a (tail, head) pair"),
    (1, "edge 1 is not a (tail, head) pair"),
    (("a", "b", "a"), "edge ('a', 'b', 'a') is not a (tail, head) pair"),
    (("a", "x"), "edge ('a', 'x') mentions an unknown vertex"),
    (["a", "a"], "loop at 'a' not allowed"),
])
def test_digraph_edges_must_be_pairs_of_distinct_vertices(edge, message):
    raises_exactly(ValueError, message, Digraph, ["a", "b"], [edge])


def test_digraph_takes_tuple_and_list_pairs():
    assert Digraph(["a", "b"], [["a", "b"]]) == Digraph(["a", "b"], [("a", "b")])


def test_relabel_map_must_be_injective_and_total(g3):
    raises_exactly(ValueError, "relabel map is not injective on the vertices",
                   g3.relabel, {"0": "p", "1": "p", "2": "r"})
    raises_exactly(ValueError, "relabel map misses vertices ['1']",
                   g3.relabel, {"0": "p", "2": "r"})


def test_splits_reject_non_vertices(g3):
    raises_exactly(ValueError, "subset contains non-vertices ['q']", g3.coproduct, {"0", "q"})
    raises_exactly(ValueError, "subset contains non-vertices ['p', 'q']",
                   g3.coproduct, ["q", "p"])
    raises_exactly(ValueError, "restriction set contains non-vertices ['q']",
                   g3.restrict, {"q"})


def test_disjoint_union_rejects_overlap(g3):
    raises_exactly(ValueError, "vertex sets overlap on ['0', '2']",
                   disjoint_union, g3, Digraph(("2", "0", "x")))


@pytest.mark.parametrize("values, message", [
    ((0, 0.5), "values must be ints, Fractions or INF, got 0.5"),
    ((1, 0), "value on the empty set must be 0, got 1"),
    ((Fraction(1, 2), 0), "value on the empty set must be 0, got Fraction(1, 2)"),
    ((0, INF), "value on the full ground set must be finite"),
])
def test_extbool_constructor_still_checks_every_value(values, message):
    raises_exactly(ValueError, message, ExtBool, ("a",), values)


def test_restriction_to_an_infinite_subset_is_refused():
    z = ExtBool(("a", "b"), (0, INF, 1, 2))
    raises_exactly(ValueError, "value on the full ground set must be finite", z.restrict, {"a"})


# an unhashable element or a mix of types gets the message a non-vertex or
# non-label already gets, not a TypeError from hashing or sorting it

@pytest.mark.parametrize("edge", [(["a"], "b"), ("a", ["b"]), ["a", {"b": 1}]])
def test_digraph_edge_with_an_unhashable_end(edge):
    raises_exactly(ValueError, f"edge {edge!r} mentions an unknown vertex",
                   Digraph, ["a", "b"], [edge])


@pytest.mark.parametrize("subset, listed", [
    ([["0"]], "[['0']]"),
    (["0", ["1"], "q"], "[['1'], 'q']"),
    ({"q", 5}, "[5, 'q']"),
    (["0", 5, "q"], "[5, 'q']"),
])
def test_splits_reject_unhashable_and_mixed_non_vertices(g3, subset, listed):
    raises_exactly(ValueError, f"subset contains non-vertices {listed}", g3.coproduct, subset)
    raises_exactly(ValueError, f"subset contains non-vertices {listed}", g3.is_lower_half, subset)
    raises_exactly(ValueError, f"restriction set contains non-vertices {listed}",
                   g3.restrict, subset)
    raises_exactly(ValueError, f"restriction set contains non-vertices {listed}",
                   check_low_morphism, g3, [subset])


def test_relabel_onto_an_unhashable_label(g3):
    raises_exactly(ValueError, "labels must be non-empty strings, got ['q']",
                   g3.relabel, {"0": "p", "1": ["q"], "2": "r"})


def test_composition_minor_with_an_unhashable_member(g3):
    raises_exactly(ValueError, "composition blocks must cover the vertex set",
                   g3.composition_minor, [["0", ["1"]], ["2"]])


@pytest.mark.parametrize("route", [ExtBool.value, ExtBool.contract])
def test_set_function_labels_that_are_unhashable(g3, route):
    z = lower_half_function(g3)
    raises_exactly(ValueError, "['0'] is not in the ground set", route, z, [["0"]])
    raises_exactly(ValueError, "'q' is not in the ground set", route, z, ["q"])


# a vector entry is an int or a Fraction, as an Arc's capacity and a set
# function's value are: no float, no string parsed (exponent notation
# included) and no TypeError or OverflowError from Fraction(...)

@pytest.mark.parametrize("entry", [None, [1], {"x": 1}, float("inf"), 0.5, "1/2", "-1e3"])
def test_cone_vectors_take_only_exact_numbers(g3, entry):
    x = {"0": 1, "1": entry, "2": Fraction(-1, 2)}
    message = f"vector entry at '1' must be an int or a Fraction, got {entry!r}"
    for route in (cone_member, membership_flow, build_flow_network):
        raises_exactly(ValueError, message, route, g3, x)
    raises_exactly(ValueError, message, base_member, lower_half_function(g3), x)


@pytest.mark.parametrize("nodes, arcs, message", [
    ((SOURCE, SINK, ["a"]), (),
     "nodes must be a collection of hashable objects, got (source, sink, ['a'])"),
    ((SOURCE, SINK, "a"), (Arc(SOURCE, ["a"], 1),),
     "arc Arc(tail=source, head=['a'], capacity=1) leaves the node set"),
    ((SOURCE, SINK, "a"), (Arc({"a": 1}, SINK, 1),),
     "arc Arc(tail={'a': 1}, head=sink, capacity=1) leaves the node set"),
])
def test_flow_networks_with_unhashable_nodes(nodes, arcs, message):
    raises_exactly(ValueError, message, FlowNetwork, nodes, arcs)


def test_flow_network_with_an_unhashable_terminal():
    raises_exactly(ValueError, "source and sink must be nodes",
                   FlowNetwork, (SOURCE, SINK), (), ["s"])


@pytest.mark.parametrize("samples", ["3", 2.5, 3.0, None])
def test_agreement_takes_only_an_int_sample_count(g3, samples):
    raises_exactly(ValueError, f"need an int samples, got {samples!r}",
                   lambda: check_cone_polytope_agreement(g3, samples=samples))


# a flow network's arcs are a collection of Arcs, and a vector is a mapping

@pytest.mark.parametrize("arcs, message", [
    ((5,), "arc 5 is not an Arc"),
    ([("source", "sink", 1)], "arc ('source', 'sink', 1) is not an Arc"),
    (None, "arcs must be a collection of Arcs, got None"),
    (5, "arcs must be a collection of Arcs, got 5"),
    ("ab", "arc 'a' is not an Arc"),
])
def test_flow_network_arcs_must_be_arcs(arcs, message):
    raises_exactly(ValueError, message, FlowNetwork, (SOURCE, SINK, "a", "b"), arcs)


@pytest.mark.parametrize("x", [None, ["0", "1", "2"], "012", 5])
def test_cone_vectors_must_be_mappings(g3, x):
    message = f"vector must be a mapping from labels to numbers, got {x!r}"
    for route in (cone_member, membership_flow, build_flow_network):
        raises_exactly(ValueError, message, route, g3, x)
    raises_exactly(ValueError, message, base_member, lower_half_function(g3), x)
