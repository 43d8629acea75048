import random

import pytest

from conftest import (all_digraphs, compositions, lower_halves,
                      oracle_is_lower_half, random_digraph)
from hopfdg import (Digraph, EMPTY, GraphParseError, disjoint_union,
                    format_graph, parse_graph)


def test_canonical_form(g3):
    same = Digraph(("2", "1", "0"), (("0", "2"), ("0", "1"), ("1", "2")))
    assert same == g3
    assert g3.vertices == ("0", "1", "2")
    assert g3.edge_list == (("0", "1"), ("0", "2"), ("1", "2"))


def test_bad_construction():
    with pytest.raises(ValueError):
        Digraph(("a",), (("a", "a"),))
    with pytest.raises(ValueError):
        Digraph(("a",), (("a", "b"),))
    with pytest.raises(ValueError):
        Digraph(("a b",))
    with pytest.raises(ValueError):
        Digraph(("",))
    with pytest.raises(ValueError):
        Digraph(("x->y",))


def test_edge_arrays(g3):
    nv, tails, heads = g3.edge_arrays()
    assert nv == 3
    assert tails == [0, 0, 1]
    assert heads == [1, 2, 2]


def test_relabel_roundtrip(g3):
    sigma = {"0": "x", "1": "y", "2": "z"}
    back = {v: k for k, v in sigma.items()}
    assert g3.relabel(sigma).relabel(back) == g3
    with pytest.raises(ValueError):
        g3.relabel({"0": "x", "1": "x", "2": "z"})
    with pytest.raises(ValueError):
        g3.relabel({"0": "x"})


def test_restrict(g3):
    sub = g3.restrict({"0", "2"})
    assert sub.vertices == ("0", "2")
    assert sub.edge_list == (("0", "2"),)
    with pytest.raises(ValueError):
        g3.restrict({"0", "q"})


def test_lower_halves_match_definition():
    rng = random.Random(11)
    for _ in range(40):
        g = random_digraph(rng, "abcde"[: rng.randint(0, 5)])
        halves = set(lower_halves(g))
        expect = set()
        verts = g.vertices
        for mask in range(1 << len(verts)):
            sub = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
            if oracle_is_lower_half(g, sub):
                expect.add(sub)
        assert halves == expect
        for sub in expect:
            assert g.is_lower_half(sub)


def test_coproduct_splits_or_rejects(g3):
    assert g3.coproduct({"0"}) == (g3.restrict({"0"}), g3.restrict({"1", "2"}))
    assert g3.coproduct({"1"}) is None  # edge 0->1 comes in from outside
    assert g3.coproduct(()) == (EMPTY, g3)
    assert g3.coproduct({"0", "1", "2"}) == (g3, EMPTY)


def test_composition_minor(g3):
    minor = g3.composition_minor([{"0"}, {"1", "2"}])
    assert minor == Digraph(("0", "1", "2"), (("1", "2"),))
    assert g3.composition_minor([{"1", "2"}, {"0"}]) is None
    with pytest.raises(ValueError):
        g3.composition_minor([{"0"}, {"1"}])
    with pytest.raises(ValueError):
        g3.composition_minor([{"0", "1"}, {"1", "2"}])
    with pytest.raises(ValueError):
        g3.composition_minor([{"0"}, set(), {"1", "2"}])


def test_is_acyclic():
    assert Digraph(("a", "b"), (("a", "b"),)).is_acyclic()
    assert not Digraph(("a", "b"), (("a", "b"), ("b", "a"))).is_acyclic()
    cycle = Digraph("abc", (("a", "b"), ("b", "c"), ("c", "a")))
    assert not cycle.is_acyclic()
    assert EMPTY.is_acyclic()
    for g in all_digraphs("abc"):
        # a graph is acyclic iff it admits a strict coloring with n colors
        brute = any(
            all(c[u] < c[v] for u, v in g.edges)
            for c in ({"a": i, "b": j, "c": k}
                      for i in range(3) for j in range(3) for k in range(3)))
        assert g.is_acyclic() == brute


def test_disjoint_union(g3):
    h = Digraph(("x", "y"), (("x", "y"),))
    u = disjoint_union(g3, h)
    assert set(u.vertices) == {"0", "1", "2", "x", "y"}
    assert len(u.edges) == 4
    with pytest.raises(ValueError):
        disjoint_union(g3, g3)


GOOD_TEXT = """\
# a three vertex example
vertices: 0 1 2

0 -> 1
1 -> 2   # chained
0 -> 2
"""


def test_parse_graph_roundtrip(g3):
    g = parse_graph(GOOD_TEXT)
    assert g == g3
    assert parse_graph(format_graph(g)) == g
    assert format_graph(g) == "vertices: 0 1 2\n0 -> 1\n0 -> 2\n1 -> 2\n"


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "vertices"),
    ("0 -> 1\n", 1, "vertices"),
    ("vertices: a a\n", 1, "column 13: duplicate vertex"),
    ("vertices: ab b b\n", 1, "column 16: duplicate vertex 'b'"),
    ("  vertices:a\tb  a # a\n", 1, "column 17: duplicate vertex 'a'"),
    ("vertices: a b\na - b\n", 2, "expected"),
    ("vertices: a b\na -> c\n", 2, "unknown vertex"),
    ("vertices: a b\nc -> a\n", 2, "unknown vertex"),
    ("vertices: a b\na -> a\n", 2, "loop"),
    ("vertices: a b\na -> b\na -> b\n", 3, "duplicate edge"),
    ("vertices: a b\na -> b -> a\n", 2, "expected"),
    ("vertices: a b\na b -> a\n", 2, "expected"),
    ("# c\n\nvertices: a->b c\n", 3, "column 11: vertex labels must be non-empty strings "
                                    "without whitespace, '#' or '->', got 'a->b'"),
])
def test_parse_graph_errors(text, line, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_parse_error_reports_column():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertices: a b\na -> q\n")
    assert err.value.column == 6
    assert str(err.value).startswith("line 2, column 6:")


def test_restriction_composes():
    rng = random.Random(83)
    for _ in range(30):
        g = random_digraph(rng, "abcde")
        big = frozenset(v for v in g.vertices if rng.random() < 0.7)
        small = frozenset(v for v in big if rng.random() < 0.5)
        assert g.restrict(big).restrict(small) == g.restrict(small)


def test_relabel_commutes_with_restrict():
    rng = random.Random(89)
    for _ in range(30):
        g = random_digraph(rng, "abcde")
        sigma = {v: v.upper() for v in g.vertices}
        sub = frozenset(v for v in g.vertices if rng.random() < 0.6)
        left = g.restrict(sub).relabel({v: sigma[v] for v in sub})
        right = g.relabel(sigma).restrict({sigma[v] for v in sub})
        assert left == right


def test_lower_halves_closed_under_union_and_intersection():
    rng = random.Random(97)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        halves = lower_halves(g)
        for a in halves:
            for b in halves:
                assert g.is_lower_half(a | b)
                assert g.is_lower_half(a & b)


def test_composition_minor_matches_iterated_splits():
    # peeling blocks off the front with binary splits succeeds exactly when
    # the composition minor exists, and yields the same graph
    rng = random.Random(101)
    for _ in range(40):
        g = random_digraph(rng, "abcd")
        k = rng.randint(1, len(g.vertices))
        blocks = rng.choice(list(compositions(g.vertices, k)))
        minor = g.composition_minor(blocks)

        parts = []
        rest = g
        for block in blocks[:-1]:
            split = rest.coproduct(block)
            if split is None:
                parts = None
                break
            parts.append(split[0])
            rest = split[1]
        if parts is None:
            assert minor is None
            continue
        parts.append(rest)
        rebuilt = EMPTY
        for part in parts:
            rebuilt = disjoint_union(rebuilt, part)
        assert minor == rebuilt
