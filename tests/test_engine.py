"""The composition-sum engine against the algorithms it replaced.

The oracles in conftest are the earlier submask DPs over remaining sets
and the k^n walk over colorings; they share no code with hopfdg._engine.
"""

import random

import pytest

from conftest import (all_digraphs, oracle_character_sum, oracle_chain_stats,
                      oracle_is_lower_half, oracle_surjection_walk,
                      oracle_takeuchi_terms, random_digraph)
from hopfdg import (Character, Digraph, SizeLimitError, character_polynomial,
                    kernels)
from hopfdg._engine import _fold, _lower_halves
from hopfdg.rings import Q, Y, Z


def source_count(g: Digraph) -> int:
    heads = {v for _, v in g.edges}
    return sum(1 for v in g.vertices if v not in heads)


def ring_value(g: Digraph):
    """A polynomial-valued graph function that is not a function of the edge count."""
    return Q ** len(g.edges) * Y ** len(g.vertices) + source_count(g) * Z - 1


def int_value(g: Digraph) -> int:
    """The same in the integers, cheap enough for the exhaustive sweep."""
    return 3 ** len(g.edges) * 2 ** len(g.vertices) + 5 * source_count(g) - 7


def block_values(g: Digraph, value):
    """value on the subgraph induced by a vertex mask, computed once per mask."""
    nv, verts, cache = len(g.vertices), g.vertices, {}

    def block_value(mask):
        if mask not in cache:
            cache[mask] = value(g.restrict(verts[i] for i in range(nv) if mask >> i & 1))
        return cache[mask]
    return block_value


def assert_engine_matches_oracles(g: Digraph, value) -> None:
    nv, tails, heads = g.edge_arrays()
    assert kernels.chain_stats(nv, tails, heads) == oracle_chain_stats(nv, tails, heads)
    assert kernels.takeuchi_terms(nv, tails, heads) == oracle_takeuchi_terms(nv, tails, heads)
    assert kernels.surjection_stats(nv, tails, heads) == oracle_surjection_walk(nv, tails, heads)
    block_value = block_values(g, value)
    got = kernels.character_sum(nv, tails, heads, block_value)
    assert got == oracle_character_sum(nv, tails, heads, block_value)


def test_engine_matches_oracles_on_every_small_digraph():
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            assert_engine_matches_oracles(g, int_value if len(labels) == 4 else ring_value)


@pytest.mark.parametrize("n,count", ((5, 12), (6, 6), (7, 2)))
def test_engine_matches_oracles_on_random_digraphs(n, count):
    rng = random.Random(100 + n)
    for _ in range(count):
        g = random_digraph(rng, "abcdefg"[:n], p=rng.choice([0.1, 0.25, 0.4, 0.7]))
        assert_engine_matches_oracles(g, ring_value)


def test_ring_valued_character_without_edge_count_rule():
    ring = Character("ring", ring_value)
    rng = random.Random(41)
    for _ in range(10):
        g = random_digraph(rng, "abcde")
        nv, tails, heads = g.edge_arrays()
        want = oracle_character_sum(nv, tails, heads, block_values(g, ring_value))
        poly = character_polynomial(g, ring)
        assert [poly.coefficient(k) for k in range(nv + 1)] \
            == [want.get(k, 0) for k in range(nv + 1)]


def seeded_six_vertex_digraphs():
    rng = random.Random(3)
    return [random_digraph(rng, "abcdef", p=rng.choice([0.1, 0.3, 0.6])) for _ in range(30)]


def test_lower_half_scan_matches_definition():
    graphs = [g for labels in ("", "a", "ab", "abc", "abcd") for g in all_digraphs(labels)]
    for g in graphs + seeded_six_vertex_digraphs():
        nv, tails, heads = g.edge_arrays()
        want = [mask for mask in range(1 << nv) if oracle_is_lower_half(
            g, (g.vertices[i] for i in range(nv) if mask >> i & 1))]
        assert _lower_halves(nv, tails, heads) == want
        assert kernels.lower_half_masks(nv, tails, heads) == want


def test_lower_half_scan_has_no_kernel_bound():
    # a path on 17 vertices, past the sums' bound: its lower halves are the prefixes
    nv = 17
    halves = kernels.lower_half_masks(nv, list(range(nv - 1)), list(range(1, nv)))
    assert halves == [(1 << j) - 1 for j in range(nv + 1)]


def test_fold_steps_once_per_nested_pair_of_lower_halves():
    for g in seeded_six_vertex_digraphs():
        nv, tails, heads = g.edge_arrays()
        halves = _lower_halves(nv, tails, heads)
        seen = []
        _fold(nv, halves, lambda target, source, low, block: seen.append((low, block)))
        want = sorted((low, high ^ low) for low in halves for high in halves
                      if low != high and not low & ~high)
        assert sorted(seen) == want


def test_engine_refuses_more_than_sixteen_vertices():
    tails, heads = list(range(16)), [16] * 16
    for fn in (kernels.chain_stats, kernels.takeuchi_terms, kernels.surjection_stats):
        with pytest.raises(SizeLimitError):
            fn(17, tails, heads)
    with pytest.raises(SizeLimitError):
        kernels.character_sum(17, tails, heads, lambda mask: 1)
