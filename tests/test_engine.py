"""The composition-sum engine against the algorithms it replaced.

The oracles in conftest are the earlier submask DPs over remaining sets,
the k^n walk over colorings and the 2^n scan for the lower halves; they
share no code with hopfdg._engine.
"""

import math
import random
import tracemalloc

import pytest

from conftest import (all_digraphs, coefficient, count_halves_taken, oracle_antipode_output,
                      oracle_antipode_terms, oracle_character_sum, oracle_chain_stats,
                      oracle_edge_tables, oracle_is_lower_half, oracle_lower_halves,
                      oracle_surjection_walk, oracle_takeuchi_terms, random_digraph)
from hopfdg import (EDGE, BinPoly, Digraph, WorkLimitError, antipode,
                    b_polynomial, character_polynomial, disjoint_union, kernels,
                    strict_chromatic)
from hopfdg import _engine, limits
from hopfdg._engine import _Meter, _down_sets, _edge_masks, _fold
from hopfdg.cli import main
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


def seeded_disjoint_unions() -> list[Digraph]:
    """Disconnected digraphs of up to 7 vertices: isolated vertices, disjoint
    edges, and two random parts on interleaved labels."""
    graphs = [Digraph("abcdefg"[:n]) for n in range(2, 8)]
    graphs += [Digraph("abcdefg"[:n], [("a", "b"), ("d", "c"), ("e", "f"), ("f", "e")][:n // 2])
               for n in range(4, 8)]
    rng = random.Random(57)
    for _ in range(30):
        labels = list("abcdefg"[:rng.randint(2, 7)])
        rng.shuffle(labels)
        cut = rng.randint(1, len(labels) - 1)
        graphs.append(disjoint_union(
            random_digraph(rng, labels[:cut], p=rng.choice([0.3, 0.6, 0.9])),
            random_digraph(rng, labels[cut:], p=rng.choice([0.3, 0.6, 0.9]))))
    return graphs


def test_factored_route_matches_oracles_on_disjoint_unions():
    for g in seeded_disjoint_unions():
        nv, tails, heads = g.edge_arrays()
        assert len(_engine._components(nv, set(_down_sets(nv, tails, heads)))) > 1
        assert_engine_matches_oracles(g, ring_value)


def test_components_are_the_weakly_connected_ones():
    for g in [*all_digraphs("abcd"), *seeded_disjoint_unions()]:
        nv, tails, heads = g.edge_arrays()
        owner = list(range(nv))   # a label per vertex, joined along each edge
        for _ in range(nv):
            for t, h in zip(tails, heads):
                owner[t] = owner[h] = min(owner[t], owner[h])
        want = {sum(1 << v for v in range(nv) if owner[v] == o) for o in set(owner)}
        got = _engine._components(nv, set(_down_sets(nv, tails, heads)))
        assert sorted(got) == sorted(want) and len(got) == len(want)


def test_factored_route_matches_the_single_fold(monkeypatch):
    graphs = [g for labels in ("", "a", "ab", "abc", "abcd") for g in all_digraphs(labels)]
    graphs += seeded_disjoint_unions()
    sums = (kernels.chain_stats, kernels.takeuchi_terms, kernels.surjection_stats)
    factored = [[fn(*g.edge_arrays()) for fn in sums] for g in graphs]
    # every graph as one component: the whole lattice in one fold
    monkeypatch.setattr(_engine, "_components", lambda nv, downs: [(1 << nv) - 1] if nv else [])
    assert [[fn(*g.edge_arrays()) for fn in sums] for g in graphs] == factored
    # the vertex set of a disconnected graph is then a block like any other,
    # searched and never pushed
    for g in graphs:
        assert_pushes_are_weakly_connected(monkeypatch, g)


def test_ring_valued_character_without_edge_count_rule():
    rng = random.Random(41)
    for _ in range(10):
        g = random_digraph(rng, "abcde")
        nv, tails, heads = g.edge_arrays()
        want = oracle_character_sum(nv, tails, heads, block_values(g, ring_value))
        poly = character_polynomial(g, ring_value)
        assert [coefficient(poly, k) for k in range(nv + 1)] \
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
        assert oracle_lower_halves(nv, tails, heads) == want
        assert kernels.lower_half_masks(nv, tails, heads) == want


def test_lower_half_scan_has_no_kernel_bound():
    # a path on 17 vertices, past any vertex cap: its lower halves are the prefixes
    nv = 17
    halves = kernels.lower_half_masks(nv, list(range(nv - 1)), list(range(1, nv)))
    assert halves == [(1 << j) - 1 for j in range(nv + 1)]


def test_lower_half_walk_matches_the_scan():
    rng = random.Random(29)
    graphs = [g.edge_arrays() for labels in ("", "a", "ab", "abc", "abcd")
              for g in all_digraphs(labels)]
    graphs += [random_digraph(rng, "abcdefg"[:n], p).edge_arrays() for n in (5, 6, 7)
               for p in (0.1, 0.2, 0.35, 0.5, 0.7) for _ in range(4)]
    # no vertices; the 17-vertex path; a 3-cycle beside a path of 4 vertices;
    # a path into a 2-cycle
    graphs += [(0, [], []), (17, list(range(16)), list(range(1, 17))),
               (7, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 6]), (4, [0, 1, 2, 3], [1, 2, 3, 2])]
    for nv, tails, heads in graphs:
        assert kernels.lower_half_masks(nv, tails, heads) == oracle_lower_halves(nv, tails, heads)


def test_down_sets_are_the_vertices_with_a_path_in():
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            nv, tails, heads = g.edge_arrays()
            reach = [{v} for v in range(nv)]   # reach[v]: the vertices with a path to v
            for _ in range(nv):
                for t, h in zip(tails, heads):
                    reach[h] |= reach[t]
            assert _down_sets(nv, tails, heads) == [sum(1 << u for u in r) for r in reach]


def test_fold_steps_once_per_nested_pair_of_lower_halves(monkeypatch):
    monkeypatch.setenv("HOPFDG_MAX_WORK", str(10 ** 9))
    for g in seeded_six_vertex_digraphs():
        nv, tails, heads = g.edge_arrays()
        halves = kernels.lower_half_masks(nv, tails, heads)
        seen = []

        def push(acc, source, low, highs):
            for high in highs:
                seen.append((low, high ^ low))
                acc.setdefault(high, {})

        _fold((1 << nv) - 1, halves, push, _Meter(nv))
        want = sorted((low, high ^ low) for low in halves for high in halves
                      if low != high and not low & ~high)
        assert sorted(seen) == want


def test_edge_masks_match_the_dense_tables():
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            nv, tails, heads = g.edge_arrays()
            inside, into = oracle_edge_tables(nv, tails, heads)
            out, got_into = _edge_masks(nv, tails, heads, range(1 << nv))
            for s in range(1 << nv):
                assert out[s] & got_into[s] == inside[s]
                assert got_into[s] == into[s]
            # the lattice sums build masks on the lower halves alone
            halves = kernels.lower_half_masks(nv, tails, heads)
            out, got_into = _edge_masks(nv, tails, heads, halves)
            for low in halves:
                for high in halves:
                    if not low & ~high:
                        kept = (out[high] ^ out[low]) & (got_into[high] ^ got_into[low])
                        assert kept == inside[high ^ low]


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_sums_allocate_nothing_per_subset(monkeypatch):
    # a 20-vertex directed cycle has 2 lower halves and a transitive
    # tournament 21; a table over the 2^20 subsets would take tens of MB
    nv = 20
    cycle = (nv, list(range(nv)), [(v + 1) % nv for v in range(nv)])
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    order = (nv, [i for i, _ in pairs], [j for _, j in pairs])
    limit = 1 << 20
    for fn, args in ((kernels.chain_stats, cycle), (kernels.takeuchi_terms, cycle),
                     (kernels.character_sum, (*cycle, lambda mask: 1)),
                     (kernels.chain_stats, order)):
        assert peak_bytes(fn, *args) < limit
    received = []

    def recorded(nv, tails, heads, states):
        received.append(list(states))
        return _edge_masks(nv, tails, heads, received[-1])

    monkeypatch.setattr(_engine, "_edge_masks", recorded)
    kernels.chain_stats(*cycle)
    kernels.takeuchi_terms(*cycle)
    kernels.chain_stats(*order)
    assert received == [kernels.lower_half_masks(*args) for args in (cycle, cycle, order)]


def charged_work(monkeypatch, fn, *args) -> int:
    """The work fn charged to the meter: the count of the one meter it ran."""
    meters = []

    class Recorded(_Meter):
        def __init__(self, nv):
            super().__init__(nv)
            meters.append(self)

    with monkeypatch.context() as patch:
        patch.setenv("HOPFDG_MAX_WORK", str(10 ** 12))
        patch.setattr(_engine, "_Meter", Recorded)
        fn(*args)
    assert len(meters) == 1
    return meters[0].count


def assert_the_meter_is_exact(monkeypatch, g: Digraph) -> None:
    """Each sum answers at a budget of the work it charged, and refuses at one less."""
    nv, tails, heads = g.edge_arrays()

    def block_value(mask):
        return 3 * mask - 1

    sums = ((kernels.chain_stats, (), oracle_chain_stats),
            (kernels.takeuchi_terms, (), oracle_takeuchi_terms),
            (kernels.character_sum, (block_value,), oracle_character_sum),
            (kernels.surjection_stats, (), oracle_surjection_walk))
    for fn, extra, oracle in sums:
        args = (nv, tails, heads, *extra)
        work = charged_work(monkeypatch, fn, *args)
        monkeypatch.setenv("HOPFDG_MAX_WORK", str(work))
        assert fn(*args) == oracle(*args), (fn.__name__, g)
        monkeypatch.setenv("HOPFDG_MAX_WORK", str(work - 1))
        # no budget lies below 0: a sum that charged nothing has no refusal
        with pytest.raises(WorkLimitError if work else ValueError):
            fn(*args)


def test_the_meter_is_exact_on_every_small_digraph(monkeypatch):
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            assert_the_meter_is_exact(monkeypatch, g)


@pytest.mark.parametrize("n,count", ((5, 12), (6, 6), (7, 2)))
def test_the_meter_is_exact_on_random_digraphs(monkeypatch, n, count):
    rng = random.Random(200 + n)
    for _ in range(count):
        assert_the_meter_is_exact(
            monkeypatch, random_digraph(rng, "abcdefg"[:n], p=rng.choice([0.1, 0.3, 0.6])))


def test_the_meter_is_exact_on_disjoint_unions(monkeypatch):
    for g in seeded_disjoint_unions():
        assert_the_meter_is_exact(monkeypatch, g)


def test_every_component_folds_once_isolated_vertices_too(monkeypatch):
    # an isolated vertex is a component like any other: an edge and j
    # isolated vertices fold j + 1 times and chain_stats merges j times;
    # connected graphs fold once and merge nothing
    folds, merges = [], []
    real_fold, real_merge = _engine._fold, _engine._merge
    monkeypatch.setattr(_engine, "_fold", lambda *a: folds.append(1) or real_fold(*a))
    monkeypatch.setattr(_engine, "_merge", lambda *a: merges.append(1) or real_merge(*a))

    def assert_folds(nv, tails, heads, count):
        folds.clear(), merges.clear()
        assert kernels.chain_stats(nv, tails, heads) == oracle_chain_stats(nv, tails, heads)
        assert (len(folds), len(merges)) == (count, count - 1)
        folds.clear()
        assert kernels.takeuchi_terms(nv, tails, heads) == oracle_takeuchi_terms(nv, tails, heads)
        assert len(folds) == count

    for j in range(7):
        assert_folds(j + 2, [0], [1], j + 1)
    for nv in range(8):
        assert_folds(nv, [], [], max(nv, 1))   # no vertices: one component, the empty set
    for labels in ("a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            nv, tails, heads = g.edge_arrays()
            if len(_engine._components(nv, set(_down_sets(nv, tails, heads)))) == 1:
                assert_folds(nv, tails, heads, 1)


def star_arrays():
    """16 sources into one sink: 2^16 + 1 lower halves, 17 distinct down-sets."""
    return 17, list(range(16)), [16] * 16


def test_engine_refuses_work_past_the_budget(monkeypatch):
    # the lattice sums walk all 2^16 + 1 lower halves of the star, charged
    # 17 probes each, and the fold passes the budget; the surjections are
    # refused before any step, on the floor of their fold's charge
    monkeypatch.setenv("HOPFDG_MAX_WORK", "2000000")
    nv, tails, heads = star_arrays()
    for fn, extra in ((kernels.chain_stats, ()), (kernels.takeuchi_terms, ()),
                      (kernels.character_sum, (lambda mask: 1,))):
        with pytest.raises(WorkLimitError) as exc:
            fn(nv, tails, heads, *extra)
        message = str(exc.value)
        assert message.startswith("composition sum over 17 vertices needs at least ")
        assert "work budget 2000000" in message and "HOPFDG_MAX_WORK" in message
    monkeypatch.delenv("HOPFDG_MAX_WORK")
    with pytest.raises(WorkLimitError) as exc:
        kernels.surjection_stats(nv, tails, heads)
    message = str(exc.value)
    assert message.startswith("composition sum over 17 vertices needs at least 988960469 ")
    assert "work budget 10000000" in message and "HOPFDG_MAX_WORK" in message


# ------------------------------------------------- the cancellation-free antipode

def weak_blocks(nv: int, tails: list[int], heads: list[int], edges) -> list[int]:
    """owner[v]: the least vertex of v's weakly connected component along edges."""
    owner = list(range(nv))
    for _ in range(nv):
        for e in edges:
            t, h = tails[e], heads[e]
            owner[t] = owner[h] = min(owner[t], owner[h])
    return owner


def assert_terms_are_cancellation_free(g: Digraph) -> None:
    """The kernel's terms are the signed sum's, and each one is the edge set
    of a partition into weakly connected blocks with an acyclic quotient,
    keeping every edge inside a block, signed (-1)^blocks."""
    nv, tails, heads = g.edge_arrays()
    terms = kernels.takeuchi_terms(nv, tails, heads)
    assert terms == oracle_takeuchi_terms(nv, tails, heads), g
    assert {h.edges: c for h, c in antipode(g).terms.items()} == oracle_antipode_terms(g), g
    for mask, coeff in terms.items():
        owner = weak_blocks(nv, tails, heads, [e for e in range(len(tails)) if mask >> e & 1])
        blocks = set(owner)
        assert coeff == (-1) ** len(blocks), (g, mask)
        assert all(mask >> e & 1 for e, (t, h) in enumerate(zip(tails, heads))
                   if owner[t] == owner[h]), (g, mask)
        # peel off the blocks no other block points into; a cycle leaves none
        arcs = {(owner[t], owner[h]) for t, h in zip(tails, heads) if owner[t] != owner[h]}
        while blocks:
            sources = {b for b in blocks if not any(h == b and t in blocks for t, h in arcs)}
            assert sources, (g, mask)
            blocks -= sources


def seeded_dag(rng: random.Random, labels, p: float) -> Digraph:
    """A random digraph with every edge along one shuffled order of the labels."""
    order = list(labels)
    rng.shuffle(order)
    return Digraph(labels, [(u, v) for i, u in enumerate(order) for v in order[i + 1:]
                            if rng.random() < p])


def seeded_antipode_graphs() -> list[Digraph]:
    """Seeded digraphs of 5 to 7 vertices: random ones, most with a cycle,
    acyclic ones, and disjoint unions."""
    rng = random.Random(71)
    graphs = []
    for n, count in ((5, 12), (6, 6), (7, 2)):
        labels = "abcdefg"[:n]
        graphs += [random_digraph(rng, labels, p=rng.choice([0.1, 0.25, 0.4, 0.7]))
                   for _ in range(count)]
        graphs += [seeded_dag(rng, labels, rng.choice([0.2, 0.35, 0.5])) for _ in range(count)]
    return graphs + [g for g in seeded_disjoint_unions() if len(g.vertices) < 7][:20]


def test_terms_are_cancellation_free_on_every_small_digraph():
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            assert_terms_are_cancellation_free(g)


def test_terms_are_cancellation_free_on_seeded_digraphs():
    graphs = seeded_antipode_graphs()
    assert any(g.is_acyclic() and g.edges for g in graphs)
    assert any(not g.is_acyclic() for g in graphs)
    for g in graphs:
        assert_terms_are_cancellation_free(g)


class Push(list):
    """The blocks high ^ low of one push call, with its state low and the
    vertex mask full of the fold that made it."""

    def __init__(self, blocks, low: int, full: int):
        super().__init__(blocks)
        self.low, self.full = low, full


def pushed_blocks(monkeypatch, fn, *args, stop_after: int | None = None) -> list[Push]:
    """The blocks high ^ low of each push fn's folds make, one Push per push
    call; with stop_after, the sum is cut off after that many push calls."""
    calls = []
    real_fold = _engine._fold

    class Cut(Exception):
        pass

    def fold(full, states, push, meter, select=None):
        def recorded(acc, source, low, highs):
            calls.append(Push([high ^ low for high in highs], low, full))
            push(acc, source, low, highs)
            if len(calls) == stop_after:
                raise Cut
        return real_fold(full, states, recorded, meter, select)

    with monkeypatch.context() as patch:
        patch.setattr(_engine, "_fold", fold)
        try:
            fn(*args)
        except Cut:
            pass
    return calls


def assert_pushes_are_weakly_connected(monkeypatch, g: Digraph) -> None:
    """Each state of takeuchi_terms' folds pushes into exactly the lower
    halves above it, inside its fold, whose block is weakly connected."""
    nv, tails, heads = g.edge_arrays()

    def connected(block: int) -> bool:
        inside = [e for e in range(len(tails)) if block >> tails[e] & block >> heads[e] & 1]
        owner = weak_blocks(nv, tails, heads, inside)
        return len({owner[v] for v in range(nv) if block >> v & 1}) == 1

    halves = oracle_lower_halves(nv, tails, heads)
    for push in pushed_blocks(monkeypatch, kernels.takeuchi_terms, nv, tails, heads):
        for block in push:
            assert connected(block), (g, block)
        low, full = push.low, push.full
        above = [high ^ low for high in halves
                 if high != low and not low & ~high and not high & ~full]
        assert sorted(push) == sorted(block for block in above if connected(block)), (g, low)


def test_the_antipode_pushes_only_along_weakly_connected_blocks(monkeypatch):
    graphs = [g for labels in ("abc", "abcd") for g in all_digraphs(labels)]
    for g in graphs + seeded_antipode_graphs():
        assert_pushes_are_weakly_connected(monkeypatch, g)


def test_the_empty_state_of_the_star_pushes_once_per_connected_block(monkeypatch):
    # of the 2^16 lower halves above the empty set, the 16 single sources
    # and the whole star are weakly connected; the signed sum pushed into all
    nv, tails, heads = star_arrays()
    (blocks,) = pushed_blocks(monkeypatch, kernels.takeuchi_terms, nv, tails, heads,
                              stop_after=1)
    assert sorted(blocks) == sorted([1 << v for v in range(16)] + [(1 << nv) - 1])


def seeded_sparse_dag(nv: int, seed: int) -> tuple[int, list[int], list[int]]:
    """nv vertices and 1.5 nv edges, each along one shuffled order."""
    rng = random.Random(seed)
    order = list(range(nv))
    rng.shuffle(order)
    forward = [(order[i], order[j]) for i in range(nv) for j in range(i + 1, nv)]
    edges = rng.sample(forward, 3 * nv // 2)
    return nv, [t for t, _ in edges], [h for _, h in edges]


@pytest.mark.parametrize("nv, charge, terms", (
    (10, 9155, 1040),       # charged 12,672 when every nested pair of lower halves pushed
    (14, 145773, 23104),    # charged 215,316 likewise
))
def test_the_antipode_charge_of_sparse_dags_is_pinned(monkeypatch, nv, charge, terms):
    # the meter counts the work done, so a fold that pushes along
    # disconnected blocks again is caught here without timing anything
    args = seeded_sparse_dag(nv, nv)
    assert charged_work(monkeypatch, kernels.takeuchi_terms, *args) == charge
    assert len(kernels.takeuchi_terms(*args)) == terms


def complete_arrays(nv: int) -> tuple[int, list[int], list[int]]:
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    return nv, [u for u, _ in pairs], [v for _, v in pairs]


@pytest.mark.parametrize("nv", (9, 10))
def test_surjections_of_complete_digraphs_answer_under_the_default_budget(monkeypatch, nv):
    # every pair of vertices in two value classes gives one rising and one
    # falling edge, so asc = desc; the counts add up to the ordered Bell number
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    stats = kernels.surjection_stats(*complete_arrays(nv))
    assert sum(stats.values()) == {9: 7087261, 10: 102247563}[nv]
    assert all(asc == desc for _, asc, desc in stats)
    assert stats[nv, nv * (nv - 1) // 2, nv * (nv - 1) // 2] == math.factorial(nv)


def transitive_arrays(nv: int) -> tuple[int, list[int], list[int]]:
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    return nv, [u for u, _ in pairs], [v for _, v in pairs]


@pytest.mark.parametrize("arrays", [complete_arrays(nv) for nv in range(1, 7)]
                         + [transitive_arrays(nv) for nv in range(1, 8)])
def test_packed_counts_match_the_walk_at_their_widest(arrays):
    # the fold keys by (k, asc + desc) with one slot per asc: on complete
    # digraphs asc = desc, so no two counts share a key and the shifts are
    # the largest; on transitive tournaments many asc share each key
    assert kernels.surjection_stats(*arrays) == oracle_surjection_walk(*arrays)


def test_edgeless_counts_sit_in_slot_zero():
    # k! S(n, k) surjections onto k values, every edge statistic 0
    stirling = [[1]]
    for n in range(1, 11):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
        want = {(k, 0, 0): math.factorial(k) * stirling[n][k] for k in range(1, n + 1)}
        assert kernels.surjection_stats(n, [], []) == want


def test_reversing_a_composition_swaps_ascents_and_descents():
    rng = random.Random(20)
    for _ in range(30):
        g = random_digraph(rng, "abcdefgh"[:rng.randint(2, 8)], p=rng.choice([0.2, 0.4, 0.7]))
        hist = kernels.surjection_stats(*g.edge_arrays())
        assert all(hist[k, desc, asc] == cnt for (k, asc, desc), cnt in hist.items()), g


def test_surjections_past_their_floor_are_refused_before_the_fold(monkeypatch):
    # each state carries an entry per block count: on 14 vertices the
    # 3^14 - 2^14 steps fit the default budget, but the fold's charge on
    # that floor does not, and no edge mask is built
    def no_masks(*args):
        raise AssertionError("the edge masks were built before the refusal")

    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    monkeypatch.setattr(_engine, "_edge_masks", no_masks)
    with pytest.raises(WorkLimitError) as exc:
        kernels.surjection_stats(*transitive_arrays(14))
    assert str(exc.value).startswith(
        "composition sum over 14 vertices needs at least 31771770 steps, over the work "
        "budget 10000000")


@pytest.mark.parametrize("nv", range(1, 9))
def test_the_floor_is_the_charge_on_edgeless_graphs(monkeypatch, nv):
    # an edgeless state S carries exactly max(|S|, 1) entries, so the
    # floor refuses one step below the fold's charge, before the fold
    work = charged_work(monkeypatch, kernels.surjection_stats, nv, [], [])
    monkeypatch.setenv("HOPFDG_MAX_WORK", str(work))
    assert len(kernels.surjection_stats(nv, [], [])) == nv
    monkeypatch.setenv("HOPFDG_MAX_WORK", str(work - 1))

    def no_masks(*args):
        raise AssertionError("the edge masks were built before the refusal")

    monkeypatch.setattr(_engine, "_edge_masks", no_masks)
    with pytest.raises(WorkLimitError) as exc:
        kernels.surjection_stats(nv, [], [])
    assert f"needs at least {work} steps" in str(exc.value)


@pytest.mark.parametrize("graphs, charges", (
    ([complete_arrays(nv) for nv in range(1, 7)], [4, 18, 67, 236, 814, 2779]),
    ([transitive_arrays(nv) for nv in range(1, 9)],
     [4, 18, 67, 236, 814, 2779, 9433, 31910]),
    ([g.edge_arrays() for g in seeded_disjoint_unions()],
     [9, 15, 22, 30, 39, 49, 40, 51, 72, 88, 9, 76, 892, 143, 9, 24, 9, 9, 93, 9, 24, 3113,
      24, 24, 75, 24, 270, 75, 74, 910, 889, 24, 9, 9, 254, 278, 335, 252, 881, 74]),
))
def test_the_surjection_charge_is_pinned(monkeypatch, graphs, charges):
    # the charges of the push from each subset into the subsets above it;
    # pulling from the subsets below scans, pairs and reads the same totals
    assert [charged_work(monkeypatch, kernels.surjection_stats, *args)
            for args in graphs] == charges


def test_surjections_past_the_floor_are_refused_within_one_subset(capsys, monkeypatch,
                                                                  tmp_path):
    # the complete digraph on 9 vertices passes its floor, 96,109 steps,
    # and charges 107,725; a subset S is charged once its pulls are done:
    # its 2^|S| subsets scanned, one per pair and one per entry read, each
    # subset T of the same size carrying as many entries
    nv = 9
    entries = [1] + [len({(k, asc + desc) for k, asc, desc in
                          kernels.surjection_stats(*complete_arrays(t))}) for t in range(1, nv)]
    charge = [(2 << s) - 1 + sum(math.comb(s, t) * entries[t] for t in range(s))
              for s in range(nv + 1)]
    floor, total = _engine._surjection_floor(nv), charged_work(
        monkeypatch, kernels.surjection_stats, *complete_arrays(nv))
    assert total == sum(math.comb(nv, s) * charge[s] for s in range(1, nv + 1))
    text = graph_text(*complete_arrays(nv))
    for budget in (floor, (floor + total) // 2, total - 1):
        monkeypatch.setenv("HOPFDG_MAX_WORK", str(budget))
        with pytest.raises(WorkLimitError) as exc:
            kernels.surjection_stats(*complete_arrays(nv))
        prefix = f"composition sum over {nv} vertices needs at least "
        message = str(exc.value)
        assert message.startswith(prefix)
        count = int(message[len(prefix):].split()[0])
        assert 0 < count - budget < charge[nv]
        err = run_refused(capsys, monkeypatch, tmp_path, ["invariant", "bpoly"], text,
                          str(budget))
        assert err == f"resource limit: {message}\n"


def test_seventeen_vertex_cycle_has_two_lower_halves_and_an_answer():
    verts = [f"v{i:02d}" for i in range(17)]
    g = Digraph(verts, zip(verts, verts[1:] + verts[:1]))
    assert antipode(g, max_vertices=17).terms == {g: -1}
    assert character_polynomial(g, EDGE, max_vertices=17).coeffs == (0, Q ** 17)


def run_refused(capsys, monkeypatch, tmp_path, argv, text, budget, max_vertices=20):
    """Run argv on text under the budget: exit 3, empty stdout; the refusal."""
    if budget is None:
        monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    else:
        monkeypatch.setenv("HOPFDG_MAX_WORK", budget)
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code = main([*argv, str(path), "--max-vertices", str(max_vertices)])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.count("\n") == 1
    assert f"over the work budget {limits.work_budget()}; set HOPFDG_MAX_WORK" in out.err
    return out.err


def graph_text(nv: int, tails: list[int], heads: list[int]) -> str:
    text = "vertices: " + " ".join(f"v{i:02d}" for i in range(nv)) + "\n"
    return text + "".join(f"v{t:02d} -> v{h:02d}\n" for t, h in zip(tails, heads))


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
@pytest.mark.parametrize("nv, budget", ((20, None), (8, "1000")))
def test_out_stars_are_refused_in_the_walk(capsys, monkeypatch, tmp_path, argv, nv, budget):
    # one source into nv - 1 sinks: 2^(nv - 1) + 1 lower halves, each
    # charged nv probes, one per distinct down-set; the walk stops one half
    # past what the budget admits, before any edge mask is built
    def no_masks(*args):
        raise AssertionError("the edge masks were built before the refusal")

    monkeypatch.setattr(_engine, "_edge_masks", no_masks)
    taken = count_halves_taken(monkeypatch)
    text = graph_text(nv, [0] * (nv - 1), list(range(1, nv)))
    err = run_refused(capsys, monkeypatch, tmp_path, argv, text, budget)
    seen = limits.work_budget() // nv + 1
    assert seen < (1 << nv - 1) + 1 and taken[0] == seen
    assert err.startswith(f"resource limit: composition sum over at least {seen} "
                          f"lower halves needs at least {seen * nv} steps")


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
def test_isolated_vertices_answer_by_components_under_a_small_budget(capsys, monkeypatch,
                                                                     tmp_path, argv):
    # 8 isolated vertices were refused in the walk at a budget of 1000; as
    # components, each walks 2 halves and folds one step
    monkeypatch.setenv("HOPFDG_MAX_WORK", "1000")
    g = Digraph([f"v{i:02d}" for i in range(8)])
    path = tmp_path / "graph.txt"
    path.write_text(graph_text(8, [], []))
    assert main([*argv, str(path), "--max-vertices", "20"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    if argv == ("antipode",):
        assert out.out == oracle_antipode_output(g, "text")
    else:
        nv, tails, heads = g.edge_arrays()
        strict = [0] * (nv + 1)
        for (k, kept), cnt in oracle_chain_stats(nv, tails, heads).items():
            strict[k] += cnt if kept == 0 else 0
        assert f"binomial: {BinPoly(tuple(strict)).binomial_str()}\n" in out.out


@pytest.mark.parametrize("nv, edges", ((17, [(0, 16)]), (20, [])))
def test_near_edgeless_graphs_match_their_closed_forms(nv, edges):
    # maps into {1..n}: the edge, if any, rises in C(n, 2) of its n^2
    # colourings, falls in C(n, 2) and is level in n; each other vertex
    # takes any of n values
    tails, heads = [t for t, _ in edges], [h for _, h in edges]
    g = Digraph([f"v{i:02d}" for i in range(nv)],
                [(f"v{t:02d}", f"v{h:02d}") for t, h in edges])
    rest = nv - 2 * len(edges)
    strict = strict_chromatic(g, max_vertices=nv)
    bpoly = b_polynomial(g, max_vertices=nv)
    for n in range(nv + 2):
        pair = math.comb(n, 2) * (Y + Z) + n if edges else 1
        assert strict.eval(n) == (math.comb(n, 2) if edges else 1) * n ** rest
        assert bpoly.eval(n) == pair * n ** rest
    # the antipode multiplies -v per isolated vertex and [e] - [] per edge
    sign = (-1) ** rest
    want = {1: -sign, 0: sign} if edges else {0: sign}
    assert kernels.takeuchi_terms(nv, tails, heads) == want


def test_antipode_of_disjoint_edges_is_refused_before_its_product(capsys, monkeypatch,
                                                                  tmp_path):
    # 12 disjoint edges, 2 antipode terms each: the components' walks (3
    # halves, 2 probes each) and folds (11 steps each) fit the budget, and
    # the partial products' 4 + 8 + ... + 2^12 terms are charged before
    # any of them is built
    nv = 24
    err = run_refused(capsys, monkeypatch, tmp_path, ["antipode"],
                      graph_text(nv, list(range(0, nv, 2)), list(range(1, nv, 2))), "5000",
                      max_vertices=nv)
    charge = 12 * 6 + 12 * 11 + (1 << 13) - 4
    assert err.startswith(f"resource limit: composition sum over {nv} vertices needs at least "
                          f"{charge} steps")


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
def test_star_is_refused_in_the_fold(capsys, monkeypatch, tmp_path, argv):
    # the walk's 17 (2^16 + 1) probes fit the budget; the fold passes it
    taken = count_halves_taken(monkeypatch)
    err = run_refused(capsys, monkeypatch, tmp_path, argv, graph_text(*star_arrays()),
                      "2000000")
    assert taken[0] == (1 << 16) + 1
    assert err.startswith("resource limit: composition sum over 17 vertices needs at least ")


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
@pytest.mark.parametrize("budget, want", (("-1", 2), ("0", 3), ("abc", 2)))
def test_budget_edge_cases_keep_their_exit_codes(capsys, monkeypatch, tmp_path,
                                                 argv, budget, want):
    # even the empty set alone does not fit a budget of 0, and a budget
    # below 0 is no budget
    monkeypatch.setenv("HOPFDG_MAX_WORK", budget)
    path = tmp_path / "path.txt"
    path.write_text("vertices: a b c\na -> b\nb -> c\n")
    code = main([*argv, str(path)])
    out = capsys.readouterr()
    assert code == want and out.out == ""
    assert out.err.startswith("resource limit: " if want == 3 else "input error: ")
    assert "Traceback" not in out.err
