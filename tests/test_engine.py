"""The composition-sum engine against the algorithms it replaced.

The oracles in conftest are the earlier submask DPs over remaining sets,
the k^n walk over colorings and the 2^n scan for the lower halves; they
share no code with hopfdg._engine.
"""

import random

import pytest

from conftest import (all_digraphs, oracle_character_sum, oracle_chain_stats,
                      oracle_is_lower_half, oracle_lower_halves,
                      oracle_surjection_walk, oracle_takeuchi_terms, random_digraph)
from hopfdg import (EDGE, Character, Digraph, SizeLimitError, WorkLimitError,
                    antipode, character_polynomial, kernels)
from hopfdg import _engine, limits
from hopfdg._engine import _down_sets, _fold, _surjection_work
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
        assert oracle_lower_halves(nv, tails, heads) == want
        assert kernels.lower_half_masks(nv, tails, heads) == want


def test_lower_half_scan_has_no_kernel_bound():
    # a path on 17 vertices, past the sums' bound: its lower halves are the prefixes
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


def test_fold_steps_once_per_nested_pair_of_lower_halves():
    for g in seeded_six_vertex_digraphs():
        nv, tails, heads = g.edge_arrays()
        halves = kernels.lower_half_masks(nv, tails, heads)
        seen = []
        _fold(nv, halves, lambda target, source, low, block: seen.append((low, block)))
        want = sorted((low, high ^ low) for low in halves for high in halves
                      if low != high and not low & ~high)
        assert sorted(seen) == want


def halves_cap(budget: int) -> int:
    """The most lower halves L whose L(L+1)/2 nested pairs fit the budget."""
    cap = 0
    while (cap + 1) * (cap + 2) // 2 <= budget:
        cap += 1
    return cap


def test_engine_refuses_work_past_the_budget(monkeypatch):
    # the 17-vertex star has 2^16 + 1 lower halves; the lattice sums stop
    # at one more than the budget admits.  For the surjections, the bound
    # on the accumulator entries their 3^17 steps walk
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    tails, heads = list(range(16)), [16] * 16
    seen = halves_cap(limits.DEFAULT_MAX_WORK) + 1
    assert seen == 4472
    lattice = f"at least {seen} lower halves needs about {seen * (seen + 1) // 2} steps"
    messages = {kernels.chain_stats: lattice, kernels.takeuchi_terms: lattice,
                kernels.surjection_stats: f"about {_surjection_work(17, tails, heads)} steps"}
    for fn, want in messages.items():
        with pytest.raises(WorkLimitError) as exc:
            fn(17, tails, heads)
        message = str(exc.value)
        assert want in message
        assert "10000000" in message and "HOPFDG_MAX_WORK" in message
    with pytest.raises(WorkLimitError):
        kernels.character_sum(17, tails, heads, lambda mask: 1)


def entries_walked(monkeypatch, g: Digraph) -> int:
    """Accumulator entries surjection_stats walks on g, summed over its steps."""
    walked = 0

    def fold(nv, states, step):
        def counting_step(target, source, low, block):
            nonlocal walked
            walked += len(source)
            step(target, source, low, block)
        return _fold(nv, states, counting_step)

    with monkeypatch.context() as patch:
        patch.setattr(_engine, "_fold", fold)
        kernels.surjection_stats(*g.edge_arrays())
    return walked


def tournament(n: int) -> Digraph:
    verts = [f"v{i:02d}" for i in range(n)]
    return Digraph(verts, ((verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)))


def test_surjection_estimate_bounds_the_entries_walked(monkeypatch):
    rng = random.Random(71)
    graphs = [g for labels in ("a", "ab", "abc") for g in all_digraphs(labels)]
    graphs += [random_digraph(rng, labels, p) for labels in ("abcd", "abcdef", "abcdefg")
               for p in (0.2, 0.5, 0.9)]
    graphs.append(tournament(9))
    for g in graphs:
        assert entries_walked(monkeypatch, g) <= _surjection_work(*g.edge_arrays())


def test_surjection_estimate_admits_every_nine_vertex_digraph():
    # the bound grows with the edges, so the complete digraph stands for all
    labels = "abcdefghi"
    complete = Digraph(labels, ((u, v) for u in labels for v in labels if u != v))
    assert _surjection_work(*complete.edge_arrays()) <= limits.DEFAULT_MAX_WORK


def test_seventeen_vertex_cycle_has_two_lower_halves_and_an_answer():
    verts = [f"v{i:02d}" for i in range(17)]
    g = Digraph(verts, zip(verts, verts[1:] + verts[:1]))
    assert antipode(g, max_vertices=17).terms == {g: -1}
    assert character_polynomial(g, EDGE, max_vertices=17).coeffs == (0, Q ** 17)


def test_dense_tables_stay_within_the_subset_bound(monkeypatch):
    monkeypatch.setenv("HOPFDG_MAX_WORK", str(10 ** 30))
    for fn in (kernels.chain_stats, kernels.surjection_stats):
        with pytest.raises(SizeLimitError):
            fn(21, [], [])


def assert_refused_early(capsys, monkeypatch, tmp_path, argv, text, budget):
    """Exit 3 with no 2^n table built and at most cap + 1 lower halves taken."""
    if budget is None:
        monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    else:
        monkeypatch.setenv("HOPFDG_MAX_WORK", budget)

    def no_tables(*args):
        raise AssertionError("the 2^n edge tables were built before the refusal")

    taken = 0
    walk = _engine._walk_halves

    def counted_walk(*args):
        nonlocal taken
        for half in walk(*args):
            taken += 1
            yield half

    monkeypatch.setattr(_engine, "_edge_tables", no_tables)
    monkeypatch.setattr(_engine, "_walk_halves", counted_walk)
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code = main([*argv, str(path), "--max-vertices", "20"])
    out = capsys.readouterr()
    seen = halves_cap(limits.work_budget()) + 1
    assert code == 3 and out.out == ""
    assert taken == seen
    assert out.err.startswith(f"resource limit: composition sum over at least {seen} "
                              "lower halves needs about ")


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
@pytest.mark.parametrize("nv, budget", ((20, None), (8, "1000")))
def test_isolated_vertices_are_refused_before_the_scan(capsys, monkeypatch, tmp_path,
                                                       argv, nv, budget):
    text = "vertices: " + " ".join(f"v{i:02d}" for i in range(nv)) + "\n"
    assert_refused_early(capsys, monkeypatch, tmp_path, argv, text, budget)


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
def test_star_is_refused_before_the_scan(capsys, monkeypatch, tmp_path, argv):
    # 16 sources into one sink: 2^16 + 1 lower halves, 17 distinct down-sets
    text = "vertices: " + " ".join(f"v{i:02d}" for i in range(17)) + "\n"
    text += "".join(f"v{i:02d} -> v16\n" for i in range(16))
    assert_refused_early(capsys, monkeypatch, tmp_path, argv, text, None)


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
@pytest.mark.parametrize("budget, want", (("-1", 3), ("0", 3), ("abc", 2)))
def test_budget_edge_cases_keep_their_exit_codes(capsys, monkeypatch, tmp_path,
                                                 argv, budget, want):
    # even the empty set alone does not fit a budget below 1
    monkeypatch.setenv("HOPFDG_MAX_WORK", budget)
    path = tmp_path / "path.txt"
    path.write_text("vertices: a b c\na -> b\nb -> c\n")
    code = main([*argv, str(path)])
    out = capsys.readouterr()
    assert code == want and out.out == ""
    assert out.err.startswith("resource limit: " if want == 3 else "input error: ")
    assert "Traceback" not in out.err
