import importlib.util
import random
import sys
from pathlib import Path

import pytest

from conftest import (all_digraphs, antipode_of_sum, oracle_antipode_terms,
                      oracle_character_polynomial,
                      oracle_character_polynomial_of_sum, random_digraph, sorted_terms)
from hopfdg import (BASIC, BinPoly, Digraph, EDGE, EMPTY,
                    FormalSum, SizeLimitError, antipode, basic_char,
                    character_polynomial, character_polynomial_of_sum,
                    disjoint_union, edge_char, edge_invariant, kernels,
                    strict_chromatic)
from hopfdg.rings import Poly, Q


def as_term_dict(s: FormalSum) -> dict:
    return {t.edges: c for t, c in sorted_terms(s)}


def test_equal_values_hash_equal():
    for g in all_digraphs("abc"):
        again = Digraph(g.vertices, g.edges)
        assert antipode(g) == antipode(again) and hash(antipode(g)) == hash(antipode(again))
        assert hash(edge_invariant(g)) == hash(edge_invariant(again))
        assert {antipode(g), antipode(again)} == {antipode(g)}
        assert len({edge_invariant(g), edge_invariant(again)}) == 1
    pairs = [(Digraph("ab", [("a", "b")]), 2), (Digraph("ab"), -1)]
    assert hash(FormalSum.of("ab", pairs)) == hash(FormalSum.of("ba", pairs[::-1]))


def test_characters_on_small_graphs(g3):
    assert basic_char(EMPTY) == 1
    assert basic_char(Digraph("ab")) == 1
    assert basic_char(g3) == 0
    assert edge_char(g3) == Q ** 3
    assert edge_char(EMPTY) == 1
    assert BASIC(g3) == 0
    assert EDGE(Digraph("ab", (("a", "b"),))) == Q


def test_antipode_golden(g3):
    s = antipode(g3)
    items = sorted_terms(s)
    assert [(t.edge_list, c) for t, c in items] == [
        ((("0", "1"), ("0", "2"), ("1", "2")), -1),
        ((("0", "1"),), 1),
        ((("1", "2"),), 1),
        ((), -1),
    ]


def test_antipode_empty_and_singletons():
    assert as_term_dict(antipode(EMPTY)) == {frozenset(): 1}
    one = Digraph("a")
    assert as_term_dict(antipode(one)) == {frozenset(): -1}
    two = Digraph("ab")
    # two isolated vertices: 2 orderings minus the single block
    assert as_term_dict(antipode(two)) == {frozenset(): 1}


def test_antipode_matches_oracle_exhaustive():
    for labels in ("", "a", "ab", "abc"):
        for g in all_digraphs(labels):
            assert as_term_dict(antipode(g)) == oracle_antipode_terms(g)


def test_antipode_matches_oracle_random():
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(60):
            g = random_digraph(rng, "abcde"[:n])
            assert as_term_dict(antipode(g)) == oracle_antipode_terms(g)


def test_antipode_is_an_involution_on_sums():
    # applying the antipode twice returns the original graph as a sum
    rng = random.Random(9)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        twice = antipode_of_sum(antipode(g))
        assert as_term_dict(twice) == {g.edges: 1}


def test_antipode_respects_products():
    rng = random.Random(13)
    for _ in range(20):
        g = random_digraph(rng, "abc")
        h = random_digraph(rng, "xy")
        u = disjoint_union(g, h)
        expect: dict = {}
        for tg, cg in antipode(g).terms.items():
            for th, ch in antipode(h).terms.items():
                key = disjoint_union(tg, th).edges
                expect[key] = expect.get(key, 0) + cg * ch
        expect = {k: v for k, v in expect.items() if v}
        assert as_term_dict(antipode(u)) == expect


def test_antipode_size_gate():
    big = Digraph([f"v{i}" for i in range(10)])
    with pytest.raises(SizeLimitError):
        antipode(big)
    assert len(antipode(big, max_vertices=10)) == 1


def test_character_polynomial_golden(g3):
    assert character_polynomial(g3, BASIC).coeffs == (0, 0, 0, 1)
    edge = character_polynomial(g3, EDGE)
    assert edge.coeffs == (0, Q ** 3, 2 * Q, 1)


def sized_char(g: Digraph) -> Poly:
    """Not a function of the edge count: any callable is a character."""
    return Q ** len(g.edges) * 2 ** len(g.vertices) - 1


def test_character_polynomial_matches_oracle():
    rng = random.Random(21)
    graphs = [g for labels in ("", "a", "ab", "abc", "abcd") for g in all_digraphs(labels)]
    graphs += [random_digraph(rng, "abcdefg"[:n]) for n, count in ((5, 6), (6, 3), (7, 1))
               for _ in range(count)]
    for g in graphs:
        assert character_polynomial(g, BASIC) == oracle_character_polynomial(g, basic_char)
        assert character_polynomial(g, EDGE) == oracle_character_polynomial(g, edge_char)
        assert character_polynomial(g, sized_char) == oracle_character_polynomial(g, sized_char)


def _assert_generic_matches_fast(g):
    # a lambda is neither BASIC nor EDGE, so it takes the per-block path
    for char in (BASIC, EDGE):
        assert character_polynomial(g, lambda h: char(h)) == character_polynomial(g, char), \
            (char.__name__, g)


def test_generic_engine_matches_fast_engine():
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            _assert_generic_matches_fast(g)
    rng = random.Random(23)
    for labels, count in (("abcde", 12), ("abcdef", 6), ("abcdefg", 3)):
        for _ in range(count):
            g = random_digraph(rng, labels)
            _assert_generic_matches_fast(g)
            if len(labels) == 5:
                s = antipode(g)
                assert character_polynomial_of_sum(s, EDGE) \
                    == character_polynomial_of_sum(s, lambda h: edge_char(h)), g


def _rebind_everywhere(monkeypatch, original, wrapper) -> int:
    """Bind wrapper wherever a hopfdg module binds original, as a tracer does."""
    sites = [(mod, attr) for name, mod in list(sys.modules.items())
             if mod is not None and (name == "hopfdg" or name.startswith("hopfdg."))
             for attr, obj in list(vars(mod).items()) if obj is original]
    for mod, attr in sites:
        monkeypatch.setattr(mod, attr, wrapper)
    return len(sites)


def test_rebound_characters_keep_the_fast_path(monkeypatch):
    # the wrappers take the place of BASIC and EDGE at every binding site,
    # so the fast path, chosen by identity at call time, still takes them
    import hopfdg
    rng = random.Random(29)
    graphs = list(all_digraphs("abc")) + [random_digraph(rng, "abcde") for _ in range(10)]
    sums = [antipode(g) for g in graphs]
    want = [(strict_chromatic(g), edge_invariant(g),
             oracle_character_polynomial_of_sum(s, basic_char),
             oracle_character_polynomial_of_sum(s, edge_char)) for g, s in zip(graphs, sums)]
    for original in (hopfdg.BASIC, hopfdg.EDGE):
        def wrapper(g, fn=original):
            return fn(g)
        # hopf.BASIC and hopfdg.BASIC at least, and the same for EDGE
        assert _rebind_everywhere(monkeypatch, original, wrapper) >= 2
    generic = [0]
    character_sum = kernels.character_sum

    def counted(*args):
        generic[0] += 1
        return character_sum(*args)
    monkeypatch.setattr(kernels, "character_sum", counted)
    basic, edge = hopfdg.BASIC, hopfdg.EDGE
    assert (basic, edge) != (basic_char, edge_char)
    got = [(character_polynomial(g, basic), character_polynomial(g, edge),
            character_polynomial_of_sum(s, basic), character_polynomial_of_sum(s, edge))
           for g, s in zip(graphs, sums)]
    assert generic[0] == 0
    assert got == want
    # the originals are now neither BASIC nor EDGE: they take the per-block path
    assert character_polynomial(graphs[-1], edge_char) == want[-1][1]
    assert generic[0] == 1


def _verify_corpus_graphs(seed: int) -> list[Digraph]:
    """The graphs of the benchmark's `verify` workload at a seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus   # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    label = corpus.label
    return [Digraph([label(i) for i in range(n)], [(label(t), label(h)) for t, h in edges])
            for n, edges in (job.graph for job in corpus.build("verify", seed, "").jobs
                             if job.kind == "verify")]


def test_polynomial_of_an_antipode_builds_one_poly_per_kept_count(monkeypatch):
    # the projection sums integer counts into exponent dicts, so the Polys
    # built through Poly(...) are no more than the distinct kept counts
    calls = [0]
    init = Poly.__init__

    def counted_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    graphs = _verify_corpus_graphs(0)
    assert len(graphs) == 8
    for g in graphs:
        s = antipode(g)
        nv = len(g.vertices)
        kept = {key[1] for t in s.terms
                for key in kernels.chain_stats(nv, *t.edge_arrays()[1:])}
        want = oracle_character_polynomial_of_sum(s, edge_char)
        with monkeypatch.context() as patch:
            patch.setattr(Poly, "__init__", counted_init)
            calls[0] = 0
            got = character_polynomial_of_sum(s, EDGE)
            assert calls[0] <= len(kept), (g, calls[0], len(kept))
        assert got == want


def test_character_polynomial_is_multiplicative():
    rng = random.Random(31)
    for _ in range(20):
        g = random_digraph(rng, "abc")
        h = random_digraph(rng, "xy")
        u = disjoint_union(g, h)
        for char in (BASIC, EDGE):
            pg = character_polynomial(g, char)
            ph = character_polynomial(h, char)
            pu = character_polynomial(u, char)
            for n in range(-3, 5):
                assert pu.eval(n) == pg.eval(n) * ph.eval(n)


def test_character_polynomials_of_a_product_are_the_products():
    # the product axiom on parts of up to four vertices each, the parts
    # disconnected or not, labels interleaved; deg + 2 values pin a
    # polynomial of degree deg
    rng = random.Random(37)
    for _ in range(30):
        labels = list("abcdefg")
        rng.shuffle(labels)
        cut = rng.randint(1, 4)
        g = random_digraph(rng, labels[:cut], p=rng.choice([0.2, 0.5, 0.8]))
        h = random_digraph(rng, labels[cut:rng.randint(cut + 1, min(cut + 4, 7))],
                           p=rng.choice([0.2, 0.5, 0.8]))
        u = disjoint_union(g, h)
        for char in (BASIC, EDGE):
            pg, ph = character_polynomial(g, char), character_polynomial(h, char)
            pu = character_polynomial(u, char)
            for n in range(pu.degree() + 2):
                assert pu.eval(n) == pg.eval(n) * ph.eval(n)


def test_character_polynomial_degree_and_unit():
    assert character_polynomial(EMPTY, BASIC) == BinPoly((1,))
    g = Digraph("abcd")
    # no edges: coefficient of C(n,k) counts surjective colorings per block count
    poly = character_polynomial(g, BASIC)
    assert poly.eval(1) == 1
    assert poly.eval(2) == 16
    assert poly.eval(3) == 81


def test_custom_character_through_generic_engine(g3):
    indicator = character_polynomial(g3, lambda g: 1 if not g.edges else 0)
    assert indicator == character_polynomial(g3, BASIC)
    poly = character_polynomial(g3, lambda g: 2 ** len(g.vertices))
    # blocks partition the vertices, so every admissible composition gives 2^3
    base = character_polynomial(g3, lambda g: 1)
    assert poly == base.scale(8)


def test_formal_sum_linearity(g3):
    s = FormalSum.of(g3.vertices, [(g3, 2), (g3.composition_minor([{"0"}, {"1", "2"}]), -1)])
    lhs = character_polynomial_of_sum(s, EDGE)
    rhs = character_polynomial(g3, EDGE).scale(2) \
        + character_polynomial(g3.composition_minor([{"0"}, {"1", "2"}]), EDGE).scale(-1)
    assert lhs == rhs


def test_formal_sum_validates_and_merges(g3):
    with pytest.raises(ValueError):
        FormalSum.of(("0", "1"), [(g3, 1)])
    merged = FormalSum.of(g3.vertices, [(g3, 1), (g3, -1)])
    assert len(merged) == 0
    assert merged.terms == {}


def test_polynomial_endpoints_match_the_character():
    # eval at 0 kills every non-empty graph, eval at 1 returns the raw
    # character value, and the degree never exceeds the vertex count
    rng = random.Random(53)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        for char, raw in ((BASIC, basic_char), (EDGE, edge_char)):
            poly = character_polynomial(g, char)
            assert poly.eval(0) == 0
            assert poly.eval(1) == raw(g)
            assert poly.degree() <= len(g.vertices)
    assert character_polynomial(EMPTY, BASIC).eval(0) == 1
    assert character_polynomial(EMPTY, EDGE).eval(1) == 1
