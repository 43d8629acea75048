import random

import pytest

from conftest import (all_digraphs, coefficient, coefficient_of, oracle_count_colorings,
                      oracle_invariants, oracle_surjection_stats, random_digraph,
                      substitute)
from hopfdg import (BASIC, BinPoly, Digraph, EDGE, EMPTY, WorkLimitError,
                    antipode, ascent_polytope_points, b_polynomial, brute_strict, brute_weak,
                    character_polynomial, character_polynomial_of_sum,
                    check_edge_reciprocity, check_reciprocity, edge_invariant,
                    generic_direction_count, kernels, strict_chromatic, vertex_sum_count,
                    weak_chromatic)
from hopfdg.rings import Poly, Q, Y, Z


def test_golden_triangle(g3):
    assert strict_chromatic(g3).coeffs == (0, 0, 0, 1)
    assert weak_chromatic(g3).coeffs == (0, 1, 2, 1)
    assert edge_invariant(g3).coeffs == (0, Q ** 3, 2 * Q, 1)
    b = b_polynomial(g3)
    assert b.coeffs == (
        0,
        1,
        2 * Y ** 2 + 2 * Y * Z + 2 * Z ** 2,
        Y ** 3 + 2 * Y ** 2 * Z + 2 * Y * Z ** 2 + Z ** 3,
    )


def test_empty_graph_invariants():
    for fn in (strict_chromatic, weak_chromatic, b_polynomial, edge_invariant):
        assert fn(EMPTY) == BinPoly((1,))


def test_invariants_against_coloring_counts():
    rng = random.Random(3)
    graphs = list(all_digraphs("abc"))
    graphs += [random_digraph(rng, "abcd") for _ in range(40)]
    graphs += [random_digraph(rng, "abcde") for _ in range(10)]
    for g in graphs:
        strict = strict_chromatic(g)
        weak = weak_chromatic(g)
        for n in range(5):
            assert strict.eval(n) == oracle_count_colorings(g, n, True)
            assert weak.eval(n) == oracle_count_colorings(g, n, False)


def test_brute_counts_match_oracle():
    rng = random.Random(17)
    for _ in range(30):
        g = random_digraph(rng, "abcd")
        for n in range(4):
            assert brute_strict(g, n) == oracle_count_colorings(g, n, True)
            assert brute_weak(g, n) == oracle_count_colorings(g, n, False)


def test_monotone_map_walk_matches_oracle():
    # every digraph on at most 4 vertices at 0..4 values, seeded ones on 5 to 7 at 0..3
    cases = [(g, 5) for labels in ("", "a", "ab", "abc", "abcd") for g in all_digraphs(labels)]
    rng = random.Random(29)
    cases += [(random_digraph(rng, "abcdefg"[:5 + i % 3], p=rng.choice([0.1, 0.25, 0.4, 0.7])), 4)
              for i in range(30)]
    for g, bound in cases:
        nv, tails, heads = g.edge_arrays()
        for values in range(bound):
            for strict in (True, False):
                assert (kernels.count_monotone_maps(nv, tails, heads, values, strict)
                        == oracle_count_colorings(g, values, strict)), (g, values, strict)


def test_b_polynomial_specializes_to_both_chromatics():
    # descents to zero and ascents to one counts weak colorings; keeping
    # only the all-ascent monomial counts strict ones
    rng = random.Random(19)
    for _ in range(30):
        g = random_digraph(rng, "abcd")
        m = len(g.edges)
        b = b_polynomial(g)
        weak = weak_chromatic(g)
        strict = strict_chromatic(g)
        for k, c in enumerate(b.coeffs):
            assert substitute(c, {"y": 1, "z": 0}) == coefficient(weak, k)
            assert coefficient_of(coefficient_of(c, "z", 0), "y", m) \
                == coefficient(strict, k)


def test_edge_invariant_from_b_polynomial():
    # psi reads the descent-free part of b with y^a replaced by q^(m-a)
    rng = random.Random(23)
    for _ in range(30):
        g = random_digraph(rng, "abcd")
        m = len(g.edges)
        b = b_polynomial(g)
        psi = edge_invariant(g)
        for k, c in enumerate(b.coeffs):
            level = coefficient_of(c, "z", 0)
            expect = sum((coefficient_of(level, "y", a) * Q ** (m - a)
                          for a in range(m + 1)), start=Poly.constant(0))
            assert expect == coefficient(psi, k)


# strict, weak and psi project the lattice histogram chain_stats; only
# bpoly walks all surjections
_ON_LATTICE = {"strict": strict_chromatic, "weak": weak_chromatic, "psi": edge_invariant}


def _no_surjection_walk(*args):
    raise AssertionError("the surjection walk ran")


def _assert_matches_old_assembly(g, monkeypatch):
    want = oracle_invariants(g)
    got = {"bpoly": b_polynomial(g)}
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "surjection_stats", _no_surjection_walk)
        got.update((name, fn(g)) for name, fn in _ON_LATTICE.items())
    for name, poly in got.items():
        assert poly == want[name], (name, g)
        # equal tuples, and constant coefficients stay plain ints
        assert [type(c) for c in poly.coeffs] == [type(c) for c in want[name].coeffs]


def test_projection_matches_old_assembly_on_all_small_digraphs(monkeypatch):
    _assert_matches_old_assembly(EMPTY, monkeypatch)
    for labels in ("a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            _assert_matches_old_assembly(g, monkeypatch)


def test_projection_matches_old_assembly_on_seeded_graphs(monkeypatch):
    rng = random.Random(61)
    for labels, count in (("abcde", 8), ("abcdef", 4), ("abcdefg", 2)):
        for _ in range(count):
            _assert_matches_old_assembly(random_digraph(rng, labels), monkeypatch)


def test_only_bpoly_walks_all_surjections(monkeypatch, g3):
    # the guard of the tests above stops the walk bpoly really takes
    monkeypatch.setattr(kernels, "surjection_stats", _no_surjection_walk)
    with pytest.raises(AssertionError, match="surjection walk"):
        b_polynomial(g3)


def test_surjection_statistics_behind_invariants():
    rng = random.Random(29)
    for _ in range(20):
        g = random_digraph(rng, "abcd")
        nv, tails, heads = g.edge_arrays()
        assert kernels.surjection_stats(nv, tails, heads) == oracle_surjection_stats(g)


def test_strict_equals_basic_character_polynomial():
    # the two fully independent routes to the same invariant
    rng = random.Random(31)
    graphs = list(all_digraphs("abc")) + [random_digraph(rng, "abcde") for _ in range(10)]
    graphs += [random_digraph(rng, "abcdef") for _ in range(3)]
    for g in graphs:
        assert strict_chromatic(g) == character_polynomial(g, BASIC)


def test_edge_invariant_equals_edge_character_polynomial():
    rng = random.Random(37)
    graphs = list(all_digraphs("abc")) + [random_digraph(rng, "abcde") for _ in range(10)]
    for g in graphs:
        assert edge_invariant(g) == character_polynomial(g, EDGE)


def test_reciprocity_golden(g3):
    assert strict_chromatic(g3).eval(-3) == -10
    (check,) = check_reciprocity(g3, [3])
    assert check.hypothesis_ok and check.n == 3
    assert check.lhs == check.rhs == 10  # (-1)^3 * (-10)
    assert check.equal


def test_reciprocity_on_acyclic_family():
    rng = random.Random(41)
    count = 0
    for _ in range(80):
        g = random_digraph(rng, "abcd", p=0.3)
        if not g.is_acyclic():
            continue
        count += 1
        checks = check_reciprocity(g, range(1, 5))
        assert [check.n for check in checks] == [1, 2, 3, 4]
        for check in checks:
            assert check.equal, (g, check)
    assert count >= 30


def test_reciprocity_hypothesis_gate():
    cyc = Digraph("ab", (("a", "b"), ("b", "a")))
    checks = check_reciprocity(cyc, range(2, 4))
    assert [check.n for check in checks] == [2, 3]
    for check in checks:
        assert not check.hypothesis_ok
        assert check.equal is None


def test_edge_reciprocity_golden(g3):
    checks = check_edge_reciprocity(g3, range(3))
    assert [check.n for check in checks] == [0, 1, 2]
    check = checks[1]
    assert check.equal
    assert check.lhs == -Q ** 3 + 2 * Q - 1
    assert check.rhs == check.lhs


def test_edge_reciprocity_everywhere():
    # holds with no acyclicity hypothesis
    rng = random.Random(43)
    graphs = [random_digraph(rng, "abcd") for _ in range(25)]
    graphs.append(Digraph("abc", (("a", "b"), ("b", "c"), ("c", "a"))))
    for g in graphs:
        checks = check_edge_reciprocity(g, range(4))
        assert [check.n for check in checks] == [0, 1, 2, 3]
        for check in checks:
            assert check.equal, (g, check)


def test_edge_reciprocity_details(g3):
    lhs = edge_invariant(g3).eval(-1)
    rhs = character_polynomial_of_sum(antipode(g3), EDGE).eval(1)
    assert lhs == rhs == -Q ** 3 + 2 * Q - 1


def test_work_gate(monkeypatch):
    g = Digraph("abcdefgh")
    with pytest.raises(WorkLimitError):
        brute_strict(g, 1000)
    monkeypatch.setenv("HOPFDG_MAX_WORK", str(10 ** 9))
    assert brute_strict(g, 2) == 2 ** 8


def test_work_gate_env(monkeypatch):
    g = Digraph("abcdefgh")
    monkeypatch.setenv("HOPFDG_MAX_WORK", "100")
    with pytest.raises(WorkLimitError):
        brute_weak(g, 3)
    monkeypatch.setenv("HOPFDG_MAX_WORK", str(10 ** 9))
    assert brute_weak(g, 2) == 2 ** 8


@pytest.mark.parametrize("count", [
    brute_strict, brute_weak, generic_direction_count, vertex_sum_count,
    lambda g, n: ascent_polytope_points(g, n, interior=False),
    lambda g, n: ascent_polytope_points(g, n, interior=True)])
@pytest.mark.parametrize("n", [2.5, 1.5, "3", None])
def test_a_map_count_takes_only_an_int_n(monkeypatch, count, n):
    # a float top value never equals an int color, so the walk would not end
    def walk(*args):
        raise AssertionError("the walk started")
    monkeypatch.setattr(kernels, "count_monotone_maps", walk)
    path3 = Digraph("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError) as info:
        count(path3, n)
    assert type(info.value) is ValueError
    assert str(info.value) == f"map count needs an int n, got {n!r}"


def test_the_walk_takes_any_number_of_vertices():
    # one value: each vertex takes one step forward and one back, with no recursion
    labels = [f"v{i}" for i in range(3000)]
    path = Digraph(labels, zip(labels, labels[1:]))
    assert brute_weak(path, 1) == 1
    assert brute_strict(path, 1) == 0
    assert ascent_polytope_points(path, 1, interior=False) == 1
    assert brute_strict(Digraph(labels), 1) == 1


def _swap_yz(c):
    if isinstance(c, int):
        return c
    return Poly({(eq, ez, ey): v for (eq, ey, ez), v in c.terms.items()})


def test_b_polynomial_reversal_swaps_ascents_and_descents():
    rng = random.Random(47)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        rev = Digraph(g.vertices, tuple((v, u) for u, v in g.edges))
        swapped = BinPoly(tuple(_swap_yz(c) for c in b_polynomial(g).coeffs))
        assert swapped == b_polynomial(rev)


def test_b_polynomial_at_one_one_counts_all_maps():
    rng = random.Random(51)
    for labels in ("abc", "abcd"):
        for _ in range(10):
            g = random_digraph(rng, labels)
            ones = BinPoly(tuple(substitute(c, {"y": 1, "z": 1})
                                 for c in b_polynomial(g).coeffs))
            for n in range(5):
                assert ones.eval(n) == n ** len(g.vertices)


def test_edge_invariant_at_one_is_weak_chromatic():
    rng = random.Random(57)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        psi = edge_invariant(g)
        weak = weak_chromatic(g)
        for k in range(max(len(psi.coeffs), len(weak.coeffs))):
            assert substitute(coefficient(psi, k), {"q": 1}) == coefficient(weak, k)
