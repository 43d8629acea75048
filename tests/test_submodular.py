import random
from fractions import Fraction

import pytest

from conftest import all_digraphs, oracle_is_lower_half, random_digraph
from hopfdg import (Digraph, ExtBool, INF, SizeLimitError, check_low_morphism,
                    direct_sum, disjoint_union, is_finite, kernels,
                    lower_half_function)


def test_infinity_arithmetic():
    assert INF + 1 is INF
    assert 1 + INF is INF
    assert INF + INF is INF
    assert INF + Fraction(1, 2) is INF
    assert INF - 3 is INF
    assert not is_finite(INF)
    assert is_finite(0) and is_finite(Fraction(-7, 2))
    assert repr(INF) == "INF"
    with pytest.raises(ValueError):
        INF - INF
    assert (INF == INF) and not (INF == 10 ** 9)


def test_infinity_is_a_singleton():
    assert type(INF)() is INF


def test_extbool_validation():
    with pytest.raises(ValueError):
        ExtBool(("a",), (1, 0))  # empty set must map to zero
    with pytest.raises(ValueError):
        ExtBool(("a",), (0, INF))  # full set must be finite
    with pytest.raises(ValueError):
        ExtBool(("a",), (0,))  # wrong table length
    z = ExtBool(("a", "b"), (0, 1, INF, 2))
    assert z.value({"a"}) == 1
    assert z.value({"b"}) is INF
    assert z.value(()) == 0
    assert z.value({"a", "b"}) == 2


def test_tabulate_and_restrict():
    z = ExtBool.tabulate("ab", lambda s: len(s) ** 2)
    assert z.value({"a", "b"}) == 4
    r = z.restrict({"a"})
    assert r.ground == ("a",)
    assert r.value({"a"}) == 1


def test_contract_shifts_by_base():
    z = ExtBool.tabulate("abc", lambda s: len(s) ** 2)
    c = z.contract({"a"})
    assert c is not None
    assert c.ground == ("b", "c")
    # (|s|+1)^2 - 1
    assert c.value({"b"}) == 3
    assert c.value({"b", "c"}) == 8
    z_inf = ExtBool(("a", "b"), (0, INF, 1, 2))
    assert z_inf.contract({"a"}) is None
    # an INF cell above the base survives the shift
    z3 = ExtBool(("a", "b", "c"), (0, 1, 1, 2, 1, INF, 2, 3))
    keeps = z3.contract({"c"})
    assert keeps is not None
    assert keeps.value({"a"}) is INF
    assert keeps.value({"b"}) == 1
    assert keeps.value({"a", "b"}) == 2


def test_direct_sum_adds_blockwise():
    za = ExtBool.tabulate("ab", lambda s: len(s))
    zb = ExtBool.tabulate("xy", lambda s: 2 * len(s))
    z = direct_sum(za, zb)
    assert z.ground == ("a", "b", "x", "y")
    assert z.value({"a", "x", "y"}) == 1 + 4
    with pytest.raises(ValueError):
        direct_sum(za, za)


def test_submodularity_checker():
    # rank-like function: submodular
    good = ExtBool.tabulate("abc", lambda s: min(len(s), 2))
    assert good.is_submodular()
    # size squared: strictly supermodular once sets overlap
    bad = ExtBool.tabulate("abc", lambda s: len(s) ** 2)
    assert not bad.is_submodular()


def test_lower_half_function_values(g3):
    z = lower_half_function(g3)
    assert z.value(()) == 0
    assert z.value({"0"}) == 0
    assert z.value({"0", "1"}) == 0
    assert z.value(g3.vertices) == 0
    assert z.value({"1"}) is INF
    assert z.value({"1", "2"}) is INF


def test_lower_half_function_matches_definition_and_is_submodular():
    rng = random.Random(61)
    graphs = list(all_digraphs("ab")) + [random_digraph(rng, "abcd") for _ in range(40)]
    for g in graphs:
        z = lower_half_function(g)
        verts = g.vertices
        for mask in range(1 << len(verts)):
            sub = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
            expect = 0 if oracle_is_lower_half(g, sub) else INF
            assert z.value(sub) == expect or z.value(sub) is expect
        assert z.is_submodular(), g


def test_subset_tables_refuse_past_twenty_labels_before_scanning(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started past the subset bound")

    monkeypatch.setattr(kernels, "lower_half_masks", no_scan)
    labels = [f"v{i:02d}" for i in range(21)]
    g = Digraph(labels, [("v00", "v20")])
    with pytest.raises(SizeLimitError):
        g.lower_halves()
    with pytest.raises(SizeLimitError):
        lower_half_function(g)
    with pytest.raises(SizeLimitError):
        ExtBool.tabulate(labels, no_scan)


def test_morphism_checks_exhaustive_small():
    for g in all_digraphs("abc"):
        verts = g.vertices
        for mask in range(1 << len(verts)):
            sub = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
            check = check_low_morphism(g, sub)
            assert check.passed, (g, sub, check)


def test_morphism_check_contents(g3):
    check = check_low_morphism(g3, {"0"})
    assert check.split_is_lower_half
    assert check.restriction_ok and check.contraction_ok and check.product_ok
    check2 = check_low_morphism(g3, {"2"})
    assert not check2.split_is_lower_half
    assert check2.zero_sides_agree
    assert check2.restriction_ok is None


def test_morphism_product_law_directly():
    rng = random.Random(67)
    for _ in range(20):
        g = random_digraph(rng, "abc")
        h = random_digraph(rng, "xy")
        u = disjoint_union(g, h)
        zs = direct_sum(lower_half_function(g), lower_half_function(h))
        zu = lower_half_function(u)
        assert zs.ground == zu.ground
        assert zs.values == zu.values


def test_restrict_and_contract_compose():
    rng = random.Random(71)
    for _ in range(40):
        ground = tuple("abcde"[: rng.randint(2, 5)])
        n = len(ground)
        values = [0] + [rng.randint(-4, 8) for _ in range((1 << n) - 1)]
        z = ExtBool(ground, tuple(values))
        s = frozenset(v for v in ground if rng.random() < 0.4)
        t = frozenset(v for v in ground if v not in s and rng.random() < 0.5)

        both = z.restrict(s | t)
        assert both.restrict(s) == z.restrict(s)
        assert both.contract(s) == z.contract(s).restrict(t)
        assert z.contract(s).contract(t) == z.contract(s | t)
