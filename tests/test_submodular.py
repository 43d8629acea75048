import random
from fractions import Fraction

import pytest

from conftest import (all_digraphs, count_halves_taken, dense_values, is_finite,
                      lower_halves, oracle_is_lower_half, random_digraph, tabulate)
from hopfdg import (Digraph, ExtBool, INF, check_low_morphism, WorkLimitError,
                    direct_sum, disjoint_union, limits, lower_half_function)
from hopfdg.cli import main


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
    z = tabulate("ab", lambda s: len(s) ** 2)
    assert z.value({"a", "b"}) == 4
    r = z.restrict({"a"})
    assert r.ground == ("a",)
    assert r.value({"a"}) == 1


def test_contract_shifts_by_base():
    z = tabulate("abc", lambda s: len(s) ** 2)
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
    za = tabulate("ab", lambda s: len(s))
    zb = tabulate("xy", lambda s: 2 * len(s))
    z = direct_sum(za, zb)
    assert z.ground == ("a", "b", "x", "y")
    assert z.value({"a", "x", "y"}) == 1 + 4
    with pytest.raises(ValueError):
        direct_sum(za, za)


def test_submodularity_checker():
    # rank-like function: submodular
    good = tabulate("abc", lambda s: min(len(s), 2))
    assert good.is_submodular()
    # size squared: strictly supermodular once sets overlap
    bad = tabulate("abc", lambda s: len(s) ** 2)
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


def test_submodularity_check_is_gated_on_the_pairs_of_its_support(monkeypatch):
    # a 14-vertex directed path has 15 lower halves, so 105 pairs; 4^14 is
    # far past the default budget
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    labels = [f"v{i:02d}" for i in range(14)]
    z = lower_half_function(Digraph(labels, zip(labels, labels[1:])))
    assert len(z.finite) == 15
    assert z.is_submodular()
    monkeypatch.setenv("HOPFDG_MAX_WORK", "104")
    with pytest.raises(WorkLimitError) as exc:
        z.is_submodular()
    assert "needs about 105 steps" in str(exc.value)


def directed_cycle(nv: int) -> Digraph:
    labels = [f"v{i:02d}" for i in range(nv)]
    return Digraph(labels, zip(labels, labels[1:] + labels[:1]))


def test_cut_function_of_a_twenty_four_vertex_cycle_answers(monkeypatch, tmp_path, capsys):
    # only the empty and the full set are lower halves; no bound on the
    # vertex count stands in the way
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    g = directed_cycle(24)
    z = lower_half_function(g)
    assert z.finite == {0: 0, (1 << 24) - 1: 0}
    assert lower_halves(g) == [frozenset(), frozenset(g.vertices)]
    checks = check_low_morphism(g, [(), g.vertices, g.vertices[:1], g.vertices[:12]])
    assert all(check.passed for check in checks)
    path = tmp_path / "cycle.txt"
    path.write_text("vertices: " + " ".join(g.vertices) + "\n"
                    + "".join(f"{u} -> {v}\n" for u, v in g.edges))
    assert main(["verify", "theorem1", str(path)]) == 0
    assert "polytope/cone agreement (200 vectors)" in capsys.readouterr().out


def test_cut_function_of_twenty_isolated_vertices_is_refused_by_the_meter(monkeypatch):
    # 2^20 lower halves, each charged 20 probes: the walk stops one half
    # past what the budget admits
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    taken = count_halves_taken(monkeypatch)
    with pytest.raises(WorkLimitError):
        lower_half_function(Digraph([f"v{i:02d}" for i in range(20)], []))
    assert taken[0] == limits.work_budget() // 20 + 1


def test_lower_half_searches_are_refused_in_their_own_words(monkeypatch):
    # the walk sums nothing here, so its refusal names a search, not a
    # composition sum: 1000 // 20 + 1 halves taken, 20 probes each
    monkeypatch.setenv("HOPFDG_MAX_WORK", "1000")
    g = Digraph([f"v{i:02d}" for i in range(20)], [])
    for search in (lower_half_function, lower_halves):
        with pytest.raises(WorkLimitError) as exc:
            search(g)
        assert str(exc.value).startswith(
            "lower-half search over at least 51 lower halves needs at least 1020 steps, "
            "over the work budget 1000")


def test_direct_sum_is_gated_on_the_entries_it_builds(monkeypatch):
    u = lower_half_function(Digraph("abc", [("a", "b"), ("b", "c")]))
    v = lower_half_function(Digraph("xy", [("x", "y")]))
    assert (len(u.finite), len(v.finite)) == (4, 3)
    monkeypatch.setenv("HOPFDG_MAX_WORK", "11")
    with pytest.raises(WorkLimitError) as exc:
        direct_sum(u, v)
    assert "direct sum of 4 and 3 finite values needs about 12 steps" in str(exc.value)
    monkeypatch.setenv("HOPFDG_MAX_WORK", "12")
    assert len(direct_sum(u, v).finite) == 12


def test_morphism_checks_exhaustive_small():
    for g in all_digraphs("abc"):
        verts = g.vertices
        subs = [frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
                for mask in range(1 << len(verts))]
        checks = check_low_morphism(g, subs)
        assert len(checks) == len(subs)
        for sub, check in zip(subs, checks):
            assert check.passed, (g, sub, check)


def test_morphism_check_contents(g3):
    check, check2 = check_low_morphism(g3, [{"0"}, {"2"}])
    assert check.split_is_lower_half
    assert check.restriction_ok and check.contraction_ok and check.product_ok
    assert not check2.split_is_lower_half
    assert check2.zero_sides_agree
    assert check2.restriction_ok is None


def test_morphism_builds_each_cut_function_once(g3, monkeypatch):
    import hopfdg.submodular as submodular
    built = []

    def counted(g):
        built.append(g)
        return lower_half_function(g)

    monkeypatch.setattr(submodular, "lower_half_function", counted)
    subs = [{"0"}, {"2"}, {"0", "1"}]
    assert all(check.passed for check in check_low_morphism(g3, subs))
    # g once, then per subset the two parts and their disjoint union,
    # which drops an edge of g3 for each of these subsets
    assert built[0] == g3 and len(built) == 1 + 3 * len(subs)
    assert built.count(g3) == 1


def test_morphism_check_requires_the_split_to_give_the_induced_parts(g3, monkeypatch):
    def swapped(self, subset):
        sub = frozenset(subset)
        rest = frozenset(self.vertices) - sub
        return (self.restrict(rest), self.restrict(sub)) if self.is_lower_half(sub) else None

    monkeypatch.setattr(Digraph, "coproduct", swapped)
    (check,) = check_low_morphism(g3, [{"0"}])
    assert check.split_is_lower_half and not check.passed
    assert check.restriction_ok is False and check.contraction_ok is False


def test_morphism_product_law_directly():
    rng = random.Random(67)
    for _ in range(20):
        g = random_digraph(rng, "abc")
        h = random_digraph(rng, "xy")
        u = disjoint_union(g, h)
        zs = direct_sum(lower_half_function(g), lower_half_function(h))
        zu = lower_half_function(u)
        assert zs.ground == zu.ground
        assert dense_values(zs) == dense_values(zu)


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
