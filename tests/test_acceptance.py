"""End-to-end acceptance checks.

Nine criteria, one test and one terminal line each.  Every comparison
is exact (integers, Fractions, polynomials); the stated time budgets
are asserted where they exist.  The desk-scale family is every graph
on up to 4 vertices plus seeded random graphs on 5.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import all_digraphs, oracle_dilation_points, random_digraph
from hopfdg import (BASIC, Digraph, EDGE, EMPTY, antipode, ascent_polytope_points,
                    audit_flow, b_polynomial, base_member, brute_strict,
                    brute_weak, build_flow_network, character_polynomial,
                    character_polynomial_of_sum, check_cone_polytope_agreement,
                    check_low_morphism, cone_generators, cone_member,
                    disjoint_union, edge_invariant, lower_half_function,
                    max_flow, strict_chromatic, weak_chromatic)
from hopfdg.rings import Q, Y, Z


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        with capsys.disabled():
            mark = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"acceptance {num} {name}: {mark}{suffix}", flush=True)
        assert ok, f"criterion {num} ({name}) failed {detail}"
    return _report


_FAMILY: list[Digraph] | None = None


def desk_family() -> list[Digraph]:
    """Exhaustive graphs on 0..4 vertices plus 500 seeded graphs on 5."""
    global _FAMILY
    if _FAMILY is None:
        graphs: list[Digraph] = []
        for labels in ("", "a", "ab", "abc", "abcd"):
            graphs.extend(all_digraphs(labels))
        rng = random.Random(90125)
        graphs.extend(random_digraph(rng, "abcde", p=rng.choice((0.2, 0.4, 0.7)))
                      for _ in range(500))
        _FAMILY = graphs
    return _FAMILY


def test_criterion_1_golden_triangle(report):
    start = time.monotonic()
    g3 = Digraph(("0", "1", "2"), (("0", "1"), ("1", "2"), ("0", "2")))
    ok = strict_chromatic(g3).coeffs == (0, 0, 0, 1)
    ok &= weak_chromatic(g3).coeffs == (0, 1, 2, 1)
    ok &= b_polynomial(g3).coeffs == (
        0, 1,
        2 * Y ** 2 + 2 * Z ** 2 + 2 * Y * Z,
        Y ** 3 + Z ** 3 + 2 * Y * Z * (Y + Z),
    )
    ok &= edge_invariant(g3).coeffs == (0, Q ** 3, 2 * Q, 1)
    elapsed = time.monotonic() - start
    report(1, "golden three-vertex tournament", ok and elapsed < 1.0,
           f"{elapsed:.2f}s of 1s budget")


def test_criterion_2_chain_route_counts_strict_colorings(report):
    start = time.monotonic()
    checked = 0
    bad = None
    for g in desk_family():
        poly = character_polynomial(g, BASIC)
        for n in range(6):
            checked += 1
            if poly.eval(n) != brute_strict(g, n):
                bad = (g, n)
                break
        if bad:
            break
    elapsed = time.monotonic() - start
    report(2, "composition sum equals strict coloring count",
           bad is None and elapsed < 120.0,
           f"{checked} evaluations over {len(desk_family())} graphs, "
           f"{elapsed:.1f}s of 120s budget" + (f"; first failure {bad}" if bad else ""))


def test_criterion_3_strict_weak_reciprocity(report):
    start = time.monotonic()
    acyclic = [g for g in desk_family() if g.is_acyclic()]
    bad = None
    for g in acyclic:
        sign = (-1) ** len(g.vertices)
        strict = strict_chromatic(g)
        for n in range(1, 6):
            if sign * strict.eval(-n) != brute_weak(g, n):
                bad = (g, n)
                break
        if bad:
            break
    elapsed = time.monotonic() - start
    report(3, "negated strict invariant counts weak colorings",
           bad is None and len(acyclic) > 500,
           f"{len(acyclic)} acyclic graphs, n=1..5, {elapsed:.1f}s"
           + (f"; first failure {bad}" if bad else ""))


def test_criterion_4_antipode_reciprocity_both_characters(report):
    start = time.monotonic()
    graphs = [g for g in desk_family() if len(g.vertices) <= 4]
    rng = random.Random(41214)
    graphs += [random_digraph(rng, "abcde") for _ in range(150)]
    bad = None
    for g in graphs:
        s = antipode(g)
        for char in (BASIC, EDGE):
            direct = character_polynomial(g, char)
            flipped = character_polynomial_of_sum(s, char)
            for n in range(5):
                if direct.eval(-n) != flipped.eval(n):
                    bad = (g, char.__name__, n)
                    break
            if bad:
                break
        if bad:
            break
    elapsed = time.monotonic() - start
    report(4, "antipode flips the invariant's argument",
           bad is None,
           f"{len(graphs)} graphs, both characters, n=0..4, {elapsed:.1f}s"
           + (f"; first failure {bad}" if bad else ""))


def _cone_suite_graphs() -> list[Digraph]:
    rng = random.Random(777)
    out = []
    for _ in range(50):
        nv = rng.randint(0, 6)
        out.append(random_digraph(rng, "abcdef"[:nv], p=rng.choice((0.2, 0.5, 0.8))))
    return out


def test_criterion_5_polytope_equals_cone(report):
    start = time.monotonic()
    mismatches = 0
    audits = 0
    samples = 0
    for i, g in enumerate(_cone_suite_graphs()):
        rep = check_cone_polytope_agreement(g, samples=200, seed=9000 + i)
        samples += rep.samples
        mismatches += len(rep.mismatches)
        audits += len(rep.audit_problems)
    elapsed = time.monotonic() - start
    report(5, "base polytope membership matches cone membership",
           mismatches == 0 and audits == 0 and elapsed < 60.0,
           f"50 graphs, {samples} vectors, {mismatches} mismatches, "
           f"{elapsed:.1f}s of 60s budget")


def test_criterion_6_cut_function_is_a_morphism(report):
    start = time.monotonic()
    failures = 0
    checked = 0
    for g in desk_family():
        if len(g.vertices) > 4:
            continue
        verts = g.vertices
        subs = [frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
                for mask in range(1 << len(verts))]
        checked += len(subs)
        failures += sum(not check.passed for check in check_low_morphism(g, subs))
    rng = random.Random(606)
    for _ in range(200):
        nv = rng.randint(5, 6)
        g = random_digraph(rng, "abcdef"[:nv])
        verts = g.vertices
        subs = [frozenset(verts[i] for i in range(nv) if mask >> i & 1)
                for mask in range(1 << nv)]
        checked += len(subs)
        failures += sum(not check.passed for check in check_low_morphism(g, subs))
    elapsed = time.monotonic() - start
    report(6, "splitting commutes with the cut function",
           failures == 0,
           f"{checked} (graph, subset) pairs, {failures} failures, {elapsed:.1f}s")


def test_criterion_7_dilation_points_count_colorings(report):
    start = time.monotonic()
    bad = None
    checked = 0
    for g in desk_family():
        if len(g.vertices) > 4:
            continue
        for n in range(1, 5):
            checked += 1
            # brute_* and the polytope share one walk; the enumeration of
            # the dilated cube shares no code with either
            inner = ascent_polytope_points(g, n, interior=True)
            if inner != brute_strict(g, n) or inner != oracle_dilation_points(g, n + 1, True):
                bad = (g, n, "interior")
                break
            closed = ascent_polytope_points(g, n, interior=False)
            if closed != brute_weak(g, n) or closed != oracle_dilation_points(g, n - 1, False):
                bad = (g, n, "closed")
                break
        if bad:
            break
    elapsed = time.monotonic() - start
    report(7, "dilated polytope lattice points count colorings",
           bad is None,
           f"{checked} (graph, n) pairs, both variants, {elapsed:.1f}s"
           + (f"; first failure {bad}" if bad else ""))


def test_criterion_8_min_cut_certificates(report):
    start = time.monotonic()
    problems = 0
    flows = 0
    for i, g in enumerate(_cone_suite_graphs()[:20]):
        rng = random.Random(8800 + i)
        gens = cone_generators(g)
        for _ in range(200):
            x = {v: Fraction(0) for v in g.vertices}
            for gen in gens:
                lam = Fraction(rng.randint(0, 8), rng.randint(1, 3))
                for v, c in gen.items():
                    x[v] += lam * c
            if rng.random() < 0.5 and len(g.vertices) >= 2:
                u, w = rng.sample(g.vertices, 2)
                delta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                x[u] += delta
                x[w] -= delta
            net = build_flow_network(g, x)
            result = max_flow(net)
            flows += 1
            if result.cut_capacity != result.value or audit_flow(net, result):
                problems += 1
    elapsed = time.monotonic() - start
    report(8, "every max flow carries a matching min cut",
           problems == 0 and flows >= 4000,
           f"{flows} flows audited, {problems} problems, {elapsed:.1f}s")


def _axiom_round_problems(rng: random.Random) -> list[str]:
    nv = rng.randint(0, 6)
    g = random_digraph(rng, "abcdef"[:nv], p=rng.choice((0.2, 0.5, 0.8)))
    verts = g.vertices
    problems = []

    # unit laws
    if disjoint_union(g, EMPTY) != g:
        problems.append("unit: product with the empty graph")
    if g.coproduct(()) != (EMPTY, g) or g.coproduct(verts) != (g, EMPTY):
        problems.append("unit: trivial splits")

    # coassociativity: both iterated splits of a chain agree, zeros included
    s_set = frozenset(v for v in verts if rng.random() < 0.5)
    r_set = frozenset(v for v in s_set if rng.random() < 0.5)
    first = None
    outer = g.coproduct(s_set)
    if outer is not None:
        inner = outer[0].coproduct(r_set)
        if inner is not None:
            first = (inner[0], inner[1], outer[1])
    second = None
    outer2 = g.coproduct(r_set)
    if outer2 is not None:
        inner2 = outer2[1].coproduct(s_set - r_set)
        if inner2 is not None:
            second = (outer2[0], inner2[0], inner2[1])
    if first != second:
        problems.append(f"coassociativity at S={sorted(s_set)}, R={sorted(r_set)}")

    # compatibility: splitting a product splits the factors
    aux_nv = rng.randint(0, 3)
    aux = random_digraph(rng, "xyz"[:aux_nv])
    merged = disjoint_union(g, aux)
    mixed = frozenset(v for v in merged.vertices if rng.random() < 0.5)
    whole = merged.coproduct(mixed)
    left = g.coproduct(mixed & set(verts))
    right = aux.coproduct(mixed & set(aux.vertices))
    if (whole is None) != (left is None or right is None):
        problems.append("compatibility: zero cases")
    elif whole is not None:
        if whole != (disjoint_union(left[0], right[0]),
                     disjoint_union(left[1], right[1])):
            problems.append("compatibility: parts differ")

    # naturality: relabeling commutes with splitting
    fresh = [f"n{i}" for i in range(nv)]
    rng.shuffle(fresh)
    sigma = dict(zip(verts, fresh))
    moved = g.relabel(sigma)
    s_img = frozenset(sigma[v] for v in s_set)
    if moved.is_lower_half(s_img) != g.is_lower_half(s_set):
        problems.append("naturality: lower halves not preserved")
    elif g.is_lower_half(s_set):
        a = g.coproduct(s_set)
        if (a[0].relabel(sigma), a[1].relabel(sigma)) != moved.coproduct(s_img):
            problems.append("naturality: split does not transport")
    return problems


def test_criterion_9_hopf_axioms(report):
    start = time.monotonic()
    rng = random.Random(1881)
    failures: list[str] = []
    for i in range(1000):
        for note in _axiom_round_problems(rng):
            failures.append(f"round {i}: {note}")
    elapsed = time.monotonic() - start
    report(9, "merge/split axioms on seeded instances",
           not failures,
           f"1000 rounds, {elapsed:.1f}s" + (f"; {failures[0]}" if failures else ""))
