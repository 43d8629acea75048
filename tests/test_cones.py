import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (LABELS, all_digraphs, dense_values, oracle_base_member,
                      oracle_count_colorings, oracle_dilation_points, oracle_max_flow,
                      oracle_sample_vectors, random_digraph, sample_vectors)
from hopfdg import cones
from hopfdg import (Arc, Digraph, FlowNetwork, SINK, SOURCE,
                    UnboundedFlowError, WorkLimitError,
                    ascent_polytope_points, audit_flow, base_member,
                    brute_strict, brute_weak, build_flow_network,
                    check_cone_polytope_agreement, cone_generators,
                    cone_member, ExtBool, generic_direction_count, INF,
                    lower_half_function, max_flow, vertex_sum_count)


def diamond_network(mid_caps=(3, 2)) -> FlowNetwork:
    a, b = mid_caps
    return FlowNetwork(
        nodes=(SOURCE, "u", "v", SINK),
        arcs=(
            Arc(SOURCE, "u", 4),
            Arc(SOURCE, "v", 2),
            Arc("u", "v", 1),
            Arc("u", SINK, a),
            Arc("v", SINK, b),
        ),
    )


def test_max_flow_diamond_frozen():
    result = max_flow(diamond_network())
    assert result.value == 5
    assert result.cut == {SOURCE, "u", "v"}
    assert result.cut_capacity == 5
    assert audit_flow(diamond_network(), result) == []


def test_max_flow_bottleneck_cut():
    net = FlowNetwork(
        nodes=(SOURCE, "a", "b", SINK),
        arcs=(Arc(SOURCE, "a", 10), Arc("a", "b", 1), Arc("b", SINK, 10)),
    )
    result = max_flow(net)
    assert result.value == 1
    assert result.cut == {SOURCE, "a"}
    assert result.cut_capacity == 1


def test_max_flow_fractional():
    net = FlowNetwork(
        nodes=(SOURCE, "a", SINK),
        arcs=(Arc(SOURCE, "a", Fraction(1, 3)), Arc("a", SINK, Fraction(5, 2))),
    )
    result = max_flow(net)
    assert result.value == Fraction(1, 3)
    assert audit_flow(net, result) == []


def test_max_flow_infinite_paths():
    net = FlowNetwork(
        nodes=(SOURCE, "a", SINK),
        arcs=(Arc(SOURCE, "a", 5), Arc("a", SINK, INF)),
    )
    assert max_flow(net).value == 5
    unbounded = FlowNetwork(
        nodes=(SOURCE, SINK),
        arcs=(Arc(SOURCE, SINK, INF),),
    )
    with pytest.raises(UnboundedFlowError):
        max_flow(unbounded)


def test_network_validation():
    with pytest.raises(ValueError):
        Arc("a", "a", 1)
    with pytest.raises(ValueError):
        Arc("a", "b", -1)
    with pytest.raises(ValueError):
        FlowNetwork(nodes=("a", SINK), arcs=())  # no source
    with pytest.raises(ValueError):
        FlowNetwork(nodes=(SOURCE, SINK), arcs=(Arc(SINK, SOURCE, 1),))
    with pytest.raises(ValueError, match="differ"):
        FlowNetwork(nodes=(SOURCE,), arcs=(), sink=SOURCE)


def test_audit_catches_tampering():
    net = diamond_network()
    result = max_flow(net)
    broken = result.__class__(result.value + 1, result.flows, result.cut,
                              result.cut_capacity)
    assert audit_flow(net, broken)


def diamond_arrays():
    """diamond_network in index form: u, v, source, sink are nodes 0..3."""
    return ("u", "v", SOURCE, SINK), [2, 2, 0, 0, 1], [0, 1, 1, 3, 3], [4, 2, 1, 3, 2], 2, 3


def test_index_audit_catches_tampering():
    nodes, tails, heads, caps, s, t = diamond_arrays()
    result = cones._augment(len(nodes), tails, heads, caps, s, t)
    assert result.value == 5 and result.cut == {0, 1, 2}
    assert cones._audit(nodes, tails, heads, caps, s, t, result) == []

    def flows_with(e, f):
        return result.flows[:e] + (f,) + result.flows[e + 1:]

    u_to_sink = result.flows[3]
    tampered = (
        (replace(result, value=6), "source sends 5, claimed 6"),
        (replace(result, flows=flows_with(3, 4)),
         "flow 4 exceeds capacity on Arc(tail='u', head=sink, capacity=3)"),
        (replace(result, flows=flows_with(3, u_to_sink - 1)),
         "conservation fails at 'u' by 1"),
    )
    net = diamond_network()
    for broken, problem in tampered:
        problems = cones._audit(nodes, tails, heads, caps, s, t, broken)
        assert problem in problems
        # the public audit names the same problems, in the same order
        cut = frozenset(nodes[i] for i in broken.cut)
        assert audit_flow(net, replace(broken, cut=cut)) == problems


@pytest.mark.parametrize("tamper,problem", [
    (lambda r: replace(r, flows=r.flows[:-1]), "3 flows given for 4 arcs"),
    (lambda r: replace(r, flows=r.flows + (7,)), "5 flows given for 4 arcs"),
    (lambda r: replace(r, cut=r.cut | {"zzz"}), "cut node 'zzz' is not in the network"),
], ids=["flow missing", "flow extra", "cut node outside"])
def test_audit_catches_misshapen_results(tamper, problem):
    # every arc and node the result names is checked, not only those it
    # shares with the network
    net = FlowNetwork(
        nodes=(SOURCE, "a", "b", SINK),
        arcs=(Arc(SOURCE, "a", 10), Arc("a", "b", 1), Arc("b", SINK, 10), Arc("a", SINK, 0)),
    )
    result = max_flow(net)
    assert result.flows == (1, 1, 1, 0) and audit_flow(net, result) == []
    assert audit_flow(net, tamper(result)) == [problem]


def test_cone_generators_order(g3):
    gens = cone_generators(g3)
    assert gens == [
        {"0": -1, "1": 1, "2": 0},
        {"0": -1, "1": 0, "2": 1},
        {"0": 0, "1": -1, "2": 1},
    ]


def test_cone_member_golden(g3):
    witness = cone_member(g3, {"0": -2, "1": 1, "2": 1})
    assert witness is not None
    rebuilt = {v: Fraction(0) for v in g3.vertices}
    for (u, v), lam in witness.items():
        assert lam >= 0
        rebuilt[u] -= lam
        rebuilt[v] += lam
    assert rebuilt == {"0": Fraction(-2), "1": Fraction(1), "2": Fraction(1)}

    assert cone_member(g3, {"0": 1, "1": -1, "2": 0}) is None
    assert cone_member(g3, {"0": 1, "1": 1, "2": 1}) is None  # sum nonzero
    apex = cone_member(g3, {"0": 0, "1": 0, "2": 0})
    assert apex is not None and all(lam == 0 for lam in apex.values())


def test_cone_member_fractional(g3):
    x = {"0": Fraction(-1, 3), "1": Fraction(1, 6), "2": Fraction(1, 6)}
    witness = cone_member(g3, x)
    assert witness is not None
    total = {v: Fraction(0) for v in g3.vertices}
    for (u, v), lam in witness.items():
        total[u] -= lam
        total[v] += lam
    assert total == {k: Fraction(v) for k, v in x.items()}


def test_base_member_matches_inequalities(g3):
    z = lower_half_function(g3)
    assert base_member(z, {"0": -1, "1": 0, "2": 1})
    assert not base_member(z, {"0": 1, "1": 0, "2": -1})
    assert base_member(z, {"0": 0, "1": 0, "2": 0})
    assert not base_member(z, {"0": -1, "1": 0, "2": 0})  # sum must be zero


def test_agreement_report(g3):
    report = check_cone_polytope_agreement(g3, samples=120, seed=5)
    assert report.passed
    assert report.samples == 120
    assert not report.mismatches
    assert not report.audit_problems


def test_agreement_audits_the_one_flow_that_decided(g3, monkeypatch):
    flows, audited = [], []
    real_augment, real_audit = cones._augment, cones._audit

    def counting_augment(*network):
        flows.append(real_augment(*network))
        return flows[-1]

    def recording_audit(*network_and_result):
        audited.append(network_and_result[-1])
        return real_audit(*network_and_result)

    monkeypatch.setattr(cones, "_augment", counting_augment)
    monkeypatch.setattr(cones, "_audit", recording_audit)
    vectors = sample_vectors(g3, 90, random.Random(4))
    report = check_cone_polytope_agreement(g3, samples=90, seed=4)
    assert report.passed
    assert len(flows) == sum(1 for vec in vectors if sum(vec.values()) == 0)
    assert len(audited) == len(flows)
    assert all(a is f for a, f in zip(audited, flows))


def test_agreement_on_random_graphs():
    rng = random.Random(71)
    for _ in range(12):
        g = random_digraph(rng, "abcde"[: rng.randint(0, 5)])
        report = check_cone_polytope_agreement(g, samples=60, seed=rng.randint(0, 10 ** 6))
        assert report.passed, g


def test_generic_direction_count_is_strict_count():
    rng = random.Random(73)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        for n in range(5):
            assert generic_direction_count(g, n) == brute_strict(g, n)


def test_vertex_sum_count_is_weak_count():
    rng = random.Random(79)
    seen = 0
    for _ in range(50):
        g = random_digraph(rng, "abcd", p=0.3)
        if not g.is_acyclic():
            with pytest.raises(ValueError):
                vertex_sum_count(g, 2)
            continue
        seen += 1
        for n in range(5):
            assert vertex_sum_count(g, n) == brute_weak(g, n)
    assert seen >= 20


def test_cone_counts_match_the_colorings_falling_along_every_edge():
    # the geometric definitions: a direction in {1..n} whose maximum over the
    # edge cone is the apex falls strictly along every edge, and one whose
    # maximal face holds the apex of a pointed cone falls weakly, so each
    # count is the coloring oracle on the reversed edges; the polytope
    # counts are the same maps through y -> n+1-y
    for g in (g for k in range(5) for g in all_digraphs(LABELS[:k])):
        rev = Digraph(g.vertices, [(v, u) for u, v in g.edges])
        acyclic = g.is_acyclic()
        if not acyclic:
            with pytest.raises(ValueError, match="cyclic graph has no vertex"):
                vertex_sum_count(g, 2)
        for n in range(5):
            strict = oracle_count_colorings(rev, n, True)
            weak = oracle_count_colorings(rev, n, False)
            assert generic_direction_count(g, n) == strict, (g, n)
            assert ascent_polytope_points(g, n, interior=True) == strict, (g, n)
            assert ascent_polytope_points(g, n, interior=False) == (weak if n else 0), (g, n)
            if acyclic:
                assert vertex_sum_count(g, n) == weak, (g, n)


def test_ascent_polytope_point_counts(g3):
    # interior of the (n+1)-fold dilation counts strict colorings, the
    # closed (n-1)-fold dilation weak ones
    for n in range(6):
        assert ascent_polytope_points(g3, n, interior=True) == brute_strict(g3, n)
        assert (ascent_polytope_points(g3, n, interior=True)
                == oracle_dilation_points(g3, n + 1, True))
        assert (ascent_polytope_points(g3, n, interior=False)
                == oracle_dilation_points(g3, n - 1, False))
    for n in range(1, 6):
        assert ascent_polytope_points(g3, n, interior=False) == brute_weak(g3, n)
    assert ascent_polytope_points(g3, 0, interior=False) == 0
    with pytest.raises(ValueError):
        ascent_polytope_points(g3, -1, interior=False)


def test_ascent_polytope_exhaustive_small():
    for g in all_digraphs("ab"):
        for n in range(1, 5):
            assert ascent_polytope_points(g, n, interior=True) == brute_strict(g, n)
            assert ascent_polytope_points(g, n, interior=False) == brute_weak(g, n)
            assert (ascent_polytope_points(g, n, interior=True)
                    == oracle_dilation_points(g, n + 1, True))
            assert (ascent_polytope_points(g, n, interior=False)
                    == oracle_dilation_points(g, n - 1, False))


def test_count_gates():
    g = Digraph([f"v{i}" for i in range(10)])
    with pytest.raises(WorkLimitError):
        generic_direction_count(g, 50)
    with pytest.raises(WorkLimitError):
        ascent_polytope_points(g, 50, interior=False)


def test_lower_halves_are_the_nonpositive_generator_sums():
    # S admits a split exactly when every edge direction has sum <= 0 on S,
    # which ties the cone's facial structure to the splitting rule
    rng = random.Random(103)
    for _ in range(25):
        g = random_digraph(rng, "abcd")
        gens = cone_generators(g)
        nv = len(g.vertices)
        for mask in range(1 << nv):
            sub = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)
            bounded = all(sum(vec[v] for v in sub) <= 0 for vec in gens)
            assert bounded == g.is_lower_half(sub)


def _small_digraphs():
    for nv in range(5):
        yield from all_digraphs(LABELS[:nv])


def _seeded_graphs(seed: int, count: int = 30):
    rng = random.Random(seed)
    return [random_digraph(rng, LABELS[:5 + i % 3]) for i in range(count)]


def _assert_flow_matches_oracle(net):
    new = max_flow(net)
    assert new == oracle_max_flow(net), net  # value, flows, cut and cut capacity
    return new


def _assert_flows_match(g, vec):
    # the sampled integer vector and the same vector over 12, in Fractions
    result = _assert_flow_matches_oracle(build_flow_network(g, vec))
    numbers = (result.value, result.cut_capacity, *result.flows)
    assert all(type(c) is int for c in numbers), "ints in must give ints out"
    _assert_flow_matches_oracle(build_flow_network(g, {v: Fraction(c, 12)
                                                       for v, c in vec.items()}))


def test_max_flow_matches_old_route_on_all_small_digraphs():
    # one vector per graph, the three kinds of sample in turn
    for i, g in enumerate(_small_digraphs()):
        _assert_flows_match(g, sample_vectors(g, 3, random.Random(i))[i % 3])


def test_max_flow_matches_old_route_on_seeded_graphs():
    for i, g in enumerate(_seeded_graphs(211)):
        for vec in sample_vectors(g, 30, random.Random(i)):
            _assert_flows_match(g, vec)


def inf_arcs(tails, heads, nn):
    """The residual arcs of one graph's INF arcs, as theorem1 builds them once."""
    arcs = ([], [[] for _ in range(nn)])
    cones._residual_arcs(tails, heads, 0, *arcs)
    return arcs


def _assert_index_route_matches(g, x):
    # the agreement check's per-sample flow against the FlowNetwork route
    # of criterion 8, which cone-member and cone_member take
    _, tails, heads = g.edge_arrays()
    nodes = (*g.vertices, SOURCE, SINK)
    coords = [x[v] for v in g.vertices]
    result, problems, member = cones._sample_flow(nodes, tails, heads, coords,
                                                  inf_arcs(tails, heads, len(nodes)))
    net = build_flow_network(g, x)
    public = max_flow(net)
    assert problems == [] and audit_flow(net, public) == [], (g, x)
    assert result.value == public.value, (g, x)
    assert result.flows == public.flows, (g, x)
    assert frozenset(nodes[i] for i in result.cut) == public.cut, (g, x)
    assert result.cut_capacity == public.cut_capacity, (g, x)
    witness = dict(zip(g.edge_list, result.flows)) if member else None
    assert cones.membership_flow(g, x) == (public.value, witness), (g, x)
    assert cone_member(g, x) == witness, (g, x)


def test_index_route_matches_membership_flow_on_all_small_digraphs():
    for i, g in enumerate(_small_digraphs()):
        for vec in sample_vectors(g, 6, random.Random(i)):
            _assert_index_route_matches(g, vec)


def test_index_route_matches_membership_flow_on_seeded_graphs():
    # the sampled integer vectors and the same vectors over 12, in Fractions
    for i, g in enumerate(_seeded_graphs(239)):
        for vec in sample_vectors(g, 30, random.Random(i)):
            _assert_index_route_matches(g, vec)
            _assert_index_route_matches(g, {v: Fraction(c, 12) for v, c in vec.items()})


def _assert_template_matches_scratch(g, coords, shared):
    # one sample's flow from the graph's shared INF arcs against _augment
    # building every arc itself: value, flows, cut and cut capacity
    nv, tails, heads = g.edge_arrays()
    s, t = nv, nv + 1
    arc_tails, arc_heads, caps = tails[:], heads[:], [INF] * len(tails)
    for v, c in enumerate(coords):
        if c:
            arc_tails.append(v if c > 0 else s)
            arc_heads.append(t if c > 0 else v)
            caps.append(abs(c))
    network = (nv + 2, arc_tails, arc_heads, caps, s, t)
    assert cones._augment(*network, shared) == cones._augment(*network), (g, coords)


def test_shared_inf_arcs_give_the_flow_built_from_scratch():
    graphs = [*_small_digraphs(), *_seeded_graphs(241)]
    for i, g in enumerate(graphs):
        nv, tails, heads = g.edge_arrays()
        shared = inf_arcs(tails, heads, nv + 2)
        copy = tuple(map(repr, shared))
        for coords in cones._sample_coords(nv, tails, heads, 12, random.Random(i)):
            if sum(coords) == 0:
                _assert_template_matches_scratch(g, coords, shared)
                _assert_template_matches_scratch(g, [Fraction(c, 7) for c in coords], shared)
        assert tuple(map(repr, shared)) == copy, "a flow changed the shared arcs"


# denominators that differ per coordinate, two of them primes above 10^9
DENOMINATORS = (1, 2, 3, 4, 7, 12, 10 ** 9 + 7, 10 ** 9 + 9)


def _rational_vectors(g, rng):
    """A cone member, a perturbed one and a raw sum-zero vector, over DENOMINATORS."""
    verts = g.vertices

    def draw(least):
        return Fraction(rng.randint(least, 6), rng.choice(DENOMINATORS))

    member = dict.fromkeys(verts, Fraction(0))
    for u, v in g.edge_list:
        lam = draw(0)
        member[u] -= lam
        member[v] += lam
    perturbed = dict(member)
    raw = {v: draw(-6) for v in verts}
    if verts:
        u, w = verts[0], verts[-1]
        delta = draw(-6)
        perturbed[u] += delta
        perturbed[w] -= delta
        raw[w] -= sum(raw.values())
    return member, perturbed, raw


def test_int_scaled_membership_flow_matches_the_flow_in_fractions():
    graphs = [*_small_digraphs(), *_seeded_graphs(251)]
    rng = random.Random(257)
    for g in graphs:
        for x in _rational_vectors(g, rng):
            public = max_flow(build_flow_network(g, x))   # in the Fractions themselves
            demand = sum(c for c in x.values() if c > 0)
            witness = (dict(zip(g.edge_list, public.flows))
                       if public.value == demand else None)
            value, got = cones.membership_flow(g, x)
            assert value == public.value and got == witness, (g, x)


def test_sampled_vectors_are_twelve_times_the_old_ones():
    # the list draws against the rational oracle, and the dict helper the
    # flow tests draw from against both
    graphs = [*_small_digraphs(), *_seeded_graphs(223)]
    for i, g in enumerate(graphs):
        nv, tails, heads = g.edge_arrays()
        new_rng, old_rng, dict_rng = random.Random(i), random.Random(i), random.Random(i)
        new = [dict(zip(g.vertices, coords))
               for coords in cones._sample_coords(nv, tails, heads, 12, new_rng)]
        old = oracle_sample_vectors(g, 12, old_rng)
        assert new == [{v: 12 * c for v, c in vec.items()} for vec in old], g
        # every sample sums to zero, so the agreement check runs a flow on each
        assert all(sum(vec.values()) == 0 for vec in new), g
        assert all(type(c) is int for vec in new for c in vec.values())
        assert sample_vectors(g, 12, dict_rng) == new, g
        # the same draws, in order
        assert new_rng.random() == old_rng.random() == dict_rng.random()


def test_base_member_matches_old_route():
    rng = random.Random(227)
    graphs = [*all_digraphs(LABELS[:3]), *_seeded_graphs(229, 12)]
    for i, g in enumerate(graphs):
        z = lower_half_function(g)
        for vec in sample_vectors(g, 12, random.Random(i)):
            for x in (vec, {v: Fraction(c, 12) for v, c in vec.items()}):
                assert base_member(z, x) == oracle_base_member(z, x), (g, x)
    # tables with finite values beyond 0, on the full set too
    for _ in range(300):
        labels = LABELS[:rng.randint(0, 4)]
        n = len(labels)
        values = [0] + [rng.choice((INF, rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)))
                        for _ in range((1 << n) - 1)]
        if n:
            values[-1] = rng.randint(-2, 2)
        z = ExtBool(labels, values)
        x = {lab: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for lab in labels}
        if labels:
            x[labels[-1]] += dense_values(z)[-1] - sum(x.values())
        for y in (x, {lab: c.numerator if c.denominator == 1 else c for lab, c in x.items()}):
            assert base_member(z, y) == oracle_base_member(z, y), (z, y)


def test_agreement_on_a_long_cycle_builds_no_table_over_all_subsets():
    labels = [f"v{i:02d}" for i in range(20)]
    g = Digraph(labels, zip(labels, labels[1:] + labels[:1]))
    assert lower_half_function(g).finite == {0: 0, (1 << 20) - 1: 0}
    assert check_cone_polytope_agreement(g, samples=5).passed


def test_agreement_runs_without_fractions(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("the sampled agreement check built a Fraction")

    monkeypatch.setattr(cones, "Fraction", NoFraction)
    for i, g in enumerate(_seeded_graphs(233, 6)):
        assert check_cone_polytope_agreement(g, samples=30, seed=i).passed, g


def test_agreement_refuses_a_negative_sample_count(g3):
    with pytest.raises(ValueError, match="samples"):
        check_cone_polytope_agreement(g3, samples=-1)
    assert check_cone_polytope_agreement(g3, samples=0).samples == 0


def test_int_and_fraction_queries_get_the_same_answers(g3):
    x = {"0": -2, "1": 1, "2": 1}
    as_ints = cone_member(g3, x)
    as_fractions = cone_member(g3, {v: Fraction(c) for v, c in x.items()})
    assert as_ints == as_fractions
    assert all(type(w) is int for w in as_ints.values())
