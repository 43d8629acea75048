"""Base polytopes, edge cones, and the exact max-flow bridge between them.

For a graph g, the cut function (0 on lower halves, INF elsewhere) has a
base polytope: vectors x summing to the full-set value with x(A) below
the function value for every A.  The cone side is generated by one vector
per edge, head minus tail.  Membership in the cone is decided by max-flow
on a small network and, when the answer is yes, the flow values on the
original edges are the certificate combination; when it is no, the
minimum cut exhibits a violated lower half (Gale's feasibility theorem).
Arithmetic is exact in the numbers given (ints stay ints, anything else
becomes a Fraction), every max-flow result carries its own min-cut
certificate, and the sampled agreement check clears its denominators
once and runs in ints.

One augmenting-path routine (_augment) and one audit (_audit) work on
networks in index form: nodes 0..nn-1 and arcs as tail, head and
capacity arrays.  max_flow and audit_flow map a FlowNetwork of labelled
nodes onto them, and max_flow computes in the capacities' own numbers.
membership_flow, the route of cone_member and the cone-member command,
scales a rational vector by the lcm of its denominators, runs max_flow
on ints and scales the value and the witness back.  The augmenting
paths compare residual capacities only with each other and with 0, and
an INF arc's stand-in never decides a bottleneck (each path leaves the
source by an arc with less room), so the paths, and the flows, are
those of the unscaled network.

The sampled agreement check builds no FlowNetwork and no dict per
sample.  Per graph it builds the index arrays (vertices 0..n-1, source
n, sink n+1, one INF arc per edge), the residual arcs of those INF arcs
(_residual_arcs), and the cut function's support as steps of running
sums (_base_plan).  Each sample is a list of coordinates in vertex
order, drawn from the seeded stream as random.randint would draw it
(_sample_coords); it is decided by the running sums (_in_base, which
base_member shares) and by one max flow on a copy of the graph's arcs
plus its own terminal arcs, then its full audit and its witness check.
A sample becomes a dict only when a mismatch or an audit reports it.
"""

from __future__ import annotations

import random
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping

from .digraph import Digraph
from .errors import UnboundedFlowError
from .invariants import brute_strict, brute_weak
from .submodular import INF, ExtBool, lower_half_function
from . import limits


class _Terminal:
    """Distinct non-vertex node; two instances serve as source and sink."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


SOURCE = _Terminal("source")
SINK = _Terminal("sink")


@dataclass(frozen=True)
class Arc:
    tail: object
    head: object
    capacity: object  # non-negative int/Fraction, or INF

    def __post_init__(self):
        if self.tail == self.head:
            raise ValueError(f"loop arc at {self.tail!r}")
        cap = self.capacity
        if cap is INF:
            return
        if not isinstance(cap, (int, Fraction)) or cap < 0:
            raise ValueError(f"capacity must be non-negative or INF, got {cap!r}")


def _are_nodes(nodeset: set, *ends: object) -> bool:
    try:
        return all(end in nodeset for end in ends)
    except TypeError:   # an unhashable end is no node
        return False


@dataclass(frozen=True)
class FlowNetwork:
    nodes: tuple
    arcs: tuple[Arc, ...]
    source: object = SOURCE
    sink: object = SINK

    def __post_init__(self):
        try:
            nodeset = set(self.nodes)
        except TypeError:   # an unhashable node, or no collection
            raise ValueError(f"nodes must be a collection of hashable objects, "
                             f"got {self.nodes!r}") from None
        if not _are_nodes(nodeset, self.source, self.sink):
            raise ValueError("source and sink must be nodes")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not isinstance(self.arcs, Collection):
            raise ValueError(f"arcs must be a collection of Arcs, got {self.arcs!r}")
        for arc in self.arcs:
            if not isinstance(arc, Arc):
                raise ValueError(f"arc {arc!r} is not an Arc")
            if not _are_nodes(nodeset, arc.tail, arc.head):
                raise ValueError(f"arc {arc!r} leaves the node set")
            if arc.head is self.source:
                raise ValueError("no arc may enter the source")
            if arc.tail is self.sink:
                raise ValueError("no arc may leave the sink")


@dataclass(frozen=True)
class FlowResult:
    """A maximum flow together with its certifying minimum cut.

    Each number is an exact number, an int when every capacity is one.
    flows[i] is the value pushed through arcs[i]; cut is the set of nodes
    reachable from the source in the residual graph, and cut_capacity
    (the total capacity leaving the cut) equals value by construction.
    From the index-form routines the nodes of the cut are indices.
    """

    value: int | Fraction
    flows: tuple[int | Fraction, ...]
    cut: frozenset
    cut_capacity: int | Fraction


# residual targets and adjacency lists of a network's first arcs (_residual_arcs)
_InfArcs = tuple[list[int], list[list[int]]]


def _residual_arcs(tails: list[int], heads: list[int], first: int,
                   to: list[int], adj: list[list[int]]) -> None:
    """Add arcs first, first+1, ... to the residual targets to and the adjacency adj.

    Arc e gives residual arc 2e, tails[e] -> heads[e], and its reverse
    2e+1, each listed at the node it leaves.
    """
    for e in range(first, len(tails)):
        u, v = tails[e], heads[e]
        to += (v, u)
        adj[u].append(2 * e)
        adj[v].append(2 * e + 1)


def _augment(nn: int, tails: list[int], heads: list[int], caps: list,
             s: int, t: int, inf_arcs: _InfArcs | None = None) -> FlowResult:
    """Shortest-augmenting-path max flow on an index-form network.

    The nodes are 0..nn-1, arc e runs tails[e] -> heads[e] with capacity
    caps[e] (a non-negative number or INF), and s and t are the source
    and the sink.  INF capacities are replaced by one more than the
    finite total, which caps any finite cut; if the computed value still
    reaches that stand-in no finite cut exists and UnboundedFlowError is
    raised.

    inf_arcs, when given, is _residual_arcs' (to, adj) for the network's
    first arcs, all of capacity INF; they are copied, not rebuilt, so
    the flows of one graph share its arcs.
    """
    # paired residual arcs: 2e forward with capacity, 2e+1 backward with 0;
    # residual arc r runs from to[r ^ 1] to to[r]
    if inf_arcs is None:
        first, to, adj = 0, [], [[] for _ in range(nn)]
    else:
        to, adj = inf_arcs
        first, to, adj = len(to) >> 1, to[:], list(map(list.copy, adj))
    rest = caps[first:]
    stand_in = sum(c for c in rest if c is not INF) + 1
    res = [stand_in, 0] * first
    for c in rest:
        res += (stand_in if c is INF else c, 0)
    _residual_arcs(tails, heads, first, to, adj)

    total = 0
    while True:
        parent = [-1] * nn  # residual arc used to reach each node
        parent[s] = -2
        queue = [s]
        for node in queue:
            for ridx in adj[node]:
                if res[ridx] > 0:
                    nxt = to[ridx]
                    if parent[nxt] == -1:
                        parent[nxt] = ridx
                        queue.append(nxt)
            if parent[t] != -1:
                break   # the path to t is fixed once t is reached
        else:
            break
        ridx = parent[t]
        bottleneck = res[ridx]
        node = to[ridx ^ 1]
        while node != s:
            ridx = parent[node]
            if res[ridx] < bottleneck:
                bottleneck = res[ridx]
            node = to[ridx ^ 1]
        node = t
        while node != s:
            ridx = parent[node]
            res[ridx] -= bottleneck
            res[ridx ^ 1] += bottleneck
            node = to[ridx ^ 1]
        total += bottleneck

    if total >= stand_in:
        raise UnboundedFlowError("no finite cut separates source from sink")

    # the last search found no path, so it ran until it had reached every
    # node the residual graph reaches from the source
    cut_capacity = 0
    for u, v, c in zip(tails, heads, caps):
        if parent[u] != -1 and parent[v] == -1:
            # a crossing INF arc would have forced total >= stand_in
            cut_capacity += c
    return FlowResult(total, tuple(res[1::2]),
                      frozenset(i for i in range(nn) if parent[i] != -1), cut_capacity)


def _audit(nodes: tuple, tails: list[int], heads: list[int], caps: list,
           s: int, t: int, result: FlowResult) -> list[str]:
    """All the ways an index-form flow result could be wrong; empty means certified.

    nodes[i] names node i in the problems reported.
    """
    def arc(e: int) -> Arc:
        return Arc(nodes[tails[e]], nodes[heads[e]], caps[e])

    problems = []
    if len(result.flows) != len(tails):
        problems.append(f"{len(result.flows)} flows given for {len(tails)} arcs")
    excess = [0] * len(nodes)
    for e, (u, v, c, f) in enumerate(zip(tails, heads, caps, result.flows)):
        if f < 0:
            problems.append(f"negative flow {f} on {arc(e)!r}")
        if c is not INF and f > c:
            problems.append(f"flow {f} exceeds capacity on {arc(e)!r}")
        excess[v] += f
        excess[u] -= f
    for i, ex in enumerate(excess):
        if ex != 0 and i != s and i != t:
            problems.append(f"conservation fails at {nodes[i]!r} by {ex}")
    if -excess[s] != result.value:
        problems.append(f"source sends {-excess[s]}, claimed {result.value}")
    if excess[t] != result.value:
        problems.append(f"sink receives {excess[t]}, claimed {result.value}")
    cut = result.cut
    if s not in cut or t in cut:
        problems.append("cut does not separate source from sink")
    cap = 0
    for e, (u, v, c) in enumerate(zip(tails, heads, caps)):
        if u in cut and v not in cut:
            if c is INF:
                problems.append(f"INF arc {arc(e)!r} crosses the cut")
                continue
            cap += c
    if cap != result.cut_capacity:
        problems.append(f"cut capacity {cap} mismatches recorded {result.cut_capacity}")
    if cap != result.value:
        problems.append(f"cut capacity {cap} does not certify value {result.value}")
    return problems


def _index_form(net: FlowNetwork) -> tuple[dict, list[int], list[int], list, int, int]:
    """Node indices of net, its arcs as tails, heads and capacities, then s and t."""
    index = {node: i for i, node in enumerate(net.nodes)}
    arcs = net.arcs
    return (index, [index[a.tail] for a in arcs], [index[a.head] for a in arcs],
            [a.capacity for a in arcs], index[net.source], index[net.sink])


def max_flow(net: FlowNetwork) -> FlowResult:
    """Shortest-augmenting-path max flow in the capacities' own exact numbers.

    INF capacities are replaced by one more than the finite total, which
    caps any finite cut; if the computed value still reaches that stand-in
    no finite cut exists and UnboundedFlowError is raised.
    """
    _, tails, heads, caps, s, t = _index_form(net)
    result = _augment(len(net.nodes), tails, heads, caps, s, t)
    return FlowResult(result.value, result.flows,
                      frozenset(net.nodes[i] for i in result.cut), result.cut_capacity)


def audit_flow(net: FlowNetwork, result: FlowResult) -> list[str]:
    """All the ways a flow result could be wrong; empty means certified."""
    index, tails, heads, caps, s, t = _index_form(net)
    cut = frozenset(index[node] for node in result.cut if node in index)
    problems = _audit(net.nodes, tails, heads, caps, s, t,
                      FlowResult(result.value, result.flows, cut, result.cut_capacity))
    return problems + [f"cut node {node!r} is not in the network"
                       for node in result.cut if node not in index]


def _exact(label: str, c: object) -> int | Fraction:
    """Entry c of a vector at label, an int or a Fraction; anything else is refused."""
    if not isinstance(c, (int, Fraction)):
        raise ValueError(f"vector entry at {label!r} must be an int or a Fraction, got {c!r}")
    return c if type(c) is int else Fraction(c)


def _coords(x: Mapping[str, object], labels: tuple, what: str) -> list[int | Fraction]:
    """x's entries at labels, in order; x must be a mapping onto exactly those."""
    if not isinstance(x, Mapping):
        raise ValueError(f"vector must be a mapping from labels to numbers, got {x!r}")
    if set(x) != set(labels):
        raise ValueError(f"vector must assign exactly the {what}")
    return [_exact(lab, x[lab]) for lab in labels]


def _normalize_vector(g: Digraph, x: Mapping[str, object]) -> dict[str, int | Fraction]:
    return dict(zip(g.vertices, _coords(x, g.vertices, "vertices of the graph")))


def base_member(z: ExtBool, x: Mapping[str, object]) -> bool:
    """Is x in the base polytope of z?

    Requires the coordinate sum to hit the full-set value and x(A) to stay
    at or below z(A) for every subset A; INF constraints are vacuous, so
    only the support z.finite is read (_base_plan, _in_base).
    """
    return _in_base(_base_plan(z), _coords(x, z.ground, "ground labels"))


_BasePlan = tuple[object, list[tuple[int, list[int], object]]]


def _base_plan(z: ExtBool) -> _BasePlan:
    """z's full-set value, and its support as steps of running sums for _in_base.

    Step j (from 1) sums x over the j-th mask of z.finite: the sum of an
    earlier step (step 0 is the empty set), plus the coordinates of the
    mask's lowest bits, dropped down to a mask summed before.  A support
    in increasing order adds one coordinate per mask.
    """
    step_of = {0: 0}
    steps = []
    for mask, value in z.finite.items():
        rest, added = mask, []
        while rest not in step_of:
            low = rest & -rest
            added.append(low.bit_length() - 1)
            rest ^= low
        steps.append((step_of[rest], added, value))
        step_of[mask] = len(steps)
    return z.finite[(1 << len(z.ground)) - 1], steps


def _in_base(plan: _BasePlan, coords: list) -> bool:
    """base_member on exact coordinates in ground order, by z's _base_plan."""
    full, steps = plan
    if sum(coords) != full:
        return False
    sums = [0]
    for prior, added, value in steps:
        total = sums[prior]
        for i in added:
            total += coords[i]
        if total > value:
            return False
        sums.append(total)
    return True


def cone_generators(g: Digraph) -> list[dict[str, int]]:
    """One vector per edge: +1 on the head, -1 on the tail, 0 elsewhere."""
    return [dict.fromkeys(g.vertices, 0) | {u: -1, v: 1} for u, v in g.edge_list]


def build_flow_network(g: Digraph, x: Mapping[str, object]) -> FlowNetwork:
    """The membership network: graph edges get INF, terminals route x.

    Vertices with positive x feed the sink with capacity x(v); negative
    ones are fed from the source with capacity -x(v).  x must sum to zero.
    """
    return _network(g, _normalize_vector(g, x))


def _network(g: Digraph, vec: dict[str, int | Fraction]) -> FlowNetwork:
    if sum(vec.values()) != 0:
        raise ValueError("membership network needs a vector summing to zero")
    arcs = [Arc(u, v, INF) for u, v in g.edge_list]
    for v in g.vertices:
        if vec[v] > 0:
            arcs.append(Arc(v, SINK, vec[v]))
        elif vec[v] < 0:
            arcs.append(Arc(SOURCE, v, -vec[v]))
    return FlowNetwork((SOURCE, *g.vertices, SINK), tuple(arcs))


def _check_witness(names: tuple, tails: list[int], heads: list[int], flows,
                   coords: list) -> None:
    """Raise unless the flows on the edges are non-negative and rebuild coords.

    Edge e runs tails[e] -> heads[e] between vertices named by names;
    flows past the last edge are ignored.
    """
    rebuilt = [0] * len(coords)
    for u, v, w in zip(tails, heads, flows):
        if w < 0:
            raise RuntimeError(f"negative witness weight {w} on {(names[u], names[v])}")
        rebuilt[v] += w
        rebuilt[u] -= w
    if rebuilt != coords:
        raise RuntimeError("flow certificate does not rebuild the vector")


Witness = dict[tuple[str, str], int | Fraction]


def membership_flow(g: Digraph, x: Mapping[str, object]
                    ) -> tuple[int | Fraction, Witness | None]:
    """The value of the membership network's maximum flow for a sum-zero x,
    and cone_member's witness, or None when x is outside the cone.

    The flow runs in ints: x is scaled by the lcm of its denominators,
    and the value and the witness are scaled back.  Every comparison the
    augmenting paths make holds under positive scaling, and no INF arc is
    ever a path's bottleneck, so the flows are those of x itself.  An
    all-int x keeps int weights; any other comes back in Fractions.
    """
    vec = _normalize_vector(g, x)
    coords = [vec[v] for v in g.vertices]
    ints = all(type(c) is int for c in coords)
    scale = lcm(*(c.denominator for c in coords))
    scaled = [c.numerator * (scale // c.denominator) for c in coords]
    result = max_flow(_network(g, dict(zip(g.vertices, scaled))))

    def back(c: int) -> int | Fraction:
        return c if ints else Fraction(c, scale)

    if result.value != sum(c for c in scaled if c > 0):
        return back(result.value), None
    _, tails, heads = g.edge_arrays()
    _check_witness(g.vertices, tails, heads, result.flows, scaled)
    return back(result.value), dict(zip(g.edge_list, map(back, result.flows)))


def cone_member(g: Digraph, x: Mapping[str, object]) -> Witness | None:
    """Non-negative edge weights writing x as a combination of generators.

    Returns {edge: weight} with x = sum of weight * (head - tail), or None
    when x is outside the cone.  The witness is re-checked before return.
    """
    vec = _normalize_vector(g, x)
    return membership_flow(g, vec)[1] if sum(vec.values()) == 0 else None


@dataclass(frozen=True)
class EquivalenceReport:
    """Base polytope versus cone membership over sampled vectors."""

    samples: int
    agreements: int
    mismatches: tuple
    audit_problems: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.audit_problems


def _sample_coords(nv: int, tails: list[int], heads: list[int], samples: int,
                   rng: random.Random) -> Iterator[list[int]]:
    """A deterministic mix: conic combinations, perturbed ones, raw sum-zero.

    The graph is in index form, edge e running tails[e] -> heads[e]; each
    sample is a list of coordinates in vertex order, and every sample sums
    to zero: a perturbation adds delta to one vertex and takes it from
    another, and a raw sample's last coordinate is minus the sum of the
    others.  Each draw a/b (b in 1..4) is scaled by 12 to an integer.  The
    cut function's base polytope is a cone, so both membership tests keep
    their verdicts.

    The draws are those of rng.randint, taken from rng.getrandbits as
    CPython's Random._randbelow takes them: a draw below n reads
    n.bit_length() bits and reads again while the result is n or more.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    edges = list(zip(tails, heads))
    verts = range(nv)
    for i in range(samples):
        kind = i % 3
        coords = [0] * nv
        if kind != 2:
            for u, v in edges:
                # randint(0, 6) // randint(1, 4): below(7) and below(4) + 1, inlined
                a = getrandbits(3)
                while a >= 7:
                    a = getrandbits(3)
                b = getrandbits(3)
                while b >= 4:
                    b = getrandbits(3)
                lam = 12 * a // (b + 1)
                coords[u] -= lam
                coords[v] += lam
        if kind == 1 and nv >= 2:
            u, w = rng.sample(verts, 2)
            # randint(-4, 4) // randint(1, 3)
            delta = 12 * (below(9) - 4) // (below(3) + 1)
            coords[u] += delta
            coords[w] -= delta
        if kind == 2 and nv:
            for v in range(nv - 1):
                # randint(-5, 5) // randint(1, 4)
                coords[v] = 12 * (below(11) - 5) // (below(4) + 1)
            coords[-1] = -sum(coords[:-1])
        yield coords


def check_agreement_work(g: Digraph, samples: int) -> ExtBool:
    """Refuse check_cone_polytope_agreement past the work budget; else g's cut function.

    Each sample is one base check over the cut function's support, its L
    lower halves found by the metered walk, and one flow search over the
    graph: samples * (L + |V| + |E|) steps.  samples must be an int of at
    least 0.
    """
    if not isinstance(samples, int):
        raise ValueError(f"need an int samples, got {samples!r}")
    if samples < 0:
        raise ValueError(f"need samples >= 0, got {samples}")
    z = lower_half_function(g)
    limits.check_work(f"base check of {samples} vectors over {len(z.finite)} lower halves",
                      samples * (len(z.finite) + len(g.vertices) + len(g.edges)))
    return z


def _sample_flow(nodes: tuple, tails: list[int], heads: list[int], coords: list[int],
                 inf_arcs: _InfArcs) -> tuple[FlowResult, list[str], bool]:
    """One sum-zero sample's max flow, that flow's audit, and its membership verdict.

    The graph comes in index form, vertices 0..n-1 with edge e running
    tails[e] -> heads[e]; nodes names the vertices, then the source and the
    sink, which are nodes n and n+1.  The edges get INF arcs, the sample's
    coords the terminal arcs after them, as in build_flow_network;
    inf_arcs holds the edges' residual arcs (_residual_arcs), built once
    per graph.  A member's witness is checked as cone_member checks it.
    """
    nv = len(coords)
    s, t = nv, nv + 1
    arc_tails, arc_heads, caps = tails[:], heads[:], [INF] * len(tails)
    demand = 0
    for v, c in enumerate(coords):
        if c > 0:
            arc_tails.append(v)
            arc_heads.append(t)
            caps.append(c)
            demand += c
        elif c < 0:
            arc_tails.append(s)
            arc_heads.append(v)
            caps.append(-c)
    result = _augment(nv + 2, arc_tails, arc_heads, caps, s, t, inf_arcs)
    problems = _audit(nodes, arc_tails, arc_heads, caps, s, t, result)
    member = result.value == demand
    if member:
        _check_witness(nodes, tails, heads, result.flows, coords)
    return result, problems, member


def check_cone_polytope_agreement(g: Digraph, *, samples: int = 200,
                                  seed: int = 0) -> EquivalenceReport:
    """Sampled agreement of base polytope and edge cone membership.

    Every sampled vector must land the same way under both tests, and
    every max-flow run must pass its audit.  Deterministic in the seed.
    Gated by check_agreement_work, whose cut function it then reads.
    """
    return _agreement(g, check_agreement_work(g, samples), samples, seed)


def _agreement(g: Digraph, z: ExtBool, samples: int, seed: int) -> EquivalenceReport:
    """check_cone_polytope_agreement on z, g's cut function from check_agreement_work.

    The graph's index form and its edges' residual arcs are built once,
    and each sample, which sums to zero (_sample_coords), adds only its
    terminal arcs (_sample_flow).  A vector is built as a dict only for
    the report.
    """
    plan = _base_plan(z)
    nv, tails, heads = g.edge_arrays()
    verts = g.vertices
    nodes = (*verts, SOURCE, SINK)
    inf_arcs: _InfArcs = ([], [[] for _ in nodes])
    _residual_arcs(tails, heads, 0, *inf_arcs)
    mismatches = []
    audit_problems = []
    agreements = 0
    for coords in _sample_coords(nv, tails, heads, samples, random.Random(seed)):
        in_base = _in_base(plan, coords)
        _, problems, in_cone = _sample_flow(nodes, tails, heads, coords, inf_arcs)
        if problems:
            audit_problems.append((dict(zip(verts, coords)), tuple(problems)))
        if in_base != in_cone:
            mismatches.append((dict(zip(verts, coords)), in_base, in_cone))
        else:
            agreements += 1
    return EquivalenceReport(samples, agreements, tuple(mismatches), tuple(audit_problems))


def generic_direction_count(g: Digraph, n: int) -> int:
    """Directions y into {1..n} whose maximum over the edge cone is the apex alone.

    These are exactly the maps strictly decreasing along every edge, and
    y -> n+1-y sends them onto the maps strictly increasing along every
    edge: the count is brute_strict(g, n).
    """
    return brute_strict(g, n)


def vertex_sum_count(g: Digraph, n: int) -> int:
    """Sum over directions y into {1..n} of the vertices of the y-maximal face.

    The cone of an acyclic graph is pointed, so each direction contributes
    1 when it is weakly decreasing along every edge (the apex is maximal)
    and 0 otherwise (the maximum is unattained).  Cyclic graphs have no
    vertex at all and are rejected.  y -> n+1-y sends the weakly
    decreasing maps onto the weakly increasing ones: the count is
    brute_weak(g, n).
    """
    if not g.is_acyclic():
        raise ValueError("the edge cone of a cyclic graph has no vertex")
    return brute_weak(g, n)


def ascent_polytope_points(g: Digraph, n: int, *, interior: bool) -> int:
    """Lattice points of the dilated edge-order polytope in the unit cube.

    interior=True counts interior points of the (n+1)-fold dilation,
    interior=False counts all points of the (n-1)-fold dilation; n = 0
    closed is 0 by the empty-dilation convention.  A point of the d-fold
    dilation is a map into {0..d} weakly rising along the edges, and an
    interior one a map into {1..d-1} rising strictly; shifting the values
    onto {1..n} makes the counts brute_weak(g, n) and brute_strict(g, n).
    """
    if interior:
        return brute_strict(g, n)
    weak = brute_weak(g, n)   # which refuses an n that is not an int
    return weak if n else 0
