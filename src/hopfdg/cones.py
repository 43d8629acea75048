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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .digraph import Digraph
from .errors import UnboundedFlowError
from .submodular import INF, ExtBool, lower_half_function
from . import kernels, limits


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


@dataclass(frozen=True)
class FlowNetwork:
    nodes: tuple
    arcs: tuple[Arc, ...]
    source: object = SOURCE
    sink: object = SINK

    def __post_init__(self):
        nodeset = set(self.nodes)
        if self.source not in nodeset or self.sink not in nodeset:
            raise ValueError("source and sink must be nodes")
        for arc in self.arcs:
            if arc.tail not in nodeset or arc.head not in nodeset:
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
    """

    value: int | Fraction
    flows: tuple[int | Fraction, ...]
    cut: frozenset
    cut_capacity: int | Fraction


def max_flow(net: FlowNetwork) -> FlowResult:
    """Shortest-augmenting-path max flow in the capacities' own exact numbers.

    INF capacities are replaced by one more than the finite total, which
    caps any finite cut; if the computed value still reaches that stand-in
    no finite cut exists and UnboundedFlowError is raised.
    """
    arcs = net.arcs
    stand_in = sum(a.capacity for a in arcs if a.capacity is not INF) + 1

    index = {node: i for i, node in enumerate(net.nodes)}
    s, t = index[net.source], index[net.sink]
    nn = len(net.nodes)

    # paired residual arcs: 2e forward with capacity, 2e+1 backward with 0
    res = []
    ends = []
    adj: list[list[int]] = [[] for _ in range(nn)]
    for e, arc in enumerate(arcs):
        u, v = index[arc.tail], index[arc.head]
        res.extend((stand_in if arc.capacity is INF else arc.capacity, 0))
        ends.extend(((u, v), (v, u)))
        adj[u].append(2 * e)
        adj[v].append(2 * e + 1)

    total = 0
    while True:
        parent = [-1] * nn  # residual arc used to reach each node
        parent[s] = -2
        queue = [s]
        for node in queue:
            if node == t:
                break
            for ridx in adj[node]:
                if res[ridx] > 0:
                    nxt = ends[ridx][1]
                    if parent[nxt] == -1:
                        parent[nxt] = ridx
                        queue.append(nxt)
        if parent[t] == -1:
            break
        path = []
        node = t
        while node != s:
            path.append(parent[node])
            node = ends[parent[node]][0]
        bottleneck = min(res[ridx] for ridx in path)
        for ridx in path:
            res[ridx] -= bottleneck
            res[ridx ^ 1] += bottleneck
        total += bottleneck

    if total >= stand_in:
        raise UnboundedFlowError("no finite cut separates source from sink")

    # the last search found no path, so it ran until it had reached every
    # node the residual graph reaches from the source
    reach = [p != -1 for p in parent]
    cut = frozenset(net.nodes[i] for i in range(nn) if reach[i])
    cut_capacity = 0
    for arc in arcs:
        if reach[index[arc.tail]] and not reach[index[arc.head]]:
            # a crossing INF arc would have forced total >= stand_in
            cut_capacity += arc.capacity

    flows = tuple(res[2 * e + 1] for e in range(len(arcs)))
    return FlowResult(total, flows, cut, cut_capacity)


def audit_flow(net: FlowNetwork, result: FlowResult) -> list[str]:
    """All the ways a flow result could be wrong; empty means certified."""
    problems = []
    excess = dict.fromkeys(net.nodes, 0)
    for arc, f in zip(net.arcs, result.flows):
        if f < 0:
            problems.append(f"negative flow {f} on {arc!r}")
        if arc.capacity is not INF and f > arc.capacity:
            problems.append(f"flow {f} exceeds capacity on {arc!r}")
        excess[arc.head] += f
        excess[arc.tail] -= f
    for node in net.nodes:
        if excess[node] != 0 and node is not net.source and node is not net.sink:
            problems.append(f"conservation fails at {node!r} by {excess[node]}")
    if -excess[net.source] != result.value:
        problems.append(f"source sends {-excess[net.source]}, claimed {result.value}")
    if excess[net.sink] != result.value:
        problems.append(f"sink receives {excess[net.sink]}, claimed {result.value}")
    if net.source not in result.cut or net.sink in result.cut:
        problems.append("cut does not separate source from sink")
    cap = 0
    for arc in net.arcs:
        if arc.tail in result.cut and arc.head not in result.cut:
            if arc.capacity is INF:
                problems.append(f"INF arc {arc!r} crosses the cut")
                continue
            cap += arc.capacity
    if cap != result.cut_capacity:
        problems.append(f"cut capacity {cap} mismatches recorded {result.cut_capacity}")
    if cap != result.value:
        problems.append(f"cut capacity {cap} does not certify value {result.value}")
    return problems


def _exact(c) -> int | Fraction:
    return c if type(c) is int else Fraction(c)


def _normalize_vector(g: Digraph, x: Mapping[str, object]) -> dict[str, int | Fraction]:
    if set(x) != set(g.vertices):
        raise ValueError("vector must assign exactly the vertices of the graph")
    return {v: _exact(x[v]) for v in g.vertices}


def base_member(z: ExtBool, x: Mapping[str, object]) -> bool:
    """Is x in the base polytope of z?

    Requires the coordinate sum to hit the full-set value and x(A) to stay
    at or below z(A) for every subset A; INF constraints are vacuous, so
    only the support z.finite is read.  Each mask adds its lowest
    coordinates until it reaches a mask already summed, so a support in
    increasing order costs one add per mask.
    """
    if set(x) != set(z.ground):
        raise ValueError("vector must assign exactly the ground labels")
    coords = [_exact(x[lab]) for lab in z.ground]
    if sum(coords) != z.finite[(1 << len(coords)) - 1]:
        return False
    sums = {0: 0}
    for mask, v in z.finite.items():
        total, rest = 0, mask
        while rest not in sums:   # drop lowest bits down to a mask summed before
            low = rest & -rest
            total += coords[low.bit_length() - 1]
            rest ^= low
        sums[mask] = total = total + sums[rest]
        if total > v:
            return False
    return True


def cone_generators(g: Digraph) -> list[dict[str, int]]:
    """One vector per edge: +1 on the head, -1 on the tail, 0 elsewhere."""
    return [dict.fromkeys(g.vertices, 0) | {u: -1, v: 1} for u, v in g.edge_list]


def build_flow_network(g: Digraph, x: Mapping[str, object]) -> FlowNetwork:
    """The membership network: graph edges get INF, terminals route x.

    Vertices with positive x feed the sink with capacity x(v); negative
    ones are fed from the source with capacity -x(v).  x must sum to zero.
    """
    return _network(g, _normalize_vector(g, x), _edge_arcs(g))


def _edge_arcs(g: Digraph) -> tuple[Arc, ...]:
    """The INF arc of each graph edge, in edge_list order."""
    return tuple(Arc(u, v, INF) for u, v in g.edge_list)


def _network(g: Digraph, vec: dict[str, int | Fraction],
             edge_arcs: tuple[Arc, ...]) -> FlowNetwork:
    if sum(vec.values()) != 0:
        raise ValueError("membership network needs a vector summing to zero")
    arcs = list(edge_arcs)
    for v in g.vertices:
        if vec[v] > 0:
            arcs.append(Arc(v, SINK, vec[v]))
        elif vec[v] < 0:
            arcs.append(Arc(SOURCE, v, -vec[v]))
    return FlowNetwork((SOURCE, *g.vertices, SINK), tuple(arcs))


Witness = dict[tuple[str, str], int | Fraction]


def membership_flow(g: Digraph, x: Mapping[str, object]
                    ) -> tuple[FlowNetwork, FlowResult, Witness | None]:
    """The network, maximum flow and cone_member witness of a sum-zero x.

    One max flow decides membership; callers audit or report that flow.
    """
    return _membership_flow(g, _normalize_vector(g, x), _edge_arcs(g))


def _membership_flow(g: Digraph, vec: dict[str, int | Fraction],
                     edge_arcs: tuple[Arc, ...]
                     ) -> tuple[FlowNetwork, FlowResult, Witness | None]:
    net = _network(g, vec, edge_arcs)
    result = max_flow(net)
    demand = sum(c for c in vec.values() if c > 0)
    if result.value != demand:
        return net, result, None

    edge_list = g.edge_list
    witness = {edge_list[e]: result.flows[e] for e in range(len(edge_list))}
    rebuilt = dict.fromkeys(g.vertices, 0)
    for (u, v), w in witness.items():
        if w < 0:
            raise RuntimeError(f"negative witness weight {w} on {(u, v)}")
        rebuilt[v] += w
        rebuilt[u] -= w
    if rebuilt != vec:
        raise RuntimeError("flow certificate does not rebuild the vector")
    return net, result, witness


def cone_member(g: Digraph, x: Mapping[str, object]) -> Witness | None:
    """Non-negative edge weights writing x as a combination of generators.

    Returns {edge: weight} with x = sum of weight * (head - tail), or None
    when x is outside the cone.  The witness is re-checked before return.
    """
    vec = _normalize_vector(g, x)
    return _membership_flow(g, vec, _edge_arcs(g))[2] if sum(vec.values()) == 0 else None


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


def _sample_vectors(g: Digraph, samples: int, rng: random.Random) -> list[dict[str, int]]:
    """A deterministic mix: conic combinations, perturbed ones, raw sum-zero.

    Each draw a/b (b in 1..4) is scaled by 12 to an integer.  The cut
    function's base polytope is a cone, so both membership tests keep
    their verdicts; a mismatch names the scaled integer vector.
    """
    verts, edges = g.vertices, g.edge_list
    out = []
    for i in range(samples):
        kind = i % 3
        vec = dict.fromkeys(verts, 0)
        if kind in (0, 1):
            for u, v in edges:
                lam = 12 * rng.randint(0, 6) // rng.randint(1, 4)
                vec[u] -= lam
                vec[v] += lam
        if kind == 1 and len(verts) >= 2:
            u, w = rng.sample(verts, 2)
            delta = 12 * rng.randint(-4, 4) // rng.randint(1, 3)
            vec[u] += delta
            vec[w] -= delta
        if kind == 2 and verts:
            for v in verts[:-1]:
                vec[v] = 12 * rng.randint(-5, 5) // rng.randint(1, 4)
            vec[verts[-1]] = -sum(vec[v] for v in verts[:-1])
        out.append(vec)
    return out


def check_agreement_work(g: Digraph, samples: int) -> ExtBool:
    """Refuse check_cone_polytope_agreement past the work budget; else g's cut function.

    Each sample is one base check over the cut function's support, its L
    lower halves found by the metered walk, and one flow search over the
    graph: samples * (L + |V| + |E|) steps.
    """
    z = lower_half_function(g)
    limits.check_work(f"base check of {samples} vectors over {len(z.finite)} lower halves",
                      samples * (len(z.finite) + len(g.vertices) + len(g.edges)))
    return z


def check_cone_polytope_agreement(g: Digraph, *, samples: int = 200,
                                  seed: int = 0) -> EquivalenceReport:
    """Sampled agreement of base polytope and edge cone membership.

    Every sampled vector must land the same way under both tests, and
    every max-flow run must pass its audit.  Deterministic in the seed.
    Gated by check_agreement_work.
    """
    if samples < 0:
        raise ValueError(f"need samples >= 0, got {samples}")
    z = check_agreement_work(g, samples)
    rng = random.Random(seed)
    vectors = _sample_vectors(g, samples, rng)
    edge_arcs = _edge_arcs(g)
    mismatches = []
    audit_problems = []
    agreements = 0
    for vec in vectors:
        in_base = base_member(z, vec)
        witness = None
        if sum(vec.values()) == 0:
            net, result, witness = _membership_flow(g, vec, edge_arcs)
            problems = audit_flow(net, result)
            if problems:
                audit_problems.append((vec, tuple(problems)))
        if in_base != (witness is not None):
            mismatches.append((vec, in_base, witness is not None))
        else:
            agreements += 1
    return EquivalenceReport(len(vectors), agreements,
                             tuple(mismatches), tuple(audit_problems))


def generic_direction_count(g: Digraph, n: int) -> int:
    """Directions y into {1..n} whose maximum over the edge cone is the apex alone.

    These are exactly the maps strictly decreasing along every edge, so
    the count matches the strict invariant through y -> n+1-y.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    nv, tails, heads = g.edge_arrays()
    limits.check_work(f"scan of the directions into {{1..{n}}}", n ** nv)
    # decreasing along (u, v) means increasing along (v, u)
    return kernels.count_strict_colorings(nv, heads, tails, n)


def vertex_sum_count(g: Digraph, n: int) -> int:
    """Sum over directions y into {1..n} of the vertices of the y-maximal face.

    The cone of an acyclic graph is pointed, so each direction contributes
    1 when it is weakly decreasing along every edge (the apex is maximal)
    and 0 otherwise (the maximum is unattained).  Cyclic graphs have no
    vertex at all and are rejected.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not g.is_acyclic():
        raise ValueError("the edge cone of a cyclic graph has no vertex")
    nv, tails, heads = g.edge_arrays()
    limits.check_work(f"scan of the directions into {{1..{n}}}", n ** nv)
    return kernels.count_weak_colorings(nv, heads, tails, n)


def ascent_polytope_points(g: Digraph, n: int, *, interior: bool) -> int:
    """Lattice points of the dilated edge-order polytope in the unit cube.

    interior=True counts interior points of the (n+1)-fold dilation,
    interior=False counts all points of the (n-1)-fold dilation; n = 0
    closed is 0 by the empty-dilation convention.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    dilation = n + 1 if interior else n - 1
    nv, tails, heads = g.edge_arrays()
    limits.check_work(f"scan of the {dilation}-fold dilation's lattice points",
                      max(dilation + 1, 0) ** nv)
    return kernels.count_dilation_points(nv, tails, heads, dilation, interior)
