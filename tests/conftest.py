"""Shared fixtures and independent oracles.

The oracles here recompute results by raw definition-level enumeration
(itertools over color assignments, composition lists filtered by the
prefix condition) so the dynamic programs in the package are checked
against something that shares no code path with them.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from hopfdg import (INF, BinPoly, Digraph, ExtBool, FormalSum, Poly,
                    UnboundedFlowError, antipode, character_polynomial,
                    cone_generators)
from hopfdg import _engine, kernels
from hopfdg.cones import FlowResult
from hopfdg.digraph import canonical_labels
from hopfdg.rings import VARS

LABELS = "abcdefghij"


_TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Every warning a test under tests/ raises fails it.

    perfbench/tests, collected in the same session, keeps the filters of
    pyproject.toml alone: its corpus test still leaves file handles open.
    """
    for item in items:
        if _TESTS in Path(item.fspath).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def g3() -> Digraph:
    """Transitive tournament on three vertices."""
    return Digraph(("0", "1", "2"), (("0", "1"), ("1", "2"), ("0", "2")))


def count_halves_taken(monkeypatch) -> list[int]:
    """A one-item list counting the lower halves the engine's walk yields."""
    taken = [0]
    walk = _engine._walk_halves

    def counted_walk(*args):
        for half in walk(*args):
            taken[0] += 1
            yield half

    monkeypatch.setattr(_engine, "_walk_halves", counted_walk)
    return taken


def is_finite(v) -> bool:
    """v is not INF, the one infinite value."""
    return v is not INF


def all_digraphs(labels):
    """Every simple digraph on the given labels, all 2^(n(n-1)) of them."""
    labels = tuple(labels)
    pairs = [(u, v) for u in labels for v in labels if u != v]
    for bits in range(1 << len(pairs)):
        yield Digraph(labels, (pairs[i] for i in range(len(pairs)) if bits >> i & 1))


def random_digraph(rng: random.Random, labels, p: float = 0.4) -> Digraph:
    labels = tuple(labels)
    edges = [(u, v) for u in labels for v in labels if u != v and rng.random() < p]
    return Digraph(labels, edges)


def lower_halves(g: Digraph) -> list[frozenset[str]]:
    """All lower halves of g as label sets, by the engine's metered walk."""
    nv, tails, heads = g.edge_arrays()
    return [frozenset(g.vertices[i] for i in range(nv) if mask >> i & 1)
            for mask in kernels.lower_half_masks(nv, tails, heads)]


def antipode_of_sum(s: FormalSum) -> FormalSum:
    """The antipode extended linearly to a formal sum."""
    return FormalSum.of(s.vertices, ((t, c * ct) for g, c in s.terms.items()
                                     for t, ct in antipode(g).terms.items()))


def sorted_terms(s: FormalSum) -> list[tuple[Digraph, int]]:
    """The terms of s with many-edged graphs first, ties broken by edge list:
    the order the antipode command prints."""
    return [(g, s.terms[g]) for g in sorted(s.terms, key=lambda g: (-len(g.edges), g.edge_list))]


def coefficient(p: BinPoly, k: int):
    """The coefficient of C(n, k) in p, 0 past its degree."""
    return p.coeffs[k] if 0 <= k < len(p.coeffs) else 0


def substitute(c, values: dict[str, int]) -> Poly:
    """A coefficient (an int or a Poly) with some of q, y, z set to integers."""
    c = c if isinstance(c, Poly) else Poly.constant(c)
    out: dict = {}
    for e, coeff in c.terms.items():
        for var, x in zip(VARS, e):
            if var in values:
                coeff *= values[var] ** x
        key = tuple(0 if var in values else x for var, x in zip(VARS, e))
        out[key] = out.get(key, 0) + coeff
    return Poly(out)


def coefficient_of(c, name: str, power: int) -> Poly:
    """The coefficient of name^power in c, a polynomial in the other variables."""
    c = c if isinstance(c, Poly) else Poly.constant(c)
    i = VARS.index(name)
    return Poly({e[:i] + (0,) + e[i + 1:]: v for e, v in c.terms.items() if e[i] == power})


def compositions(labels, k: int):
    """All ordered sequences of k non-empty disjoint blocks covering the labels.

    Enumeration order is lexicographic in the block-assignment vector over
    the sorted labels, so ({'a'}, {'b'}) precedes ({'b'}, {'a'}).  For k
    outside 1..|labels| the stream is empty, except that the empty label
    set with k = 0 yields the one empty composition.
    """
    verts = canonical_labels(labels)
    n = len(verts)
    if n == 0:
        if k == 0:
            yield ()
        return
    if k < 1 or k > n:
        return

    assignment = [0] * n
    hit = [False] * k  # which blocks already received a label

    def walk(i: int, used: int):
        if k - used > n - i:
            return  # too few labels left to fill every block
        if i == n:
            blocks: list[list[str]] = [[] for _ in range(k)]
            for j, lab in enumerate(verts):
                blocks[assignment[j]].append(lab)
            yield tuple(frozenset(b) for b in blocks)
            return
        for color in range(k):
            assignment[i] = color
            fresh = not hit[color]
            hit[color] = True
            yield from walk(i + 1, used + fresh)
            if fresh:
                hit[color] = False

    yield from walk(0, 0)


def oracle_is_lower_half(g: Digraph, sub) -> bool:
    sub = frozenset(sub)
    return all(u in sub or v not in sub for u, v in g.edges)


def oracle_lower_halves(nv, tails, heads) -> list[int]:
    """Masks S with no edge entering S, in increasing order, by a scan of all 2^n.

    inpred[S], the tails of the edges into S, comes from a lowest-bit
    recurrence; S is a lower half exactly when inpred[S] lies inside S.
    """
    pred = [0] * nv
    for t, h in zip(tails, heads):
        pred[h] |= 1 << t
    size = 1 << nv
    inpred = [0] * size
    for s in range(1, size):
        low = s & -s
        inpred[s] = inpred[s ^ low] | pred[low.bit_length() - 1]
    return [s for s in range(size) if not inpred[s] & ~s]


def oracle_edge_tables(nv, tails, heads) -> tuple[list[int], list[int]]:
    """inside[S] (edges with both ends in S) and into[S] (edges with their head in S).

    Dense tables over all 2^n subsets from a lowest-bit recurrence, the
    route the engine's per-state edge masks replaced.
    """
    at = [0] * nv        # edges touching each vertex
    ending = [0] * nv    # edges whose head is the vertex
    for e, (t, h) in enumerate(zip(tails, heads)):
        bit = 1 << e
        at[t] |= bit
        at[h] |= bit
        ending[h] |= bit
    size = 1 << nv
    inside = [0] * size
    touching = [0] * size
    into = [0] * size
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        r = s ^ low
        # an edge at v that also touches r has its other end in r
        inside[s] = inside[r] | (at[v] & touching[r])
        touching[s] = touching[r] | at[v]
        into[s] = into[r] | ending[v]
    return inside, into


def admissible_compositions(g: Digraph):
    """All block sequences whose prefix unions admit no incoming edge."""
    n = len(g.vertices)
    for k in range(1, n + 1):
        for blocks in compositions(g.vertices, k):
            prefix: set = set()
            for b in blocks:
                prefix |= b
                if not oracle_is_lower_half(g, prefix):
                    break
            else:
                yield blocks


def oracle_antipode_terms(g: Digraph) -> dict[frozenset, int]:
    """Alternating sum over admissible compositions, keyed by kept edge set."""
    if not g.vertices:
        return {frozenset(): 1}
    terms: dict[frozenset, int] = {}
    for blocks in admissible_compositions(g):
        kept = frozenset((u, v) for u, v in g.edges
                         if any(u in b and v in b for b in blocks))
        terms[kept] = terms.get(kept, 0) + (-1) ** len(blocks)
    return {key: c for key, c in terms.items() if c}


def oracle_character_polynomial(g: Digraph, char) -> BinPoly:
    """Binomial coefficients from the raw composition sum."""
    n = len(g.vertices)
    if n == 0:
        return BinPoly((1,))
    coeffs: list = [0] * (n + 1)
    for blocks in admissible_compositions(g):
        val = 1
        for b in blocks:
            val = val * char(g.restrict(b))
        coeffs[len(blocks)] = coeffs[len(blocks)] + val
    return BinPoly(tuple(coeffs))


def oracle_surjection_stats(g: Digraph) -> dict[tuple[int, int, int], int]:
    verts = g.vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    stats: dict[tuple[int, int, int], int] = {}
    for k in range(1, n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if len(set(colors)) != k:
                continue
            asc = desc = 0
            for u, v in g.edges:
                cu, cv = colors[idx[u]], colors[idx[v]]
                if cu < cv:
                    asc += 1
                elif cu > cv:
                    desc += 1
            key = (k, asc, desc)
            stats[key] = stats.get(key, 0) + 1
    return stats


def oracle_count_colorings(g: Digraph, n: int, strict: bool) -> int:
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    total = 0
    for colors in itertools.product(range(1, n + 1), repeat=len(verts)):
        for u, v in g.edges:
            cu, cv = colors[idx[u]], colors[idx[v]]
            if cu > cv or (strict and cu == cv):
                break
        else:
            total += 1
    return total


def oracle_dilation_points(g: Digraph, dilation: int, interior: bool) -> int:
    """Lattice points of the dilation-fold edge-order polytope, by enumeration.

    The points of [0, d]^V with x(tail) <= x(head) on every edge, or for
    the interior those of [1, d - 1]^V with strict inequalities.  A
    negative dilation is empty, even of the empty vertex set.
    """
    if dilation < 0:
        return 0
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    coords = range(1, dilation) if interior else range(dilation + 1)
    total = 0
    for x in itertools.product(coords, repeat=len(verts)):
        if all(x[idx[u]] < x[idx[v]] if interior else x[idx[u]] <= x[idx[v]]
               for u, v in g.edges):
            total += 1
    return total


# ---------------------------------------------------------------------------
# Earlier algorithms for the composition sums, kept as oracles for the DP
# engine in hopfdg._engine.  Graphs are in kernel form (nv, tails, heads).
# The three submask DPs run over remaining-set masks R: a block T of R is
# admissible when no edge enters T from R minus T.

def _submasks_ascending(universe: int) -> list[int]:
    """All submasks of universe in increasing numeric order, 0 first."""
    out = [0]
    s = 0
    while s != universe:
        s = (s - universe) & universe
        out.append(s)
    return out


def _submask_dp(nv, tails, heads, unit, fold):
    """table[full] of the submask DP; fold(acc, table[rest], t, kept_mask)."""
    full = (1 << nv) - 1
    tbits = [1 << t for t in tails]
    hbits = [1 << h for h in heads]
    table = {0: unit}
    for r in _submasks_ascending(full)[1:]:
        acc: dict = {}
        t = r
        while t:
            rest = r & ~t
            if not any(hb & t and tb & rest for tb, hb in zip(tbits, hbits)):
                kept = sum(1 << e for e, (tb, hb) in enumerate(zip(tbits, hbits))
                           if tb & t and hb & t)
                fold(acc, table[rest], t, kept)
            t = (t - 1) & r
        table[r] = acc
    return table[full]


def oracle_chain_stats(nv, tails, heads) -> dict[tuple[int, int], int]:
    def fold(acc, rest, t, kept):
        for (k, c), cnt in rest.items():
            key = (k + 1, c + kept.bit_count())
            acc[key] = acc.get(key, 0) + cnt
    return _submask_dp(nv, tails, heads, {(0, 0): 1}, fold)


def oracle_takeuchi_terms(nv, tails, heads) -> dict[int, int]:
    """The signed Takeuchi sum, every admissible composition added in and
    the coefficients that cancel to 0 dropped; the engine folds the same
    terms cancellation-free."""
    def fold(acc, rest, t, kept):
        for mask, coeff in rest.items():
            acc[kept | mask] = acc.get(kept | mask, 0) - coeff
    terms = _submask_dp(nv, tails, heads, {0: 1}, fold)
    return {mask: coeff for mask, coeff in terms.items() if coeff}


def oracle_character_sum(nv, tails, heads, block_value) -> dict[int, object]:
    def fold(acc, rest, t, kept):
        z = block_value(t)
        for k, val in rest.items():
            acc[k + 1] = acc.get(k + 1, 0) + z * val
    return _submask_dp(nv, tails, heads, {0: 1}, fold)


def oracle_surjection_walk(nv, tails, heads) -> dict[tuple[int, int, int], int]:
    """The k^n walk over colorings, pruned when too few vertices remain."""
    back: list[list[tuple[int, bool]]] = [[] for _ in range(nv)]
    for t, h in zip(tails, heads):
        if t < h:
            back[h].append((t, True))
        else:
            back[t].append((h, False))
    stats: dict[tuple[int, int, int], int] = {}
    color = [0] * nv
    for k in range(nv + 1):   # k = 0 adds the empty graph's one map alone
        hit = [False] * k

        def walk(i: int, used: int, asc: int, desc: int) -> None:
            if k - used > nv - i:
                return
            if i == nv:
                stats[(k, asc, desc)] = stats.get((k, asc, desc), 0) + 1
                return
            for c in range(k):
                a, d = asc, desc
                for j, forward in back[i]:
                    cj = color[j]
                    if cj != c:
                        if forward == (cj < c):
                            a += 1
                        else:
                            d += 1
                color[i] = c
                fresh = not hit[c]
                hit[c] = True
                walk(i + 1, used + fresh, a, d)
                if fresh:
                    hit[c] = False

        walk(0, 0, 0, 0)
    return stats


# ---------------------------------------------------------------------------
# The antipode output as the command line printed it before it rendered the
# kernel's edge masks: one Digraph per term, sorted by (-|E|, edge_list),
# each term's edges sorted again to print them, and json.dumps of the whole
# payload.  The terms come from the submask DP oracle above.

def oracle_antipode_output(g: Digraph, fmt: str) -> str:
    """Stdout of `hopfdg antipode` on g in the given --format."""
    nv, tails, heads = g.edge_arrays()
    edge_list = g.edge_list
    terms = {Digraph(g.vertices, (edge_list[e] for e in range(len(edge_list)) if mask >> e & 1)): c
             for mask, c in oracle_takeuchi_terms(nv, tails, heads).items()}
    ordered = [(t, terms[t]) for t in sorted(terms, key=lambda t: (-len(t.edges), t.edge_list))]
    if fmt == "json":
        payload = {
            "graph": {"vertices": list(g.vertices), "edges": [[u, v] for u, v in g.edge_list]},
            "terms": [{"coefficient": c, "edges": [[u, v] for u, v in t.edge_list]}
                      for t, c in ordered],
        }
        return json.dumps(payload) + "\n"
    lines = [f"antipode: {len(ordered)} terms on {nv} vertices"]
    for t, c in ordered:
        edges = ", ".join(f"{u}->{v}" for u, v in t.edge_list)
        lines.append(f"{c:+d} * [{edges}]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Earlier ring assembly and rendering, kept as oracles for the single
# histogram projection in hopfdg.invariants and the dict-based renderer in
# hopfdg.rings.  Both work by validated Poly arithmetic, term by term; the
# renderer's oracle orders and writes each monomial by its own code, and
# takes the falling factorial's coefficients from a Stirling recurrence.

@functools.cache
def _oracle_monomial(q: int, y: int, z: int):
    from hopfdg.rings import Q, Y, Z
    return Q ** q * Y ** y * Z ** z


def oracle_invariants(g: Digraph) -> dict[str, BinPoly]:
    """strict, weak, bpoly and psi, assembled as cnt * Y**asc * Z**desc."""
    from hopfdg.rings import Poly
    n = len(g.vertices)
    if n == 0:
        return dict.fromkeys(("strict", "weak", "bpoly", "psi"), BinPoly((1,)))
    m = len(g.edges)
    strict = [0] * (n + 1)
    weak = [0] * (n + 1)
    bpoly = [Poly() for _ in range(n + 1)]
    psi = [Poly() for _ in range(n + 1)]
    for (k, asc, desc), cnt in oracle_surjection_stats(g).items():
        bpoly[k] = bpoly[k] + cnt * _oracle_monomial(0, asc, desc)
        if desc == 0:
            weak[k] += cnt
            psi[k] = psi[k] + cnt * _oracle_monomial(m - asc, 0, 0)
            if asc == m:
                strict[k] += cnt
    return {name: BinPoly(tuple(coeffs)) for name, coeffs in
            (("strict", strict), ("weak", weak), ("bpoly", bpoly), ("psi", psi))}


def oracle_poly_str(terms) -> str:
    """str(Poly._of(terms)), written without hopfdg.rings' text or order:
    highest total degree first, then the exponents of q, y and z, each
    larger first."""
    def after(a, b):
        # cmp of two exponent vectors in print order: negative if a prints first
        for s, t in zip((sum(a),) + tuple(a), (sum(b),) + tuple(b)):
            if s != t:
                return t - s
        return 0
    out = ""
    for e in sorted(terms, key=functools.cmp_to_key(after)):
        c = terms[e]
        powers = [v if x == 1 else v + "^" + str(x) for v, x in zip("qyz", e) if x > 0]
        if not powers:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(powers)
        else:
            body = "*".join([str(abs(c))] + powers)
        if not out:
            out = "-" + body if c < 0 else body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def _oracle_signed_body(c, base: str) -> tuple[str, str]:
    from hopfdg.rings import Poly
    if isinstance(c, Poly) and len(c.terms) == 1:
        ((e, cc),) = c.terms.items()
        sign, mag = ("-" if cc < 0 else "+"), oracle_poly_str({e: abs(cc)})
        if mag == "1":
            return sign, base if base else "1"
        return sign, f"{mag}*{base}" if base else mag
    if isinstance(c, Poly):
        text = f"({oracle_poly_str(c.terms)})"
        return "+", f"{text}*{base}" if base else text
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if not base:
        return sign, str(mag)
    if mag == 1:
        return sign, base
    return sign, f"{mag}*{base}"


@functools.cache
def _oracle_stirling1(k: int, j: int) -> int:
    """The coefficient of n^j in n(n-1)...(n-k+1): a signed Stirling number."""
    if k == 0:
        return 1 if j == 0 else 0
    if j == 0:
        return 0
    return _oracle_stirling1(k - 1, j - 1) - (k - 1) * _oracle_stirling1(k - 1, j)


def _oracle_join(pieces) -> str:
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def oracle_binomial_str(p: BinPoly) -> str:
    if not p.coeffs:
        return "0"
    return _oracle_join([_oracle_signed_body(c, f"C(n,{k})" if k else "")
                         for k, c in enumerate(p.coeffs) if c != 0])


def oracle_monomial_str(p: BinPoly) -> str:
    """Powers of n over one denominator, by Poly arithmetic."""
    import math

    from hopfdg.rings import Poly
    if not p.coeffs:
        return "0"
    d = p.degree()
    denom = math.factorial(d)
    numer: list = [0] * (d + 1)
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        scale = denom // math.factorial(k)
        for j in range(k + 1):
            fc = _oracle_stirling1(k, j)
            if fc:
                numer[j] = numer[j] + c * (scale * fc)
    ints = [math.gcd(*c.terms.values()) if isinstance(c, Poly) else abs(c) for c in numer]
    g = math.gcd(denom, *ints)
    if g > 1:
        denom //= g
        numer = [c // g if isinstance(c, int) else
                 Poly({e: cc // g for e, cc in c.terms.items()}) for c in numer]
    pieces = []
    for j in range(d, -1, -1):
        if numer[j] != 0:
            base = "" if j == 0 else ("n" if j == 1 else f"n^{j}")
            pieces.append(_oracle_signed_body(numer[j], base))
    if not pieces:
        return "0"
    body = _oracle_join(pieces)
    return f"({body})/{denom}" if denom > 1 else body


# ------------------------------------------------ cone routes in Fractions
#
# The cone routes as they were before they ran in the numbers they are
# given: a max flow that scales every capacity to a common denominator,
# vectors sampled as Fractions through the generator vectors, and a base
# check that sums each finite subset term by term.


def oracle_max_flow(net):
    arcs = net.arcs
    finite_total = sum((a.capacity for a in arcs if is_finite(a.capacity)),
                       start=Fraction(0))
    stand_in = finite_total + 1
    caps = [Fraction(a.capacity) if is_finite(a.capacity) else Fraction(stand_in)
            for a in arcs]
    scale = lcm(*(c.denominator for c in caps)) if caps else 1
    icaps = [int(c * scale) for c in caps]

    index = {node: i for i, node in enumerate(net.nodes)}
    s, t = index[net.source], index[net.sink]
    nn = len(net.nodes)
    res, ends = [], []
    adj: list[list[int]] = [[] for _ in range(nn)]
    for e, arc in enumerate(arcs):
        u, v = index[arc.tail], index[arc.head]
        res.extend((icaps[e], 0))
        ends.extend(((u, v), (v, u)))
        adj[u].append(2 * e)
        adj[v].append(2 * e + 1)

    total = 0
    while True:
        parent = [-1] * nn
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
        bottleneck = None
        node = t
        while node != s:
            ridx = parent[node]
            if bottleneck is None or res[ridx] < bottleneck:
                bottleneck = res[ridx]
            node = ends[ridx][0]
        node = t
        while node != s:
            ridx = parent[node]
            res[ridx] -= bottleneck
            res[ridx ^ 1] += bottleneck
            node = ends[ridx][0]
        total += bottleneck

    value = Fraction(total, scale)
    if value >= stand_in:
        raise UnboundedFlowError("no finite cut separates source from sink")
    reach = [False] * nn
    reach[s] = True
    queue = [s]
    for node in queue:
        for ridx in adj[node]:
            nxt = ends[ridx][1]
            if res[ridx] > 0 and not reach[nxt]:
                reach[nxt] = True
                queue.append(nxt)
    cut = frozenset(net.nodes[i] for i in range(nn) if reach[i])
    cut_capacity = Fraction(0)
    for arc in arcs:
        if reach[index[arc.tail]] and not reach[index[arc.head]]:
            cut_capacity += Fraction(arc.capacity)
    flows = tuple(Fraction(res[2 * e + 1], scale) for e in range(len(arcs)))
    return FlowResult(value, flows, cut, cut_capacity)


def sample_vectors(g: Digraph, samples: int, rng: random.Random) -> list[dict[str, int]]:
    """The agreement check's samples as dicts, drawn with rng.randint.

    The same mix as cones._sample_coords, draw for draw: conic
    combinations, perturbed ones and raw sum-zero vectors, each draw a/b
    (b in 1..4) scaled by 12 to an integer.
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


def oracle_sample_vectors(g: Digraph, samples: int, rng: random.Random):
    gens = cone_generators(g)
    verts = g.vertices
    out = []
    for i in range(samples):
        kind = i % 3
        vec = {v: Fraction(0) for v in verts}
        if kind in (0, 1) and gens:
            for gen in gens:
                lam = Fraction(rng.randint(0, 6), rng.randint(1, 4))
                for v in verts:
                    vec[v] += lam * gen[v]
        if kind == 1 and len(verts) >= 2:
            u, w = rng.sample(verts, 2)
            delta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            vec[u] += delta
            vec[w] -= delta
        if kind == 2 and verts:
            for v in verts[:-1]:
                vec[v] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            vec[verts[-1]] = -sum((vec[v] for v in verts[:-1]), start=Fraction(0))
        out.append(vec)
    return out


def oracle_base_member(z, x) -> bool:
    coords = [Fraction(x[lab]) for lab in z.ground]
    values = dense_values(z)
    if sum(coords) != values[-1]:
        return False
    n = len(z.ground)
    for mask in range(1 << n):
        v = values[mask]
        if is_finite(v) and sum(coords[i] for i in range(n) if mask >> i & 1) > v:
            return False
    return True


# ---------------------------------------------------------------------------
# The dense routes of the cut function: one value per subset, all 2^n of
# them, kept as oracles for the operations that read only the finite
# support ExtBool.finite.

def tabulate(ground, fn) -> ExtBool:
    """The ExtBool with the value fn(subset) on every subset of ground."""
    g = canonical_labels(ground)
    return ExtBool(g, [fn(frozenset(g[i] for i in range(len(g)) if mask >> i & 1))
                       for mask in range(1 << len(g))])


def dense_values(z) -> list:
    """z's value on every mask, INF included, in mask order."""
    return [z.finite.get(mask, INF) for mask in range(1 << len(z.ground))]


def oracle_lower_half_function(g: Digraph):
    nv, tails, heads = g.edge_arrays()
    vals = [INF] * (1 << nv)
    for mask in oracle_lower_halves(nv, tails, heads):
        vals[mask] = 0
    return ExtBool(g.vertices, vals)


def oracle_restrict(z, subset):
    sub = canonical_labels(subset)
    pos = {v: i for i, v in enumerate(z.ground)}
    values = dense_values(z)
    vals = []
    for mask in range(1 << len(sub)):
        big = 0
        for i in range(len(sub)):
            if mask >> i & 1:
                big |= 1 << pos[sub[i]]
        vals.append(values[big])
    return ExtBool(sub, vals)


def oracle_contract(z, subset):
    sub = frozenset(subset)
    smask = sum(1 << i for i, v in enumerate(z.ground) if v in sub)
    values = dense_values(z)
    base = values[smask]
    if not is_finite(base):
        return None
    rest = tuple(v for v in z.ground if v not in sub)
    pos = {v: i for i, v in enumerate(z.ground)}
    vals = []
    for mask in range(1 << len(rest)):
        big = smask
        for i in range(len(rest)):
            if mask >> i & 1:
                big |= 1 << pos[rest[i]]
        v = values[big]
        vals.append(v - base if is_finite(v) else INF)
    return ExtBool(rest, vals)


def oracle_is_submodular(z) -> bool:
    """v(A|B) + v(A&B) <= v(A) + v(B) for every pair with v(A), v(B) finite."""
    values = dense_values(z)
    finite = [m for m in range(len(values)) if is_finite(values[m])]
    for a in finite:
        for b in finite:
            lhs_u, lhs_i = values[a | b], values[a & b]
            if not (is_finite(lhs_u) and is_finite(lhs_i)):
                return False
            if lhs_u + lhs_i > values[a] + values[b]:
                return False
    return True


# ---------------------------------------------------------------------------
# Routes that rebuilt already validated values through the public, checking
# constructors, kept as oracles for the unchecked builds that replaced them
# (Digraph._subgraph, ExtBool._of) and for the one histogram behind the
# character polynomial of a formal sum.

def oracle_disjoint_union(g1: Digraph, g2: Digraph) -> Digraph:
    return Digraph(g1.vertices + g2.vertices, list(g1.edges) + list(g2.edges))


def oracle_relabel(g: Digraph, mapping) -> Digraph:
    return Digraph([mapping[v] for v in g.vertices],
                   ((mapping[u], mapping[v]) for u, v in g.edges))


def oracle_coproduct(g: Digraph, subset):
    """is_lower_half, then two restrict calls."""
    sub = frozenset(subset)
    if not g.is_lower_half(sub):
        return None
    return g.restrict(sub), g.restrict(frozenset(g.vertices) - sub)


def oracle_direct_sum(u, v):
    """The per-label loop: each mask split into u's and v's masks bit by bit."""
    ground = canonical_labels(u.ground + v.ground)
    upos = {lab: i for i, lab in enumerate(u.ground)}
    vpos = {lab: i for i, lab in enumerate(v.ground)}
    uvals, vvals = dense_values(u), dense_values(v)
    vals = []
    for mask in range(1 << len(ground)):
        um = 0
        vm = 0
        for i, lab in enumerate(ground):
            if mask >> i & 1:
                if lab in upos:
                    um |= 1 << upos[lab]
                else:
                    vm |= 1 << vpos[lab]
        a, b = uvals[um], vvals[vm]
        vals.append(a + b if is_finite(a) and is_finite(b) else INF)
    return ExtBool(ground, vals)


def oracle_character_polynomial_of_sum(s, character) -> BinPoly:
    """One character polynomial per term, scaled and added."""
    total = BinPoly(())
    for g, c in s.terms.items():
        total = total + character_polynomial(g, character).scale(c)
    return total
