"""Shared fixtures and independent oracles.

The oracles here recompute results by raw definition-level enumeration
(itertools over color assignments, composition lists filtered by the
prefix condition) so the dynamic programs in the package are checked
against something that shares no code path with them.
"""

from __future__ import annotations

import itertools
import random

import pytest

from hopfdg import BinPoly, Digraph
from hopfdg.compositions import compositions

LABELS = "abcdefghij"


@pytest.fixture
def g3() -> Digraph:
    """Transitive tournament on three vertices."""
    return Digraph(("0", "1", "2"), (("0", "1"), ("1", "2"), ("0", "2")))


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


def oracle_is_lower_half(g: Digraph, sub) -> bool:
    sub = frozenset(sub)
    return all(u in sub or v not in sub for u, v in g.edges)


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
    for k in range(1, nv + 1):
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
