"""Antipode and character polynomials.

Both operations sum over ordered set compositions of the vertex set whose
prefixes are all lower halves; a composition contributes its kept edges
(those inside a single block) with sign (-1)^blocks to the antipode, and
the product of character values of its blocks to the coefficient of
C(n, k) in the character polynomial.

Every such sum runs through the one dynamic program of the kernels.  The
antipode's signed sum cancels down to one term per partition of the
vertices into weakly connected induced blocks with an acyclic quotient,
signed (-1)^blocks, and kernels.takeuchi_terms folds those terms
directly, so no coefficient is ever summed to 0.

A character is any callable from graphs to ints or Polys.  The two the
paper's theorem and its reciprocity use, BASIC (basic_char) and EDGE
(edge_char), take one monomial fixed by the edge count on each block, so
their polynomials only need how many edges each composition keeps: they
are projections of the kernels' (k, kept) histogram through _project,
the one route from graphs to a BinPoly, with the weights _strict_weight
and _psi_weight.  _project takes (graph, coefficient) pairs, one graph
with coefficient 1 or a formal sum's terms, and adds their histograms
weighted by the coefficients before it projects.  The polynomial
invariants of the invariants module project with the same two weights,
so the strict invariant and the basic character polynomial are one code
path.  The empty graph needs no case of its own: every kernel gives it
its one empty composition, so each of its polynomials is the constant
1, while a formal sum with no terms projects to 0.  The
fast path is chosen when the character is this module's BASIC or EDGE,
looked up at call time, so a rebound BASIC or EDGE keeps it.  Any other
callable is evaluated on the blocks themselves.  Both paths are exact.

Disjoint union is the monoid's product, and the antipode and the
histogram of kept edges are multiplicative, so the kernels compute them
per weakly connected component and combine the parts: a term of
antipode(g) is a disjoint union of its blocks, so
character_polynomial_of_sum folds each term block by block and projects
all the terms at once.  Any other character's sum runs over the whole
graph at once, since its values on the blocks need not multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from . import kernels, limits
from .digraph import Digraph
from .rings import BinPoly, Expt, Poly, Q


def basic_char(g: Digraph) -> int:
    """1 on edgeless graphs, 0 otherwise."""
    return 0 if g.edges else 1


def edge_char(g: Digraph) -> Poly:
    """q raised to the number of edges."""
    return Q ** len(g.edges)


BASIC = basic_char
EDGE = edge_char


# an entry (k, kept) of chain_stats weighs BASIC's and EDGE's value on
# blocks keeping kept edges in all: 1 at kept = 0 only, and q^kept
def _strict_weight(key: tuple[int, int]) -> Expt | None:
    return None if key[1] else (0, 0, 0)


def _psi_weight(key: tuple[int, int]) -> Expt:
    return (key[1], 0, 0)


def _fast_weight(character: Callable[[Digraph], Any]) -> Callable[[tuple], Expt | None] | None:
    """The projection weight of BASIC or EDGE, as bound now; else None."""
    if character is BASIC:
        return _strict_weight
    if character is EDGE:
        return _psi_weight
    return None


@dataclass(frozen=True, eq=True)
class FormalSum:
    """Integer combination of graphs sharing one vertex set.

    It hashes over its terms, as it compares, so never mutate terms.
    """

    vertices: tuple[str, ...]
    terms: dict[Digraph, int]

    @classmethod
    def of(cls, vertices: Iterable[str],
           pairs: Iterable[tuple[Digraph, int]]) -> "FormalSum":
        verts = tuple(sorted(vertices))
        merged: dict[Digraph, int] = {}
        for g, c in pairs:
            if g.vertices != verts:
                raise ValueError(
                    f"term on vertices {g.vertices} does not match {verts}")
            merged[g] = merged.get(g, 0) + c
        return cls(verts, {g: c for g, c in merged.items() if c})

    def __len__(self) -> int:
        return len(self.terms)

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self.terms.items())))


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _kept(items: Sequence, mask: int) -> Iterator:
    """items[i] for each bit len(items)-1-i set in mask, in the order of items."""
    return compress(items, bin(mask | 1 << len(items)).encode()[3:].translate(_BIT_FLAGS))


def antipode_masks(g: Digraph, *, max_vertices: int | None = None
                   ) -> tuple[tuple[tuple[str, str], ...], list[tuple[int, int]]]:
    """The antipode as (edge_list, [(mask, coefficient), ...]).

    Bit m-1-i of a mask, m = len(edge_list), stands for edge_list[i].  The
    pairs come in the antipode command's order: more edges first, ties by
    edge list.  Of two kept sets of one size, the one holding the lowest
    edge index where they differ has the larger mask, so the order is that
    of (-popcount, -mask).
    """
    nv = len(g.vertices)
    limits.check_size("composition enumeration", nv, max_vertices)
    edge_list = g.edge_list
    _, tails, heads = g.edge_arrays()
    # the kernel returns distinct edge masks with coefficients +1 and -1
    terms = kernels.takeuchi_terms(nv, tails[::-1], heads[::-1])
    m = len(edge_list)
    full = (1 << m) - 1
    keys = sorted((mask.bit_count() << m | mask for mask in terms), reverse=True)
    return edge_list, [(key & full, terms[key & full]) for key in keys]


def antipode(g: Digraph, *, max_vertices: int | None = None) -> FormalSum:
    """Alternating sum over admissible compositions, as one formal sum.

    The empty graph maps to itself with coefficient +1.  Each term keeps
    the edges lying inside a single block of its composition, so the
    result is supported on spanning subgraphs of g.  The terms are stored
    in antipode_masks' order: more edges first, ties by edge list.
    """
    edge_list, terms = antipode_masks(g, max_vertices=max_vertices)
    verts = g.vertices
    return FormalSum(verts, {g._subgraph(verts, _kept(edge_list, mask)): c
                             for mask, c in terms})


def _project(nv: int, graphs: Iterable[tuple[Digraph, int]],
             histogram: Callable[[int, list[int], list[int]], Mapping[tuple, int]],
             weight: Callable[[tuple], Expt | None]) -> BinPoly:
    """The one route from graphs on nv vertices to a BinPoly.

    graphs holds (g, c) pairs, a formal sum's terms or one graph with
    c = 1.  An entry of histogram(*g.edge_arrays()) with key (k, ...) and
    count cnt adds c * cnt at the exponent vector weight(key) in the
    coefficient of C(n, k), or nothing where that weight is None.  The
    coefficients may be signed, so exponents whose counts cancel are
    dropped, and no pairs give 0.
    """
    sums: list[dict[Expt, int]] = [{} for _ in range(nv + 1)]
    for g, c in graphs:
        for key, cnt in histogram(*g.edge_arrays()).items():
            e = weight(key)
            if e is not None:
                terms = sums[key[0]]
                terms[e] = terms.get(e, 0) + c * cnt
    # non-zero int counts on exponent tuples, so the per-term checks of
    # Poly(...) are skipped
    return BinPoly(tuple(Poly._of(terms if all(terms.values()) else
                                  {e: c for e, c in terms.items() if c}) for terms in sums))


def character_polynomial(g: Digraph, character: Callable[[Digraph], Any],
                         *, max_vertices: int | None = None) -> BinPoly:
    """The polynomial invariant of g attached to a character.

    Coefficient of C(n, k) is the sum, over admissible compositions into
    k blocks, of the product of character values on the blocks.  Degree
    is at most the number of vertices; the empty graph gives the constant 1.
    """
    nv = len(g.vertices)
    limits.check_size("composition enumeration", nv, max_vertices)
    weight = _fast_weight(character)
    if weight is not None:
        return _project(nv, [(g, 1)], kernels.chain_stats, weight)
    _, tails, heads = g.edge_arrays()
    verts = g.vertices

    def block_value(mask: int) -> Any:
        return character(g.restrict(verts[i] for i in range(nv) if mask >> i & 1))

    coeffs: list[Any] = [0] * (nv + 1)
    for k, val in kernels.character_sum(nv, tails, heads, block_value).items():
        coeffs[k] = val
    return BinPoly(tuple(coeffs))


def character_polynomial_of_sum(s: FormalSum, character: Callable[[Digraph], Any],
                                *, max_vertices: int | None = None) -> BinPoly:
    """Linear extension of character_polynomial to a formal sum.

    For BASIC and EDGE, the terms' chain_stats histograms are added,
    weighted by their coefficients, and projected once (_project).  A sum
    with no terms gives 0.
    """
    weight = _fast_weight(character)
    if weight is not None:
        nv = len(s.vertices)
        limits.check_size("composition enumeration", nv, max_vertices)
        return _project(nv, s.terms.items(), kernels.chain_stats, weight)
    total = BinPoly(())
    for g, c in s.terms.items():
        total = total + character_polynomial(g, character, max_vertices=max_vertices).scale(c)
    return total

