"""Antipode and character polynomials.

Both operations sum over ordered set compositions of the vertex set whose
prefixes are all lower halves; a composition contributes its kept edges
(those inside a single block) with sign (-1)^blocks to the antipode, and
the product of character values of its blocks to the coefficient of
C(n, k) in the character polynomial.

Every such sum runs through the one dynamic program of the kernels.  For
the built-in characters it only depends on how many edges each
composition keeps; any other character is evaluated on the blocks
themselves.  Both paths are exact.

Disjoint union is the monoid's product, and the antipode and the
histogram of kept edges are multiplicative, so the kernels compute them
per weakly connected component and combine the parts: a term of
antipode(g) is a disjoint union of its blocks, so
character_polynomial_of_sum folds each term block by block.  Any other
character's sum runs over the whole graph at once, since its values on
the blocks need not multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import kernels, limits
from .digraph import Digraph
from .rings import BinPoly, Poly, Q


@dataclass(frozen=True)
class Character:
    """A named multiplicative graph invariant with values in a ring.

    of_edge_count, when set, must satisfy of_graph(g) == of_edge_count(|edges of g|)
    for every g; it lets the composition sum count kept edges instead of
    evaluating the character on every block.
    """

    name: str
    of_graph: Callable[[Digraph], Any]
    of_edge_count: Callable[[int], Any] | None = None

    def __call__(self, g: Digraph) -> Any:
        return self.of_graph(g)


def basic_char(g: Digraph) -> int:
    """1 on edgeless graphs, 0 otherwise."""
    return 0 if g.edges else 1


def edge_char(g: Digraph) -> Poly:
    """q raised to the number of edges."""
    return Q ** len(g.edges)


BASIC = Character("basic", basic_char, lambda m: 0 if m else 1)
EDGE = Character("edge", edge_char, lambda m: Q ** m)


@dataclass(frozen=True, eq=True)
class FormalSum:
    """Integer combination of graphs sharing one vertex set."""

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

    def items(self) -> Iterator[tuple[Digraph, int]]:
        """Terms with many-edged graphs first, ties broken by edge list."""
        for g in sorted(self.terms, key=lambda g: (-len(g.edges), g.edge_list)):
            yield g, self.terms[g]

    def coefficient(self, g: Digraph) -> int:
        return self.terms.get(g, 0)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        if self.vertices != other.vertices:
            raise ValueError("formal sums live on different vertex sets")
        return FormalSum.of(self.vertices,
                            list(self.terms.items()) + list(other.terms.items()))

    def scale(self, c: int) -> "FormalSum":
        return FormalSum.of(self.vertices, ((g, c * k) for g, k in self.terms.items()))


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _kept(items: Sequence, mask: int) -> Iterator:
    """items[i] for each bit len(items)-1-i set in mask, in the order of items."""
    return compress(items, bin(mask | 1 << len(items)).encode()[3:].translate(_BIT_FLAGS))


def antipode_masks(g: Digraph, *, max_vertices: int | None = None
                   ) -> tuple[tuple[tuple[str, str], ...], list[tuple[int, int]]]:
    """The antipode as (edge_list, [(mask, coefficient), ...]).

    Bit m-1-i of a mask, m = len(edge_list), stands for edge_list[i].  The
    pairs come in the order of FormalSum.items: more edges first, ties by
    edge list.  Of two kept sets of one size, the one holding the lowest
    edge index where they differ has the larger mask, so the order is that
    of (-popcount, -mask).
    """
    nv = len(g.vertices)
    limits.check_size("composition enumeration", nv, max_vertices)
    edge_list = g.edge_list
    if nv == 0:
        return edge_list, [(0, 1)]
    _, tails, heads = g.edge_arrays()
    # the kernel returns distinct edge masks with non-zero coefficients
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
    in the order of FormalSum.items.
    """
    edge_list, terms = antipode_masks(g, max_vertices=max_vertices)
    verts = g.vertices
    return FormalSum(verts, {g._subgraph(verts, _kept(edge_list, mask)): c
                             for mask, c in terms})


def character_polynomial(g: Digraph, character: Character | Callable[[Digraph], Any],
                         *, max_vertices: int | None = None) -> BinPoly:
    """The polynomial invariant of g attached to a character.

    Coefficient of C(n, k) is the sum, over admissible compositions into
    k blocks, of the product of character values on the blocks.  Degree
    is at most the number of vertices; the empty graph gives the constant 1.
    """
    nv = len(g.vertices)
    limits.check_size("composition enumeration", nv, max_vertices)
    if nv == 0:
        return BinPoly((1,))

    _, tails, heads = g.edge_arrays()
    if _counts_edges(character):
        return _edge_count_polynomial(kernels.chain_stats(nv, tails, heads), nv, character)
    verts = g.vertices

    def block_value(mask: int) -> Any:
        return character(g.restrict(verts[i] for i in range(nv) if mask >> i & 1))

    coeffs: list[Any] = [0] * (nv + 1)
    for k, val in kernels.character_sum(nv, tails, heads, block_value).items():
        coeffs[k] = val
    return BinPoly(tuple(coeffs))


def _counts_edges(character: Character | Callable[[Digraph], Any]) -> bool:
    return isinstance(character, Character) and character.of_edge_count is not None


def _edge_count_polynomial(stats: dict[tuple[int, int], Any], nv: int,
                           character: Character) -> BinPoly:
    """The polynomial of a (k, kept) -> count histogram: each entry adds
    count * of_edge_count(kept) to the coefficient of C(n, k)."""
    coeffs: list[Any] = [0] * (nv + 1)
    values: dict[int, Any] = {}
    for (k, kept), cnt in stats.items():
        if kept not in values:
            values[kept] = character.of_edge_count(kept)
        coeffs[k] = coeffs[k] + cnt * values[kept]
    return BinPoly(tuple(coeffs))


def character_of_sum(s: FormalSum, character: Callable[[Digraph], Any]) -> Any:
    """Linear extension of a character to a formal sum."""
    total: Any = 0
    for g, c in s.items():
        total = total + c * character(g)
    return total


def character_polynomial_of_sum(s: FormalSum, character: Character | Callable[[Digraph], Any],
                                *, max_vertices: int | None = None) -> BinPoly:
    """Linear extension of character_polynomial to a formal sum.

    For a character with of_edge_count, the terms' chain_stats histograms
    are added, weighted by their coefficients, and one polynomial is
    built from the total.
    """
    nv = len(s.vertices)
    if s.terms and nv and _counts_edges(character):
        limits.check_size("composition enumeration", nv, max_vertices)
        stats: dict[tuple[int, int], int] = {}
        for g, c in s.items():
            _, tails, heads = g.edge_arrays()
            for key, cnt in kernels.chain_stats(nv, tails, heads).items():
                stats[key] = stats.get(key, 0) + c * cnt
        return _edge_count_polynomial(stats, nv, character)
    total = BinPoly(())
    for g, c in s.items():
        total = total + character_polynomial(g, character, max_vertices=max_vertices).scale(c)
    return total


def antipode_of_sum(s: FormalSum, *, max_vertices: int | None = None) -> FormalSum:
    """Linear extension of the antipode to a formal sum."""
    total = FormalSum.of(s.vertices, ())
    for g, c in s.items():
        total = total + antipode(g, max_vertices=max_vertices).scale(c)
    return total
