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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

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


def antipode(g: Digraph, *, max_vertices: int | None = None) -> FormalSum:
    """Alternating sum over admissible compositions, as one formal sum.

    The empty graph maps to itself with coefficient +1.  Each term keeps
    the edges lying inside a single block of its composition, so the
    result is supported on spanning subgraphs of g.
    """
    nv = len(g.vertices)
    limits.check_size("composition enumeration", nv, max_vertices)
    if nv == 0:
        return FormalSum.of((), [(g, 1)])
    _, tails, heads = g.edge_arrays()
    edge_list = g.edge_list
    terms = {}
    # the kernel returns distinct edge masks with non-zero coefficients
    for mask, c in kernels.takeuchi_terms(nv, tails, heads).items():
        kept = []
        while mask:
            low = mask & -mask
            kept.append(edge_list[low.bit_length() - 1])
            mask ^= low
        terms[g._subgraph(g.vertices, kept)] = c
    return FormalSum(g.vertices, terms)


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
    coeffs: list[Any] = [0] * (nv + 1)
    if isinstance(character, Character) and character.of_edge_count is not None:
        values: dict[int, Any] = {}
        for (k, kept), cnt in kernels.chain_stats(nv, tails, heads).items():
            if kept not in values:
                values[kept] = character.of_edge_count(kept)
            coeffs[k] = coeffs[k] + cnt * values[kept]
    else:
        verts = g.vertices

        def block_value(mask: int) -> Any:
            return character(g.restrict(verts[i] for i in range(nv) if mask >> i & 1))

        for k, val in kernels.character_sum(nv, tails, heads, block_value).items():
            coeffs[k] = val
    return BinPoly(tuple(coeffs))


def character_of_sum(s: FormalSum, character: Callable[[Digraph], Any]) -> Any:
    """Linear extension of a character to a formal sum."""
    total: Any = 0
    for g, c in s.items():
        total = total + c * character(g)
    return total


def character_polynomial_of_sum(s: FormalSum, character: Character | Callable[[Digraph], Any],
                                *, max_vertices: int | None = None) -> BinPoly:
    """Linear extension of character_polynomial to a formal sum."""
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
