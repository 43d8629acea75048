"""Coloring-style polynomial invariants of a directed graph.

Each invariant counts maps f from the vertices onto {1..k}, weighted by
how f behaves along the edges, and records the count as the coefficient
of C(n, k); substituting an integer n then counts maps into {1..n}.
This route never looks at lower halves, so it is independent of the
character-polynomial engine and the two are compared in the tests.

  strict_chromatic   f strictly increasing along every edge
  weak_chromatic     f weakly increasing along every edge
  b_polynomial       every f, weighted y^(rises) * z^(falls)
  edge_invariant     f with no falls, weighted q^(level edges)

brute_strict and brute_weak scan all n^|vertices| maps directly and are
the oracles the polynomial routes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import kernels, limits
from .digraph import Digraph
from .hopf import EDGE, antipode, character_polynomial_of_sum
from .rings import BinPoly, Poly, Y, Z, Q


def _stats(g: Digraph, max_vertices: int | None) -> dict[tuple[int, int, int], int]:
    nv, tails, heads = g.edge_arrays()
    limits.check_size("surjection scan", nv, max_vertices)
    return kernels.surjection_stats(nv, tails, heads)


def strict_chromatic(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Counts maps strictly increasing along every edge."""
    nv = len(g.vertices)
    if nv == 0:
        return BinPoly((1,))
    m = len(g.edges)
    coeffs = [0] * (nv + 1)
    for (k, asc, desc), cnt in _stats(g, max_vertices).items():
        if asc == m and desc == 0:
            coeffs[k] += cnt
    return BinPoly(tuple(coeffs))


def weak_chromatic(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Counts maps weakly increasing along every edge."""
    nv = len(g.vertices)
    if nv == 0:
        return BinPoly((1,))
    coeffs = [0] * (nv + 1)
    for (k, asc, desc), cnt in _stats(g, max_vertices).items():
        if desc == 0:
            coeffs[k] += cnt
    return BinPoly(tuple(coeffs))


def b_polynomial(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """All maps, each weighted y^(rising edges) * z^(falling edges)."""
    nv = len(g.vertices)
    if nv == 0:
        return BinPoly((1,))
    coeffs: list[Any] = [Poly() for _ in range(nv + 1)]
    for (k, asc, desc), cnt in _stats(g, max_vertices).items():
        coeffs[k] = coeffs[k] + cnt * Y ** asc * Z ** desc
    return BinPoly(tuple(coeffs))


def edge_invariant(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Maps with no falling edge, each weighted q^(level edges)."""
    nv = len(g.vertices)
    if nv == 0:
        return BinPoly((1,))
    m = len(g.edges)
    coeffs: list[Any] = [Poly() for _ in range(nv + 1)]
    for (k, asc, desc), cnt in _stats(g, max_vertices).items():
        if desc == 0:
            coeffs[k] = coeffs[k] + cnt * Q ** (m - asc)
    return BinPoly(tuple(coeffs))


def _work_gate(g: Digraph, n: int) -> None:
    if n < 0:
        raise ValueError(f"map count needs n >= 0, got {n}")
    limits.check_work(f"scan of the maps into {{1..{n}}}", n ** len(g.vertices))


def brute_strict(g: Digraph, n: int) -> int:
    """Directly counts maps into {1..n} strictly increasing along edges."""
    _work_gate(g, n)
    nv, tails, heads = g.edge_arrays()
    return kernels.count_strict_colorings(nv, tails, heads, n)


def brute_weak(g: Digraph, n: int) -> int:
    """Directly counts maps into {1..n} weakly increasing along edges."""
    _work_gate(g, n)
    nv, tails, heads = g.edge_arrays()
    return kernels.count_weak_colorings(nv, tails, heads, n)


@dataclass(frozen=True)
class ReciprocityCheck:
    """Outcome of one reciprocity comparison at one argument."""

    hypothesis_ok: bool
    n: int
    lhs: Any = None
    rhs: Any = None

    @property
    def equal(self) -> bool | None:
        if not self.hypothesis_ok:
            return None
        return self.lhs == self.rhs


def check_reciprocity(g: Digraph, n: int, *,
                      max_vertices: int | None = None) -> ReciprocityCheck:
    """Strict invariant at -n against the weak count at n, for acyclic g.

    Compares (-1)^|vertices| * strict_chromatic(g)(-n) with brute_weak(g, n).
    Cyclic graphs fail the hypothesis and nothing is asserted for them.
    """
    if not g.is_acyclic():
        return ReciprocityCheck(False, n)
    sign = -1 if len(g.vertices) % 2 else 1
    lhs = sign * strict_chromatic(g, max_vertices=max_vertices).eval(-n)
    rhs = brute_weak(g, n)
    return ReciprocityCheck(True, n, lhs, rhs)


def check_edge_reciprocity(g: Digraph, n: int, *,
                           max_vertices: int | None = None) -> ReciprocityCheck:
    """Edge invariant at -n against the antipode route at n, any g.

    Compares edge_invariant(g)(-n) with the edge character polynomial of
    antipode(g) evaluated at n; both sides are polynomials in q.
    """
    lhs = edge_invariant(g, max_vertices=max_vertices).eval(-n)
    rhs = character_polynomial_of_sum(
        antipode(g, max_vertices=max_vertices), EDGE,
        max_vertices=max_vertices).eval(n)
    return ReciprocityCheck(True, n, lhs, rhs)
