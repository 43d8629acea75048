"""Coloring-style polynomial invariants of a directed graph.

Each invariant counts maps f from the vertices onto {1..k}, weighted by
how f behaves along the edges, and records the count as the coefficient
of C(n, k); substituting an integer n then counts maps into {1..n}.
This route never looks at lower halves, so it is independent of the
character-polynomial engine and the two are compared in the tests.

All four are projections of one histogram: kernels.surjection_stats
counts the surjections onto {1..k} by (k, ascents, descents).  One walk
over it adds each entry it keeps into an integer exponent dict for
C(n, k), and each coefficient Poly is built once from its dict.  With m
edges, an entry (k, asc, desc) goes to

  strict_chromatic   1 when asc = m and desc = 0 (f strictly increasing)
  weak_chromatic     1 when desc = 0 (f weakly increasing)
  b_polynomial       y^asc * z^desc (every f)
  edge_invariant     q^(m - asc) when desc = 0 (level edges of f)

brute_strict and brute_weak scan all n^|vertices| maps directly and are
the oracles the polynomial routes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from . import kernels, limits
from .digraph import Digraph
from .hopf import EDGE, antipode, character_polynomial_of_sum
from .rings import BinPoly, Expt, Poly


def _check_scan_size(g: Digraph, max_vertices: int | None) -> None:
    limits.check_size("surjection scan", len(g.vertices), max_vertices)


def _project(g: Digraph, max_vertices: int | None,
             keep: Callable[[int, int, int], Expt | None]) -> BinPoly:
    """One walk of the histogram: an entry that keep(m, asc, desc) maps to
    an exponent vector adds its count there, in the coefficient of C(n, k)."""
    nv, tails, heads = g.edge_arrays()
    if nv == 0:
        return BinPoly((1,))
    _check_scan_size(g, max_vertices)
    m = len(tails)
    sums: list[dict[Expt, int]] = [{} for _ in range(nv + 1)]
    for (k, asc, desc), cnt in kernels.surjection_stats(nv, tails, heads).items():
        e = keep(m, asc, desc)
        if e is not None:
            sums[k][e] = sums[k].get(e, 0) + cnt
    return BinPoly(tuple(Poly(terms) for terms in sums))


def strict_chromatic(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Counts maps strictly increasing along every edge."""
    return _project(g, max_vertices,
                    lambda m, asc, desc: (0, 0, 0) if asc == m and desc == 0 else None)


def weak_chromatic(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Counts maps weakly increasing along every edge."""
    return _project(g, max_vertices,
                    lambda m, asc, desc: (0, 0, 0) if desc == 0 else None)


def b_polynomial(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """All maps, each weighted y^(rising edges) * z^(falling edges)."""
    return _project(g, max_vertices, lambda m, asc, desc: (0, asc, desc))


def edge_invariant(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Maps with no falling edge, each weighted q^(level edges)."""
    return _project(g, max_vertices,
                    lambda m, asc, desc: (m - asc, 0, 0) if desc == 0 else None)


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


def check_reciprocity_work(g: Digraph, ns: Sequence[int], *,
                           max_vertices: int | None = None) -> None:
    """Refuse the reciprocity checks at the points ns before they start.

    Checks the vertex cap that both checks meet first, then, for acyclic
    g, the largest brute-force weak count check_reciprocity would run.
    """
    _check_scan_size(g, max_vertices)
    if ns and g.is_acyclic():
        _work_gate(g, max(ns))


def check_reciprocity(g: Digraph, ns: Iterable[int], *,
                      max_vertices: int | None = None) -> list[ReciprocityCheck]:
    """Strict invariant at -n against the weak count at n, for acyclic g.

    Compares (-1)^|vertices| * strict_chromatic(g)(-n) with brute_weak(g, n)
    at each n of ns, building the strict invariant once.  Cyclic graphs
    fail the hypothesis and nothing is asserted for them.
    """
    if not g.is_acyclic():
        return [ReciprocityCheck(False, n) for n in ns]
    sign = -1 if len(g.vertices) % 2 else 1
    strict = strict_chromatic(g, max_vertices=max_vertices)
    return [ReciprocityCheck(True, n, sign * strict.eval(-n), brute_weak(g, n))
            for n in ns]


def check_edge_reciprocity(g: Digraph, ns: Iterable[int], *,
                           max_vertices: int | None = None) -> list[ReciprocityCheck]:
    """Edge invariant at -n against the antipode route at n, any g.

    Compares edge_invariant(g)(-n) with the edge character polynomial of
    antipode(g) evaluated at n, at each n of ns; both sides are
    polynomials in q, and each is built once.
    """
    psi = edge_invariant(g, max_vertices=max_vertices)
    flipped = character_polynomial_of_sum(
        antipode(g, max_vertices=max_vertices), EDGE, max_vertices=max_vertices)
    return [ReciprocityCheck(True, n, psi.eval(-n), flipped.eval(n)) for n in ns]
