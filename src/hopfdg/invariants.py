"""Coloring-style polynomial invariants of a directed graph.

Each invariant counts maps f from the vertices onto {1..k}, weighted by
how f behaves along the edges, and records the count as the coefficient
of C(n, k); substituting an integer n then counts maps into {1..n}.

The value classes of f, in increasing order, form an ordered set
composition.  f is weakly increasing along every edge exactly when every
prefix of that composition is a lower half, and the edges f leaves level
are then the edges kept inside single blocks.  So strict, weak and psi
are projections of kernels.chain_stats, the (k, kept) histogram over the
lattice of lower halves, through hopf._project, the one route from a
kernel histogram to a BinPoly.  An entry (k, kept) goes to

  strict_chromatic   1 when kept = 0 (f strictly increasing)
  weak_chromatic     1 (f weakly increasing)
  edge_invariant     q^kept (level edges of f)

strict's and psi's weights are hopf._strict_weight and hopf._psi_weight,
the ones character_polynomial projects with for BASIC and EDGE, so
strict_chromatic is the basic character polynomial by the same code, as
the paper's theorem says, and edge_invariant the edge one.

b_polynomial alone needs every map: it walks all surjections through
kernels.surjection_stats, whose key (k, asc, desc) goes to y^asc * z^desc
by the same projection.

The routes the tests compare these against share no code with them:
brute_strict and brute_weak count the maps directly, one vertex at a
time, each vertex taking every value in the interval its earlier
neighbours leave it (kernels.count_monotone_maps), and the oracles in
the test suite enumerate colorings and compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from . import kernels, limits
from .digraph import Digraph
from .hopf import _project, _psi_weight, _strict_weight, _sum_polynomial, antipode
from .rings import BinPoly, Expt


def _check_scan_size(g: Digraph, max_vertices: int | None) -> None:
    # one wording for all four invariants and the reciprocity checks, kept
    # from when each of them scanned the surjections: refusals are output
    # too, and stay byte-stable
    limits.check_size("surjection scan", len(g.vertices), max_vertices)


def _invariant(g: Digraph, max_vertices: int | None,
               histogram: Callable[[int, list[int], list[int]], dict[tuple, int]],
               weight: Callable[[tuple], Expt | None]) -> BinPoly:
    _check_scan_size(g, max_vertices)
    nv, tails, heads = g.edge_arrays()
    if nv == 0:
        return BinPoly((1,))
    return _project(nv, histogram(nv, tails, heads), weight)


def strict_chromatic(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Counts maps strictly increasing along every edge."""
    return _invariant(g, max_vertices, kernels.chain_stats, _strict_weight)


def weak_chromatic(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Counts maps weakly increasing along every edge."""
    return _invariant(g, max_vertices, kernels.chain_stats, lambda key: (0, 0, 0))


def b_polynomial(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """All maps, each weighted y^(rising edges) * z^(falling edges)."""
    return _invariant(g, max_vertices, kernels.surjection_stats,
                      lambda key: (0, key[1], key[2]))


def edge_invariant(g: Digraph, *, max_vertices: int | None = None) -> BinPoly:
    """Maps with no falling edge, each weighted q^(level edges)."""
    return _invariant(g, max_vertices, kernels.chain_stats, _psi_weight)


def _work_gate(g: Digraph, n: int) -> None:
    # a float n would never meet the walk's top value, so it is refused
    if not isinstance(n, int):
        raise ValueError(f"map count needs an int n, got {n!r}")
    if n < 0:
        raise ValueError(f"map count needs n >= 0, got {n}")
    limits.check_work(f"scan of the maps into {{1..{n}}}", n ** len(g.vertices))


def brute_strict(g: Digraph, n: int) -> int:
    """Directly counts maps into {1..n} strictly increasing along edges."""
    _work_gate(g, n)
    nv, tails, heads = g.edge_arrays()
    return kernels.count_monotone_maps(nv, tails, heads, n, True)


def brute_weak(g: Digraph, n: int) -> int:
    """Directly counts maps into {1..n} weakly increasing along edges."""
    _work_gate(g, n)
    nv, tails, heads = g.edge_arrays()
    return kernels.count_monotone_maps(nv, tails, heads, n, False)


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
    flipped = _sum_polynomial(antipode(g, max_vertices=max_vertices), _psi_weight,
                              max_vertices)
    return [ReciprocityCheck(True, n, psi.eval(-n), flipped.eval(n)) for n in ns]
