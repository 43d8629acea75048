"""Directed graphs on string-labeled vertices.

A set S of vertices is a *lower half* when every edge between S and its
complement points out of S; equivalently, S receives no incoming edge
from outside.  Lower halves are where a graph may be split in two, and
they drive everything downstream: the splitting rule here, the antipode
and character polynomials, and the finite part of the cut function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import kernels
from .errors import GraphParseError, SizeLimitError
from .limits import SUBSET_BOUND

_FORBIDDEN = re.compile(r"[\s#]|->")


def canonical_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """Sorted, duplicate-free label tuple; rejects non-string labels."""
    seen = set()
    out = []
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise ValueError(f"labels must be non-empty strings, got {lab!r}")
        if lab in seen:
            raise ValueError(f"duplicate label {lab!r}")
        seen.add(lab)
        out.append(lab)
    return tuple(sorted(out))


def _check_label(lab: object) -> str:
    if not isinstance(lab, str) or not lab or _FORBIDDEN.search(lab):
        raise ValueError(
            f"vertex labels must be non-empty strings without whitespace, '#' or '->', got {lab!r}")
    return lab


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: no loops, no parallel edges.

    vertices are kept sorted; edges are (tail, head) pairs.  Instances
    are immutable and compare structurally.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        verts = canonical_labels(vertices)
        for v in verts:
            _check_label(v)
        vset = set(verts)
        eset = set()
        for edge in edges:
            u, v = edge
            if u not in vset or v not in vset:
                raise ValueError(f"edge {edge!r} mentions an unknown vertex")
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            eset.add((u, v))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(eset))

    def _subgraph(self, vertices: tuple[str, ...],
                  edges: Iterable[tuple[str, str]]) -> "Digraph":
        """A subgraph built from parts of this already validated graph.

        vertices must be a sorted sub-tuple of self.vertices and edges
        edges of self between them.  Skips the checks of __init__.
        """
        sub = object.__new__(Digraph)
        object.__setattr__(sub, "vertices", vertices)
        object.__setattr__(sub, "edges", frozenset(edges))
        return sub

    @property
    def edge_list(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.edges))

    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def edge_arrays(self) -> tuple[int, list[int], list[int]]:
        """Kernel form: vertex count plus tail/head index arrays in edge_list order."""
        idx = self.index()
        tails = []
        heads = []
        for u, v in self.edge_list:
            tails.append(idx[u])
            heads.append(idx[v])
        return len(self.vertices), tails, heads

    def relabel(self, mapping: Mapping[str, str]) -> "Digraph":
        """Transport along a bijection; mapping must cover every vertex injectively."""
        missing = [v for v in self.vertices if v not in mapping]
        if missing:
            raise ValueError(f"relabel map misses vertices {missing}")
        images = [mapping[v] for v in self.vertices]
        if len(set(images)) != len(images):
            raise ValueError("relabel map is not injective on the vertices")
        return Digraph(images, ((mapping[u], mapping[v]) for u, v in self.edges))

    def restrict(self, subset: Iterable[str]) -> "Digraph":
        """Induced subgraph on a subset of the vertices."""
        sub = frozenset(subset)
        extra = sub - set(self.vertices)
        if extra:
            raise ValueError(f"restriction set contains non-vertices {sorted(extra)}")
        return self._subgraph(tuple(sorted(sub)),
                              ((u, v) for u, v in self.edges if u in sub and v in sub))

    def is_lower_half(self, subset: Iterable[str]) -> bool:
        """True when no edge enters the subset from outside it."""
        sub = frozenset(subset)
        extra = sub - set(self.vertices)
        if extra:
            raise ValueError(f"subset contains non-vertices {sorted(extra)}")
        return not any(u not in sub and v in sub for u, v in self.edges)

    def lower_halves(self, *, bound: int = SUBSET_BOUND) -> list[frozenset[str]]:
        """All lower halves, from the empty set up to the full vertex set."""
        nv, tails, heads = self.edge_arrays()
        if nv > bound:
            raise SizeLimitError(f"subset scan over {nv} vertices exceeds bound {bound}")
        verts = self.vertices
        out = []
        for mask in kernels.lower_half_masks(nv, tails, heads):
            out.append(frozenset(verts[i] for i in range(nv) if mask >> i & 1))
        return out

    def coproduct(self, subset: Iterable[str]) -> tuple["Digraph", "Digraph"] | None:
        """Split into (inside, outside) when the subset is a lower half, else None."""
        sub = frozenset(subset)
        if not self.is_lower_half(sub):
            return None
        rest = frozenset(self.vertices) - sub
        return self.restrict(sub), self.restrict(rest)

    def composition_minor(self, blocks: Iterable[Iterable[str]]) -> "Digraph | None":
        """Union of the induced blocks when every prefix union is a lower half.

        blocks must be an ordered composition of the vertex set (non-empty,
        disjoint, covering).  Returns None when some prefix is not a lower
        half, which is the zero case of the iterated split-then-merge.
        """
        seq = [frozenset(b) for b in blocks]
        allv = frozenset(self.vertices)
        union: set[str] = set()
        for b in seq:
            if not b:
                raise ValueError("composition blocks must be non-empty")
            if union & b:
                raise ValueError("composition blocks must be disjoint")
            union |= b
        if union != allv:
            raise ValueError("composition blocks must cover the vertex set")

        prefix: set[str] = set()
        kept: list[tuple[str, str]] = []
        for b in seq:
            prefix |= b
            for u, v in self.edges:
                if v in b:
                    if u not in prefix:
                        return None  # edge enters the prefix from outside
                    if u in b:
                        kept.append((u, v))
        return self._subgraph(self.vertices, kept)

    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycle (iterative DFS)."""
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
        state = {v: 0 for v in self.vertices}  # 0 fresh, 1 on stack, 2 done
        for root in self.vertices:
            if state[root]:
                continue
            stack = [(root, iter(adj[root]))]
            state[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state[nxt] == 1:
                        return False
                    if state[nxt] == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(adj[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()
        return True


def disjoint_union(g1: Digraph, g2: Digraph) -> Digraph:
    """Merge two graphs on disjoint vertex sets."""
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise ValueError(f"vertex sets overlap on {sorted(overlap)}")
    return Digraph(g1.vertices + g2.vertices, list(g1.edges) + list(g2.edges))


EMPTY = Digraph(())


def parse_graph(text: str) -> Digraph:
    """Read the plain-text graph format.

    First significant line: ``vertices: a b c``.  Every following line is
    one edge, ``a -> b``.  Blank lines are skipped and ``#`` starts a
    comment.  Raises GraphParseError with line/column on bad input.
    """
    vertices: list[str] | None = None
    edges: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if vertices is None:
            stripped = line.strip()
            if not stripped.startswith("vertices:"):
                raise GraphParseError("expected a 'vertices:' line", lineno,
                                      len(line) - len(line.lstrip()) + 1)
            names = stripped[len("vertices:"):].split()
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise GraphParseError(f"duplicate vertex {name!r}", lineno,
                                          line.index(name) + 1)
                seen.add(name)
            vertices = names
            continue
        if "->" not in line:
            raise GraphParseError("expected 'u -> v'", lineno,
                                  len(line) - len(line.lstrip()) + 1)
        left, _, right = line.partition("->")
        u = left.strip()
        v = right.strip()
        if not u or not v or len(v.split()) != 1 or len(u.split()) != 1 or "->" in right:
            raise GraphParseError("expected 'u -> v'", lineno,
                                  len(line) - len(line.lstrip()) + 1)
        if u not in vertices:
            raise GraphParseError(f"unknown vertex {u!r}", lineno, line.index(u) + 1)
        if v not in vertices:
            raise GraphParseError(f"unknown vertex {v!r}", lineno, line.rindex(v) + 1)
        if u == v:
            raise GraphParseError(f"loop at {u!r} not allowed", lineno, line.index(u) + 1)
        if (u, v) in seen_edges:
            raise GraphParseError(f"duplicate edge {u} -> {v}", lineno,
                                  len(line) - len(line.lstrip()) + 1)
        seen_edges.add((u, v))
        edges.append((u, v))

    if vertices is None:
        raise GraphParseError("expected a 'vertices:' line", 1)
    try:
        return Digraph(vertices, edges)
    except ValueError as exc:
        raise GraphParseError(str(exc), 1) from exc


def format_graph(g: Digraph) -> str:
    """Inverse of parse_graph, with sorted vertices and edges."""
    lines = ["vertices: " + " ".join(g.vertices)]
    lines.extend(f"{u} -> {v}" for u, v in g.edge_list)
    return "\n".join(lines) + "\n"
