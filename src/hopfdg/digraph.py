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

from ._engine import _down_sets
from .errors import GraphParseError

_FORBIDDEN = re.compile(r"[\s#]|->")
_LABEL_RULE = "vertex labels must be non-empty strings without whitespace, '#' or '->', got {!r}"


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


def _graph_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """canonical_labels, then the graph label rule on each label in sorted order.

    canonical_labels refuses non-strings, empty labels and duplicates;
    this refuses whitespace, '#' and '->', reporting the first such label.
    """
    verts = canonical_labels(labels)
    for lab in verts:
        if _FORBIDDEN.search(lab):
            raise ValueError(_LABEL_RULE.format(lab))
    return verts


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: no loops, no parallel edges.

    vertices are kept sorted; edges are (tail, head) pairs, each given to
    the constructor as a tuple or list of two vertices.  Instances are
    immutable and compare structurally.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        verts = _graph_labels(vertices)
        vset = set(verts)
        eset = set()
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise ValueError(f"edge {edge!r} is not a (tail, head) pair")
            u, v = edge
            try:
                known = u in vset and v in vset
            except TypeError:   # an unhashable end is no vertex
                known = False
            if not known:
                raise ValueError(f"edge {edge!r} mentions an unknown vertex")
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            eset.add((u, v))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(eset))

    @staticmethod
    def _subgraph(vertices: tuple[str, ...], edges: Iterable[tuple[str, str]]) -> "Digraph":
        """A graph built from parts of graphs that are already validated.

        vertices must be sorted, distinct, valid labels and edges simple
        (tail, head) pairs between them, as when they are taken from a
        graph, from a disjoint union, along a bijection, from fresh labels
        or from graph text parse_graph has checked.  Skips the checks of
        __init__; other input from outside goes through Digraph(...).
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
        """Transport along a bijection.

        mapping must cover every vertex injectively, and its images must be
        labels Digraph(...) accepts: they are checked by the same rule.
        """
        missing = [v for v in self.vertices if v not in mapping]
        if missing:
            raise ValueError(f"relabel map misses vertices {missing}")
        images = [mapping[v] for v in self.vertices]
        try:
            repeated = len(set(images)) != len(images)
        except TypeError:   # an unhashable image, which _graph_labels refuses as a label
            repeated = False
        if repeated:
            raise ValueError("relabel map is not injective on the vertices")
        # a bijection of valid labels keeps the edges loop-free and distinct
        return self._subgraph(_graph_labels(images),
                              [(mapping[u], mapping[v]) for u, v in self.edges])

    def _vertex_subset(self, subset: Iterable[str], name: str = "subset") -> frozenset[str]:
        """subset as a frozenset; ValueError naming it when it holds a non-vertex.

        The non-vertices are listed sorted by str, so that labels of mixed
        types sort.  An unhashable element is a non-vertex too: subset is
        then read again and compared by == with the vertex tuple (a one-shot
        iterator names only what it has left).
        """
        try:
            sub = frozenset(subset)
            extra = sub.difference(self.vertices)
        except TypeError:
            sub, extra = None, [x for x in subset if x not in self.vertices]
        if extra or sub is None:
            raise ValueError(f"{name} contains non-vertices {sorted(extra, key=str)}")
        return sub

    def restrict(self, subset: Iterable[str]) -> "Digraph":
        """Induced subgraph on a subset of the vertices; ValueError on a non-vertex."""
        sub = self._vertex_subset(subset, "restriction set")
        return self._subgraph(tuple(sorted(sub)),
                              ((u, v) for u, v in self.edges if u in sub and v in sub))

    def is_lower_half(self, subset: Iterable[str]) -> bool:
        """True when no edge enters the subset from outside it; ValueError on a non-vertex."""
        sub = self._vertex_subset(subset)
        return not any(u not in sub and v in sub for u, v in self.edges)

    def coproduct(self, subset: Iterable[str]) -> tuple["Digraph", "Digraph"] | None:
        """Split into (inside, outside) when the subset is a lower half, else None.

        One pass over the edges: the first edge entering the subset ends it
        with None; every other edge lands inside, outside, or on the cut.
        ValueError when the subset holds a non-vertex.
        """
        sub = self._vertex_subset(subset)
        inside = []
        outside = []
        for u, v in self.edges:
            if v in sub:
                if u not in sub:
                    return None
                inside.append((u, v))
            elif u not in sub:
                outside.append((u, v))
        verts = self.vertices
        return (self._subgraph(tuple(v for v in verts if v in sub), inside),
                self._subgraph(tuple(v for v in verts if v not in sub), outside))

    def composition_minor(self, blocks: Iterable[Iterable[str]]) -> "Digraph | None":
        """Union of the induced blocks when every prefix union is a lower half.

        blocks must be an ordered composition of the vertex set (non-empty,
        disjoint, covering).  Returns None when some prefix is not a lower
        half, which is the zero case of the iterated split-then-merge.
        """
        block: dict[str, int] = {}   # each vertex's block index
        try:
            parts = [frozenset(b) for b in blocks]
        except TypeError:   # an unhashable member is no vertex
            raise ValueError("composition blocks must cover the vertex set") from None
        for k, b in enumerate(parts):
            if not b:
                raise ValueError("composition blocks must be non-empty")
            for v in b:
                if v in block:
                    raise ValueError("composition blocks must be disjoint")
                block[v] = k
        if len(block) != len(self.vertices) or not all(v in block for v in self.vertices):
            raise ValueError("composition blocks must cover the vertex set")

        kept: list[tuple[str, str]] = []
        for u, v in self.edges:
            if block[u] > block[v]:
                return None  # the edge enters the prefix ending at v's block
            if block[u] == block[v]:
                kept.append((u, v))
        return self._subgraph(self.vertices, kept)

    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycle.

        The graph has no loops, so two vertices share a down-set (the
        vertex and every vertex with a path to it) exactly when each
        reaches the other: the graph is acyclic when its down-sets are
        distinct.
        """
        nv, tails, heads = self.edge_arrays()
        return len(set(_down_sets(nv, tails, heads))) == nv


def disjoint_union(g1: Digraph, g2: Digraph) -> Digraph:
    """Merge two graphs on disjoint vertex sets."""
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise ValueError(f"vertex sets overlap on {sorted(overlap)}")
    return g1._subgraph(tuple(sorted(g1.vertices + g2.vertices)), g1.edges | g2.edges)


EMPTY = Digraph(())


def parse_graph(text: str) -> Digraph:
    """Read the plain-text graph format.

    First significant line: ``vertices: a b c``.  Every following line is
    one edge, ``a -> b``.  Blank lines are skipped and ``#`` starts a
    comment.  Raises GraphParseError with line/column on bad input.
    """
    vertices: set[str] | None = None
    edges: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if vertices is None:
            stripped = line.strip()
            if not stripped.startswith("vertices:"):
                raise GraphParseError("expected a 'vertices:' line", lineno,
                                      len(line) - len(line.lstrip()) + 1)
            vertices = set()
            col = len(line) - len(line.lstrip()) + len("vertices:")
            for name in stripped[len("vertices:"):].split():
                col = line.index(name, col)   # this name's column, 0-based
                if name in vertices:
                    raise GraphParseError(f"duplicate vertex {name!r}", lineno, col + 1)
                # split() and the comment strip leave '->' the one rule to check
                if "->" in name:
                    raise GraphParseError(_LABEL_RULE.format(name), lineno, col + 1)
                vertices.add(name)
                col += len(name)
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
        if (u, v) in edges:
            raise GraphParseError(f"duplicate edge {u} -> {v}", lineno,
                                  len(line) - len(line.lstrip()) + 1)
        edges.add((u, v))

    if vertices is None:
        raise GraphParseError("expected a 'vertices:' line", 1)
    return Digraph._subgraph(tuple(sorted(vertices)), edges)


def format_graph(g: Digraph) -> str:
    """Inverse of parse_graph, with sorted vertices and edges."""
    lines = ["vertices: " + " ".join(g.vertices)]
    lines.extend(f"{u} -> {v}" for u, v in g.edge_list)
    return "\n".join(lines) + "\n"
