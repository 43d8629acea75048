"""Seeded graph corpora and the job list of each workload.

Everything here is plain Python on vertex indices: it imports nothing from
hopfdg, so the inputs and the exact input counts do not move when the
library changes.  A graph is (n, edges) with edges a sorted tuple of
(tail, head) index pairs; vertex i is written as the label ``v{i:02d}`` so
that the library's sorted label order is the index order.

Graph families span the number of lower halves, the input property the
composition sums depend on:

  tournament     transitive tournament: acyclic, n + 1 lower halves, all edges
  sparse_dag     round(1.5 n) edges, acyclic: the most lower halves
  sparse_cyclic  round(1.5 n) edges with at least one directed cycle
  dense_cyclic   round(n (n - 1) / 2) edges (p = 0.5) with a cycle: few lower halves

Edge counts are fixed per family and size so that the cost of a job
varies little from seed to seed; the seed changes the structure.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

FAMILIES = ("tournament", "sparse_dag", "sparse_cyclic", "dense_cyclic")

WORKLOADS = ("invariants", "antipode", "verify")

INVARIANTS = ("strict", "weak", "bpoly", "psi")

# One past the largest vertex count the counting kernels accept.
OVERSIZED_VERTICES = 17

# Vertex counts of the graphs of each family, one graph per entry.  The
# counts place the median and the 90th percentile of job latency inside a
# group of similar jobs rather than on the gap between two groups: with 112
# jobs in `invariants`, the 90th percentile falls among the 7-vertex jobs.
# In `antipode` it falls among the 11-vertex jobs, and the sparse families
# stop at 11 vertices: at 12 their DP tables range from half to more than
# the tournament's, which would make peak memory a property of the seed.
SIZES = {
    "invariants": dict.fromkeys(FAMILIES, (6,) * 6 + (7,)),
    "antipode": {"tournament": (10,) * 8 + (11, 12), "sparse_dag": (10,) * 8 + (11, 11),
                 "sparse_cyclic": (10,) * 9 + (11,), "dense_cyclic": (10,) * 8 + (11, 12)},
    "verify": dict.fromkeys(FAMILIES, (5, 6)),
}

ANTIPODE_MAX_VERTICES = 12

# Rounds of the three kinds of cone-member query per `verify` graph.  Two
# rounds give 56 latencies per pass, and the 90th percentile stays among
# the `verify all` jobs, which are 8 of the 56.
CONE_ROUNDS = 2

DRAWS = 7


def label(i: int) -> str:
    return f"v{i:02d}"


def graph_text(n: int, edges) -> str:
    lines = ["vertices: " + " ".join(label(i) for i in range(n))]
    lines.extend(f"{label(t)} -> {label(h)}" for t, h in edges)
    return "\n".join(lines) + "\n"


def lower_half_masks(n: int, edges, universe: int | None = None) -> list[int]:
    """Subsets S of universe that no edge inside universe enters, as masks."""
    full = (1 << n) - 1 if universe is None else universe
    pred = [0] * n
    for t, h in edges:
        if full >> t & 1 and full >> h & 1:
            pred[h] |= 1 << t
    # need[S] = tails of the edges into S; S & (S - 1) precedes S in the scan
    need = {0: 0}
    out = [0]
    s = 0
    while s != full:
        s = (s - full) & full
        low = s & -s
        need[s] = need[s & (s - 1)] | pred[low.bit_length() - 1]
        if need[s] & ~s == 0:
            out.append(s)
    return out


def is_acyclic(n: int, edges) -> bool:
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for t, h in edges:
        out[t].append(h)
        indeg[h] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


def make_graph(family: str, n: int, rng: random.Random) -> tuple[int, tuple]:
    """One graph of the family.  For the sparse families, whose lower-half
    count spreads widely, the median of DRAWS draws by that count, so that
    the cost of a job varies less from seed to seed."""
    if family.startswith("sparse"):
        draws = sorted((_draw(family, n, rng) for _ in range(DRAWS)),
                       key=lambda g: len(lower_half_masks(*g)))
        return draws[DRAWS // 2]
    return _draw(family, n, rng)


def _draw(family: str, n: int, rng: random.Random) -> tuple[int, tuple]:
    order = list(range(n))
    rng.shuffle(order)
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    if family == "tournament":
        return n, tuple(sorted(forward))
    if family == "sparse_dag":
        return n, tuple(sorted(rng.sample(forward, round(1.5 * n))))
    ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = round(1.5 * n) if family == "sparse_cyclic" else round(n * (n - 1) / 2)
    while True:
        edges = tuple(sorted(rng.sample(ordered, m)))
        if not is_acyclic(n, edges):
            return n, edges


@dataclass
class Job:
    """One CLI invocation and what the correctness gate needs to judge it."""

    id: str
    argv: list[str]
    expect_code: int
    kind: str                      # "invariant", "antipode", "verify", "cone", "refuse", "bad"
    graph: tuple | None = None     # (n, edges) of the graph file, None for bad input
    detail: dict = field(default_factory=dict)

    @property
    def refused(self) -> bool:
        return self.kind in ("refuse", "bad")


@dataclass
class Corpus:
    workload: str
    seed: int
    files: dict[str, str]          # file name -> contents
    jobs: list[Job]

    def write(self, directory: str) -> None:
        """Write the graph files; job argv already point into directory."""
        os.makedirs(directory, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


_MALFORMED = (
    f"vertices: {label(0)} {label(1)}\n{label(0)} -> zz\n",
    f"vertices: {label(0)} {label(1)}\n{label(1)} -> {label(1)}\n",
    f"vertices: {label(0)} {label(1)}\n{label(0)} -> {label(1)}\n{label(0)} -> {label(1)}\n",
    f"vertices: {label(0)} {label(1)}\n{label(0)} {label(1)}\n",
    f"{label(0)} -> {label(1)}\n",
)


def _vectors(rng: random.Random, n: int, edges) -> list[tuple[str, dict[int, Fraction]]]:
    """A cone member, a non-member (or a second member) and a non-zero-sum vector."""
    def member() -> dict[int, Fraction]:
        vec = {v: Fraction(0) for v in range(n)}
        for t, h in edges:
            lam = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            vec[h] += lam
            vec[t] -= lam
        return vec

    full = (1 << n) - 1
    proper = [s for s in lower_half_masks(n, edges) if s not in (0, full)]
    if proper:
        s = rng.choice(proper)
        u = rng.choice([i for i in range(n) if s >> i & 1])
        w = rng.choice([i for i in range(n) if not s >> i & 1])
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        outside = {v: Fraction(0) for v in range(n)}
        outside[u] += c   # x(S) = c > 0 on a lower half S: no edge can carry it
        outside[w] -= c
        second = ("nonmember", outside)
    else:
        second = ("member", member())
    skew = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in range(n)}
    skew[0] += 1 - sum(skew.values(), start=Fraction(0))
    return [("member", member()), second, ("nonzero_sum", skew)]


def build(workload: str, seed: int, directory: str) -> Corpus:
    """The seeded corpus and job list of one workload, with argv into directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []

    def add_file(name: str, text: str) -> str:
        files[name] = text
        return os.path.join(directory, name)

    graphs = []
    for family in FAMILIES:
        for n in SIZES[workload][family]:
            g = make_graph(family, n, rng)
            name = f"g{len(graphs):02d}-{family}-n{n}.graph"
            graphs.append((name, family, g, add_file(name, graph_text(*g))))

    for gi, (name, family, g, path) in enumerate(graphs):
        stem = name[:-len(".graph")]
        if workload == "invariants":
            for wi, which in enumerate(INVARIANTS):
                fmt = "json" if (gi + wi) % 2 else "text"
                jobs.append(Job(f"{stem}-{which}-{fmt}",
                                ["invariant", which, path, "--format", fmt],
                                0, "invariant", g, {"which": which, "format": fmt}))
        elif workload == "antipode":
            fmt = "json" if gi % 2 else "text"
            jobs.append(Job(f"{stem}-{fmt}",
                            ["antipode", path, "--max-vertices", str(ANTIPODE_MAX_VERTICES),
                             "--format", fmt],
                            0, "antipode", g, {"format": fmt}))
        else:
            jobs.append(Job(f"{stem}-verify", ["verify", "all", path], 0, "verify", g))
            queries = [q for _ in range(CONE_ROUNDS) for q in _vectors(rng, *g)]
            for vi, (expect, vec) in enumerate(queries):
                fmt = "json" if (gi + vi) % 2 else "text"
                text = ",".join(str(vec[i]) for i in range(g[0]))
                jobs.append(Job(f"{stem}-cone{vi}-{expect}-{fmt}",
                                ["cone-member", "--format", fmt, path, "--", text],
                                0, "cone", g, {"expect": expect, "vector": vec, "format": fmt}))

    # Work that must be refused before it starts (exit 3) and malformed
    # input (exit 2).  `verify all` has no size gate ahead of its subset
    # scans, so the oversized verify job asks for the reciprocity suite.
    big = _draw("sparse_dag", OVERSIZED_VERTICES, rng)
    big_path = add_file(f"oversized-n{OVERSIZED_VERTICES}.graph", graph_text(*big))
    bad_path = add_file("malformed.graph", rng.choice(_MALFORMED))
    if workload == "invariants":
        refuse = ["invariant", "strict", big_path]
        bad = ["invariant", "weak", bad_path]
    elif workload == "antipode":
        refuse = ["antipode", big_path, "--max-vertices", str(ANTIPODE_MAX_VERTICES)]
        bad = ["antipode", bad_path, "--max-vertices", str(ANTIPODE_MAX_VERTICES)]
    else:
        refuse = ["verify", "reciprocity", big_path]
        bad = ["cone-member", bad_path, "0,0"]
    jobs.append(Job("refuse-oversized", refuse, 3, "refuse", big))
    jobs.append(Job("reject-malformed", bad, 2, "bad"))
    return Corpus(workload, seed, files, jobs)
