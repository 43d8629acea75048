"""Command-line front end.

Subcommands: invariant, antipode, verify, cone-member.  Graphs come from
the plain-text format of digraph.parse_graph.  Exit codes: 0 success,
1 a verified property failed, 2 bad input, 3 a resource bound refused
the computation.  Output is deterministic byte for byte for fixed input
and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Sequence

from . import limits
from .cones import (check_agreement_work, check_cone_polytope_agreement,
                    membership_flow)
from .digraph import EMPTY, Digraph, disjoint_union, parse_graph
from .errors import GraphParseError, ResourceLimitError
# antipode itself stays bound here: perfbench's tracer tests look it up on
# this module among its binding sites
from .hopf import _BIT_FLAGS, antipode, antipode_masks  # noqa: F401
from .invariants import (b_polynomial, check_edge_reciprocity,
                         check_reciprocity, check_reciprocity_work,
                         edge_invariant, strict_chromatic, weak_chromatic)
from .rings import BinPoly
from .submodular import check_low_morphism, lower_half_function

_INVARIANTS: dict[str, Callable[..., BinPoly]] = {
    "strict": strict_chromatic,
    "weak": weak_chromatic,
    "bpoly": b_polynomial,
    "psi": edge_invariant,
}


def _load_graph(path: str) -> Digraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}", 1) from exc
    return parse_graph(text)


def _graph_json(g: Digraph) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [[u, v] for u, v in g.edge_list]}


def _print_invariant(g: Digraph, which: str, poly: BinPoly, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "graph": _graph_json(g),
            "invariant": which,
            "basis": "binomial",
            "coeffs": [{"k": k, "value": str(c)}
                       for k, c in enumerate(poly.coeffs) if c != 0],
        }
        print(json.dumps(payload))
        return
    print(f"graph: {len(g.vertices)} vertices, {len(g.edges)} edges")
    print(f"invariant: {which}")
    print(f"binomial: {poly.binomial_str()}")
    print(f"monomial: {poly.monomial_str()}")


_SIGNED = {1: "+1 * [", -1: "-1 * ["}


def _print_antipode(g: Digraph, edge_list: Sequence[tuple[str, str]],
                    terms: list[tuple[int, int]], fmt: str) -> None:
    """Print the terms of antipode_masks; json output is byte for byte
    json.dumps of {"graph": ..., "terms": [{"coefficient", "edges"}, ...]}.

    Each mask's kept edges are read from its binary digits in one pass:
    bin(mask | top) spells bit m - 1 - i of mask as character 3 + i.
    """
    top = 1 << len(edge_list)
    if fmt == "json":
        edges = [json.dumps([u, v]) for u, v in edge_list]
        body = ", ".join(
            f'{{"coefficient": {c}, "edges": ['
            f'{", ".join(compress(edges, bin(mask | top).encode()[3:].translate(_BIT_FLAGS)))}]}}'
            for mask, c in terms)
        print(f'{{"graph": {json.dumps(_graph_json(g))}, "terms": [{body}]}}')
        return
    edges = [f"{u}->{v}" for u, v in edge_list]
    lines = [f"antipode: {len(terms)} terms on {len(g.vertices)} vertices"]
    for mask, c in terms:
        kept = ", ".join(compress(edges, bin(mask | top).encode()[3:].translate(_BIT_FLAGS)))
        lines.append(f"{_SIGNED.get(c) or f'{c:+d} * ['}{kept}]")
    print("\n".join(lines))


def _parse_vector(g: Digraph, text: str) -> dict[str, Fraction]:
    parts = [p.strip().replace("−", "-") for p in text.split(",")]
    if parts == [""]:
        parts = []
    if len(parts) != len(g.vertices):
        raise ValueError(
            f"vector has {len(parts)} entries for {len(g.vertices)} vertices")
    coords = {}
    for v, part in zip(g.vertices, parts):
        try:
            if "e" in part.lower():
                # 1e10000000 would build a ten-million-digit integer
                raise ValueError("exponent notation is not accepted")
            coords[v] = Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {part!r}: {exc}") from exc
    return coords


# ---------------------------------------------------------------- suites

# each suite returns its checks as (name, passed, detail); a skipped
# check passes, its detail starting "skipped: "
_Check = tuple[str, bool, str]


def _fresh_labels(taken: Iterable[str], count: int) -> list[str]:
    used = set(taken)
    out = []
    i = 0
    while len(out) < count:
        cand = f"x{i}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        i += 1
    return out


def _random_subset(rng: random.Random, labels: Sequence[str]) -> frozenset[str]:
    return frozenset(lab for lab in labels if rng.random() < 0.5)


def _random_graph(rng: random.Random, labels: Sequence[str]) -> Digraph:
    """Each ordered pair of distinct labels an edge with chance 0.4, drawn in
    the order of labels.  labels must be valid and distinct, as _fresh_labels
    makes them, so the graph skips the checks of Digraph(...)."""
    edges = [(u, v) for u in labels for v in labels
             if u != v and rng.random() < 0.4]
    return Digraph._subgraph(tuple(sorted(labels)), edges)


def _axiom_instance(g: Digraph, rng: random.Random, vset: frozenset[str],
                    spare: list[str], renames: list[str]) -> list[str]:
    """One seeded round of coassociativity, compatibility and naturality.

    vset is g's vertex set, spare holds three labels not in g, the
    bystander graph's pool, and renames len(g.vertices) fresh labels,
    shuffled for the relabeling; all three are built once per graph and
    left unchanged.  Returns failure notes.
    """
    problems = []
    verts = g.vertices

    # coassociativity along a random chain R inside S; R is drawn in sorted
    # order, since a frozenset's order varies with the hash seed
    s_set = _random_subset(rng, verts)
    r_set = _random_subset(rng, sorted(s_set))
    one = None
    split = g.coproduct(s_set)
    if split is not None:
        inner = split[0].coproduct(r_set)
        if inner is not None:
            one = (inner[0], inner[1], split[1])
    two = None
    split2 = g.coproduct(r_set)
    if split2 is not None:
        inner2 = split2[1].coproduct(s_set - r_set)
        if inner2 is not None:
            two = (split2[0], inner2[0], inner2[1])
    if one != two:
        problems.append(f"coassociativity: orders differ at S={sorted(s_set)}, R={sorted(r_set)}")
    blocks = (r_set, s_set - r_set, vset - s_set)
    if all(blocks):
        minor = g.composition_minor(blocks)
        if (minor is not None) != (one is not None):
            problems.append("coassociativity: minor merge disagrees about the zero case")
        elif minor is not None:
            rebuilt = disjoint_union(disjoint_union(one[0], one[1]), one[2])
            if rebuilt != minor:
                problems.append("coassociativity: minor merge kept the wrong edges")

    # compatibility of merge and split, with a random bystander graph
    aux = _random_graph(rng, spare[:rng.randint(0, 3)])
    merged = disjoint_union(g, aux)
    mixed = _random_subset(rng, merged.vertices)
    whole = merged.coproduct(mixed)
    left = g.coproduct(mixed & vset)
    right = aux.coproduct(mixed & set(aux.vertices))
    if (whole is None) != (left is None or right is None):
        problems.append("compatibility: zero cases disagree")
    elif whole is not None:
        expect = (disjoint_union(left[0], right[0]),
                  disjoint_union(left[1], right[1]))
        if whole != expect:
            problems.append("compatibility: split of a merge has wrong parts")

    # naturality under a random relabeling
    fresh = list(renames)
    rng.shuffle(fresh)
    sigma = dict(zip(verts, fresh))
    moved = g.relabel(sigma)
    s_img = frozenset(sigma[v] for v in s_set)
    if moved.is_lower_half(s_img) != (split is not None):
        problems.append("naturality: relabeling changed a lower half")
    if split is not None:
        b = moved.coproduct(s_img)
        if (split[0].relabel(sigma), split[1].relabel(sigma)) != b:
            problems.append("naturality: relabeling does not commute with splitting")
    return problems


def _unit_laws(g: Digraph) -> list[str]:
    """The unit laws of merge and split; returns failure notes."""
    problems = []
    if disjoint_union(g, EMPTY) != g or disjoint_union(EMPTY, g) != g:
        problems.append("unit: merging with the empty graph changed the graph")
    if g.coproduct(()) != (EMPTY, g):
        problems.append("unit: splitting off the empty set failed")
    if g.coproduct(g.vertices) != (g, EMPTY):
        problems.append("unit: splitting off everything failed")
    return problems


def _suite_hopf_axioms(g: Digraph, args: argparse.Namespace) -> list[_Check]:
    # the unit laws and the label pools draw nothing at random, so they are
    # checked and built once; the other axioms in each seeded round
    rng = random.Random(args.seed)
    samples = args.samples
    bad = _unit_laws(g)
    vset = frozenset(g.vertices)
    spare = _fresh_labels(g.vertices, 3)
    renames = _fresh_labels((), len(g.vertices))
    for i in range(samples):
        for note in _axiom_instance(g, rng, vset, spare, renames):
            bad.append(f"round {i}: {note}")
    return [(f"hopf-axioms ({samples} seeded rounds)", not bad, "; ".join(bad[:3]))]


def _suite_morphism(g: Digraph, args: argparse.Namespace) -> list[_Check]:
    verts = g.vertices
    subs = [frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            for mask in range(1 << len(verts))]
    # the paper's embedding in GP rests on the cut function being submodular
    failures = [] if lower_half_function(g).is_submodular() else ["cut function is not submodular"]
    failures += [f"S={sorted(sub)}"
                 for sub, check in zip(subs, check_low_morphism(g, subs)) if not check.passed]
    return [(f"cut-function morphism ({len(subs)} splits)", not failures,
             "; ".join(failures[:3]))]


def _suite_theorem1(g: Digraph, args: argparse.Namespace) -> list[_Check]:
    report = check_cone_polytope_agreement(g, samples=args.samples, seed=args.seed)
    detail = ""
    if report.mismatches:
        vec, in_base, in_cone = report.mismatches[0]
        detail = f"first mismatch {dict(sorted(vec.items()))}: base={in_base} cone={in_cone}"
    if report.audit_problems:
        detail += f" flow audits failed: {len(report.audit_problems)}"
    return [(f"polytope/cone agreement ({report.samples} vectors)", report.passed, detail)]


_STRICT_POINTS = range(1, 6)


def _suite_reciprocity(g: Digraph, args: argparse.Namespace) -> list[_Check]:
    strict = check_reciprocity(g, _STRICT_POINTS, max_vertices=args.max_vertices)
    if strict[0].hypothesis_ok:
        checks = [(f"strict/weak reciprocity at n={check.n}", check.equal is True,
                   f"lhs={check.lhs} rhs={check.rhs}") for check in strict]
    else:
        checks = [("strict/weak reciprocity", True,
                   "skipped: hypothesis violated: graph has a directed cycle")]
    checks += [(f"edge reciprocity at n={check.n}", check.equal is True,
                f"lhs={check.lhs} rhs={check.rhs}")
               for check in check_edge_reciprocity(g, range(5), max_vertices=args.max_vertices)]
    return checks


def _gate_hopf_axioms(g: Digraph, args: argparse.Namespace) -> None:
    # a round splits, merges and relabels g a bounded number of times
    limits.check_work(f"hopf-axioms suite of {args.samples} rounds over "
                      f"{len(g.vertices)} vertices",
                      args.samples * (len(g.vertices) + len(g.edges) + 1))


def _gate_morphism(g: Digraph, args: argparse.Namespace) -> None:
    # 2^n splits, each comparing tables over 2^n subsets; the submodularity
    # check's pairs of at most 2^n lower halves number fewer than 4^n / 2
    nv = len(g.vertices)
    limits.check_work(f"morphism suite over {nv} vertices", 4 ** nv)


# name -> (gate, suite); the gate raises before the suite would start
# oversized work, and verify calls every selected gate before any suite
_SUITES: dict[str, tuple[Callable[[Digraph, argparse.Namespace], None],
                         Callable[[Digraph, argparse.Namespace], list[_Check]]]] = {
    "hopf-axioms": (_gate_hopf_axioms, _suite_hopf_axioms),
    "morphism": (_gate_morphism, _suite_morphism),
    "theorem1": (lambda g, args: check_agreement_work(g, args.samples), _suite_theorem1),
    "reciprocity": (lambda g, args: check_reciprocity_work(
        g, _STRICT_POINTS, max_vertices=args.max_vertices), _suite_reciprocity),
}


# ---------------------------------------------------------------- commands

def _cmd_invariant(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    poly = _INVARIANTS[args.which](g, max_vertices=args.max_vertices)
    _print_invariant(g, args.which, poly, args.format)
    return 0


def _cmd_antipode(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    edge_list, terms = antipode_masks(g, max_vertices=args.max_vertices)
    _print_antipode(g, edge_list, terms, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    selected = list(_SUITES.values()) if args.suite == "all" else [_SUITES[args.suite]]
    for gate, _ in selected:
        gate(g, args)
    checks = [check for _, run in selected for check in run(g, args)]
    failed = sum(1 for _, ok, _ in checks if not ok)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "passed": failed == 0,
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        }
        print(json.dumps(payload))
    else:
        for name, ok, detail in checks:
            mark = "PASS" if ok else "FAIL"
            line = f"{mark} {name}"
            if detail and (not ok or detail.startswith("skipped")):
                line += f" ({detail})"
            print(line)
        verdict = "all passed" if failed == 0 else f"{failed} failed"
        print(f"verify {args.suite}: {len(checks)} checks, {verdict}")
    return 0 if failed == 0 else 1


def _cmd_cone_member(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    vec = _parse_vector(g, args.vector)
    total = sum(vec.values(), start=Fraction(0))
    witness = flow_value = None
    if total == 0:
        flow_value, witness = membership_flow(g, vec)

    if args.format == "json":
        payload = {
            "vector": {v: str(vec[v]) for v in g.vertices},
            "member": witness is not None,
            "flow_value": None if flow_value is None else str(flow_value),
            "witness": None if witness is None else
            {f"{u}->{v}": str(w) for (u, v), w in sorted(witness.items())},
        }
        print(json.dumps(payload))
        return 0

    print("vector: " + " ".join(f"{v}={vec[v]}" for v in g.vertices))
    if total != 0:
        print(f"member: no (coordinates sum to {total}, need 0)")
        return 0
    print(f"flow value: {flow_value}")
    if witness is None:
        print("member: no")
    else:
        print("member: yes")
        shown = ", ".join(f"{u}->{v}: {w}" for (u, v), w in sorted(witness.items()) if w)
        print(f"witness: {shown if shown else '(zero combination)'}")
    return 0


def _int_at_least(least: int) -> Callable[[str], int]:
    """An argparse type: an int of at least `least`, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"need at least {least}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfdg",
        description="Exact invariants, antipodes and cone membership for directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-vertices", type=_int_at_least(0),
                       default=limits.DEFAULT_MAX_VERTICES,
                       help="refuse composition enumerations beyond this size")

    p_inv = sub.add_parser("invariant", help="print one polynomial invariant")
    p_inv.add_argument("which", choices=tuple(_INVARIANTS))
    p_inv.add_argument("graph", help="graph file")
    common(p_inv)
    p_inv.set_defaults(fn=_cmd_invariant)

    p_anti = sub.add_parser("antipode", help="print the antipode as a formal sum")
    p_anti.add_argument("graph")
    common(p_anti)
    p_anti.set_defaults(fn=_cmd_antipode)

    p_ver = sub.add_parser("verify", help="run a verification suite on the graph")
    p_ver.add_argument("suite", choices=(*_SUITES, "all"))
    p_ver.add_argument("graph")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--samples", type=_int_at_least(1), default=200)
    common(p_ver)
    p_ver.set_defaults(fn=_cmd_verify)

    p_cone = sub.add_parser(
        "cone-member",
        help="decide membership of a vector in the edge cone "
             "(use -- before a vector starting with a minus sign)")
    p_cone.add_argument("graph")
    p_cone.add_argument("vector",
                        help="comma-separated rationals, one per vertex in sorted order")
    # max flow is polynomial in the graph size, so there is no vertex bound
    p_cone.add_argument("--format", choices=("text", "json"), default="text")
    p_cone.set_defaults(fn=_cmd_cone_member)

    return parser


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with limits.read_budget_once():
            return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # GraphParseError and UnboundedFlowError among them
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (hopfdg ... | head); not our failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
