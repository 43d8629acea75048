"""Correctness gate: output digests and independent cross-checks.

Every job's exit code, stdout and stderr are hashed.  Repeats of a job must
reproduce the digest of its first run, and for the default seed the first
digest must equal the reference recorded with the benchmark.  For any seed,
each first output is also checked by a route that does not share the code
path that produced it:

  invariant   the printed polynomial, evaluated at n = 0..|V| (and at chosen
              q, y, z), against counts of strict and weak maps: the
              library's brute_strict and brute_weak up to n = 3, a chain
              count over lower halves above; weak maps on the reversed graph
              stand in for maps without rises, and n^|V| for all maps
  antipode    sum of coefficient * q^|edges| over the printed terms against
              character_polynomial(g, EDGE).eval(-1), which runs through
              chain_stats and not takeuchi_terms
  verify      exit 0, every line PASS, and the strict/weak reciprocity half
              present exactly when the graph is acyclic
  cone-member the answer the vector was built to have; a "yes" witness must
              be non-negative and rebuild the vector
  refusals    the expected exit code, an empty stdout, and a one-line
              message with no traceback on stderr

The cross-checks call hopfdg only through its public API.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import operator
from fractions import Fraction

from corpus import Job, is_acyclic, label, lower_half_masks

DEFAULT_SEED = 0

# Largest n at which invariants are checked against the library's own
# brute-force counters; above it the chain count below takes over.  The
# polynomials have degree at most |V|, so the |V| + 1 points n = 0..|V|
# determine them.
BRUTE_N = 3

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: Fraction, ast.Pow: operator.pow}


def digest(code: int, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    h.update(f"{code}\n".encode())
    h.update(stdout.encode())
    h.update(b"\0")
    h.update(stderr.encode())
    return h.hexdigest()


def evaluate(expr: str, env: dict[str, int]):
    """Exact value of a printed polynomial with C(n,k) binomials."""
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](ev(node.left), ev(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "C" and len(node.args) == 2 and not node.keywords):
            return math.comb(ev(node.args[0]), ev(node.args[1]))
        raise ValueError(f"unexpected syntax in {expr!r}")
    return ev(ast.parse(expr.replace("^", "**"), mode="eval"))


def _digraph(hd, graph):
    n, edges = graph
    return hd.Digraph([label(i) for i in range(n)], [(label(t), label(h)) for t, h in edges])


def colorings(nv: int, edges, n: int, strict: bool) -> int:
    """Maps into {1..n} weakly (strictly) increasing along every edge.

    The sets of vertices with value at most i form a chain of n lower
    halves ending at the full set; strictness asks that no edge lies inside
    one step of the chain.  Counted by a DP over that chain.
    """
    halves = lower_half_masks(nv, edges)
    bits = [(1 << t) | (1 << h) for t, h in edges]

    def step_ok(block: int) -> bool:
        return not strict or all(b & block != b for b in bits)

    ways = {low: int(step_ok(low)) for low in halves}
    for _ in range(n - 1):
        ways = {high: sum(w for low, w in ways.items() if low & ~high == 0 and step_ok(high & ~low))
                for high in halves}
    return ways[(1 << nv) - 1]


def _graph_json(g) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edge_list]}


def _check_invariant(hd, job: Job, out: str) -> str | None:
    n_v, edges = job.graph
    which = job.detail["which"]
    g = _digraph(hd, job.graph)
    rev = hd.Digraph(g.vertices, [(h, t) for t, h in g.edges])
    if job.detail["format"] == "json":
        payload = json.loads(out)
        if payload["invariant"] != which or payload["basis"] != "binomial":
            return "wrong invariant header"
        if payload["graph"] != _graph_json(g):
            return "wrong graph echoed"
        expr = " + ".join(f"({c['value']})*C(n,{c['k']})" for c in payload["coeffs"]) or "0"
        exprs = [expr]
    else:
        lines = out.splitlines()
        if lines[:2] != [f"graph: {n_v} vertices, {len(edges)} edges", f"invariant: {which}"]:
            return "wrong text header"
        if len(lines) != 4 or not lines[2].startswith("binomial: ") \
                or not lines[3].startswith("monomial: "):
            return "malformed text output"
        exprs = [lines[2][len("binomial: "):], lines[3][len("monomial: "):]]
    reverse = tuple((h, t) for t, h in edges)
    for n in range(n_v + 1):
        if n == 0:
            # no map into the empty set, unless the graph is empty too
            strict = weak = weak_rev = int(n_v == 0)
        elif n <= BRUTE_N:
            strict, weak, weak_rev = (hd.brute_strict(g, n), hd.brute_weak(g, n),
                                      hd.brute_weak(rev, n))
        else:
            strict, weak, weak_rev = (colorings(n_v, edges, n, True),
                                      colorings(n_v, edges, n, False),
                                      colorings(n_v, reverse, n, False))
        wants = {
            "strict": [({}, strict)],
            "weak": [({}, weak)],
            "bpoly": [({"y": 1, "z": 0}, weak), ({"y": 0, "z": 1}, weak_rev),
                      ({"y": 1, "z": 1}, n ** n_v)],
            "psi": [({"q": 0}, strict), ({"q": 1}, weak)],
        }[which]
        for point, want in wants:
            for expr in exprs:
                got = evaluate(expr, {"n": n, **point})
                if got != want:
                    return f"{which} at n={n} {point}: printed {got}, brute force {want}"
    return None


def _check_antipode(hd, job: Job, out: str) -> str | None:
    g = _digraph(hd, job.graph)
    if job.detail["format"] == "json":
        payload = json.loads(out)
        if payload["graph"] != _graph_json(g):
            return "wrong graph echoed"
        terms = [(t["coefficient"], tuple(tuple(e) for e in t["edges"])) for t in payload["terms"]]
    else:
        lines = out.splitlines()
        header = f"antipode: {len(lines) - 1} terms on {len(g.vertices)} vertices"
        if lines[0] != header:
            return f"header {lines[0]!r} does not match {len(lines) - 1} terms"
        terms = []
        for line in lines[1:]:
            coeff, _, body = line.partition(" * ")
            inner = body[1:-1]
            edges = [tuple(e.split("->")) for e in inner.split(", ")] if inner else []
            terms.append((int(coeff), tuple(edges)))
    if len({e for _, e in terms}) != len(terms):
        return "repeated term"
    character: dict[int, int] = {}
    for coeff, edges in terms:
        if not set(edges) <= g.edges or coeff == 0:
            return f"term {edges} is not a spanning subgraph with a coefficient"
        character[len(edges)] = character.get(len(edges), 0) + coeff
    want = hd.character_polynomial(g, hd.EDGE, max_vertices=len(g.vertices)).eval(-1)
    want_terms = {0: want} if isinstance(want, int) else {e[0]: c for e, c in want.terms.items()}
    got = {k: c for k, c in character.items() if c}
    if got != {k: c for k, c in want_terms.items() if c}:
        return f"edge character {got} differs from the chain route {want}"
    return None


def _check_verify(job: Job, out: str) -> str | None:
    lines = out.splitlines()
    if not lines[-1].endswith("all passed"):
        return "verify reported a failure"
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        return "a check line is not PASS"
    ran = any(line.startswith("PASS strict/weak reciprocity at") for line in lines)
    if ran != is_acyclic(*job.graph):
        return "strict/weak reciprocity ran on the wrong kind of graph"
    return None


def _check_cone(job: Job, out: str) -> str | None:
    vec = {label(i): c for i, c in job.detail["vector"].items()}
    expect = job.detail["expect"]
    total = sum(vec.values(), start=Fraction(0))
    flow = None if total else sum((c for c in vec.values() if c > 0), start=Fraction(0))
    if job.detail["format"] == "json":
        payload = json.loads(out)
        if payload["vector"] != {v: str(c) for v, c in vec.items()}:
            return "wrong vector echoed"
        member = payload["member"]
        witness = payload["witness"] or {}
        ok_flow = member is False or payload["flow_value"] == str(flow)
    else:
        lines = out.splitlines()
        if lines[0] != "vector: " + " ".join(f"{v}={c}" for v, c in vec.items()):
            return "wrong vector echoed"
        if total:
            if lines[1:] != [f"member: no (coordinates sum to {total}, need 0)"]:
                return "non-zero sum not reported"
            return None if expect == "nonzero_sum" else f"vector was built as {expect}"
        member = lines[2] == "member: yes"
        if len(lines) != (4 if member else 3):
            return "malformed output"
        witness = {}
        if member and lines[3] != "witness: (zero combination)":
            for item in lines[3][len("witness: "):].split(", "):
                edge, _, w = item.partition(": ")
                witness[edge] = w
        ok_flow = member is False or lines[1] == f"flow value: {flow}"
    if member != (expect == "member"):
        return f"member={member}, vector was built as {expect}"
    if not ok_flow:
        return "flow value is not the demand"
    if member:
        rebuilt = {v: Fraction(0) for v in vec}
        for edge, w in witness.items():
            t, h = edge.split("->")
            w = Fraction(w)
            if w < 0:
                return "negative witness weight"
            rebuilt[h] += w
            rebuilt[t] -= w
        if rebuilt != vec:
            return "witness does not rebuild the vector"
    return None


def _check_refusal(job: Job, out: str, err: str) -> str | None:
    prefix = "resource limit: " if job.kind == "refuse" else "input error: "
    if out or not err.startswith(prefix) or err.count("\n") != 1 or "Traceback" in err:
        return f"expected an empty stdout and one {prefix!r} line on stderr"
    return None


def cross_check(hd, job: Job, code: int, out: str, err: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    if code != job.expect_code:
        return f"exit code {code}, expected {job.expect_code}"
    try:
        if job.refused:
            return _check_refusal(job, out, err)
        if job.kind == "invariant":
            return _check_invariant(hd, job, out)
        if job.kind == "antipode":
            return _check_antipode(hd, job, out)
        if job.kind == "verify":
            return _check_verify(job, out)
        return _check_cone(job, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparseable output: {exc!r}"
