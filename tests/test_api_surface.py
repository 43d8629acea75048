"""The public names of hopfdg are used by the library or its benchmark.

A name in hopfdg.__all__ that nothing in src/hopfdg (outside __init__)
and nothing in the benchmark harness under perfbench/ refers to is API
that only the tests use.  Each such name must be in ALLOWED, with the
reason it stays.  References are read from the syntax tree: a name
loaded, or an attribute of that name, so text in docstrings and comments
does not count.
"""

import ast
from pathlib import Path

import hopfdg

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "generic_direction_count": "criterion 7: the direction count of the edge cone",
    "vertex_sum_count": "criterion 7: the vertex sum of the edge cone",
    "ascent_polytope_points": "criterion 7: the dilated polytope's lattice points",
    "cone_generators": "criterion 8: the generators its vectors are drawn from",
    "build_flow_network": "criterion 8: the membership network as a FlowNetwork",
    "audit_flow": "criterion 8: the audit of a FlowNetwork's flow",
    "BASIC": "criterion 2: the basic character, whose polynomial counts strict colorings",
    "character_polynomial_of_sum": "criterion 4: the antipode side of the reciprocity, "
                                   "for both characters",
    "cone_member": "the README's membership test; cone-member reads the same flow "
                   "through membership_flow, which also gives its value",
    "format_graph": "the inverse of parse_graph, for writing graph files",
}


def _referenced_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "hopfdg").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    used = _referenced_names()
    assert sorted(n for n in hopfdg.__all__ if n not in used and n not in ALLOWED) == []


def test_every_allowed_name_is_public_and_has_no_caller():
    # an entry goes once the name gains a caller or leaves the API
    used = _referenced_names()
    assert sorted(n for n in ALLOWED if n not in hopfdg.__all__ or n in used) == []
