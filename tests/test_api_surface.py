"""The public names of hopfdg are used by the library or its benchmark.

A name in hopfdg.__all__, a public module-level function of src/hopfdg,
or a public method of a class there, that nothing in src/hopfdg (outside
__init__) and nothing in the benchmark harness under perfbench/ refers
to is API that only the tests use.  Each such name must be in ALLOWED,
with the reason it stays; a method is listed as Class.method.
References are read from the syntax tree: a name loaded, or an attribute
of that name, so text in docstrings and comments does not count.  A
method that shares its name with one in use elsewhere (FormalSum.items
and dict.items, say) passes unseen.

Every name a module of src/hopfdg imports (outside __init__, and
besides `from __future__` imports) is used in that module, unless
UNUSED_IMPORTS gives the reason it stays, keyed module.name.  So an
import a deletion leaves behind is caught.

Every single-underscore function and method of src/hopfdg is referred to
from src/hopfdg or perfbench/, read the same way, with no exceptions: a
helper, callback or branch routine that a refactor leaves without a
caller is caught.

kernels.count_monotone_maps, the brute-force side that verify
reciprocity and the benchmark's gate compare with the chain route, loads
neither _engine nor any name _engine defines.  Within src/hopfdg only
invariants loads it, so each brute-force count has one route: the cone's
and the dilated polytope's counts go through brute_strict and brute_weak.

No function of src/hopfdg calls itself by name, nested ones included:
outside the composition sums the library takes any number of vertices,
and a recursion one level per vertex would stop at Python's recursion
limit.  A call through an attribute (super().__new__, say) does not
count.

Values stay ints, Fractions or Polys, never floats: no module of
src/hopfdg holds a float literal, a true division `/` or a call of
float(...), unless FLOATS gives the reason it stays, keyed
module.function: literal.
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
    "character_polynomial_of_sum": "criterion 4: the antipode side of the reciprocity, "
                                   "for both characters",
    "cone_member": "the README's membership test; cone-member reads the same flow "
                   "through membership_flow, which also gives its value",
    "format_graph": "the inverse of parse_graph, for writing graph files",
    "base_member": "criterion 8: base polytope membership of any set function; the "
                   "agreement check reads the same core with its plan built once",
    "FormalSum.of": "the validated constructor of the sums character_polynomial_of_sum "
                    "takes",
}

UNUSED_IMPORTS = {
    "cli.antipode": "perfbench's tracer tests look antipode up on cli among its binding sites",
}

FLOATS = {
    "cli._random_subset: 0.5": "verify's sampling: each label joins the subset with chance "
                               "1/2, compared with rng.random()",
    "cli._random_graph: 0.4": "verify's sampling: each ordered pair is an edge with chance "
                              "0.4, compared with rng.random()",
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


def _routines(keep) -> dict[str, str]:
    """Module-level functions and methods of src/hopfdg's classes whose name passes keep.

    Keyed as ALLOWED lists them (name, or Class.method), each with the
    name a caller refers to it by.
    """
    routines = {}
    for path in (ROOT / "src" / "hopfdg").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and keep(node.name):
                routines[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and keep(item.name):
                        routines[f"{node.name}.{item.name}"] = item.name
    return routines


def _public_routines() -> dict[str, str]:
    return _routines(lambda name: not name.startswith("_"))


def _private_routines() -> dict[str, str]:
    """The single-underscore ones; dunder methods are called by Python itself."""
    return _routines(lambda name: name.startswith("_") and not name.startswith("__"))


def _public_names() -> dict[str, str]:
    return {**{name: name for name in hopfdg.__all__}, **_public_routines()}


def test_every_public_name_has_a_caller_or_a_reason():
    used = _referenced_names()
    assert sorted(key for key, name in _public_names().items()
                  if name not in used and key not in ALLOWED) == []


def test_every_allowed_name_is_public_and_has_no_caller():
    # an entry goes once the name gains a caller or leaves the API
    used, public = _referenced_names(), _public_names()
    assert sorted(key for key in ALLOWED if key not in public or public[key] in used) == []


def test_every_private_routine_has_a_caller():
    used, private = _referenced_names(), _private_routines()
    assert len(private) > 50   # the scan reads the modules
    assert sorted(key for key, name in private.items() if name not in used) == []


def _unused_imports() -> list[str]:
    """module.name for each imported name its module never loads."""
    unused = []
    for path in (ROOT / "src" / "hopfdg").glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in imported - loaded]
    return sorted(unused)


def test_every_import_is_used_or_has_a_reason():
    assert [key for key in _unused_imports() if key not in UNUSED_IMPORTS] == []
    # an entry goes once its import is used or gone
    assert sorted(set(UNUSED_IMPORTS) - set(_unused_imports())) == []


def test_the_brute_force_walk_shares_no_code_with_the_engine():
    src = ROOT / "src" / "hopfdg"
    engine = {"_engine"}
    for node in ast.parse((src / "_engine.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            engine.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            engine.update(name.id for name in ast.walk(node) if isinstance(name, ast.Name)
                          and isinstance(name.ctx, ast.Store))
    assert {"_Meter", "_down_sets", "chain_stats"} <= engine   # the scan reads _engine
    walk, = (node for node in ast.parse((src / "kernels.py").read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef) and node.name == "count_monotone_maps")
    loaded = set()
    for node in ast.walk(walk):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    assert sorted(loaded & engine) == []


def test_only_invariants_loads_the_brute_force_walk():
    loaders = set()
    for path in (ROOT / "src" / "hopfdg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id == "count_monotone_maps"
                    or isinstance(node, ast.Attribute) and node.attr == "count_monotone_maps"
                    or isinstance(node, ast.ImportFrom)
                    and any(a.name == "count_monotone_maps" for a in node.names)):
                loaders.add(path.stem)
    assert loaders == {"invariants"}


def test_no_function_calls_itself():
    recursive = []
    for path in (ROOT / "src" / "hopfdg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name for call in ast.walk(node)):
                recursive.append(f"{path.stem}.{node.name}")
    assert sorted(recursive) == []


def _floats() -> list[str]:
    """module.function: what, for each float literal, true division and float(...) call."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                found.append(f"{where}: {child.value!r}")
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append(f"{where}: /")
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "float"):
                found.append(f"{where}: float(...)")
            visit(child, where)

    for path in (ROOT / "src" / "hopfdg").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(found)


def test_no_value_is_a_float():
    # each allowed float once and no other; an entry goes once its float is gone
    assert _floats() == sorted(FLOATS)
