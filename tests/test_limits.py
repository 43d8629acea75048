"""Every refusal to start oversized work comes from hopfdg.limits."""

import ast
import pathlib
import re

import hopfdg

PACKAGE = pathlib.Path(hopfdg.__file__).parent

# building either refusal, or reading the budget, outside limits.py
OUTSIDE_THE_GATE = re.compile(
    r"(?<!class )\b(SizeLimitError|WorkLimitError)\(|HOPFDG_MAX_WORK|ENV_MAX_WORK")


def test_only_limits_refuses_work_or_reads_the_budget():
    offenders = [f"{path.name}:{lineno}: {line.strip()}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "limits.py"
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if OUTSIDE_THE_GATE.search(line)]
    assert offenders == []


def test_the_only_size_bound_is_the_callers_vertex_cap():
    # every other bound on the work is the work budget
    calls = [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "check_size"]
    assert calls
    offenders = [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in calls
                 if ast.unparse(node.args[-1]) != "max_vertices"]
    assert offenders == []
