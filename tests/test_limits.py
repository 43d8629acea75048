"""Every refusal to start oversized work comes from hopfdg.limits."""

import ast
import pathlib
import re
from types import SimpleNamespace

import pytest

import hopfdg
from hopfdg import (BASIC, EMPTY, antipode_masks, b_polynomial, character_polynomial,
                    edge_invariant, limits, strict_chromatic, weak_chromatic)
from hopfdg.cli import main

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


def test_a_command_reads_the_budget_once(monkeypatch, tmp_path, capsys):
    # verify all runs hundreds of composition sums and direct sums
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(limits, "os", SimpleNamespace(environ=Environ(HOPFDG_MAX_WORK="123456")))
    path = tmp_path / "g.txt"
    path.write_text("vertices: a b c d e f\na -> b\nb -> c\nc -> a\nd -> e\n")
    assert main(["verify", "all", str(path)]) == 0
    assert "all passed" in capsys.readouterr().out
    assert reads == [limits.ENV_MAX_WORK]
    # outside a command every call reads the environment as it is then
    assert limits.work_budget() == limits.work_budget() == 123456
    assert len(reads) == 3


@pytest.mark.parametrize("fn", [strict_chromatic, weak_chromatic, edge_invariant, b_polynomial,
                                lambda g, **cap: character_polynomial(g, BASIC, **cap),
                                antipode_masks])
def test_a_negative_vertex_cap_is_refused_even_on_the_empty_graph(fn):
    # the strict invariant and the basic character polynomial are one
    # polynomial, so they give one answer to one cap
    with pytest.raises(ValueError) as info:
        fn(EMPTY, max_vertices=-1)
    assert type(info.value) is ValueError
    assert str(info.value) == "max_vertices must be at least 0, got -1"


@pytest.mark.parametrize("fn", [strict_chromatic, weak_chromatic, edge_invariant, b_polynomial,
                                lambda g, **cap: character_polynomial(g, BASIC, **cap),
                                antipode_masks])
@pytest.mark.parametrize("cap", ["9", 2.5, 9.0])
def test_a_vertex_cap_that_is_not_an_int_is_refused(fn, cap):
    with pytest.raises(ValueError) as info:
        fn(EMPTY, max_vertices=cap)
    assert type(info.value) is ValueError
    assert str(info.value) == f"max_vertices must be an int, got {cap!r}"


def test_a_negative_work_budget_is_refused(monkeypatch):
    monkeypatch.setenv(limits.ENV_MAX_WORK, "-1")
    with pytest.raises(ValueError) as info:
        limits.work_budget()
    assert type(info.value) is ValueError
    assert str(info.value) == "HOPFDG_MAX_WORK must be at least 0, got '-1'"
    edge = hopfdg.Digraph("ab", [("a", "b")])
    with pytest.raises(ValueError, match="HOPFDG_MAX_WORK must be at least 0"):
        strict_chromatic(edge)
    # 0 is a budget: it refuses any sum that takes a step, and no other way
    monkeypatch.setenv(limits.ENV_MAX_WORK, "0")
    assert limits.work_budget() == 0
    with pytest.raises(hopfdg.WorkLimitError, match="over the work budget 0"):
        strict_chromatic(edge)


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict"), ("verify", "all")))
def test_a_negative_work_budget_is_a_usage_error(monkeypatch, tmp_path, capsys, argv):
    path = tmp_path / "g.txt"
    path.write_text("vertices: a b c\na -> b\nb -> c\n")
    monkeypatch.setenv(limits.ENV_MAX_WORK, "-1")
    assert main([*argv, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "input error: HOPFDG_MAX_WORK must be at least 0, got '-1'\n"
