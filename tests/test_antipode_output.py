"""The antipode printed from the kernel's edge masks.

`hopfdg antipode` renders the (mask, coefficient) pairs of
hopf.antipode_masks directly.  These tests hold its stdout byte for byte
to the earlier route, one Digraph per term sorted by FormalSum's order and
printed through json.dumps (conftest.oracle_antipode_output).
"""

import random

import pytest

from conftest import all_digraphs, oracle_antipode_output, random_digraph, sorted_terms
import hopfdg.cli as cli
from hopfdg import Digraph, antipode, antipode_masks, format_graph
from hopfdg.cli import main
from hopfdg.hopf import _kept

FORMATS = ("text", "json")


def output(capsys, monkeypatch, g: Digraph, fmt: str) -> str:
    """Stdout of `hopfdg antipode` on g, handed to the command without a file."""
    monkeypatch.setattr(cli, "_load_graph", lambda path: g)
    code = main(["antipode", "graph", "--format", fmt, "--max-vertices", "7"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    return out.out


def test_output_matches_the_oracle_on_every_small_digraph(capsys, monkeypatch):
    for labels in ("", "a", "ab", "abc", "abcd"):
        for g in all_digraphs(labels):
            for fmt in FORMATS:
                assert output(capsys, monkeypatch, g, fmt) == oracle_antipode_output(g, fmt)


def test_output_matches_the_oracle_on_seeded_digraphs(capsys, monkeypatch):
    rng = random.Random(12)
    for labels in ("abcde", "abcdef", "abcdefg"):
        for p in (0.15, 0.3, 0.5, 0.8):
            for _ in range(3):
                g = random_digraph(rng, labels, p)
                for fmt in FORMATS:
                    assert output(capsys, monkeypatch, g, fmt) == oracle_antipode_output(g, fmt)


def test_output_matches_the_oracle_on_edgeless_graphs(capsys, monkeypatch):
    for n in range(8):
        g = Digraph([f"v{i}" for i in range(n)])
        for fmt in FORMATS:
            out = output(capsys, monkeypatch, g, fmt)
            assert out == oracle_antipode_output(g, fmt)
    assert output(capsys, monkeypatch, Digraph(()), "text") == (
        "antipode: 1 terms on 0 vertices\n+1 * []\n")


# labels json.dumps escapes, and labels whose sorted order is not numeric order
ODD_LABELS = ("10", "2", "9", 'q"', "b\\s", "é", "☃")


def test_output_matches_the_oracle_on_labels_that_need_escaping(capsys, tmp_path):
    rng = random.Random(5)
    for i in range(12):
        labels = rng.sample(ODD_LABELS, rng.randint(2, len(ODD_LABELS)))
        g = random_digraph(rng, labels, rng.choice((0.3, 0.6)))
        path = tmp_path / f"g{i}.txt"
        path.write_text(format_graph(g), encoding="utf-8")
        for fmt in FORMATS:
            code = main(["antipode", str(path), "--format", fmt])
            out = capsys.readouterr()
            assert code == 0 and out.out == oracle_antipode_output(g, fmt)


def many_term_graph() -> Digraph:
    # a sparse acyclic graph on 7 vertices: many lower halves, hundreds of terms
    labels = [f"v{i}" for i in range(7)]
    return Digraph(labels, [(labels[i], labels[j]) for i, j in
                            ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 5), (5, 6), (4, 6),
                             (2, 6))])


def test_cli_builds_no_digraph_per_term(capsys, monkeypatch, tmp_path):
    g = many_term_graph()
    _, terms = antipode_masks(g)
    assert len(terms) > 100
    path = tmp_path / "g.txt"
    path.write_text(format_graph(g))
    calls = 0
    real = Digraph._subgraph

    def counted(vertices, edges):
        nonlocal calls
        calls += 1
        return real(vertices, edges)

    monkeypatch.setattr(Digraph, "_subgraph", staticmethod(counted))
    for fmt in FORMATS:
        assert main(["antipode", str(path), "--format", fmt]) == 0
        assert capsys.readouterr().out == oracle_antipode_output(g, fmt)
    # one graph per command: the one parse_graph builds from the file
    assert calls == len(FORMATS)


@pytest.mark.parametrize("g", (many_term_graph(), Digraph(()), Digraph("abc")))
def test_formal_sum_lists_the_terms_in_the_renderer_order(g):
    edge_list, terms = antipode_masks(g)
    want = [(frozenset(_kept(edge_list, mask)), c) for mask, c in terms]
    s = antipode(g)
    assert [(t.edges, c) for t, c in sorted_terms(s)] == want
    assert [(t.edges, c) for t, c in s.terms.items()] == want
