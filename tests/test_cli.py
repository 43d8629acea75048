import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from hopfdg.cli import main

G3_TEXT = """\
# transitive tournament on three vertices
vertices: 0 1 2
0 -> 1
1 -> 2
0 -> 2
"""


@pytest.fixture
def g3_file(tmp_path):
    path = tmp_path / "g3.txt"
    path.write_text(G3_TEXT)
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("vertices: a b\na -> b\nb -> a\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariant_text_golden(capsys, g3_file):
    code, out, err = run(capsys, "invariant", "psi", g3_file)
    assert code == 0 and err == ""
    assert out == (
        "graph: 3 vertices, 3 edges\n"
        "invariant: psi\n"
        "binomial: q^3*C(n,1) + 2*q*C(n,2) + C(n,3)\n"
        "monomial: (n^3 + (6*q - 3)*n^2 + (6*q^3 - 6*q + 2)*n)/6\n"
    )


def test_invariant_strict_golden(capsys, g3_file):
    code, out, _ = run(capsys, "invariant", "strict", g3_file)
    assert code == 0
    assert "binomial: C(n,3)\n" in out
    assert "monomial: (n^3 - 3*n^2 + 2*n)/6\n" in out


def test_invariant_json_golden(capsys, g3_file):
    code, out, _ = run(capsys, "invariant", "strict", g3_file, "--format", "json")
    assert code == 0
    assert out == ('{"graph": {"vertices": ["0", "1", "2"], '
                   '"edges": [["0", "1"], ["0", "2"], ["1", "2"]]}, '
                   '"invariant": "strict", "basis": "binomial", '
                   '"coeffs": [{"k": 3, "value": "1"}]}\n')
    payload = json.loads(out)
    assert payload["coeffs"] == [{"k": 3, "value": "1"}]


def test_invariant_json_coeff_strings(capsys, g3_file):
    code, out, _ = run(capsys, "invariant", "bpoly", g3_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    values = {c["k"]: c["value"] for c in payload["coeffs"]}
    assert values[1] == "1"
    assert values[2] == "2*y^2 + 2*y*z + 2*z^2"
    assert values[3] == "y^3 + 2*y^2*z + 2*y*z^2 + z^3"


def test_output_is_byte_stable(capsys, g3_file):
    first = run(capsys, "invariant", "weak", g3_file, "--format", "json")
    second = run(capsys, "invariant", "weak", g3_file, "--format", "json")
    assert first == second
    third = run(capsys, "antipode", g3_file, "--format", "json")
    fourth = run(capsys, "antipode", g3_file, "--format", "json")
    assert third == fourth


def test_antipode_text_golden(capsys, g3_file):
    code, out, _ = run(capsys, "antipode", g3_file)
    assert code == 0
    assert out == (
        "antipode: 4 terms on 3 vertices\n"
        "-1 * [0->1, 0->2, 1->2]\n"
        "+1 * [0->1]\n"
        "+1 * [1->2]\n"
        "-1 * []\n"
    )


def test_antipode_json(capsys, g3_file):
    code, out, _ = run(capsys, "antipode", g3_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"][0] == {
        "coefficient": -1,
        "edges": [["0", "1"], ["0", "2"], ["1", "2"]],
    }
    assert payload["terms"][-1] == {"coefficient": -1, "edges": []}


def test_cone_member_yes(capsys, g3_file):
    code, out, _ = run(capsys, "cone-member", g3_file, "--", "-2,1,1")
    assert code == 0
    assert out == (
        "vector: 0=-2 1=1 2=1\n"
        "flow value: 2\n"
        "member: yes\n"
        "witness: 0->1: 1, 0->2: 1\n"
    )


def test_cone_member_unicode_minus_and_fractions(capsys, g3_file):
    code, out, _ = run(capsys, "cone-member", g3_file, "−1/3,1/6,1/6")
    assert code == 0
    assert "member: yes" in out
    assert "flow value: 1/3" in out


def test_cone_member_no(capsys, g3_file):
    code, out, _ = run(capsys, "cone-member", g3_file, "1,-1,0")
    assert code == 0
    assert "member: no" in out


def test_cone_member_nonzero_sum(capsys, g3_file):
    code, out, _ = run(capsys, "cone-member", g3_file, "1,1,1")
    assert code == 0
    assert "member: no (coordinates sum to 3, need 0)" in out


def test_cone_member_json(capsys, g3_file):
    code, out, _ = run(capsys, "cone-member", g3_file, "--format", "json", "--", "-2,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["flow_value"] == "2"
    assert payload["witness"] == {"0->1": "1", "0->2": "1", "1->2": "0"}


def test_cone_member_bad_vector(capsys, g3_file):
    code, _, err = run(capsys, "cone-member", g3_file, "1,2")
    assert code == 2
    assert "input error" in err
    code, _, err = run(capsys, "cone-member", g3_file, "a,b,c")
    assert code == 2


def test_cone_member_takes_no_vertex_bound(capsys, g3_file):
    with pytest.raises(SystemExit) as exc:
        main(["cone-member", g3_file, "1,-1,0", "--max-vertices", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-vertices 5" in capsys.readouterr().err


def test_verify_reciprocity_honours_max_vertices(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("vertices: a b c\na -> b\nb -> c\n")
    assert run(capsys, "verify", "reciprocity", str(path))[0] == 0
    code, out, err = run(capsys, "verify", "reciprocity", str(path), "--max-vertices", "1")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_verify_all_passes(capsys, g3_file):
    code, out, _ = run(capsys, "verify", "all", g3_file, "--samples", "20")
    assert code == 0
    assert "verify all:" in out
    assert "all passed" in out
    assert "FAIL" not in out


def test_verify_theorem1_walks_the_lower_halves_once(capsys, tmp_path, monkeypatch):
    # the gate's cut function is the one the suite reads
    from hopfdg import kernels
    walks = []
    real = kernels.lower_half_masks
    monkeypatch.setattr(kernels, "lower_half_masks", lambda *a: walks.append(a) or real(*a))
    path = tmp_path / "path3.txt"
    path.write_text("vertices: a b c\na -> b\nb -> c\n")
    code, out, err = run(capsys, "verify", "theorem1", str(path))
    assert code == 0 and err == ""
    assert walks == [(3, [0, 1], [1, 2])]


def test_verify_json(capsys, g3_file):
    code, out, _ = run(capsys, "verify", "theorem1", g3_file,
                       "--samples", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "polytope/cone agreement (30 vectors)"


VERIFY_GOLDENS = os.path.join(os.path.dirname(__file__), "verify_goldens.json")


def test_verify_all_output_is_frozen_on_every_small_digraph(capsys, tmp_path):
    """sha256 of `verify all --samples 20` stdout, text and json, for every
    digraph on at most 3 labels; keys are the graph files, one line per ';'."""
    with open(VERIFY_GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    assert len(goldens) == 1 + 1 + 4 + 64
    path = tmp_path / "g.graph"
    for key, digests in goldens.items():
        path.write_text(key.replace("; ", "\n") + "\n")
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "verify", "all", str(path),
                                 "--samples", "20", "--format", fmt)
            assert code == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt], (key, fmt)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("invariants", "antipode", "verify")
# seed -> the digests of its jobs: the benchmark's own reference for its
# default seed 0, and a second corpus, seed 1, recorded the same way
DIGESTS = {0: os.path.join(BENCH, "reference_digests.json"),
           1: os.path.join(os.path.dirname(__file__), "seed1_digests.json")}


@pytest.mark.parametrize("seed, workload", [pytest.param(0, w, id=w) for w in WORKLOADS]
                         + [pytest.param(1, w, id=f"{w}-seed1") for w in WORKLOADS])
def test_benchmark_outputs_match_the_reference_digests(monkeypatch, tmp_path, seed, workload):
    """Every job of the benchmark's corpus for seed, run in-process through
    main, gives the exit code, stdout and stderr bytes its digest records."""
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    corpus, harness = (__import__(name) for name in ("corpus", "harness"))
    with open(DIGESTS[seed], encoding="utf-8") as fh:
        reference = json.load(fh)[workload]
    data = corpus.build(workload, seed, str(tmp_path))
    data.write(str(tmp_path))
    assert sorted(job.id for job in data.jobs) == sorted(reference)
    wrong = [job.id for job in data.jobs
             if harness.run_job(main, job, keep_output=False).digest != reference[job.id]]
    assert wrong == []


def test_verify_seed_changes_samples_not_verdict(capsys, g3_file):
    a = run(capsys, "verify", "hopf-axioms", g3_file, "--samples", "10", "--seed", "1")
    b = run(capsys, "verify", "hopf-axioms", g3_file, "--samples", "10", "--seed", "2")
    assert a[0] == b[0] == 0


def test_verify_reciprocity_skips_on_cycle(capsys, cycle_file):
    code, out, _ = run(capsys, "verify", "reciprocity", cycle_file)
    assert code == 0
    assert "skipped: hypothesis violated" in out
    assert "edge reciprocity" in out


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices: a b\na => b\n")
    code, _, err = run(capsys, "invariant", "strict", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "invariant", "strict", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "input error" in err


def test_resource_limit_exit_code(capsys, tmp_path):
    path = tmp_path / "big.txt"
    verts = " ".join(f"v{i}" for i in range(10))
    path.write_text(f"vertices: {verts}\n")
    code, _, err = run(capsys, "antipode", str(path))
    assert code == 3
    assert "resource limit" in err
    code2, out, _ = run(capsys, "antipode", str(path), "--max-vertices", "10")
    assert code2 == 0
    assert "1 terms" in out


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict")))
def test_kernel_size_limit_exits_with_resource_limit(capsys, tmp_path, argv):
    # over the work budget even when --max-vertices allows it: 19 sources
    # into one sink have 2^19 + 1 lower halves, and the walk stops at
    # 10^7 / 20 + 1 of them
    path = _graph_file(tmp_path, "big.txt", 20, [(i, 19) for i in range(19)])
    code, out, err = run(capsys, *argv, path, "--max-vertices", "20")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


@pytest.mark.parametrize("nv, edges", ((17, [(0, 16)]), (20, [])))
def test_near_edgeless_graphs_answer_by_components(capsys, tmp_path, monkeypatch, nv, edges):
    # 17 vertices with one edge, and 20 isolated vertices, were refused
    # after seconds of metering; each component now folds on its own.  The
    # antipode multiplies the parts' antipodes: -(v) per isolated vertex
    # and [v00->v16] - [] for the edge
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    path = _graph_file(tmp_path, "sparse.txt", nv, edges)
    want = {"antipode": "antipode: 2 terms on 17 vertices\n+1 * [v00->v16]\n-1 * []\n"
            if edges else "antipode: 1 terms on 20 vertices\n+1 * []\n"}
    for argv in (("antipode",), ("invariant", "strict"), ("invariant", "bpoly")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, path, "--max-vertices", "20")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        if argv[0] == "antipode":
            assert out == want["antipode"]
        else:
            assert out.startswith(f"graph: {nv} vertices, {len(edges)} edges\n")


@pytest.mark.parametrize("suite", ("morphism", "theorem1"))
def test_verify_refuses_past_the_work_budget(capsys, tmp_path, monkeypatch, suite):
    # 4^6 morphism steps and 200 * (24 + 6 + 3) theorem1 steps (24 lower
    # halves, 6 vertices, 3 edges), both over 1000
    path = tmp_path / "path6.txt"
    path.write_text("vertices: a b c d e f\na -> b\nb -> c\nd -> e\n")
    monkeypatch.setenv("HOPFDG_MAX_WORK", "1000")
    code, out, err = run(capsys, "verify", suite, str(path))
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "HOPFDG_MAX_WORK" in err and "1000" in err


def test_verify_all_refuses_seventeen_vertices(capsys, tmp_path):
    path = tmp_path / "big.txt"
    verts = " ".join(f"v{i:02d}" for i in range(17))
    path.write_text(f"vertices: {verts}\nv00 -> v16\n")
    code, out, err = run(capsys, "verify", "all", str(path))
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


@pytest.mark.parametrize("budget, refused", (
    ("1000", "hopf-axioms suite of 200 rounds"),
    # every suite but reciprocity fits; its weak count into {1..5} does not
    ("13000", "scan of the maps into {1..5}")))
def test_verify_all_refuses_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                  budget, refused):
    import hopfdg.cli as cli
    rounds = []
    real_instance = cli._axiom_instance
    monkeypatch.setattr(cli, "_axiom_instance",
                        lambda g, rng, *pools: rounds.append(1) or real_instance(g, rng, *pools))
    path = tmp_path / "path6.txt"
    path.write_text("vertices: a b c d e f\na -> b\nb -> c\nd -> e\n")
    monkeypatch.setenv("HOPFDG_MAX_WORK", budget)
    code, out, err = run(capsys, "verify", "all", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: {refused}") and err.count("\n") == 1
    assert rounds == []


# runs verify hopf-axioms on the graph file argv[1], printing its exit code
# and every subset a graph is split on, in order
_RECORD_SPLITS = """
import json, sys
from hopfdg import cli
from hopfdg.digraph import Digraph
seen = []
split = Digraph.coproduct
Digraph.coproduct = lambda g, subset: seen.append(sorted(subset)) or split(g, subset)
code = cli.main(["verify", "hopf-axioms", sys.argv[1], "--samples", "30"])
print(json.dumps([code, seen]))
"""


def test_hopf_axiom_rounds_split_on_the_same_subsets_under_any_hash_seed(tmp_path):
    # a frozenset's order varies with the hash seed, so no draw may follow it
    path = tmp_path / "path6.txt"
    path.write_text("vertices: a b c d e f\na -> b\nb -> c\nd -> e\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _RECORD_SPLITS, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    (code, seen), other = runs
    assert code == 0 and len(seen) > 90
    assert other == [code, seen]


def test_verify_reports_a_broken_unit_law_once(capsys, g3_file, monkeypatch):
    # the unit laws are checked once, ahead of the seeded rounds, which
    # merge no graph with the EMPTY constant itself
    import hopfdg.cli as cli
    from hopfdg import EMPTY
    real_union = cli.disjoint_union
    monkeypatch.setattr(cli, "disjoint_union", lambda g1, g2: EMPTY
                        if g1 is EMPTY or g2 is EMPTY else real_union(g1, g2))
    code, out, err = run(capsys, "verify", "hopf-axioms", g3_file, "--format", "json")
    assert code == 1 and err == ""
    [check] = json.loads(out)["checks"]
    assert not check["passed"]
    assert check["detail"] == "unit: merging with the empty graph changed the graph"
    code, out, _ = run(capsys, "verify", "hopf-axioms", g3_file)
    assert code == 1 and out.count("unit:") == 1 and "round " not in out


def test_verify_hopf_axioms_reports_a_broken_naturality(capsys, g3_file, monkeypatch):
    # a relabeling that drops every edge makes each subset a lower half of
    # the moved graph, so some round's non-lower half is caught
    from hopfdg import Digraph
    real_relabel = Digraph.relabel
    monkeypatch.setattr(Digraph, "relabel", lambda g, mapping: Digraph._subgraph(
        real_relabel(g, mapping).vertices, ()))
    code, out, err = run(capsys, "verify", "hopf-axioms", g3_file, "--format", "json")
    assert code == 1 and err == ""
    [check] = json.loads(out)["checks"]
    assert not check["passed"]
    assert check["detail"].startswith("round ") and "naturality:" in check["detail"]


def test_verify_morphism_reports_a_cut_function_that_is_not_submodular(
        capsys, g3_file, monkeypatch):
    from hopfdg import ExtBool
    monkeypatch.setattr(ExtBool, "is_submodular", lambda self: False)
    code, out, err = run(capsys, "verify", "morphism", g3_file, "--format", "json")
    assert code == 1 and err == ""
    [check] = json.loads(out)["checks"]
    assert not check["passed"] and check["detail"] == "cut function is not submodular"
    code, out, _ = run(capsys, "verify", "morphism", g3_file)
    assert code == 1 and "cut function is not submodular" in out


def test_the_bystander_graph_is_a_valid_graph_on_the_spare_labels():
    # the pool of a graph on x0..x8 is x9, x10, x11, out of sorted order; the
    # bystander skips Digraph's checks, so it must equal the checked rebuild
    # and draw its edges in the pool's order
    import hopfdg.cli as cli
    from hopfdg import Digraph
    spare = cli._fresh_labels([f"x{i}" for i in range(9)], 3)
    assert spare == ["x9", "x10", "x11"]
    for seed in range(40):
        rng, again = random.Random(seed), random.Random(seed)
        labels = spare[:rng.randint(0, 3)]
        aux = cli._random_graph(rng, labels)
        again.randint(0, 3)
        drawn = [(u, v) for u in labels for v in labels if u != v and again.random() < 0.4]
        assert aux == Digraph(labels, drawn)
        assert aux.vertices == tuple(sorted(labels))
        assert rng.random() == again.random()


def test_verify_hopf_axioms_refuses_a_huge_sample_count(capsys, g3_file):
    code, out, err = run(capsys, "verify", "hopf-axioms", g3_file,
                         "--samples", "1000000000")
    assert code == 3 and out == ""
    assert "hopf-axioms suite of 1000000000 rounds" in err and "HOPFDG_MAX_WORK" in err


def test_cone_member_refuses_exponent_notation(capsys, g3_file):
    # 1e10000000 would build a ten-million-digit integer before any check
    code, out, err = run(capsys, "cone-member", g3_file, "--", "1e3,-1e3,0")
    assert code == 2 and out == ""
    assert "exponent notation" in err
    code, out, _ = run(capsys, "cone-member", g3_file, "--", "1.5,-3/2,0")
    assert code == 0 and "vector: 0=3/2 1=-3/2 2=0\n" in out


def test_verify_reciprocity_builds_each_polynomial_once(capsys, g3_file, monkeypatch):
    import hopfdg.invariants as inv
    calls: dict[str, int] = {}

    def counted(name):
        real = getattr(inv, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(inv, name, wrapper)

    for name in ("strict_chromatic", "edge_invariant", "antipode",
                 "character_polynomial_of_sum"):
        counted(name)
    code, out, _ = run(capsys, "verify", "reciprocity", g3_file, "--format", "json")
    assert code == 0
    assert calls == dict.fromkeys(("strict_chromatic", "edge_invariant", "antipode",
                                   "character_polynomial_of_sum"), 1)
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == (
        [f"strict/weak reciprocity at n={n}" for n in range(1, 6)]
        + [f"edge reciprocity at n={n}" for n in range(5)])
    assert checks[2]["detail"] == "lhs=10 rhs=10"
    assert checks[6]["detail"] == "lhs=-q^3 + 2*q - 1 rhs=-q^3 + 2*q - 1"


def test_main_parses_with_the_parser_built_at_import(capsys, g3_file, monkeypatch):
    import hopfdg.cli as cli

    def no_rebuild():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    first = run(capsys, "cone-member", g3_file, "--", "-1/2,0,1/2")
    second = run(capsys, "cone-member", g3_file, "--", "-1/2,0,1/2")
    assert first == second
    assert first[0] == 0 and "member: yes" in first[1]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_is_a_usage_error(capsys, g3_file, samples):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", g3_file, "--samples", samples])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --samples" in out.err and "need at least 1" in out.err


def test_verify_samples_keeps_the_int_message(capsys, g3_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", g3_file, "--samples", "ten"])
    assert exc.value.code == 2
    assert "argument --samples: invalid int value: 'ten'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (("antipode",), ("invariant", "strict"), ("verify", "all")))
def test_negative_vertex_cap_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "empty.txt"
    path.write_text("vertices:\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path), "--max-vertices", "-1"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --max-vertices: need at least 0, got -1" in out.err
    # a cap of 0 still admits the empty graph
    code, out, err = run(capsys, *argv, str(path), "--max-vertices", "0")
    assert code == 0 and out and err == ""


def _graph_file(tmp_path, name, n, edges):
    verts = [f"v{i:02d}" for i in range(n)]
    path = tmp_path / name
    path.write_text("vertices: " + " ".join(verts) + "\n"
                    + "".join(f"{verts[t]} -> {verts[h]}\n" for t, h in edges))
    return str(path)


def _tournament_file(tmp_path, n):
    return _graph_file(tmp_path, f"tournament{n}.txt", n,
                       [(i, j) for i in range(n) for j in range(i + 1, n)])


# The binomial line of each invariant of the 16-vertex transitive
# tournament, as its start and its end.  Weakly increasing maps of a chain
# number C(n + 15, 16) = sum over k of C(15, k - 1) C(n, k); psi weights a
# composition into intervals by q^(edges kept inside them), so one block
# gives q^120 and fifteen blocks give 15 q.
_WEAK16 = " + ".join(f"{c}*C(n,{k})" if c > 1 else f"C(n,{k})"
                     for k, c in ((k, math.comb(15, k - 1)) for k in range(1, 17)))
_TOURNAMENT16 = {
    "strict": ("C(n,16)", "C(n,16)"),
    "weak": (_WEAK16, _WEAK16),
    "psi": ("q^120*C(n,1) + ", " + 15*q*C(n,15) + C(n,16)"),
}


@pytest.mark.parametrize("which", _TOURNAMENT16)
def test_sixteen_vertex_tournament_answers_under_the_default_budget(
        capsys, tmp_path, monkeypatch, which):
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    path = _tournament_file(tmp_path, 16)
    code, out, err = run(capsys, "invariant", which, path, "--max-vertices", "16")
    assert code == 0 and err == ""
    assert out.startswith(f"graph: 16 vertices, 120 edges\ninvariant: {which}\n")
    start, end = _TOURNAMENT16[which]
    line = out.splitlines()[2]
    assert line.startswith("binomial: " + start) and line.endswith(end)


@pytest.mark.parametrize("which, binomial", (
    ("strict", "0"), ("weak", "C(n,1)"), ("psi", "q^16*C(n,1)")))
def test_sixteen_vertex_cycle_answers_under_the_default_budget(
        capsys, tmp_path, monkeypatch, which, binomial):
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    path = _graph_file(tmp_path, "cycle16.txt", 16, [(i, (i + 1) % 16) for i in range(16)])
    code, out, err = run(capsys, "invariant", which, path, "--max-vertices", "16")
    assert code == 0 and err == ""
    assert f"binomial: {binomial}\n" in out


def test_bpoly_answers_on_nine_vertices_meters_thirteen_and_refuses_fifteen_at_once(
        capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    code, out, err = run(capsys, "invariant", "bpoly", _tournament_file(tmp_path, 9))
    assert code == 0 and err == ""
    assert out.startswith("graph: 9 vertices, 36 edges\ninvariant: bpoly\n")
    # on 13 vertices the 3^13 - 2^13 steps fit the budget, but the entries
    # they walk do not: the fold's charge on one entry per block count
    # refuses it before the fold starts
    path = _tournament_file(tmp_path, 13)
    code, out, err = run(capsys, "invariant", "bpoly", path, "--max-vertices", "13")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: composition sum over 13 vertices needs at least ")
    assert "work budget 10000000; set HOPFDG_MAX_WORK" in err and err.count("\n") == 1
    # on 15 vertices the same floor refuses it at once
    path = _tournament_file(tmp_path, 15)
    start = time.perf_counter()
    code, out, err = run(capsys, "invariant", "bpoly", path, "--max-vertices", "15")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("resource limit: composition sum over 15 vertices needs at least "
                          "100196587 steps")
    assert err.count("\n") == 1


def test_sparse_twenty_vertex_dag_antipode_is_refused_with_empty_stdout(
        capsys, tmp_path, monkeypatch):
    # 2,996 lower halves and about 3.4M antipode terms: the meter stops the
    # fold long before them (a few seconds at the default budget)
    rng = random.Random(2)
    order = list(range(20))
    rng.shuffle(order)
    forward = [(order[i], order[j]) for i in range(20) for j in range(i + 1, 20)]
    path = _graph_file(tmp_path, "dag20.txt", 20, rng.sample(forward, 30))
    monkeypatch.setenv("HOPFDG_MAX_WORK", "1000000")
    code, out, err = run(capsys, "antipode", path, "--max-vertices", "20")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: composition sum over 20 vertices needs at least ")
    assert "work budget 1000000; set HOPFDG_MAX_WORK" in err and err.count("\n") == 1


# A dense cyclic graph on 10 vertices, 45 edges: its surjection walk fits
# the default budget, where the former estimate of the walk read 10,142,872.
_DENSE10 = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (1, 3), (1, 4), (1, 5),
            (1, 6), (2, 0), (2, 5), (2, 9), (3, 0), (3, 1), (3, 2), (3, 8), (3, 9),
            (4, 5), (4, 6), (4, 8), (5, 1), (5, 3), (5, 4), (5, 9), (6, 0), (6, 1),
            (6, 2), (6, 3), (6, 8), (6, 9), (7, 0), (7, 1), (7, 2), (7, 6), (7, 8),
            (7, 9), (8, 1), (8, 3), (8, 4), (8, 5), (8, 6), (8, 7), (9, 5), (9, 8))


def test_ten_vertex_dense_cyclic_bpoly_answers_under_the_default_budget(
        capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    path = _graph_file(tmp_path, "dense10.txt", 10, _DENSE10)
    code, out, err = run(capsys, "invariant", "bpoly", path, "--max-vertices", "10")
    assert code == 0 and err == ""
    assert out.startswith("graph: 10 vertices, 45 edges\ninvariant: bpoly\nbinomial: C(n,1) + ")


@pytest.mark.parametrize("argv, want", (
    (("antipode",), "antipode: 1 terms on 24 vertices\n-1 * [v00->v01, "),
    (("invariant", "strict"), "binomial: 0\n"),
    (("invariant", "psi"), "binomial: q^24*C(n,1)\n")))
def test_twenty_four_vertex_cycle_answers(capsys, tmp_path, monkeypatch, argv, want):
    # two lower halves; no cap on the vertices of the lattice sums but the user's
    monkeypatch.delenv("HOPFDG_MAX_WORK", raising=False)
    path = _graph_file(tmp_path, "cycle24.txt", 24, [(i, (i + 1) % 24) for i in range(24)])
    code, out, err = run(capsys, *argv, path, "--max-vertices", "24")
    assert code == 0 and err == ""
    assert want in out


def test_python_dash_m_runs_the_command_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hopfdg", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hopfdg ")
