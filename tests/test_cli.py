import json

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


def test_verify_json(capsys, g3_file):
    code, out, _ = run(capsys, "verify", "theorem1", g3_file,
                       "--samples", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "polytope/cone agreement (30 vectors)"


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
    # past the 16-vertex kernel bound even when --max-vertices allows it
    path = tmp_path / "big.txt"
    verts = " ".join(f"v{i:02d}" for i in range(17))
    path.write_text(f"vertices: {verts}\nv00 -> v16\n")
    code, out, err = run(capsys, *argv, str(path), "--max-vertices", "20")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1
