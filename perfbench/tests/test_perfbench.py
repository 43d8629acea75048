"""Tests of the benchmark itself: corpus, gate, tracer and exact counts.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import harness  # noqa: E402
import hopfdg  # noqa: E402
import hopfdg.cli  # noqa: E402,F401
import tracer as tracing  # noqa: E402
from gate import cross_check, evaluate  # noqa: E402


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_byte_identical_per_seed(tmp_path, workload):
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        corpus.build(workload, seed, str(tmp_path / tag)).write(str(tmp_path / tag))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_corpus_families_have_their_shape():
    import random
    rng = random.Random(0)
    for n in (6, 10):
        tour = corpus.make_graph("tournament", n, rng)
        assert len(corpus.lower_half_masks(*tour)) == n + 1
        for family in ("sparse_cyclic", "dense_cyclic"):
            assert not corpus.is_acyclic(*corpus.make_graph(family, n, rng))
        assert corpus.is_acyclic(*corpus.make_graph("sparse_dag", n, rng))


def test_evaluate_reads_printed_polynomials():
    assert evaluate("C(n,1) + C(n,2)", {"n": 3}) == 6
    assert evaluate("(n^2 + n)/2", {"n": 3}) == 6
    assert evaluate("q^4*C(n,1) + q^3*C(n,2)", {"n": 2, "q": 2}) == 40
    with pytest.raises(ValueError):
        evaluate("__import__('os')", {"n": 1})


def _small_session(tmp_path, workload, count):
    data = corpus.build(workload, 1, str(tmp_path))
    data.write(str(tmp_path))
    data.jobs = data.jobs[:count] + [j for j in data.jobs if j.refused]
    return harness.Session(hopfdg, data)


def test_tampered_output_counts_in_error_rate(tmp_path, monkeypatch):
    session = _small_session(tmp_path, "verify", 4)
    session.account(session.run_pass())
    assert session.problems(None) == {}
    assert session.failed({}) == 0

    real_main = hopfdg.cli.main

    def tampered(argv):
        code = real_main(argv)
        if argv[0] == "cone-member":
            print("member: yes")
        return code

    monkeypatch.setattr(hopfdg.cli, "main", tampered)
    session.account(session.run_pass())
    tampered = {j.id for j in session.corpus.jobs if j.argv[0] == "cone-member"}
    assert session.failed({}) == len(tampered)
    assert session.attempted == 2 * len(session.corpus.jobs)

    # a wrong first output fails the cross-check and every run of that job
    session = _small_session(tmp_path, "verify", 4)
    session.account(session.run_pass())
    session.account(session.run_pass())
    problems = session.problems(None)
    assert set(problems) == tampered
    assert session.failed(problems) == 2 * len(tampered)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_cross_checks_reject_wrong_outputs(tmp_path, workload):
    data = corpus.build(workload, 2, str(tmp_path))
    data.write(str(tmp_path))
    for job in data.jobs:
        o = harness.run_job(hopfdg.cli.main, job)
        assert cross_check(hopfdg, job, o.code, o.out, o.err) is None, job.id
        assert cross_check(hopfdg, job, o.code + 1, o.out, o.err) is not None
        if job.refused:
            assert cross_check(hopfdg, job, o.code, o.out,
                               "Traceback (most recent call last):\n" + o.err) is not None
        elif job.kind != "verify":
            wrong = o.out.replace("1", "2", 1) if "1" in o.out else o.out + "x"
            assert cross_check(hopfdg, job, o.code, wrong, o.err) is not None, job.id
        if job.kind == "antipode":
            break   # one 10-vertex antipode is enough here


def test_invariant_check_fixes_the_polynomial(tmp_path):
    # Add (n-1)(n-2)...(n-|V|), which vanishes at n = 1..|V|, in the C(n,k)
    # basis; only the point n = 0 tells the tampered polynomial apart.
    data = corpus.build("invariants", 2, str(tmp_path))
    data.write(str(tmp_path))
    job = next(j for j in data.jobs if j.kind == "invariant" and j.detail["format"] == "json")
    o = harness.run_job(hopfdg.cli.main, job)
    n_v = job.graph[0]
    err = [math.prod(n - i for i in range(1, n_v + 1)) for n in range(n_v + 1)]
    delta = [sum((-1) ** (k - j) * math.comb(k, j) * err[j] for j in range(k + 1))
             for k in range(n_v + 1)]
    payload = json.loads(o.out)
    values = {c["k"]: int(c["value"]) for c in payload["coeffs"]}
    payload["coeffs"] = [{"k": k, "value": str(values.get(k, 0) + delta[k])}
                         for k in range(n_v + 1)]
    assert cross_check(hopfdg, job, o.code, o.out, o.err) is None
    assert cross_check(hopfdg, job, o.code, json.dumps(payload), o.err) is not None


def test_self_time_attribution_on_a_synthetic_nested_call():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))

    def inner_same_layer():
        return 1

    def inner():
        return same() + 1

    def outer():
        return inner() + inner_in_cli()

    inner_in_cli = tr.wrap("cli", "helper", inner_same_layer)   # no span: same layer
    same = tr.wrap("kernels", "leaf", inner_same_layer)          # no span: called from kernels
    inner = tr.wrap("kernels", "inner", inner)
    outer = tr.wrap("cli", "outer", outer)
    assert outer() == 3
    # outer [0, 10] holds inner [2, 5]
    assert tr.span_count() == 2
    assert tr.self_times() == dict.fromkeys(tracing.LAYERS, 0.0) | {"cli": 7.0, "kernels": 3.0}
    assert tr.layer_calls()["cli"] == 1 and tr.layer_calls()["kernels"] == 1
    assert list(tr.parent) == [-1, 0]


def test_install_wraps_every_binding_site_and_uninstall_restores():
    tr = tracing.Tracer()
    originals = (hopfdg.antipode, hopfdg.hopf.antipode, hopfdg.cli.antipode,
                 hopfdg.invariants.antipode, hopfdg.cli._INVARIANTS["strict"],
                 hopfdg.kernels.chain_stats, hopfdg.Digraph.__init__)
    tr.install()
    try:
        assert hopfdg.antipode is hopfdg.hopf.antipode is hopfdg.cli.antipode \
            is hopfdg.invariants.antipode
        assert hopfdg.antipode is not originals[0]
        assert hopfdg.cli._INVARIANTS["strict"].__wrapped__ is originals[4]
        assert hopfdg.kernels.chain_stats.__wrapped__ is originals[5]
    finally:
        tr.uninstall()
    assert (hopfdg.antipode, hopfdg.hopf.antipode, hopfdg.cli.antipode,
            hopfdg.invariants.antipode, hopfdg.cli._INVARIANTS["strict"],
            hopfdg.kernels.chain_stats, hopfdg.Digraph.__init__) == originals


def test_exact_counts_repeat_across_runs_of_one_seed(tmp_path):
    counts = []
    for _ in range(2):
        session = _small_session(tmp_path, "verify", 8)
        session.account(session.run_pass())
        tr = tracing.Tracer()
        record, self_times, got = harness.traced_pass(session, tr, harness.CallLog(hopfdg.kernels))
        assert session.failed(session.problems(None)) == 0
        # layer self times cover the jobs' wall time
        job_wall = sum(o.seconds for o in record.outcomes)
        assert 0 <= job_wall - sum(self_times.values()) < 0.05 * job_wall
        counts.append(got)
    assert counts[0] == counts[1]
    assert counts[0]["cones.max_flow_calls"] > 0
    assert counts[0]["kernels.repeat_calls"] > 0
    assert counts[0]["hopf.antipode_terms"] > 0


def test_untraced_measurement_never_loads_the_tracer(tmp_path):
    script = f"""
import sys
sys.path[:0] = [{BENCH!r}, {os.path.join(ROOT, "src")!r}]
import corpus, harness, hopfdg, hopfdg.cli, run
data = corpus.build("verify", 1, {str(tmp_path)!r})
data.write({str(tmp_path)!r})
data.jobs = [j for j in data.jobs if j.kind == "cone"][:3] + [j for j in data.jobs if j.refused]
metrics, units, extra = run.measure(harness.Session(hopfdg, data), 0.0, lambda: 0.1)
assert set(metrics) == set(run.END_TO_END) and extra["job_p90_samples"] >= 100
print("tracer" in sys.modules)
"""
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_times_are_scaled_to_the_reference_speed():
    import speed
    log = speed.SpeedLog()
    log.samples = [2 * speed.REFERENCE_S] * 6 + [speed.REFERENCE_S / 2] * 6
    assert log.factor(0) == pytest.approx(0.5)     # only calibrations after the job
    assert log.factor(12) == pytest.approx(2.0)    # only calibrations before it
    assert speed.REFERENCE_S / 2 < speed.REFERENCE_S / log.factor(6) < 2 * speed.REFERENCE_S

    jobs = [corpus.Job("a", [], 0, "cone"), corpus.Job("b", [], 0, "cone"),
            corpus.Job("c", [], 3, "refuse")]
    records = [harness.PassRecord(0.0, [harness.Outcome(0, "", "", s, s, "")
                                        for s in (0.01, 0.03, 0.001)])]
    plain = harness.latency_metrics(records, [[1.0] * 3], jobs)
    halved = harness.latency_metrics(records, [[0.5] * 3], jobs)
    assert plain["job_p50_ms"] == pytest.approx(20.0)   # the refusal stays out
    assert plain["jobs_per_s"] == pytest.approx(3 / 0.041)
    for name in ("job_p50_ms", "job_p90_ms", "cpu_ms_per_job"):
        assert halved[name] == pytest.approx(plain[name] / 2)
    assert halved["jobs_per_s"] == pytest.approx(2 * plain["jobs_per_s"])


def test_missing_library_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import run
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = {m["name"] for m in spec["per_layer"]}
    for layer in tracing.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= layer_names
