"""Benchmark of the hopfdg command line, run in-process on seeded corpora.

    python3 perfbench/run.py --workload {invariants,antipode,verify,all}
                             [--seed N] [--seconds S] [--trace 0|1] [--record]

One process, one thread, closed loop: each workload's job list (see
corpus.py) is run pass after pass through `hopfdg.cli.main(argv)`, the next
job starting when the previous one returns, for --seconds.  The first pass
records every job's output.  The correctness gate (gate.py) then checks
those outputs by independent routes, and every later run must reproduce
its first output.

--trace 0 prints the end-to-end metrics, with every time scaled to one
reference machine speed by a calibration run between jobs (speed.py); the
unscaled figures go to the results file.  --trace 1 alternates untraced and
traced passes and prints per-layer metrics from the outside-in tracer.
Each metric is printed as "name: value unit", the last line is one JSON
object, and a results file goes to perfbench/_results/.  The exit code is
1 when the correctness gate fails and 2 when the library is missing.

`--workload all` runs every workload in a child process of its own.
`--record` stores the first digests of the default seed as the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import corpus
import harness
from gate import DEFAULT_SEED
from speed import SpeedLog

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
RESULTS_DIR = os.path.join(BENCH_DIR, "_results")
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.json")

SETUP_PROBES = 15

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
}


def _import_library():
    sys.path.insert(0, SRC)
    import hopfdg
    import hopfdg.cli  # noqa: F401
    return hopfdg


def _corpus_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK_DIR, f"{workload}-s{seed}")


def setup(workload: str, seed: int):
    """Import the library, then generate and write the corpus."""
    hd = _import_library()
    data = corpus.build(workload, seed, _corpus_dir(workload, seed))
    data.write(_corpus_dir(workload, seed))
    return hd, data


def probe_setup(workload: str, seed: int) -> float:
    """Launch-to-ready seconds of a fresh interpreter doing the set-up."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--probe",
                           "--workload", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {child.returncode}")
    return seconds


def _git_commit() -> str | None:
    # only a checkout that is itself a repository: git must not find one
    # further up the tree
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(hd, seed: int, load: tuple) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "backend": getattr(hd, "BACKEND", None),
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_at_start": list(load),
    }


def _load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def _record_reference(workload: str, session) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[workload] = {job.id: session.first[job.id].digest for job in session.corpus.jobs}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _timed_loop(seconds: float, step, enough=lambda: True) -> None:
    """Call step() at least once, until `seconds` have elapsed and enough() holds."""
    start = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - start >= seconds and enough():
            return


def measure(session, seconds: float, probe):
    """The end-to-end metrics of untraced timed passes, at the reference speed.

    A first pass, which records the outputs, warms up untimed.  Between
    jobs the speed log (speed.py) calibrates the machine's speed, and every
    time is scaled by it.  probe() times one set-up in a fresh interpreter;
    one runs after every timed pass, between calibrations, so that the
    set-up times sample the whole run.
    """
    speed = SpeedLog()
    records: list = []
    factors: list = []
    setups: list = []
    raw_setups: list = []

    def timed_probe():
        raw_setups.append(probe())
        return raw_setups[-1]

    def step():
        marks: list = []
        record = session.run_pass(on_job=lambda index: marks.append(speed.mark()))
        session.account(record)
        records.append(record)
        setups.append(speed.scaled(timed_probe))    # also calibrates after the last job
        factors.append([speed.factor(m) for m in marks])

    session.account(session.run_pass())
    # timed passes continue past `seconds` until the percentiles have their samples
    jobs = session.corpus.jobs
    served_per_pass = sum(not job.refused for job in jobs)
    _timed_loop(seconds, step, lambda: len(records) * served_per_pass >= harness.P90_MIN_SAMPLES)
    rss = harness.peak_rss_mb()
    while len(setups) < SETUP_PROBES:
        setups.append(speed.scaled(timed_probe))
    lat = harness.latency_metrics(records, factors, jobs)
    raw = harness.latency_metrics(records, [[1.0] * len(jobs) for _ in records], jobs)
    metrics = {"setup_s": statistics.median(setups), "jobs_per_s": lat["jobs_per_s"],
               "job_p50_ms": lat["job_p50_ms"], "job_p90_ms": lat["job_p90_ms"],
               "cpu_ms_per_job": lat["cpu_ms_per_job"], "peak_rss_mb": rss}
    extra = {"setup_samples_s": setups, "job_p90_samples": lat["job_p90_samples"],
             "unscaled": {"setup_s": statistics.median(raw_setups),
                          **{k: v for k, v in raw.items() if k != "job_p90_samples"}},
             "calibration_s": {"median": statistics.median(speed.samples),
                               "min": min(speed.samples), "max": max(speed.samples),
                               "count": len(speed.samples)},
             "pass_walls_s": [r.wall for r in records],
             "job_latencies_s": {job.id: [r.outcomes[i].seconds for r in records]
                                 for i, job in enumerate(jobs)},
             "job_factors": {job.id: [f[i] for f in factors] for i, job in enumerate(jobs)}}
    return metrics, dict(END_TO_END), extra


def measure_traced(session, seconds: float, spans_path: str):
    """Per-layer metrics: untraced and traced passes alternate."""
    import tracer as tracing   # only the traced run loads the tracer

    tracer = tracing.Tracer()
    log = harness.CallLog(getattr(session.hd, "kernels", None))
    plain: list = []
    traced: list = []       # (record, self time per layer, counts)

    def step():
        record = session.run_pass()
        session.account(record)
        plain.append(record)
        first = tracer.span_count()
        traced.append(harness.traced_pass(session, tracer, log))
        if len(traced) > 1:
            tracer.truncate(first)   # the spans file holds the first traced pass

    _timed_loop(seconds, step)
    metrics: dict = {}
    units: dict = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(t[1][layer] for t in traced)
        units[f"{layer}.self_s"] = "s"
    for name, value in traced[0][2].items():
        metrics[name] = value
        units[name] = "count"
    job_walls = [sum(o.seconds for o in t[0].outcomes) for t in traced]
    metrics["cli.refuse_ms"] = harness.refuse_ms(plain, session.corpus.jobs)
    metrics["trace.overhead"] = (statistics.median(t[0].wall for t in traced)
                                 / statistics.median(r.wall for r in plain))
    metrics["trace.job_wall_s"] = statistics.median(job_walls)
    metrics["trace.remainder_s"] = statistics.median(
        wall - sum(t[1].values()) for wall, t in zip(job_walls, traced))
    units.update({"cli.refuse_ms": "ms", "trace.overhead": "ratio",
                  "trace.job_wall_s": "s", "trace.remainder_s": "s"})
    extra = {"untraced_walls_s": [r.wall for r in plain],
             "traced_walls_s": [t[0].wall for t in traced],
             "spans_in_first_traced_pass": tracer.span_count()}
    tracer.write(spans_path)
    return metrics, units, extra


def run_workload(args) -> int:
    load = os.getloadavg()
    hd, data = setup(args.workload, args.seed)
    session = harness.Session(hd, data)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if args.trace:
        metrics, units, extra = measure_traced(
            session, args.seconds,
            os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.tsv.gz"))
    else:
        metrics, units, extra = measure(session, args.seconds,
                                        lambda: probe_setup(args.workload, args.seed))

    reference = None if args.record else _load_reference(args.workload, args.seed)
    problems = session.problems(reference)
    failed = session.failed(problems)
    correct = failed == 0
    if args.record and args.seed == DEFAULT_SEED and correct:
        _record_reference(args.workload, session)

    error_rate = failed / session.attempted
    for name, value in metrics.items():
        note = f" ({extra['job_p90_samples']} samples)" if name == "job_p90_ms" else ""
        print(f"{args.workload} {name}: {value if isinstance(value, int) else f'{value:.6g}'} "
              f"{units[name]}{note}")
    print(f"{args.workload} error_rate: {error_rate:.6g} ratio "
          f"({failed} of {session.attempted} jobs)")
    for job_id, problem in sorted(problems.items()):
        print(f"{args.workload} FAILED {job_id}: {problem}")

    with open(os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "machine": machine_facts(hd, args.seed, load),
                   "seconds": args.seconds, "trace": args.trace, "correct": correct,
                   "attempted": session.attempted, "failed": failed, "error_rate": error_rate,
                   "problems": problems,
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                   **extra}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak memory are its own."""
    status = 0
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--record"] if args.record else [])
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*corpus.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the default seed's digests as the reference")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfdg", "__init__.py")):
        print(f"perfbench: hopfdg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
