"""Closed-loop job runner, correctness bookkeeping and metric arithmetic.

Jobs run in this process, one at a time, through the public entry point
`hopfdg.cli.main(argv)` with stdout and stderr captured: the next job
starts only when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import corpus
from corpus import Job
from gate import cross_check, digest

# The 90th percentile needs ten samples beyond it.
P90_MIN_SAMPLES = 100


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    seconds: float
    cpu: float
    digest: str


def run_job(main, job: Job, keep_output: bool = True) -> Outcome:
    """One CLI call; an exception escaping main is an outcome with code None.

    Without keep_output only the digest of the output is kept, so that the
    memory of past passes does not add to the peak being measured.
    """
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            code = main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
    text, message = out.getvalue(), err.getvalue()
    check = digest(-1 if code is None else code, text, message)
    if not keep_output:
        text = message = ""
    return Outcome(code, text, message, seconds, cpu, check)


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class PassRecord:
    wall: float
    outcomes: list[Outcome]


@dataclass
class Session:
    """Runs a corpus pass by pass and keeps the correctness verdicts."""

    hd: object
    corpus: corpus.Corpus
    first: dict[str, Outcome] = field(default_factory=dict)
    runs: dict[str, int] = field(default_factory=dict)        # runs per job
    mismatches: dict[str, int] = field(default_factory=dict)  # runs unlike the first

    def run_pass(self, *, on_job=None) -> PassRecord:
        """One pass over the job list.  The first pass keeps its outputs,
        which every later run must reproduce and the gate checks."""
        main = self.hd.cli.main
        keep = not self.first
        outcomes = []
        start = time.perf_counter()
        for index, job in enumerate(self.corpus.jobs):
            if on_job is not None:
                on_job(index)
            outcomes.append(run_job(main, job, keep))
        wall = time.perf_counter() - start
        if keep:
            self.first = {job.id: o for job, o in zip(self.corpus.jobs, outcomes)}
        return PassRecord(wall, outcomes)

    def account(self, record: PassRecord) -> None:
        """Count a pass; each job must reproduce its first output."""
        for job, o in zip(self.corpus.jobs, record.outcomes):
            self.runs[job.id] = self.runs.get(job.id, 0) + 1
            if o.digest != self.first[job.id].digest:
                self.mismatches[job.id] = self.mismatches.get(job.id, 0) + 1

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    def failed(self, problems: dict[str, str]) -> int:
        """Runs that failed: every run of a job whose first output is wrong,
        and each run that did not reproduce its first output."""
        return sum(runs if job_id in problems else self.mismatches.get(job_id, 0)
                   for job_id, runs in self.runs.items())

    def problems(self, reference: dict[str, str] | None) -> dict[str, str]:
        """Jobs whose first output fails a cross-check or the reference digest."""
        found = {}
        for job in self.corpus.jobs:
            o = self.first[job.id]
            problem = cross_check(self.hd, job, o.code, o.out, o.err)
            if problem is None and reference is not None and reference.get(job.id) != o.digest:
                problem = "digest differs from the recorded reference"
            if problem is not None:
                found[job.id] = problem
        return found


def latency_metrics(records: list[PassRecord], factors: list[list[float]],
                    jobs: list[Job]) -> dict[str, float]:
    """End-to-end figures at the reference speed; refusals stay out of the percentiles.

    factors[p][i] scales job i of pass p to the reference speed (speed.py).
    The percentiles are taken over every scaled run of the served jobs;
    throughput and CPU time per job over the whole job list, from each
    job's median scaled run.
    """
    served = [i for i, job in enumerate(jobs) if not job.refused]
    seconds = [[o.seconds * f for o, f in zip(r.outcomes, fs)] for r, fs in zip(records, factors)]
    cpu = [[o.cpu * f for o, f in zip(r.outcomes, fs)] for r, fs in zip(records, factors)]
    samples = [run[i] for run in seconds for i in served]
    per_job = [statistics.median(run[i] for run in seconds) for i in range(len(jobs))]
    cpu_per_job = [statistics.median(run[i] for run in cpu) for i in range(len(jobs))]
    return {
        "jobs_per_s": len(jobs) / sum(per_job),
        "job_p50_ms": 1000 * percentile(samples, 0.5),
        "job_p90_ms": 1000 * percentile(samples, 0.9),
        "job_p90_samples": len(samples),
        "cpu_ms_per_job": 1000 * sum(cpu_per_job) / len(jobs),
    }


def refuse_ms(records: list[PassRecord], jobs: list[Job]) -> float:
    return 1000 * statistics.median(
        o.seconds for r in records for job, o in zip(jobs, r.outcomes) if job.refused)


class CallLog:
    """Observers for the traced run: kernel calls, antipode sizes, max-flow calls.

    Observers see every call, also those made from inside the same layer,
    which record no span.  Every public routine of the kernels module is
    observed.  A kernel call whose arguments are no graph in kernel form
    (nv, tails, heads) adds to the entries and repeats only.
    """

    def __init__(self, kernels_module):
        self.calls: list[tuple[int, str, tuple, dict, int]] = []
        self.antipode_terms = 0
        self.max_flow_calls = 0
        self.halves: dict[tuple, list[int]] = {}   # lower halves by (n, edges, universe)
        self.signatures = {}
        self.tracer = None
        for name, fn in vars(kernels_module or {}).items():
            if not name.startswith("_") and inspect.isroutine(fn):
                self.signatures[fn.__qualname__] = inspect.signature(fn)

    def observers(self, tracer) -> dict:
        self.tracer = tracer
        obs = {f"kernels:{name}": self._kernel_observer(name) for name in self.signatures}
        obs["hopf:antipode"] = self._antipode_observer
        obs["cones:max_flow"] = self._max_flow_observer
        return obs

    def _kernel_observer(self, name: str):
        def observe(args, kwargs, result):
            size = len(result) if isinstance(result, (dict, list)) else 0
            self.calls.append((self.tracer.current_job, name, args, kwargs, size))
        return observe

    def _antipode_observer(self, args, kwargs, result):
        self.antipode_terms += len(result)

    def _max_flow_observer(self, args, kwargs, result):
        self.max_flow_calls += 1

    def lower_halves(self, n: int, edges: tuple, universe: int | None = None) -> list[int]:
        key = (n, edges, universe)
        if key not in self.halves:
            self.halves[key] = corpus.lower_half_masks(n, edges, universe)
        return self.halves[key]

    def reset(self) -> None:
        self.calls.clear()
        self.antipode_terms = 0
        self.max_flow_calls = 0

    def counts(self) -> dict[str, int]:
        """Exact counts of one traced pass, computed outside the timed code.

        For each kernel call on a graph with vertex set U (its universe):
        submask_pairs adds 3^|U|, the (R, T) pairs a full submask DP over U
        visits, and nested_pairs the pairs L <= L' of lower halves of the
        graph induced on U.  histogram_entries adds the size of the returned
        dict or list; repeat_calls counts calls whose arguments repeat an
        earlier call of the same job.
        """
        submask = nested = entries = repeats = 0
        seen: set = set()
        for job, name, args, kwargs, size in self.calls:
            bound = self.signatures[name].bind(*args, **kwargs).arguments
            if {"nv", "tails", "heads"} <= bound.keys():   # a graph in kernel form
                nv, edges = bound["nv"], tuple(zip(bound["tails"], bound["heads"]))
                universe = bound.get("universe", -1)
                universe = (1 << nv) - 1 if universe < 0 else universe
                submask += 3 ** bin(universe).count("1")
                halves = self.lower_halves(nv, edges, universe)
                nested += sum(1 for big in halves for small in halves if small & ~big == 0)
            entries += size
            call = (job, name, tuple(tuple(v) if isinstance(v, list) else v
                                     for v in bound.values()))
            if call in seen:
                repeats += 1
            seen.add(call)
        return {
            "kernels.submask_pairs": submask,
            "kernels.nested_pairs": nested,
            "kernels.histogram_entries": entries,
            "kernels.repeat_calls": repeats,
            "hopf.antipode_terms": self.antipode_terms,
            "cones.max_flow_calls": self.max_flow_calls,
        }


def traced_pass(session: Session, tracer, log: CallLog):
    """One pass with the tracer installed.

    Returns the pass record, the self time per layer, and the counts of the
    pass: calls into each layer and the exact counts of CallLog.  The
    pass's spans stay in the tracer from index `first` on.
    """
    log.reset()
    first = tracer.span_count()
    before = tracer.layer_calls()
    tracer.install(observers=log.observers(tracer))
    try:
        record = session.run_pass(on_job=lambda index: setattr(tracer, "current_job", index))
    finally:
        tracer.uninstall()
    session.account(record)
    counts = {f"{layer}.calls": n - before[layer] for layer, n in tracer.layer_calls().items()}
    counts.update(log.counts())
    counts["digraph.lower_halves"] = sum(len(log.lower_halves(*job.graph))
                                         for job in session.corpus.jobs if not job.refused)
    return record, tracer.self_times(first), counts
