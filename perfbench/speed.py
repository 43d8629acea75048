"""Machine speed, sampled next to the jobs, so that times can be scaled to one speed.

On a shared virtual machine the speed of the same code moves between levels
up to about 2x apart, and a level can last from seconds to more than a
minute: longer than a run.  The medians of two runs can then differ by the
machine's level, not by the program.  So the benchmark runs a fixed
calibration routine between jobs, at most CALIBRATION_INTERVAL_S apart, and
scales each job's time by REFERENCE_S over the median calibration time
around that job: every end-to-end time is reported at the speed at which
the calibration takes REFERENCE_S.  The raw times go to the results file.

The calibration is plain Python of the kind the library spends its time in
(bitmask scans with dict look-ups, then Fraction sums), on a fixed graph.
It imports nothing from hopfdg, so it costs the same on every commit.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import corpus

# The calibration time at which scaled times are reported, about its median
# on a 2-vCPU cloud VM running CPython 3.11.
REFERENCE_S = 0.00085

# Calibrate before a job when this long has passed since the last calibration.
CALIBRATION_INTERVAL_S = 0.05

# A job's speed is the median of this many calibrations before it and as
# many after it.
WINDOW = 3

_GRAPH = corpus.make_graph("sparse_dag", 11, random.Random("calibration"))


def calibration_work() -> Fraction:
    total = Fraction(0)
    for i, mask in enumerate(corpus.lower_half_masks(*_GRAPH)[:60]):
        total += Fraction(mask, i + 1)
    return total


class SpeedLog:
    """Calibration times in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def calibrate(self) -> float:
        start = time.perf_counter()
        calibration_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end
        return end - start

    def mark(self) -> int:
        """Call right before a job: calibrate if one is due, and return the
        job's place among the calibrations (the index of the first after it)."""
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.calibrate()
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """The factor that scales a time taken at `mark` to the reference speed."""
        window = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def scaled(self, measure):
        """Run measure() between calibrations; its result scaled to the reference speed."""
        before = [self.calibrate() for _ in range(WINDOW)]
        value = measure()
        after = [self.calibrate() for _ in range(WINDOW)]
        return value * REFERENCE_S / statistics.median(before + after)
