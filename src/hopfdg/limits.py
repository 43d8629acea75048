"""The one resource gate: every refusal to start oversized work comes from here.

Every entry point that starts exponential work calls one of two checks
first and raises instead of hanging; the command line reports either
refusal as "resource limit" with exit code 3.

  check_size  a vertex count against the user's cap on composition sums
              (max_vertices=, --max-vertices) or SUBSET_BOUND, the ground
              set of the largest dense 2^n table;
  check_work  an estimate of the steps against the one work budget,
              DEFAULT_MAX_WORK or the HOPFDG_MAX_WORK environment variable.
"""

from __future__ import annotations

import os

from .errors import SizeLimitError, WorkLimitError

DEFAULT_MAX_VERTICES = 9   # default of the user's cap on composition sums
SUBSET_BOUND = 20
DEFAULT_MAX_WORK = 10_000_000
ENV_MAX_WORK = "HOPFDG_MAX_WORK"


def check_size(what: str, nv: int, limit: int | None) -> None:
    """Refuse `what` over nv vertices past limit (None: DEFAULT_MAX_VERTICES)."""
    limit = DEFAULT_MAX_VERTICES if limit is None else limit
    if nv > limit:
        raise SizeLimitError(f"{what} over {nv} vertices exceeds bound {limit}")


def work_budget() -> int:
    """The work budget: HOPFDG_MAX_WORK when set, else DEFAULT_MAX_WORK."""
    raw = os.environ.get(ENV_MAX_WORK, DEFAULT_MAX_WORK)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_WORK} must be an integer, got {raw!r}")


def check_work(what: str, estimate: int) -> None:
    """Refuse `what` when its estimated steps exceed the work budget."""
    budget = work_budget()
    if estimate > budget:
        raise WorkLimitError(f"{what} needs about {estimate} steps, over the work "
                             f"budget {budget}; set {ENV_MAX_WORK} to raise it")
