"""The one resource gate: every refusal of oversized work comes from here.

The command line reports each refusal as "resource limit" with exit code
3.  Nothing is printed before the work returns, so stdout stays empty.

  check_size   a vertex count against the user's cap on composition
               sums (max_vertices=, --max-vertices);
  check_work   an estimate of the steps, made before the work starts,
               against the one work budget, DEFAULT_MAX_WORK or the
               HOPFDG_MAX_WORK environment variable;
  refuse_work  the meter: the composition sums count their work while
               they do it and call this once the count passes the
               budget, so they stop within one budget of work.
"""

from __future__ import annotations

import os
from typing import NoReturn

from .errors import SizeLimitError, WorkLimitError

DEFAULT_MAX_VERTICES = 9   # default of the user's cap on composition sums
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


def check_work(what: str, estimate: int) -> int:
    """Refuse `what` when its estimated steps exceed the work budget; else the budget."""
    budget = work_budget()
    if estimate > budget:
        raise WorkLimitError(f"{what} needs about {estimate} steps, over the work "
                             f"budget {budget}; set {ENV_MAX_WORK} to raise it")
    return budget


def refuse_work(what: str, work: int, budget: int) -> NoReturn:
    """Refuse `what`, whose counted work has passed the budget."""
    raise WorkLimitError(f"{what} needs at least {work} steps, over the work "
                         f"budget {budget}; set {ENV_MAX_WORK} to raise it")
