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

Inside read_budget_once() (the command line runs each command in one)
the budget is read from the environment at its first use and kept until
the block ends.
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from typing import NoReturn

from .errors import SizeLimitError, WorkLimitError

DEFAULT_MAX_VERTICES = 9   # default of the user's cap on composition sums
DEFAULT_MAX_WORK = 10_000_000
ENV_MAX_WORK = "HOPFDG_MAX_WORK"


def check_size(what: str, nv: int, limit: int | None) -> None:
    """Refuse `what` over nv vertices past limit (None: DEFAULT_MAX_VERTICES).

    A limit below 0 would refuse every graph, the empty one too, so it is
    refused itself, as a ValueError; so is a limit that is not an int.
    """
    limit = DEFAULT_MAX_VERTICES if limit is None else limit
    if not isinstance(limit, int):
        raise ValueError(f"max_vertices must be an int, got {limit!r}")
    if limit < 0:
        raise ValueError(f"max_vertices must be at least 0, got {limit}")
    if nv > limit:
        raise SizeLimitError(f"{what} over {nv} vertices exceeds bound {limit}")


# inside read_budget_once(): a list holding the budget once it is read
_held: ContextVar[list[int] | None] = ContextVar("hopfdg_work_budget", default=None)


def work_budget() -> int:
    """The work budget: HOPFDG_MAX_WORK when set, else DEFAULT_MAX_WORK."""
    held = _held.get()
    if held:
        return held[0]
    raw = os.environ.get(ENV_MAX_WORK, DEFAULT_MAX_WORK)
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_WORK} must be an integer, got {raw!r}")
    if budget < 0:
        raise ValueError(f"{ENV_MAX_WORK} must be at least 0, got {raw!r}")
    if held is not None:
        held.append(budget)
    return budget


class read_budget_once:
    """Within the block, work_budget reads the environment at most once."""

    __slots__ = ("_token",)

    def __enter__(self) -> None:
        self._token = _held.set([])

    def __exit__(self, *exc: object) -> None:
        _held.reset(self._token)


def check_work(what: str, estimate: int) -> None:
    """Refuse `what` when its estimated steps exceed the work budget."""
    budget = work_budget()
    if estimate > budget:
        raise WorkLimitError(f"{what} needs about {estimate} steps, over the work "
                             f"budget {budget}; set {ENV_MAX_WORK} to raise it")


def refuse_work(what: str, work: int, budget: int) -> NoReturn:
    """Refuse `what`, whose counted work has passed the budget."""
    raise WorkLimitError(f"{what} needs at least {work} steps, over the work "
                         f"budget {budget}; set {ENV_MAX_WORK} to raise it")
