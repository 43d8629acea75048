"""Every refusal to start oversized work comes from hopfdg.limits."""

import pathlib
import re

import hopfdg

PACKAGE = pathlib.Path(hopfdg.__file__).parent

# building either refusal, or reading the budget, outside limits.py
OUTSIDE_THE_GATE = re.compile(
    r"(?<!class )\b(SizeLimitError|WorkLimitError)\(|HOPFDG_MAX_WORK|ENV_MAX_WORK")


def test_only_limits_refuses_work_or_reads_the_budget():
    offenders = [f"{path.name}:{lineno}: {line.strip()}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "limits.py"
                 for lineno, line in enumerate(path.read_text().splitlines(), 1)
                 if OUTSIDE_THE_GATE.search(line)]
    assert offenders == []
