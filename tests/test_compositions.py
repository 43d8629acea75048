"""The composition stream of the test oracles, and label canonicalisation."""

import math

import pytest

from conftest import compositions
from hopfdg.digraph import canonical_labels


def _fubini(n: int) -> int:
    # ordered set partitions, by summing surjection counts
    total = 0
    for k in range(n + 1):
        surj = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
        total += surj
    return total if n else 1


def test_canonical_labels_sort_and_reject_duplicates():
    assert canonical_labels(["b", "a", "c"]) == ("a", "b", "c")
    assert canonical_labels(()) == ()
    with pytest.raises(ValueError):
        canonical_labels(["b", "a", "b"])
    with pytest.raises(ValueError):
        canonical_labels([1, 2])


def _surjections(n: int, k: int) -> int:
    # k! S(n, k) by inclusion-exclusion
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


@pytest.mark.parametrize("n", range(5))
def test_composition_totals_match_fubini(n):
    labels = tuple("abcde"[:n])
    total = sum(len(list(compositions(labels, k))) for k in range(n + 1))
    assert total == _fubini(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_composition_counts_per_block_number(n):
    labels = tuple("abcdefg"[:n])
    for k in range(1, n + 1):
        assert sum(1 for _ in compositions(labels, k)) == _surjections(n, k)


def test_blocks_recover_the_label_set():
    labels = ("a", "b", "c", "d", "e")
    for k in (1, 2, 3):
        for blocks in compositions(labels, k):
            flat = sorted(v for b in blocks for v in b)
            assert tuple(flat) == labels


def test_compositions_are_ordered_partitions():
    labels = ("a", "b", "c", "d")
    seen = set()
    for blocks in compositions(labels, 2):
        assert all(blocks)
        assert len(blocks) == 2
        assert blocks[0] | blocks[1] == set(labels)
        assert not blocks[0] & blocks[1]
        seen.add(blocks)
    # surjections onto 2 values: 2^4 - 2
    assert len(seen) == 14


def test_compositions_edge_cases():
    assert list(compositions((), 0)) == [()]
    assert list(compositions((), 1)) == []
    assert list(compositions(("a",), 0)) == []
    assert list(compositions(("a", "b"), 3)) == []
