"""The kernels: composition sums and enumeration counts on graphs in kernel form.

A graph in kernel form is (nv, tails, heads): edge e runs tails[e] ->
heads[e] between vertex indices 0..nv-1, and subsets travel as bitmasks
over those indices.  The composition sums come from the one dynamic
program in _engine, and the lower halves from its walk over unions of
down-sets; takeuchi_terms gives the antipode's terms cancellation-free,
folding only along weakly connected blocks.

count_monotone_maps is the one brute-force walk: it visits the vertices
in index order, each taking every value in the interval its earlier
neighbours leave it, and shares no code with the engine.  Only the
strict and weak coloring counts (invariants.brute_strict and brute_weak)
call it.  Through them it also gives the cone's direction counts and
the dilated edge-order polytope's lattice points, which are monotone
maps into a chain of d + 1 values (closed) or d - 1 (interior,
strictly).  The lattice points and the colorings thus come from one
walk, so criterion 7 also compares the lattice points with an itertools
enumeration of the dilated cube (oracle_dilation_points in
tests/conftest.py), a route sharing no code with this one.
"""

from __future__ import annotations

from . import _engine

chain_stats = _engine.chain_stats
takeuchi_terms = _engine.takeuchi_terms
character_sum = _engine.character_sum
surjection_stats = _engine.surjection_stats


def lower_half_masks(nv: int, tails: list[int], heads: list[int]) -> list[int]:
    """Masks S with no edge entering S from outside, in increasing order.

    The walk is the composition sums' own, metered the same way: it stops
    one half past what the work budget admits, refused as a lower-half
    search.
    """
    # a def, not an alias of an _engine function, so that wrapping this
    # public name (as perfbench's tracer does) leaves the engine's own calls
    # unwrapped
    return _engine._lattice(nv, tails, heads, "lower-half search")


def count_monotone_maps(nv: int, tails: list[int], heads: list[int],
                        values: int, strict: bool) -> int:
    """Maps from the vertices into a chain of `values` integers, rising along edges.

    They rise strictly along every edge when `strict` holds, else weakly.
    The empty map counts once, whatever `values` is.  The walk visits the
    vertices in index order; each takes every value from the largest value
    of an earlier vertex with an edge into it up to the smallest of an
    earlier vertex it has an edge into (one past each, when strict).  The
    last vertex adds its interval's length, and an empty interval adds 0.
    The walk is a loop, not a recursion, so it takes any number of
    vertices: a vertex out of values backs up to the nearest earlier one
    with a value left.
    """
    if nv == 0:
        return 1
    below: list[list[int]] = [[] for _ in range(nv)]   # earlier tails of edges into i
    above: list[list[int]] = [[] for _ in range(nv)]   # earlier heads of edges from i
    for t, h in zip(tails, heads):
        if t < h:
            below[h].append(t)
        else:
            above[t].append(h)
    step = 1 if strict else 0
    last = nv - 1
    color = [0] * nv
    top = [0] * nv   # the largest value vertex i takes, given the earlier ones
    total = 0
    i = 0
    while True:
        lo = 0
        for j in below[i]:
            if color[j] + step > lo:
                lo = color[j] + step
        hi = values - 1
        for j in above[i]:
            if color[j] - step < hi:
                hi = color[j] - step
        if i < last and lo <= hi:
            color[i], top[i] = lo, hi
            i += 1
            continue
        if i == last:
            total += max(hi - lo + 1, 0)
        # back up to the nearest earlier vertex with a value left, and give it the next
        i -= 1
        while i >= 0 and color[i] == top[i]:
            i -= 1
        if i < 0:
            return total
        color[i] += 1
        i += 1
