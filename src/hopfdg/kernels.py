"""The kernels: composition sums and enumeration counts on graphs in kernel form.

A graph in kernel form is (nv, tails, heads): edge e runs tails[e] ->
heads[e] between vertex indices 0..nv-1, and subsets travel as bitmasks
over those indices.  The composition sums come from the one dynamic
program in _engine, and the lower halves from its walk over unions of
down-sets; takeuchi_terms gives the antipode's terms cancellation-free,
folding only along weakly connected blocks.

count_monotone_maps is the one brute-force walk: it tries every value at
every vertex, in index order, and shares no code with the engine.  The
strict and weak coloring counts read it, and so do the cone's direction
counts (on the reversed edges) and the dilated edge-order polytope's
lattice points, which are monotone maps into a chain of d + 1 values
(closed) or d - 1 (interior, strictly).  The lattice points and the
colorings thus come from one walk, so criterion 7 also compares the
lattice points with an itertools enumeration of the dilated cube
(oracle_dilation_points in tests/conftest.py), a route sharing no code
with this one.
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
    The empty map counts once, whatever `values` is.
    """
    if nv == 0:
        return 1
    if values <= 0:
        return 0
    back: list[list[tuple[int, bool]]] = [[] for _ in range(nv)]
    for e in range(len(tails)):
        t, h = tails[e], heads[e]
        if t < h:
            back[h].append((t, True))
        else:
            back[t].append((h, False))

    color = [0] * nv

    def walk(i: int) -> int:
        if i == nv:
            return 1
        total = 0
        for c in range(values):
            ok = True
            for j, forward in back[i]:
                cj = color[j]
                if forward:
                    good = cj < c if strict else cj <= c
                else:
                    good = c < cj if strict else c <= cj
                if not good:
                    ok = False
                    break
            if ok:
                color[i] = c
                total += walk(i + 1)
        return total

    return walk(0)
