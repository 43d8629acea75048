"""The kernels: composition sums and enumeration counts on graphs in kernel form.

A graph in kernel form is (nv, tails, heads): edge e runs tails[e] ->
heads[e] between vertex indices 0..nv-1, and subsets travel as bitmasks
over those indices.  The composition sums come from the one dynamic
program in _engine, and the lower halves from its walk over unions of
down-sets.  The counts of colorings and of lattice points walk the
coordinates directly; they are the brute-force route the polynomial
invariants are checked against, so they share no code with the engine.
"""

from __future__ import annotations

from . import _engine

chain_stats = _engine.chain_stats
takeuchi_terms = _engine.takeuchi_terms
character_sum = _engine.character_sum
surjection_stats = _engine.surjection_stats


def lower_half_masks(nv: int, tails: list[int], heads: list[int]) -> list[int]:
    """Masks S with no edge entering S from outside, in increasing order."""
    # a def, not an alias of an _engine function, so that wrapping this
    # public name (as perfbench's tracer does) leaves the engine's own calls
    # unwrapped
    return sorted(_engine._walk_halves(nv, tails, heads))


def count_strict_colorings(nv: int, tails: list[int], heads: list[int], n: int) -> int:
    """Maps f from vertices to {1..n} with f strictly increasing along edges."""
    return _count_colorings(nv, tails, heads, n, True)


def count_weak_colorings(nv: int, tails: list[int], heads: list[int], n: int) -> int:
    """Maps f from vertices to {1..n} with f weakly increasing along edges."""
    return _count_colorings(nv, tails, heads, n, False)


def _count_colorings(nv: int, tails: list[int], heads: list[int],
                     n: int, strict: bool) -> int:
    if nv == 0:
        return 1  # the empty map
    if n <= 0:
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
        for c in range(n):
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


def count_dilation_points(nv: int, tails: list[int], heads: list[int],
                          dilation: int, interior: bool) -> int:
    """Lattice points of the dilated edge-order polytope.

    Closed: coordinates in [0, dilation] with x(tail) <= x(head) per edge.
    Interior: coordinates in (0, dilation) with strict edge inequalities.
    Negative dilation counts zero points even for the empty vertex set.
    The walk is kept apart from the coloring walk on purpose: the tests
    compare the two.
    """
    if dilation < 0:
        return 0
    lo, hi = (1, dilation - 1) if interior else (0, dilation)
    if nv and lo > hi:
        return 0
    back: list[list[tuple[int, bool]]] = [[] for _ in range(nv)]
    for e in range(len(tails)):
        t, h = tails[e], heads[e]
        if t < h:
            back[h].append((t, True))
        else:
            back[t].append((h, False))

    coord = [0] * nv
    strict = interior

    def walk(i: int) -> int:
        if i == nv:
            return 1
        total = 0
        for x in range(lo, hi + 1):
            ok = True
            for j, forward in back[i]:
                xj = coord[j]
                if forward:
                    good = xj < x if strict else xj <= x
                else:
                    good = x < xj if strict else x <= xj
                if not good:
                    ok = False
                    break
            if ok:
                coord[i] = x
                total += walk(i + 1)
        return total

    return walk(0)
