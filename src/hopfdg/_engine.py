"""One dynamic program for every sum over ordered set compositions.

A composition (T_1, ..., T_k) of the vertex set is a chain of states
0 = S_0 < S_1 < ... < S_k = V with T_j = S_j - S_{j-1}.  Every sum here
folds a value along such chains:

  chain_stats, takeuchi_terms, character_sum
      the states are the lower halves (no edge enters S from outside), so
      the work is one step per nested pair of lower halves;
  surjection_stats
      the states are all subsets, 3^n steps, and the lower halves play no
      part.  Only the b-polynomial needs it: every other invariant of the
      colorings reads chain_stats, since a coloring weakly increasing
      along the edges is exactly a chain of lower halves.

The lower halves come from one table, inpred[S], the tails of the edges
into S, built in O(2^n) by a lowest-bit recurrence: S is a lower half
exactly when inpred[S] lies inside S.  _lower_halves is the only scan for
them in the package; hopfdg.kernels.lower_half_masks exposes it.  The
sums over blocks read a second pair of tables built the same way:
inside[S], the mask of edges with both ends in S, and into[S], the edges
with their head in S.  The edges a block T keeps are inside[T].

Each sum first asks hopfdg.limits for tables of at most SUBSET_BOUND
vertices and for its steps within the work budget: L(L+1)/2 over L
lower halves, a bound on the nested pairs taken right after the 2^n
scan, and over all subsets a bound on the accumulator entries the fold
walks (_surjection_work), since each of the 3^n steps walks a whole
accumulator.

The fold visits the states in order of size.  A state's accumulator is
complete once every state below it has been visited; it is then pushed
into every state nested above it and dropped, since no later state reads
it.  Only the accumulators of states not yet visited are alive.
"""

from __future__ import annotations

from math import comb
from typing import Any, Callable, Iterable

from . import limits


def _lower_halves(nv: int, tails: list[int], heads: list[int]) -> list[int]:
    """Masks S with no edge entering S from outside, in increasing order."""
    pred = [0] * nv      # tails of the edges into each vertex
    for t, h in zip(tails, heads):
        pred[h] |= 1 << t
    size = 1 << nv
    inpred = [0] * size
    for s in range(1, size):
        low = s & -s
        inpred[s] = inpred[s ^ low] | pred[low.bit_length() - 1]
    return [s for s in range(size) if not inpred[s] & ~s]


def _lattice(nv: int, tails: list[int], heads: list[int]) -> list[int]:
    """The lower halves, once the tables and the fold over them fit the limits."""
    limits.check_size("composition sum", nv, limits.SUBSET_BOUND)
    halves = _lower_halves(nv, tails, heads)
    count = len(halves)
    limits.check_work(f"composition sum over {count} lower halves",
                      count * (count + 1) // 2)
    return halves


def _edge_tables(nv: int, tails: list[int], heads: list[int]) -> tuple[list[int], list[int]]:
    """inside (edges with both ends in S) and into (edges with their head in S)."""
    at = [0] * nv        # edges touching each vertex
    ending = [0] * nv    # edges whose head is the vertex
    for e, (t, h) in enumerate(zip(tails, heads)):
        bit = 1 << e
        at[t] |= bit
        at[h] |= bit
        ending[h] |= bit
    size = 1 << nv
    inside = [0] * size
    touching = [0] * size
    into = [0] * size
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        r = s ^ low
        # an edge at v that also touches r has its other end in r
        inside[s] = inside[r] | (at[v] & touching[r])
        touching[s] = touching[r] | at[v]
        into[s] = into[r] | ending[v]
    return inside, into


def _fold(nv: int, states: Iterable[int],
          step: Callable[[dict, dict, int, int], None]) -> dict:
    """Accumulator of the full set, from the unit {0: 1} at the empty set.

    states lists every state in increasing order, the empty and the full
    set included; the fold visits them by size.  step(target, source,
    low, block) adds to target the contribution of source, the accumulator
    of state low, extended by the block that leads to the state low | block.
    """
    states = sorted(states, key=int.bit_count)
    full = (1 << nv) - 1
    member = bytearray(1 << nv)
    for s in states:
        member[s] = 1
    acc: dict[int, dict] = {0: {0: 1}}
    count = len(states)
    for i in range(count - 1):   # the full set, last, pushes nothing
        low = states[i]
        source = acc.pop(low)
        rest = full ^ low
        if 1 << rest.bit_count() <= count - i:
            # fewer subsets of the complement than states still to visit
            highs = []
            block = rest
            while block:
                if member[low | block]:
                    highs.append(low | block)
                block = (block - 1) & rest
        else:
            highs = [high for high in states[i + 1:] if not low & ~high]
        for high in highs:
            target = acc.get(high)
            if target is None:
                target = acc[high] = {}
            step(target, source, low, high ^ low)
    return acc.pop(full)


def chain_stats(nv: int, tails: list[int], heads: list[int]) -> dict[tuple[int, int], int]:
    """Histogram over compositions whose prefixes are all lower halves.

    Key (k, kept) counts such compositions into k blocks that keep `kept`
    edges inside single blocks.  The empty graph gives {(0, 0): 1}.
    """
    halves = _lattice(nv, tails, heads)
    inside, _ = _edge_tables(nv, tails, heads)
    shift = nv.bit_length()   # keys pack k + (kept << shift)

    def step(target: dict, source: dict, low: int, block: int) -> None:
        delta = 1 + (inside[block].bit_count() << shift)
        get = target.get
        for key, cnt in source.items():
            key += delta
            target[key] = get(key, 0) + cnt

    packed = _fold(nv, halves, step)
    mask = (1 << shift) - 1
    return {(key & mask, key >> shift): cnt for key, cnt in packed.items()}


def takeuchi_terms(nv: int, tails: list[int], heads: list[int]) -> dict[int, int]:
    """Signed counts of kept-edge masks over the same compositions.

    A composition into k blocks adds (-1)^k at the mask of the edges inside
    its blocks.  Zero coefficients are dropped; the empty graph gives {0: 1}.
    """
    halves = _lattice(nv, tails, heads)
    inside, _ = _edge_tables(nv, tails, heads)

    def step(target: dict, source: dict, low: int, block: int) -> None:
        kept = inside[block]
        get = target.get
        for mask, coeff in source.items():
            if coeff:
                mask |= kept
                target[mask] = get(mask, 0) - coeff

    terms = _fold(nv, halves, step)
    return {mask: coeff for mask, coeff in terms.items() if coeff}


def character_sum(nv: int, tails: list[int], heads: list[int],
                  block_value: Callable[[int], Any]) -> dict[int, Any]:
    """Ring-valued sum over the same compositions, by block count.

    Entry k sums, over compositions into k blocks, the product of
    block_value(T) over the blocks T (vertex masks), multiplied in block
    order.
    block_value is called once per block.  The empty graph gives {0: 1}.
    """
    halves = _lattice(nv, tails, heads)
    values: dict[int, Any] = {}

    def step(target: dict, source: dict, low: int, block: int) -> None:
        if block not in values:
            values[block] = block_value(block)
        z = values[block]
        for k, val in source.items():
            target[k + 1] = target.get(k + 1, 0) + val * z

    return _fold(nv, halves, step)


def _surjection_work(nv: int, tails: list[int], heads: list[int]) -> int:
    """Bound on the accumulator entries surjection_stats walks.

    A state S of s vertices pushes its accumulator into at most 2^(n-s)
    states above it.  Its keys (k, asc, desc) have k <= s and
    asc + desc <= e, the number of edges inside S, so there are at most
    s(e+1)(e+2)/2 of them; the empty state holds one.  Over the states of
    size s, the sums of e and e^2 count the edges and the ordered pairs of
    edges inside them: a pair whose ends are u vertices lies inside
    C(n-u, s-u) states of size s.
    """
    m = len(tails)
    degree = [0] * nv
    spans: dict[tuple[int, int], int] = {}
    for t, h in zip(tails, heads):
        degree[t] += 1
        degree[h] += 1
        span = (t, h) if t < h else (h, t)
        spans[span] = spans.get(span, 0) + 1
    same = sum(c * c for c in spans.values())       # pairs on the same two ends
    shared = sum(d * d for d in degree) - 2 * same   # pairs on three ends
    apart = m * m - same - shared                    # pairs on four ends
    total = 1 << nv
    for s in range(1, nv + 1):
        on2, on3, on4 = (comb(nv - u, s - u) if s >= u else 0 for u in (2, 3, 4))
        squares = same * on2 + shared * on3 + apart * on4
        total += (1 << nv - s) * s * (squares + 3 * m * on2 + 2 * comb(nv, s)) // 2
    return total


def surjection_stats(nv: int, tails: list[int],
                     heads: list[int]) -> dict[tuple[int, int, int], int]:
    """Counts of surjections onto {1..k} by edge statistics.

    Key (k, asc, desc) counts maps from the nv vertices onto k values with
    asc edges increasing strictly, desc decreasing strictly; the remaining
    edges are level.  k ranges over 1..nv (empty for nv = 0).  The value
    classes, in increasing order, are the blocks of an ordered composition
    into arbitrary subsets.
    """
    limits.check_size("composition sum", nv, limits.SUBSET_BOUND)
    limits.check_work(f"surjection scan over {nv} vertices",
                      _surjection_work(nv, tails, heads))
    if nv == 0:
        return {}
    inside, into = _edge_tables(nv, tails, heads)
    width = max(nv, len(tails)).bit_length()   # keys pack k, asc, desc

    def step(target: dict, source: dict, low: int, block: int) -> None:
        # edges between the earlier values and the block rise into it or fall out of it
        cross = inside[low | block] ^ inside[low] ^ inside[block]
        asc = (cross & into[block]).bit_count()
        delta = 1 + (asc << width) + ((cross.bit_count() - asc) << 2 * width)
        get = target.get
        for key, cnt in source.items():
            key += delta
            target[key] = get(key, 0) + cnt

    packed = _fold(nv, range(1 << nv), step)
    mask = (1 << width) - 1
    return {(key & mask, key >> width & mask, key >> 2 * width): cnt
            for key, cnt in packed.items()}
