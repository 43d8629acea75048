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
      along the edges is exactly a chain of lower halves.  Its entries
      are keyed (k, asc + desc), each one int holding the counts of every
      asc in fixed-width slots, so a step moves them all in one shift.

A lower half is a union of down-sets, the down-set of v being v and
every vertex with a path to v.  _walk_halves yields each lower half once,
adding one distinct down-set at a time to the halves it has found, so
each half it takes probes every distinct down-set;
hopfdg.kernels.lower_half_masks exposes the metered walk, _lattice.  The
sums over blocks read two edge masks per state (_edge_masks), never a
table over all subsets.

The fold visits the states in order of size.  A state's accumulator is
complete once every state below it has been visited; it is then pushed
into every state nested above it, in one call to the sum's push, and
dropped, since no later state reads it.  Only the accumulators of states
not yet visited are alive.

One meter gates every sum: the work is counted while it is done, and
hopfdg.limits refuses the sum once the count passes the work budget, so
a refusal comes after at most one budget of work and before any output.
The walk is charged its probes and stops one half past what the budget
admits.  The fold charges each state, before it pushes, the states its
row scans plus one per push and one per entry each push walks, one
entry per key (for surjection_stats, per (k, asc + desc)).  The last
accumulator is the output, so the meter caps the antipode's terms too.
Up front only what a lower bound proves is refused, both in
surjection_stats: its 3^n - 2^n steps each walk an entry, so that count
against the budget also bounds its 2^n states and their edge masks; and
each state S carries at least max(|S|, 1) entries, one per block count,
so the fold's charge with that floor is a lower bound of its work.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import Any, Callable, Iterable, Iterator

from . import limits


def _down_sets(nv: int, tails: list[int], heads: list[int]) -> list[int]:
    """down[v]: v and every vertex with a path to v, by Warshall on bit rows."""
    down = [1 << v for v in range(nv)]
    for t, h in zip(tails, heads):
        down[h] |= 1 << t
    for k in range(nv):
        bit, row = 1 << k, down[k]
        for v in range(nv):
            if down[v] & bit:
                down[v] |= row
    return down


def _walk_halves(downs: set[int]) -> Iterator[int]:
    """Each lower half once, breadth first from the empty set.

    downs holds the distinct down-sets.  A lower half is the union of the
    down-sets of its vertices, so adding one distinct down-set at a time
    reaches every lower half from 0.
    """
    seen = {0}
    queue = [0]
    yield 0
    for low in queue:   # the queue grows while it is read
        for down in downs:
            high = low | down
            if high not in seen:
                seen.add(high)
                queue.append(high)
                yield high


def _lattice(nv: int, tails: list[int], heads: list[int],
             what: str) -> tuple[list[int], int, int]:
    """The lower halves in increasing order, the work budget and the walk's work.

    Each half taken is charged one probe per distinct down-set, so the
    walk stops one half past what the budget admits; its refusal names
    the caller's work, `what` over at least N lower halves.
    """
    downs = set(_down_sets(nv, tails, heads))
    probes = max(len(downs), 1)   # the empty graph has no down-sets
    budget = limits.work_budget()
    halves = list(islice(_walk_halves(downs), max(budget // probes + 1, 0)))
    work = len(halves) * probes
    if work > budget:
        limits.refuse_work(f"{what} over at least {len(halves)} lower halves",
                           work, budget)
    halves.sort()
    return halves, budget, work


def _edge_masks(nv: int, tails: list[int], heads: list[int],
                states: Iterable[int]) -> tuple[dict[int, int], dict[int, int]]:
    """out[S], the edges with their tail in S, and into[S], those with their head in S.

    Every edge has one tail and one head, so for states low < high the
    block high ^ low keeps (out[high] ^ out[low]) & (into[high] ^ into[low]).
    """
    tail_at, head_at = [0] * nv, [0] * nv
    for e, (t, h) in enumerate(zip(tails, heads)):
        tail_at[t] |= 1 << e
        head_at[h] |= 1 << e
    out, into = {0: 0}, {0: 0}
    for s in states:
        o, i, rest = 0, 0, s
        while rest not in out:   # drop lowest vertices down to a state seen before
            v = (rest & -rest).bit_length() - 1
            o |= tail_at[v]
            i |= head_at[v]
            rest &= rest - 1
        out[s], into[s] = o | out[rest], i | into[rest]
    return out, into


def _fold(nv: int, states: Iterable[int],
          push: Callable[[dict, dict, int, list[int]], None],
          budget: int, work: int = 0) -> tuple[dict, int]:
    """Accumulator of the full set, from the unit {0: 1} at the empty set, and the work.

    states lists every state in increasing order, the empty and the full
    set included; the fold visits them by size.  push(acc, source, low,
    highs) adds source, the accumulator of state low, to the accumulator
    acc[high] of every state high in highs, each extended by the block
    high ^ low; a state not yet in acc starts empty.  The count starts at
    work: before a state pushes, it is charged the states its row scans,
    plus one per push and one per entry of source per push.  Once the
    count passes budget, hopfdg.limits refuses the sum.
    """
    states = sorted(states, key=int.bit_count)
    full = (1 << nv) - 1
    member = set(states)
    acc: dict[int, dict] = {0: {0: 1}}
    count = len(states)
    for i in range(count - 1):   # the full set, last, pushes nothing
        low = states[i]
        source = acc.pop(low)
        rest = full ^ low
        scan = 1 << rest.bit_count()
        if scan <= count - i:
            # fewer subsets of the complement than states still to visit
            highs = []
            block = rest
            while block:
                if low | block in member:
                    highs.append(low | block)
                block = (block - 1) & rest
        else:
            scan = count - i
            highs = [high for high in states[i + 1:] if not low & ~high]
        work += scan + len(highs) * (1 + len(source))
        if work > budget:
            limits.refuse_work(f"composition sum over {nv} vertices", work, budget)
        push(acc, source, low, highs)
    return acc.pop(full), work


def chain_stats(nv: int, tails: list[int], heads: list[int]) -> dict[tuple[int, int], int]:
    """Histogram over compositions whose prefixes are all lower halves.

    Key (k, kept) counts such compositions into k blocks that keep `kept`
    edges inside single blocks.  The empty graph gives {(0, 0): 1}.
    """
    halves, budget, work = _lattice(nv, tails, heads, "composition sum")
    out, into = _edge_masks(nv, tails, heads, halves)
    shift = nv.bit_length()   # keys pack k + (kept << shift)

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        out_low, into_low = out[low], into[low]
        for high in highs:
            kept = (out[high] ^ out_low) & (into[high] ^ into_low)
            delta = 1 + (kept.bit_count() << shift)
            target = acc.get(high)
            if target is None:
                acc[high] = {key + delta: cnt for key, cnt in source.items()}
                continue
            get = target.get
            for key, cnt in source.items():
                key += delta
                target[key] = get(key, 0) + cnt

    packed, _ = _fold(nv, halves, push, budget, work)
    mask = (1 << shift) - 1
    return {(key & mask, key >> shift): cnt for key, cnt in packed.items()}


def takeuchi_terms(nv: int, tails: list[int], heads: list[int]) -> dict[int, int]:
    """Signed counts of kept-edge masks over the same compositions.

    A composition into k blocks adds (-1)^k at the mask of the edges inside
    its blocks.  Zero coefficients are dropped; the empty graph gives {0: 1}.
    """
    halves, budget, work = _lattice(nv, tails, heads, "composition sum")
    out, into = _edge_masks(nv, tails, heads, halves)

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        out_low, into_low = out[low], into[low]
        live = [(mask, coeff) for mask, coeff in source.items() if coeff]
        for high in highs:
            # distinct masks may meet once the kept edges are added, so the
            # target is summed into even when it starts empty
            kept = (out[high] ^ out_low) & (into[high] ^ into_low)
            target = acc.get(high)
            if target is None:
                target = acc[high] = {}
            get = target.get
            for mask, coeff in live:
                mask |= kept
                target[mask] = get(mask, 0) - coeff

    terms, _ = _fold(nv, halves, push, budget, work)
    return {mask: coeff for mask, coeff in terms.items() if coeff}


def character_sum(nv: int, tails: list[int], heads: list[int],
                  block_value: Callable[[int], Any]) -> dict[int, Any]:
    """Ring-valued sum over the same compositions, by block count.

    Entry k sums, over compositions into k blocks, the product of
    block_value(T) over the blocks T (vertex masks), multiplied in block
    order.
    block_value is called once per block.  The empty graph gives {0: 1}.
    """
    halves, budget, work = _lattice(nv, tails, heads, "composition sum")
    values: dict[int, Any] = {}

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        for high in highs:
            block = high ^ low
            if block not in values:
                values[block] = block_value(block)
            z = values[block]
            target = acc.get(high)
            if target is None:
                acc[high] = {k + 1: val * z for k, val in source.items()}
                continue
            for k, val in source.items():
                target[k + 1] = target.get(k + 1, 0) + val * z

    return _fold(nv, halves, push, budget, work)[0]


def surjection_stats(nv: int, tails: list[int],
                     heads: list[int]) -> dict[tuple[int, int, int], int]:
    """Counts of surjections onto {1..k} by edge statistics.

    Key (k, asc, desc) counts maps from the nv vertices onto k values with
    asc edges increasing strictly, desc decreasing strictly; the remaining
    edges are level.  k ranges over 1..nv (empty for nv = 0).  The value
    classes, in increasing order, are the blocks of an ordered composition
    into arbitrary subsets.

    The fold keys its entries by (k, asc + desc), the block count and the
    crossing edges, and packs the counts of every asc under one key into
    one int, slot asc of `slot` bits each; a push shifts the int left by
    the block's rising edges, moving every asc at once.
    """
    # each of the 3^n - 2^n steps walks at least one entry, which also
    # bounds the 2^n states and their edge masks
    budget = limits.check_work(f"surjection scan over {nv} vertices", 3 ** nv - 2 ** nv)
    # each state S scans the 2^(n - |S|) subsets of its complement, pushes
    # into all but the empty one and carries an entry for every block count
    # 1..|S|: the fold's own charge on that floor is a lower bound of its work
    floor = 0
    for size in range(nv):
        above = 1 << nv - size
        floor += comb(nv, size) * (above + (above - 1) * (1 + max(size, 1)))
    if floor > budget:
        limits.refuse_work(f"composition sum over {nv} vertices", floor, budget)
    if nv == 0:
        return {}
    out, into = _edge_masks(nv, tails, heads, range(1 << nv))
    shift = nv.bit_length()             # keys pack k + (crossing << shift)
    slot = (nv ** nv).bit_length()      # no count reaches n^n

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        out_low, into_low = out[low], into[low]
        for high in highs:
            # edges from the earlier values into the block rise; those back out of it fall
            block = high ^ low
            asc = (out_low & into[block]).bit_count()
            delta = 1 + ((asc + (out[block] & into_low).bit_count()) << shift)
            up = asc * slot
            target = acc.get(high)
            if target is None:
                acc[high] = {key + delta: val << up for key, val in source.items()}
                continue
            get = target.get
            for key, val in source.items():
                key += delta
                target[key] = get(key, 0) + (val << up)

    packed, _ = _fold(nv, range(1 << nv), push, budget)
    mask, ones = (1 << shift) - 1, (1 << slot) - 1
    stats = {}
    for key, val in packed.items():
        k, crossing = key & mask, key >> shift
        asc = 0
        while val:
            if val & ones:
                stats[k, asc, crossing - asc] = val & ones
            val >>= slot
            asc += 1
    return stats
