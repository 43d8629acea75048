"""One dynamic program for every sum over ordered set compositions.

A composition (T_1, ..., T_k) of the vertex set is a chain of states
0 = S_0 < S_1 < ... < S_k = V with T_j = S_j - S_{j-1}.  Every sum here
folds a value along such chains:

  chain_stats, takeuchi_terms, character_sum
      the states are the lower halves (no edge enters S from outside), so
      the work is one step per nested pair of lower halves;
  surjection_stats
      the states are all subsets, 3^n steps, and the lower halves play no
      part: this route stays independent of the three above.

The lower halves come from one table, inpred[S], the tails of the edges
into S, built in O(2^n) by a lowest-bit recurrence: S is a lower half
exactly when inpred[S] lies inside S.  _lower_halves is the only scan for
them in the package; hopfdg.kernels.lower_half_masks exposes it.  The
sums over blocks read a second pair of tables built the same way:
inside[S], the mask of edges with both ends in S, and into[S], the edges
with their head in S.  The edges a block T keeps are inside[T].

The fold visits the states in order of size.  A state's accumulator is
complete once every state below it has been visited; it is then pushed
into every state nested above it and dropped, since no later state reads
it.  Only the accumulators of states not yet visited are alive.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .errors import SizeLimitError

MAX_KERNEL_VERTICES = 16


def _check_size(nv: int) -> None:
    if nv > MAX_KERNEL_VERTICES:
        raise SizeLimitError(f"kernel limited to {MAX_KERNEL_VERTICES} vertices, got {nv}")


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
    _check_size(nv)
    inside, _ = _edge_tables(nv, tails, heads)
    shift = nv.bit_length()   # keys pack k + (kept << shift)

    def step(target: dict, source: dict, low: int, block: int) -> None:
        delta = 1 + (inside[block].bit_count() << shift)
        get = target.get
        for key, cnt in source.items():
            key += delta
            target[key] = get(key, 0) + cnt

    packed = _fold(nv, _lower_halves(nv, tails, heads), step)
    mask = (1 << shift) - 1
    return {(key & mask, key >> shift): cnt for key, cnt in packed.items()}


def takeuchi_terms(nv: int, tails: list[int], heads: list[int]) -> dict[int, int]:
    """Signed counts of kept-edge masks over the same compositions.

    A composition into k blocks adds (-1)^k at the mask of the edges inside
    its blocks.  Zero coefficients are dropped; the empty graph gives {0: 1}.
    """
    _check_size(nv)
    inside, _ = _edge_tables(nv, tails, heads)

    def step(target: dict, source: dict, low: int, block: int) -> None:
        kept = inside[block]
        get = target.get
        for mask, coeff in source.items():
            if coeff:
                mask |= kept
                target[mask] = get(mask, 0) - coeff

    terms = _fold(nv, _lower_halves(nv, tails, heads), step)
    return {mask: coeff for mask, coeff in terms.items() if coeff}


def character_sum(nv: int, tails: list[int], heads: list[int],
                  block_value: Callable[[int], Any]) -> dict[int, Any]:
    """Ring-valued sum over the same compositions, by block count.

    Entry k sums, over compositions into k blocks, the product of
    block_value(T) over the blocks T (vertex masks), multiplied in block
    order.
    block_value is called once per block.  The empty graph gives {0: 1}.
    """
    _check_size(nv)
    values: dict[int, Any] = {}

    def step(target: dict, source: dict, low: int, block: int) -> None:
        if block not in values:
            values[block] = block_value(block)
        z = values[block]
        for k, val in source.items():
            target[k + 1] = target.get(k + 1, 0) + val * z

    return _fold(nv, _lower_halves(nv, tails, heads), step)


def surjection_stats(nv: int, tails: list[int],
                     heads: list[int]) -> dict[tuple[int, int, int], int]:
    """Counts of surjections onto {1..k} by edge statistics.

    Key (k, asc, desc) counts maps from the nv vertices onto k values with
    asc edges increasing strictly, desc decreasing strictly; the remaining
    edges are level.  k ranges over 1..nv (empty for nv = 0).  The value
    classes, in increasing order, are the blocks of an ordered composition
    into arbitrary subsets.
    """
    _check_size(nv)
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
