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

The lattice sums fold by pushing (_fold).  The fold visits the states
in order of size.  A state's accumulator is complete once every state
below it has been visited; it is then pushed into every state nested
above it that the sum's select keeps (all of them, without one), in one
call to the sum's push, and dropped, since no later state reads it.
Only the accumulators of states not yet visited are alive, which keeps
the antipode's fold to the terms of the lower halves still ahead.

surjection_stats folds all subsets by pulling instead.  It visits a
component's subsets in increasing order, so each comes after its own
subsets.  A nonempty subset S starts from the empty set's term, one
block and no crossing edge, and adds the finished histogram of each
other proper subset T, extended by the block S - T, in one loop that
looks up no target: a push there would find or make a target per pair.
Every histogram is kept to the end, since the full set reads them all.

takeuchi_terms folds the antipode without cancellation.  Its terms are
the partitions of the vertices into weakly connected induced blocks
with an acyclic quotient, each the edges inside its blocks with sign
(-1)^blocks (Humpert and Martin; Benedetti and Sagan).  Such a
partition of a lower half S has a sink block B, and S - B is a lower
half; a term of S - B with a weakly connected block B added is a term
of S with the opposite sign.  So the accumulator of S is the antipode
of the graph induced on S when each state pushes only into the states
above it whose block is weakly connected.  Each block is decided by one
search over bits, from one neighbour mask per vertex built once per
call; nothing is kept between searches, so they hold no memory the
meter does not count.  A mask reached again, through another sink
block of the same partition, carries the same sign, so the push assigns
each entry's sign where the signed sum would add: no coefficient
cancels and none is 0.

A disjoint union factors.  The lower halves of g1 + g2 are the unions of
a lower half of each part, and the edges of a block are those of its two
parts, so chain_stats, surjection_stats and takeuchi_terms fold each
weakly connected component on its own, in the graph's own vertex and
edge numbering, and combine the results (_merge, _product).  Every
component takes the same walk and fold, an isolated vertex too, and a
connected graph is one component.  character_sum keeps one fold over
the whole lattice, since its block_value need not be multiplicative.

One meter gates every sum (_Meter): it reads the work budget once, the
work is counted while it is done, and hopfdg.limits refuses the sum once
the count passes the budget, so a refusal comes before any output.
Every charge goes through _Meter.charge but the walk's: each walk reads
the room the budget leaves it, is charged its probes and stops one half
past that room.  The fold charges each state, before it pushes, the
states its row scans plus one per push made, after select, and one per
entry each push walks, one entry per key.  So takeuchi_terms is charged
its connected blocks alone: each entry it walks is a term of some lower
half's antipode.  surjection_stats charges each subset S, once its
pulls are done and before it is stored, its 2^|S| subsets scanned, plus
one per pair and one per entry read, one entry per (k, asc + desc).
Those are the totals a push from each subset into the subsets above it
would be charged, the scans summing to 3^n - 1 either way; so its
refusal comes after at most one budget plus one subset's pulls, where
every other refusal comes after at most one budget of work.  Each merge
of two histograms is charged its pairs of entries, and the product of
the components' antipodes its partial products' terms, before the work
is done; so the meter caps the antipode's terms too.  Up front only
what a lower bound proves is refused: in surjection_stats each subset S
of a component carries at least max(|S|, 1) entries, one per block
count, and a histogram over N vertices at least N, so the pulls' and
merges' charges with that floor bound the sum's work from below.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from math import comb
from typing import Any, Callable, Iterable, Iterator, NoReturn

from . import limits


class _Meter:
    """The work of one composition sum over nv vertices, against one budget.

    The budget is read once, when the sum starts; count is the work
    charged so far.
    """

    __slots__ = ("nv", "budget", "count")

    def __init__(self, nv: int) -> None:
        self.nv = nv
        self.budget = limits.work_budget()
        self.count = 0

    def charge(self, work: int) -> None:
        """Count work about to be done; refuse the sum once the count passes the budget."""
        self.count += work
        if self.count > self.budget:
            self.refuse(self.count)

    def refuse(self, work: int) -> NoReturn:
        limits.refuse_work(f"composition sum over {self.nv} vertices", work, self.budget)


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


def _components(nv: int, downs: set[int]) -> list[int]:
    """The weakly connected components, as vertex masks, from the distinct down-sets.

    Each edge lies inside the down-set of its head, and each down-set is
    weakly connected, all of it reaching one vertex; so a component is a
    union of down-sets linked by overlaps.  A full down-set shows a
    connected graph at once.
    """
    full = (1 << nv) - 1
    if full in downs:
        return [full]
    comps: list[int] = []
    for down in downs:
        apart = []
        for comp in comps:
            if comp & down:
                down |= comp
            else:
                apart.append(comp)
        apart.append(down)
        comps = apart
    return comps


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


def _walk(meter: _Meter, downs: set[int], what: str) -> list[int]:
    """The unions of downs in increasing order, the walk charged to meter.

    Each half taken is charged one probe per distinct down-set, so the
    walk stops one half past what the budget leaves it; its refusal names
    the caller's work, `what` over at least N lower halves.
    """
    probes = max(len(downs), 1)   # the empty graph has no down-sets
    room = meter.budget - meter.count
    halves = list(islice(_walk_halves(downs), max(room // probes + 1, 0)))
    meter.count += len(halves) * probes
    if meter.count > meter.budget:
        limits.refuse_work(f"{what} over at least {len(halves)} lower halves",
                           meter.count, meter.budget)
    halves.sort()
    return halves


def _lattice(nv: int, tails: list[int], heads: list[int], what: str,
             meter: _Meter | None = None) -> list[int]:
    """The lower halves in increasing order, walked on meter (default: one of its own)."""
    return _walk(meter or _Meter(nv), set(_down_sets(nv, tails, heads)), what)


def _lattices(nv: int, tails: list[int], heads: list[int], meter: _Meter
              ) -> tuple[list[tuple[int, list[int]]], dict[int, int], dict[int, int]]:
    """(component, its lower halves) per weakly connected component, and the edge masks.

    An isolated vertex is a component like any other; a graph with no
    vertices is one component, the empty set.
    """
    downs = set(_down_sets(nv, tails, heads))
    parts = [(comp, _walk(meter, {down for down in downs if down & comp}, "composition sum"))
             for comp in _components(nv, downs) or [0]]
    return parts, *_edge_masks(nv, tails, heads, chain.from_iterable(h for _, h in parts))


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


def _fold(full: int, states: Iterable[int],
          push: Callable[[dict, dict, int, list[int]], None], meter: _Meter,
          select: Callable[[int, list[int]], list[int]] | None = None) -> dict:
    """Accumulator of full, from the unit {0: 1} at the empty set.

    The lattice sums' fold; the walk over all subsets pulls instead
    (surjection_stats).  states lists every state, subsets of full, the
    empty set and full included; the fold visits them by size.
    select(low, highs), when given, keeps the states above low that low
    pushes into, in order.
    push(acc, source, low, highs) adds source, the accumulator of state
    low, to the accumulator acc[high] of every state high in highs, each
    extended by the block high ^ low; a state not yet in acc starts
    empty.  Before a state pushes, meter.charge is given the states its
    row scans, plus one per push kept and one per entry of source per push
    kept, and refuses the sum once the count passes the budget.
    """
    states = sorted(states, key=int.bit_count)
    count = len(states)
    member = set(states)
    acc: dict[int, dict] = {0: {0: 1}}
    for i in range(count - 1):   # full, last, pushes nothing
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
        if select is not None:
            highs = select(low, highs)
        meter.charge(scan + len(highs) * (1 + len(source)))
        push(acc, source, low, highs)
    return acc.pop(full)


def _neighbours(nv: int, tails: list[int], heads: list[int]) -> list[int]:
    """Entry v: the vertices joined to v by an edge, either way, as a mask."""
    near = [0] * nv
    for t, h in zip(tails, heads):
        near[t] |= 1 << h
        near[h] |= 1 << t
    return near


def _is_connected(block: int, near: list[int]) -> bool:
    """Whether the vertex mask block is weakly connected, by a search over bits."""
    todo = block & -block
    unseen = block ^ todo
    while todo and unseen:
        bit = todo & -todo
        todo ^= bit
        new = near[bit.bit_length() - 1] & unseen
        unseen ^= new
        todo |= new
    return not unseen


@lru_cache(maxsize=None)
def _interleavings(a: int, b: int) -> tuple[int, ...]:
    """Entry j: the ways a composition into a blocks and one into b blocks
    interleave into k = a + b - j blocks, j of which hold a block of each:
    C(k, a) C(a, j)."""
    return tuple(comb(a + b - j, a) * comb(a, j) for j in range(min(a, b) + 1))


def _merge(left: dict[int, int], right: dict[int, int], mask: int,
           meter: _Meter) -> dict[int, int]:
    """The histogram of a disjoint union from those of its two parts.

    Keys pack the block count k in key & mask and a statistic that adds
    over the parts above it; values are counts, or packed counts whose
    product convolves a statistic that adds.  Charged one step per pair
    of entries.
    """
    meter.charge(len(left) * len(right))
    merged: dict[int, int] = {}
    get = merged.get
    for key_a, val_a in left.items():
        a = key_a & mask
        for key_b, val_b in right.items():
            key, val = key_a + key_b, val_a * val_b
            for j, ways in enumerate(_interleavings(a, key_b & mask)):
                merged[key - j] = get(key - j, 0) + val * ways
    return merged


def _merged(parts: list[dict[int, int]], mask: int, meter: _Meter) -> dict[int, int]:
    """The histogram of the disjoint union of the parts, merged left to right."""
    merged = parts[0]
    for part in parts[1:]:
        merged = _merge(merged, part, mask, meter)
    return merged


def _product(factors: list[dict[int, int]], meter: _Meter) -> dict[int, int]:
    """The antipode of a disjoint union from those of its parts.

    A term of each part gives one term: the edge masks, disjoint, OR and
    the coefficients multiply.  Charged, before any is built, the terms
    of every partial product, smallest factors first.
    """
    factors = sorted(factors, key=len)
    size = len(factors[0])
    work = 0
    for factor in factors[1:]:
        size *= len(factor)
        work += size
    meter.charge(work)
    terms = factors[0]
    for factor in factors[1:]:
        terms = {mask | other: coeff * c for mask, coeff in terms.items()
                 for other, c in factor.items()}
    return terms


def chain_stats(nv: int, tails: list[int], heads: list[int]) -> dict[tuple[int, int], int]:
    """Histogram over compositions whose prefixes are all lower halves.

    Key (k, kept) counts such compositions into k blocks that keep `kept`
    edges inside single blocks.  The empty graph gives {(0, 0): 1}.
    """
    meter = _Meter(nv)
    parts, out, into = _lattices(nv, tails, heads, meter)
    shift = nv.bit_length()   # keys pack k + (kept << shift)

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        out_low, into_low = out[low], into[low]
        for high in highs:
            kept = (out[high] ^ out_low) & (into[high] ^ into_low)
            delta = 1 + (kept.bit_count() << shift)
            target = acc.setdefault(high, {})
            get = target.get
            for key, cnt in source.items():
                key += delta
                target[key] = get(key, 0) + cnt

    mask = (1 << shift) - 1
    packed = _merged([_fold(comp, halves, push, meter) for comp, halves in parts], mask, meter)
    return {(key & mask, key >> shift): cnt for key, cnt in packed.items()}


def takeuchi_terms(nv: int, tails: list[int], heads: list[int]) -> dict[int, int]:
    """Signed counts of kept-edge masks over the same compositions.

    A composition into k blocks adds (-1)^k at the mask of the edges inside
    its blocks, and zero coefficients are dropped; the empty graph gives
    {0: 1}.  The same terms are computed cancellation-free: each mask
    comes once, from the chains whose blocks are weakly connected, with
    coefficient (-1)^(its weakly connected components).  Each block is
    decided by one search over the neighbour masks, built once per call.
    """
    meter = _Meter(nv)
    parts, out, into = _lattices(nv, tails, heads, meter)
    near = _neighbours(nv, tails, heads)

    def select(low: int, highs: list[int]) -> list[int]:
        """The highs whose block high ^ low is weakly connected."""
        return [high for high in highs if _is_connected(high ^ low, near)]

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        out_low, into_low = out[low], into[low]
        for high in highs:
            # kept lies outside low, so mask | kept stays distinct within
            # source; a mask met again, through another sink block, carries
            # the same sign, so it is assigned, not summed
            kept = (out[high] ^ out_low) & (into[high] ^ into_low)
            target = acc.setdefault(high, {})
            for mask, sign in source.items():
                target[mask | kept] = -sign

    return _product([_fold(comp, halves, push, meter, select) for comp, halves in parts], meter)


def character_sum(nv: int, tails: list[int], heads: list[int],
                  block_value: Callable[[int], Any]) -> dict[int, Any]:
    """Ring-valued sum over the same compositions, by block count.

    Entry k sums, over compositions into k blocks, the product of
    block_value(T) over the blocks T (vertex masks), multiplied in block
    order.
    block_value is called once per block.  The empty graph gives {0: 1}.
    """
    meter = _Meter(nv)
    halves = _lattice(nv, tails, heads, "composition sum", meter)
    values: dict[int, Any] = {}

    def push(acc: dict, source: dict, low: int, highs: list[int]) -> None:
        for high in highs:
            block = high ^ low
            if block not in values:
                values[block] = block_value(block)
            z = values[block]
            target = acc.setdefault(high, {})
            for k, val in source.items():
                target[k + 1] = target.get(k + 1, 0) + val * z

    return _fold((1 << nv) - 1, halves, push, meter)


def _surjection_floor(n: int) -> int:
    """A lower bound of the pull's charge over all subsets of n vertices.

    Summed by the subset read: each subset S but the full one is read by
    the 2^(n - |S|) - 1 subsets above it, one pair and at least one entry
    per block count 1..|S| each time (the empty set's one entry), and the
    scans, 2^|T| per nonempty T, sum to the 2^(n - |S|) per such S.
    """
    floor = 0
    for size in range(n):
        above = 1 << n - size
        floor += comb(n, size) * (above + (above - 1) * (1 + max(size, 1)))
    return floor


def _subsets(comp: int) -> list[int]:
    """Every subset of the vertex mask comp."""
    subsets = [0]
    while comp:
        bit = comp & -comp
        subsets += [s | bit for s in subsets]
        comp ^= bit
    return subsets


def surjection_stats(nv: int, tails: list[int],
                     heads: list[int]) -> dict[tuple[int, int, int], int]:
    """Counts of surjections onto {1..k} by edge statistics.

    Key (k, asc, desc) counts maps from the nv vertices onto k values with
    asc edges increasing strictly, desc decreasing strictly; the remaining
    edges are level.  k ranges over 1..nv (empty for nv = 0).  The value
    classes, in increasing order, are the blocks of an ordered composition
    into arbitrary subsets.

    Each component pulls: its subsets, in increasing order, each add up
    the finished histograms of their own subsets, extended by the block
    between.  The entries are keyed by (k, asc + desc), the block count
    and the crossing edges, and pack the counts of every asc under one
    key into one int, slot asc of `slot` bits each; a pull shifts the int
    left by the block's rising edges, moving every asc at once.  The
    components' histograms merge with the same slots: a product of packed
    ints adds the parts' ascents.
    """
    meter = _Meter(nv)
    comps = _components(nv, set(_down_sets(nv, tails, heads)))
    # a histogram over N vertices holds an entry for every block count
    # 1..N, so merging one over N vertices with one over n is charged at
    # least N n, and the merges together the products of pairs of sizes
    sizes = [comp.bit_count() for comp in comps]
    floor = sum(map(_surjection_floor, sizes)) + (nv * nv - sum(n * n for n in sizes)) // 2
    if floor > meter.budget:
        meter.refuse(floor)
    if nv == 0:
        return {}
    states = [_subsets(comp) for comp in comps]
    out, into = _edge_masks(nv, tails, heads, chain.from_iterable(states))
    shift = nv.bit_length()             # keys pack k + (crossing << shift)
    slot = (nv ** nv).bit_length()      # no count reaches n^n

    def pull(subsets: Iterable[int]) -> dict[int, int]:
        """The histogram of the last subset, each subset pulling from its own."""
        hist: dict[int, tuple[int, int, dict[int, int]]] = {}
        for high in islice(subsets, 1, None):   # increasing, so each subset's own come first
            out_high, into_high = out[high], into[high]
            acc = {1: 1}   # the empty set's term: one block, no crossing edge
            get = acc.get
            read = 1
            low = (high - 1) & high
            while low:
                # edges from the earlier values into the block rise; those back out of it fall
                out_low, into_low, source = hist[low]
                asc = (out_low & (into_high ^ into_low)).bit_count()
                delta = 1 + ((asc + ((out_high ^ out_low) & into_low).bit_count()) << shift)
                up = asc * slot
                read += len(source)
                for key, val in source.items():
                    key += delta
                    acc[key] = get(key, 0) + (val << up)
                low = (low - 1) & high
            # the subsets scanned, one per pair and one per entry read
            meter.charge((2 << high.bit_count()) - 1 + read)
            hist[high] = out_high, into_high, acc
        return acc

    mask, ones = (1 << shift) - 1, (1 << slot) - 1
    packed = _merged([pull(subsets) for subsets in states], mask, meter)
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
