"""Set functions with values in the rationals extended by +infinity.

An ExtBool assigns a value to every subset of its ground set, zero to the
empty set and something finite to the full set.  It stores only its
finite support, {mask: value}, and every mask missing from it is INF.
Infinity is the tagged singleton INF, never a float, so all arithmetic
stays exact.  The three Hopf operations mirror the graph ones and read
the support only: direct_sum glues two functions on disjoint grounds,
restrict forgets the outside, and contract shifts by the value of the
contracted set (undefined when that value is INF, which is the zero case
of the split).

lower_half_function sends a graph to the function that is 0 on its L
lower halves and INF elsewhere, a support of L masks; the tests verify
this is compatible with every operation above, and the cones module uses
its base polytope.  No operation visits all 2^n subsets, so only the work
budget bounds them: the walk over the lower halves is metered, and
direct_sum and is_submodular are refused up front on the entries or
pairs of their supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import kernels, limits
from .digraph import Digraph, canonical_labels, disjoint_union


class Infinity:
    """The single +infinity value; absorbs addition, compares equal to itself."""

    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Infinity):
            raise ValueError("INF - INF is undefined")
        return self


INF = Infinity()


def _check_value(v) -> None:
    if not isinstance(v, (int, Fraction, Infinity)):
        raise ValueError(f"values must be ints, Fractions or INF, got {v!r}")


def _check_ends(finite: dict, full: int) -> None:
    empty = finite.get(0, INF)
    if empty != 0:
        raise ValueError(f"value on the empty set must be 0, got {empty!r}")
    if full not in finite:
        raise ValueError("value on the full ground set must be finite")


def _spread(finite: dict, bits: list[int]) -> dict:
    """finite with bit i of every mask moved to bits[i] (0 drops the bit)."""
    out = {}
    for mask, v in finite.items():
        big, rest = 0, mask
        while rest:
            low = rest & -rest
            big |= bits[low.bit_length() - 1]
            rest ^= low
        out[big] = v
    return out


@dataclass(frozen=True)
class ExtBool:
    """One extended Boolean function, stored on its finite support.

    finite[mask] is the value on the subset encoded by mask over the
    sorted ground labels, bit i standing for ground[i]; a mask missing
    from finite has the value INF.  Never mutate finite.
    """

    ground: tuple[str, ...]
    finite: dict

    def __init__(self, ground: Iterable[str], values: Iterable):
        """values: one value per mask, INF included, in mask order."""
        g = canonical_labels(ground)
        vals = tuple(values)
        if len(vals) != 1 << len(g):
            raise ValueError(
                f"need {1 << len(g)} values for {len(g)} labels, got {len(vals)}")
        for v in vals:
            _check_value(v)
        finite = {mask: v for mask, v in enumerate(vals) if v is not INF}
        _check_ends(finite, len(vals) - 1)
        object.__setattr__(self, "ground", g)
        object.__setattr__(self, "finite", finite)

    @classmethod
    def _of(cls, ground: tuple[str, ...], finite: dict) -> "ExtBool":
        """A function built from the support of already validated functions.

        ground must be sorted, distinct labels and finite map masks to
        ints or Fractions.  Skips __init__'s per-value checks and keeps
        its two checks on the ends.
        """
        _check_ends(finite, (1 << len(ground)) - 1)
        z = object.__new__(cls)
        object.__setattr__(z, "ground", ground)
        object.__setattr__(z, "finite", finite)
        return z

    def __hash__(self) -> int:
        return hash((self.ground, frozenset(self.finite.items())))

    def _mask(self, subset: Iterable[str]) -> int:
        idx = {v: i for i, v in enumerate(self.ground)}
        mask = 0
        for lab in subset:
            try:
                mask |= 1 << idx[lab]
            except (KeyError, TypeError):   # TypeError: an unhashable label
                raise ValueError(f"{lab!r} is not in the ground set") from None
        return mask

    def value(self, subset: Iterable[str]):
        return self.finite.get(self._mask(subset), INF)

    def _renumber(self, keep: int) -> tuple[tuple[str, ...], list[int]]:
        """The labels in keep, and per ground label its bit among them (0 if dropped)."""
        labels = tuple(lab for i, lab in enumerate(self.ground) if keep >> i & 1)
        new = {lab: 1 << k for k, lab in enumerate(labels)}
        return labels, [new.get(lab, 0) for lab in self.ground]

    def restrict(self, subset: Iterable[str]) -> "ExtBool":
        """Forget everything outside the subset."""
        smask = self._mask(canonical_labels(subset))
        sub, bits = self._renumber(smask)
        inside = {m: v for m, v in self.finite.items() if not m & ~smask}
        return ExtBool._of(sub, _spread(inside, bits))

    def contract(self, subset: Iterable[str]) -> "ExtBool | None":
        """Shift to the complement by the subset's value; None when that is INF."""
        smask = self._mask(subset)
        base = self.finite.get(smask)
        if base is None:
            return None
        rest, bits = self._renumber(((1 << len(self.ground)) - 1) ^ smask)
        above = {m: v - base for m, v in self.finite.items() if m & smask == smask}
        return ExtBool._of(rest, _spread(above, bits))

    def is_submodular(self) -> bool:
        """Pair check of v(A|B) + v(A&B) <= v(A) + v(B) over the support.

        The inequality is only required where v(A) and v(B) are finite;
        an infinite value on the union or intersection then fails it.
        """
        finite = self.finite
        size = len(finite)
        limits.check_work(f"submodularity check over {size} finite values",
                          size * (size - 1) // 2)
        pairs = list(finite.items())
        for i, (a, va) in enumerate(pairs):
            for b, vb in pairs[:i]:
                lhs_u, lhs_i = finite.get(a | b), finite.get(a & b)
                if lhs_u is None or lhs_i is None or lhs_u + lhs_i > va + vb:
                    return False
        return True


def direct_sum(u: ExtBool, v: ExtBool) -> ExtBool:
    """Glue functions on disjoint grounds: value(E) = u(E within u) + v(E within v)."""
    overlap = set(u.ground) & set(v.ground)
    if overlap:
        raise ValueError(f"ground sets overlap on {sorted(overlap)}")
    limits.check_work(f"direct sum of {len(u.finite)} and {len(v.finite)} finite values",
                      len(u.finite) * len(v.finite))
    ground = tuple(sorted(u.ground + v.ground))   # both canonical, and disjoint
    pos = {lab: i for i, lab in enumerate(ground)}
    ufin = _spread(u.finite, [1 << pos[lab] for lab in u.ground])
    vfin = _spread(v.finite, [1 << pos[lab] for lab in v.ground])
    return ExtBool._of(ground, {um | vm: a + b for um, a in ufin.items()
                                for vm, b in vfin.items()})


def lower_half_function(g: Digraph) -> ExtBool:
    """0 on lower halves of g, INF elsewhere; the metered walk finds them."""
    nv, tails, heads = g.edge_arrays()
    return ExtBool._of(g.vertices, dict.fromkeys(kernels.lower_half_masks(nv, tails, heads), 0))


@dataclass(frozen=True)
class MorphismCheck:
    """How lower_half_function interacts with one split of one graph."""

    split_is_lower_half: bool
    zero_sides_agree: bool      # both splits vanish together
    restriction_ok: bool | None  # None in the zero case
    contraction_ok: bool | None
    product_ok: bool

    @property
    def passed(self) -> bool:
        return (self.zero_sides_agree and self.product_ok
                and self.restriction_ok is not False
                and self.contraction_ok is not False)


def check_low_morphism(g: Digraph, subsets: Iterable[Iterable[str]]) -> list[MorphismCheck]:
    """Compare splitting then mapping with mapping then splitting, per subset.

    Splitting g at a subset must give its two induced parts, and applying
    lower_half_function to them must agree with restrict/contract of
    lower_half_function(g); when the graph split is zero (subset not a
    lower half) the function split must be zero too.  The merge direction
    is checked on the same subset: the function of the disjoint union of
    the two parts must be the direct sum of their functions.
    """
    zg = lower_half_function(g)
    checks = []
    for subset in subsets:
        g_in = g.restrict(subset)   # refuses a non-vertex, hashable or not
        sub = frozenset(g_in.vertices)
        g_out = g.restrict(frozenset(g.vertices) - sub)
        z_in, z_out = lower_half_function(g_in), lower_half_function(g_out)
        merged_ok = direct_sum(z_in, z_out) == lower_half_function(disjoint_union(g_in, g_out))
        zc = zg.contract(sub)
        cop = g.coproduct(sub)
        if cop is None:
            checks.append(MorphismCheck(False, zc is None, None, None, merged_ok))
            continue
        parts_ok = cop == (g_in, g_out)
        checks.append(MorphismCheck(
            split_is_lower_half=True,
            zero_sides_agree=zc is not None,
            restriction_ok=parts_ok and zg.restrict(sub) == z_in,
            contraction_ok=parts_ok and zc is not None and zc == z_out,
            product_ok=merged_ok,
        ))
    return checks
