"""Set functions with values in the rationals extended by +infinity.

An ExtBool assigns a value to every subset of its ground set, zero to the
empty set and something finite to the full set.  Infinity is the tagged
singleton INF, never a float, so all arithmetic stays exact.  The three
Hopf operations mirror the graph ones: direct_sum glues two functions on
disjoint grounds, restrict forgets the outside, and contract shifts by
the value of the contracted set (undefined when that value is INF, which
is the zero case of the split).

lower_half_function sends a graph to the function that is 0 on its lower
halves and INF elsewhere; the tests verify this is compatible with every
operation above, and the cones module uses its base polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

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

Value = int | Fraction | Infinity


def is_finite(v) -> bool:
    return not isinstance(v, Infinity)


def _check_value(v) -> None:
    if not isinstance(v, (int, Fraction, Infinity)):
        raise ValueError(f"values must be ints, Fractions or INF, got {v!r}")


def _check_ends(vals: tuple) -> None:
    if vals[0] != 0:
        raise ValueError(f"value on the empty set must be 0, got {vals[0]!r}")
    if not is_finite(vals[-1]):
        raise ValueError("value on the full ground set must be finite")


@dataclass(frozen=True)
class ExtBool:
    """Dense table of one extended Boolean function.

    values[mask] is the value on the subset encoded by mask over the
    sorted ground labels; bit i stands for ground[i].
    """

    ground: tuple[str, ...]
    values: tuple

    def __init__(self, ground: Iterable[str], values: Iterable):
        g = canonical_labels(ground)
        vals = tuple(values)
        if len(vals) != 1 << len(g):
            raise ValueError(
                f"need {1 << len(g)} values for {len(g)} labels, got {len(vals)}")
        for v in vals:
            _check_value(v)
        _check_ends(vals)
        object.__setattr__(self, "ground", g)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _of(cls, ground: tuple[str, ...], values: tuple) -> "ExtBool":
        """A function built from the values of already validated functions.

        ground must be sorted, distinct labels and values one int,
        Fraction or INF per mask.  Skips __init__'s per-value checks and
        keeps its two checks on the ends of the table.
        """
        _check_ends(values)
        z = object.__new__(cls)
        object.__setattr__(z, "ground", ground)
        object.__setattr__(z, "values", values)
        return z

    @classmethod
    def tabulate(cls, ground: Iterable[str],
                 fn: Callable[[frozenset[str]], object]) -> "ExtBool":
        g = canonical_labels(ground)
        limits.check_size("table", len(g), limits.SUBSET_BOUND)
        vals = []
        for mask in range(1 << len(g)):
            vals.append(fn(frozenset(g[i] for i in range(len(g)) if mask >> i & 1)))
        return cls(g, vals)

    def _mask(self, subset: Iterable[str]) -> int:
        idx = {v: i for i, v in enumerate(self.ground)}
        mask = 0
        for lab in subset:
            if lab not in idx:
                raise ValueError(f"{lab!r} is not in the ground set")
            mask |= 1 << idx[lab]
        return mask

    def value(self, subset: Iterable[str]):
        return self.values[self._mask(subset)]

    def restrict(self, subset: Iterable[str]) -> "ExtBool":
        """Forget everything outside the subset."""
        sub = canonical_labels(subset)
        self._mask(sub)  # validates membership
        n = len(self.ground)
        pos = {v: i for i, v in enumerate(self.ground)}
        vals = []
        for mask in range(1 << len(sub)):
            big = 0
            for i in range(len(sub)):
                if mask >> i & 1:
                    big |= 1 << pos[sub[i]]
            vals.append(self.values[big])
        return ExtBool._of(sub, tuple(vals))

    def contract(self, subset: Iterable[str]) -> "ExtBool | None":
        """Shift to the complement by the subset's value; None when that is INF."""
        smask = self._mask(subset)
        base = self.values[smask]
        if not is_finite(base):
            return None
        rest = tuple(v for i, v in enumerate(self.ground) if not smask >> i & 1)
        pos = {v: i for i, v in enumerate(self.ground)}
        vals = []
        for mask in range(1 << len(rest)):
            big = smask
            for i in range(len(rest)):
                if mask >> i & 1:
                    big |= 1 << pos[rest[i]]
            v = self.values[big]
            vals.append(v - base if is_finite(v) else INF)
        return ExtBool._of(rest, tuple(vals))

    def is_submodular(self) -> bool:
        """Exhaustive pair check of v(A|B) + v(A&B) <= v(A) + v(B).

        The inequality is only required where v(A) and v(B) are finite;
        an infinite value on the union or intersection then fails it.
        """
        n = len(self.ground)
        limits.check_work(f"submodularity check over {n} labels", 4 ** n)
        vals = self.values
        finite = [m for m in range(1 << n) if is_finite(vals[m])]
        for a in finite:
            va = vals[a]
            for b in finite:
                if b > a:
                    break
                lhs_u = vals[a | b]
                lhs_i = vals[a & b]
                if not (is_finite(lhs_u) and is_finite(lhs_i)):
                    return False
                if lhs_u + lhs_i > va + vals[b]:
                    return False
        return True


def direct_sum(u: ExtBool, v: ExtBool) -> ExtBool:
    """Glue functions on disjoint grounds: value(E) = u(E within u) + v(E within v)."""
    overlap = set(u.ground) & set(v.ground)
    if overlap:
        raise ValueError(f"ground sets overlap on {sorted(overlap)}")
    ground = canonical_labels(u.ground + v.ground)
    limits.check_size("table", len(ground), limits.SUBSET_BOUND)
    # ubits[i], vbits[i]: the bit of ground[i] in u's or v's own masks
    upos = {lab: i for i, lab in enumerate(u.ground)}
    vpos = {lab: i for i, lab in enumerate(v.ground)}
    ubits = [1 << upos[lab] if lab in upos else 0 for lab in ground]
    vbits = [1 << vpos[lab] if lab in vpos else 0 for lab in ground]
    uvals, vvals = u.values, v.values
    size = 1 << len(ground)
    umask = [0] * size
    vmask = [0] * size
    vals = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        umask[mask] = um = umask[mask ^ low] | ubits[i]
        vmask[mask] = vm = vmask[mask ^ low] | vbits[i]
        a, b = uvals[um], vvals[vm]
        vals[mask] = INF if a is INF or b is INF else a + b
    return ExtBool._of(ground, tuple(vals))


def lower_half_function(g: Digraph) -> ExtBool:
    """0 on lower halves of g, INF elsewhere."""
    nv, tails, heads = g.edge_arrays()
    limits.check_size("table", nv, limits.SUBSET_BOUND)
    vals = [INF] * (1 << nv)
    for mask in kernels.lower_half_masks(nv, tails, heads):
        vals[mask] = 0
    return ExtBool._of(g.vertices, tuple(vals))


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
        sub = frozenset(subset)
        g_in, g_out = g.restrict(sub), g.restrict(frozenset(g.vertices) - sub)
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
