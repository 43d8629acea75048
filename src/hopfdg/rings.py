"""Exact coefficient arithmetic.

Two layers: Poly, a sparse integer polynomial in the fixed variables
q, y, z; and BinPoly, a polynomial in one integer argument n stored in
the binomial basis C(n, 0), C(n, 1), ...  BinPoly coefficients may be
plain ints or Polys, and evaluation extends to negative n through
C(-n, k) = (-1)^k C(n + k - 1, k), so no floating point ever appears.

Poly(...), constant and variable check every term they are given.  A
Poly computed from valid ones (a sum, negation, product or power) is
built with Poly._of, unchecked, after its zero coefficients are dropped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Mapping

VARS = ("q", "y", "z")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

Expt = tuple[int, int, int]


class Poly:
    """Immutable sparse polynomial over the integers in q, y, z."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expt, int] | None = None):
        data: dict[Expt, int] = {}
        for expt, coeff in (terms or {}).items():
            e = tuple(expt)
            if len(e) != 3 or any(not isinstance(x, int) or x < 0 for x in e):
                raise ValueError(f"bad exponent vector {expt!r}")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficients must be ints, got {coeff!r}")
            if coeff:
                data[e] = data.get(e, 0) + coeff
        self.terms: dict[Expt, int] = {e: c for e, c in data.items() if c}

    @classmethod
    def _of(cls, terms: dict[Expt, int]) -> "Poly":
        """A Poly of terms already checked: exponent tuples of three
        non-negative ints, each with a non-zero int coefficient, as when
        summed from a kernel histogram.  Skips __init__'s per-term checks;
        input from outside goes through Poly(...).
        """
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls({(0, 0, 0): c}) if c else cls()

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}, have {VARS}")
        e = [0, 0, 0]
        e[_VAR_INDEX[name]] = 1
        return cls({tuple(e): 1})

    @staticmethod
    def _coerce(other: Any) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly.constant(other)
        return None

    def __add__(self, other: Any) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly._of({e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Any) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Any) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Any) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Expt, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return Poly._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"exponent must be a non-negative int, got {power!r}")
        out = Poly.constant(1)
        for _ in range(power):
            out = out * self
        return out

    def __eq__(self, other: Any) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        # equal values hash equal: a constant c equals the int c
        return hash(self.constant_value() if self.is_constant() else frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0, 0, 0), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __str__(self) -> str:
        return _poly_str(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self})"


Q = Poly.variable("q")
Y = Poly.variable("y")
Z = Poly.variable("z")


def binomial(n: int, k: int) -> int:
    """C(n, k) for any integer n, via the reflection at negative n."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(-n + k - 1, k)


def falling_coeffs(k: int) -> list[int]:
    """Coefficients c with n(n-1)...(n-k+1) = sum c[j] n^j, length k+1."""
    coeffs = [1]
    for i in range(k):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= i * c
        coeffs = nxt
    return coeffs


@functools.lru_cache(maxsize=4096)
def _factors(e: Expt) -> str:
    """The text of q^e[0] * y^e[1] * z^e[2]; "" for the constant monomial."""
    return "*".join(name if x == 1 else f"{name}^{x}" for name, x in zip(VARS, e) if x)


def _monomial(e: Expt, c: int) -> tuple[str, str]:
    """Sign and magnitude text of c * q^e[0] * y^e[1] * z^e[2]."""
    factors = _factors(e)
    mag = abs(c)
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = factors
    else:
        body = f"{mag}*{factors}"
    return ("-" if c < 0 else "+"), body


def _terms(c: Any) -> Mapping[Expt, int]:
    """The terms of a BinPoly coefficient; an int c reads as {(0, 0, 0): c}."""
    if isinstance(c, Poly):
        return c.terms
    return {(0, 0, 0): c} if c else {}


def _join(pieces: list[tuple[str, str]]) -> str:
    """Sign-joined (sign, body) pieces: "-a + b - c"; "0" for none."""
    if not pieces:
        return "0"
    (sign, body), rest = pieces[0], pieces[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def _poly_str(terms: Mapping[Expt, int]) -> str:
    # highest total degree first, then exponent vectors descending,
    # so q-heavy monomials precede y- and z-heavy ones of equal degree
    order = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
    return _join([_monomial(e, terms[e]) for e in order])


def _signed_body(terms: Mapping[Expt, int], base: str) -> tuple[str, str]:
    """Split a (non-zero coefficient)*base term into a sign and a magnitude.

    A single monomial gives up its sign like an integer; a longer sum is
    parenthesised and counted positive.
    """
    if len(terms) == 1:
        ((e, c),) = terms.items()
        sign, mag = _monomial(e, c)
        if mag == "1":
            return sign, base or "1"
        return sign, f"{mag}*{base}" if base else mag
    text = f"({_poly_str(terms)})"
    return "+", f"{text}*{base}" if base else text


@dataclass(frozen=True)
class BinPoly:
    """Polynomial in n written in the binomial basis.

    coeffs[k] multiplies C(n, k); trailing zeros are trimmed so equal
    polynomials have equal tuples.  Coefficients are ints or Polys.
    """

    coeffs: tuple[Any, ...]

    def __post_init__(self):
        cleaned = []
        for c in self.coeffs:
            if isinstance(c, Poly) and c.is_constant():
                c = c.constant_value()
            cleaned.append(c)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, n: int) -> Any:
        """Exact value at an integer, of the coefficient ring's type."""
        total: Any = 0
        for k, c in enumerate(self.coeffs):
            if c != 0:
                total = total + c * binomial(n, k)
        return total

    def __add__(self, other: "BinPoly") -> "BinPoly":
        if not isinstance(other, BinPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for k, c in enumerate(b):
            merged[k] = merged[k] + c
        return BinPoly(tuple(merged))

    def scale(self, factor: Any) -> "BinPoly":
        return BinPoly(tuple(factor * c for c in self.coeffs))

    def binomial_str(self) -> str:
        return _join([_signed_body(_terms(c), f"C(n,{k})" if k else "")
                      for k, c in enumerate(self.coeffs) if c != 0])

    def monomial_str(self) -> str:
        """Render in powers of n over one integer denominator.

        Every coefficient, an int c read as {(0, 0, 0): c}, is summed into
        one integer exponent dict per power of n.
        """
        d = self.degree()
        if d < 0:
            return "0"
        denom = math.factorial(d)
        numer: list[dict[Expt, int]] = [{} for _ in range(d + 1)]
        for k, c in enumerate(self.coeffs):
            terms = _terms(c)
            scale = denom // math.factorial(k)
            for j, fc in enumerate(falling_coeffs(k)):
                row = numer[j]
                for e, cc in terms.items():
                    row[e] = row.get(e, 0) + cc * scale * fc
        g = math.gcd(denom, *(c for row in numer for c in row.values()))
        denom //= g
        pieces = []
        for j in range(d, -1, -1):
            terms = {e: c // g for e, c in numer[j].items() if c}
            if terms:
                pieces.append(_signed_body(terms, "" if j == 0 else
                                           ("n" if j == 1 else f"n^{j}")))
        body = _join(pieces)
        return f"({body})/{denom}" if denom > 1 else body

    def __str__(self) -> str:
        return self.binomial_str()
