import math
import random
from fractions import Fraction

import pytest
from conftest import (all_digraphs, oracle_binomial_str, oracle_monomial_str,
                      oracle_poly_str, random_digraph)

from hopfdg import b_polynomial, edge_invariant, strict_chromatic, weak_chromatic
from hopfdg.rings import BinPoly, Poly, Q, Y, Z, binomial, falling_coeffs


def test_poly_arithmetic():
    p = (Q + 1) * (Q - 1)
    assert p == Q * Q - 1
    assert (Y + Z) ** 2 == Y ** 2 + 2 * Y * Z + Z ** 2
    assert Q * 0 == 0
    assert Poly.constant(5).constant_value() == 5
    assert (Q - Q) == 0
    assert Q ** 0 == 1


def test_equal_polys_hash_equal():
    # a constant equals its int, so it hashes as the int does
    for c in (0, 1, -2, 3):
        assert Poly.constant(c) == c and hash(Poly.constant(c)) == hash(c)
    assert hash(Q - Q) == hash(0) == hash(Poly())
    assert hash((Q + 1) * (Q - 1)) == hash(Q * Q - 1)
    assert hash(Y * Z + Q) == hash(Poly({(1, 0, 0): 1, (0, 1, 1): 1}))
    assert {Poly.constant(3), 3, Q, Q + 0} == {3, Q}
    # so a BinPoly with Poly coefficients hashes too
    assert hash(BinPoly((1, Q, Y + Z))) == hash(BinPoly((Poly.constant(1), Q, Z + Y)))


def test_poly_str():
    assert str(-Q ** 3 + 2 * Q - 1) == "-q^3 + 2*q - 1"
    assert str(Poly.constant(0)) == "0"
    assert str(Y * Z) == "y*z"
    assert str(2 * Y ** 2 + 2 * Y * Z + 2 * Z ** 2) == "2*y^2 + 2*y*z + 2*z^2"


def test_poly_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Q ** -1
    with pytest.raises(TypeError):
        Q * 1.5


def test_poly_constructor_checks_every_term():
    # the internal constructor the invariants use skips these checks
    for bad in ({(0, -1, 0): 1}, {(0, 0): 1}, {(0, 1.0, 0): 1}):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Poly(bad)
    for bad in (1.5, Fraction(1, 2), "1"):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            Poly({(0, 1, 0): bad})


def test_binomial_matches_comb_and_reflects():
    for n in range(0, 8):
        for k in range(0, 8):
            assert binomial(n, k) == math.comb(n, k)
    # frozen negative arguments: C(-n,k) = (-1)^k C(n+k-1,k)
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4
    assert binomial(-3, 3) == -10
    assert binomial(-3, 1) == -3
    for n in range(1, 6):
        for k in range(0, 6):
            assert binomial(-n, k) == (-1) ** k * math.comb(n + k - 1, k)


def test_falling_coeffs_expand_binomial():
    # n(n-1)(n-2)/3! has falling-factorial numerator coefficients [0, 2, -3, 1]
    assert falling_coeffs(3) == [0, 2, -3, 1]
    for n in range(-4, 7):
        for k in range(5):
            num = sum(c * n ** i for i, c in enumerate(falling_coeffs(k)))
            assert Fraction(num, math.factorial(k)) == binomial(n, k)


def test_binpoly_eval_and_trim():
    p = BinPoly((0, 1, 2, 0, 0))
    assert p.coeffs == (0, 1, 2)
    assert p.degree() == 2
    assert p.eval(4) == 4 + 2 * 6
    assert p.eval(0) == 0
    assert p.eval(-2) == -2 + 2 * 3
    assert BinPoly(()).eval(5) == 0


def test_binpoly_add_scale():
    p = BinPoly((1, 2)) + BinPoly((0, 1, 1))
    assert p.coeffs == (1, 3, 1)
    assert p.scale(-2).coeffs == (-2, -6, -2)
    assert (BinPoly((1,)) + BinPoly((-1,))).coeffs == ()


def test_binpoly_poly_coefficients_demote():
    p = BinPoly((0, Q - Q + 3, Q))
    assert p.coeffs[1] == 3
    assert isinstance(p.coeffs[1], int)
    assert p.eval(2) == 6 + (Q * 1)  # C(2,1)=2, C(2,2)=1


def test_binomial_str():
    assert BinPoly((0, 0, 0, 1)).binomial_str() == "C(n,3)"
    assert BinPoly(()).binomial_str() == "0"
    assert BinPoly((5,)).binomial_str() == "5"
    assert BinPoly((0, 1, 2)).binomial_str() == "C(n,1) + 2*C(n,2)"
    assert BinPoly((0, -1, -2)).binomial_str() == "-C(n,1) - 2*C(n,2)"
    assert BinPoly((0, Q ** 3, 2 * Q)).binomial_str() == "q^3*C(n,1) + 2*q*C(n,2)"
    assert BinPoly((0, -Q ** 3)).binomial_str() == "-q^3*C(n,1)"
    assert BinPoly((0, 2 * Y ** 2 + 2 * Z ** 2)).binomial_str() \
        == "(2*y^2 + 2*z^2)*C(n,1)"


def test_monomial_str():
    assert BinPoly((0, 0, 0, 1)).monomial_str() == "(n^3 - 3*n^2 + 2*n)/6"
    assert BinPoly((0, 1)).monomial_str() == "n"
    assert BinPoly((3,)).monomial_str() == "3"
    assert BinPoly(()).monomial_str() == "0"
    # C(n,1) + C(n,2) = (n^2 + n)/2
    assert BinPoly((0, 1, 1)).monomial_str() == "(n^2 + n)/2"


def _random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-12, 12)
    e = tuple(rng.randint(0, 3) for _ in range(3))
    if kind == 1:
        # a single monomial, often negative
        return Poly({e: rng.choice((-6, -2, -1, 1, 3))})
    terms = {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-4, 4)
             for _ in range(rng.randint(1, 4))}
    # kind 3: a common content > 1, so the denominator can shrink
    factor = rng.choice((2, 6, 12, -24)) if kind == 3 else 1
    return Poly({e: factor * c for e, c in terms.items()})


def test_renderers_match_old_poly_arithmetic():
    rng = random.Random(71)
    polys = [BinPoly(()), BinPoly((0, 6 * Y - 12 * Z, -6 * Q)), BinPoly((0, -Q, 0, -2 * Y))]
    polys += [BinPoly(tuple(_random_coefficient(rng) for _ in range(rng.randint(1, 6))))
              for _ in range(400)]
    coefficients = [c for p in polys for c in p.coeffs if isinstance(c, Poly)]
    assert len(coefficients) > 400
    for c in coefficients + [Poly(), -Q, Q - 1, 1 - Q ** 11 * Y ** 2]:
        assert str(c) == oracle_poly_str(c.terms), c.terms
    for p in polys:
        assert p.binomial_str() == oracle_binomial_str(p), p
        assert p.monomial_str() == oracle_monomial_str(p), p


def test_renderers_match_the_oracle_on_invariants():
    # every digraph on at most 4 vertices, then seeded ones on 5 to 7
    rng = random.Random(72)
    graphs = [g for n in range(5) for g in all_digraphs("abcd"[:n])]
    graphs += [random_digraph(rng, "abcdefg"[:n]) for n in (5, 5, 6, 6, 7, 7) for _ in range(2)]
    for g in graphs:
        for invariant in (b_polynomial, edge_invariant, strict_chromatic, weak_chromatic):
            p = invariant(g)
            assert p.binomial_str() == oracle_binomial_str(p), g
            assert p.monomial_str() == oracle_monomial_str(p), g
            for c in p.coeffs:
                if isinstance(c, Poly):
                    assert str(c) == oracle_poly_str(c.terms), g


def test_binpoly_matches_eval_on_samples():
    p = BinPoly((2, -1, 0, 5))
    for n in range(-3, 6):
        direct = 2 - binomial(n, 1) + 5 * binomial(n, 3)
        assert p.eval(n) == direct
