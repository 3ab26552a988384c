"""Differential tests of F_q(theta) arithmetic.

RatFunc.make, +, -, *, / and ** on univariate operands are checked against
a copy of the generic canonical-form route, written here on Poly products,
poly_gcd and poly_divexact, and, over prime fields, against sympy over
GF(p).  Canonical form is unique (coprime, monic denominator), so every
route must return the same numerator and denominator term for term.
"""

import random

import pytest

from carlitzhd import (
    Poly,
    RatFunc,
    VARS_T,
    VARS_TT,
    field_new,
    poly_divexact,
    poly_gcd,
)

SEED = 4099
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2), 49: (7, 2), 257: (257, 1)}


# -- the generic route, on Poly operations only ----------------------------------

def ref_monic(num: Poly, den: Poly):
    _, lc = den.leading_term()
    inv = lc.inverse()
    return num.scale(inv), den.scale(inv)


def ref_make(num: Poly, den: Poly):
    if num.is_zero():
        return num, Poly.one(num.field, num.vars)
    g = poly_gcd(num, den)
    if not g.is_constant():
        num, den = poly_divexact(num, g), poly_divexact(den, g)
    return ref_monic(num, den)


def ref_add(x, y):
    (a, b), (c, d) = x, y
    f, one = a.field, Poly.one(a.field, a.vars)
    if a.is_zero():
        return y
    if c.is_zero():
        return x
    if b.is_constant() and d.is_constant():
        return (a + c, one) if not (a + c).is_zero() else (Poly.zero(f), one)
    g = poly_gcd(b, d)
    if g.is_constant():
        num = a * d + c * b
        return (Poly.zero(f), one) if num.is_zero() else ref_monic(num, b * d)
    b1, d1 = poly_divexact(b, g), poly_divexact(d, g)
    num = a * d1 + c * b1
    if num.is_zero():
        return Poly.zero(f), one
    h = poly_gcd(num, g)
    if not h.is_constant():
        return ref_monic(poly_divexact(num, h), b1 * poly_divexact(d, h))
    return ref_monic(num, b1 * d)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    if a.is_zero() or c.is_zero():
        return Poly.zero(a.field), Poly.one(a.field)
    if not (a.is_constant() or d.is_constant()):
        g = poly_gcd(a, d)
        a, d = poly_divexact(a, g), poly_divexact(d, g)
    if not (c.is_constant() or b.is_constant()):
        g = poly_gcd(c, b)
        c, b = poly_divexact(c, g), poly_divexact(b, g)
    return ref_monic(a * c, b * d)


def ref_neg(x):
    return -x[0], x[1]


def ref_inverse(x):
    return ref_monic(x[1], x[0])


def ref_pow(x, k: int):
    if k < 0:
        x, k = ref_inverse(x), -k
    return x[0] ** k, x[1] ** k


def pair(r: RatFunc):
    return r.num, r.den


def assert_same(r: RatFunc, ref):
    """r is the reference fraction term for term, and its dense views are fresh."""
    for mine, theirs in zip(pair(r), ref):
        assert mine.vars == theirs.vars
        assert mine.terms == theirs.terms, (r, ref)
        assert mine.to_dense() == Poly(mine.field, mine.vars, dict(mine.terms)).to_dense()


# -- operands ------------------------------------------------------------------------

def rand_poly(rng, f, deg: int) -> Poly:
    return Poly(f, VARS_T, {(i,): c for i in range(deg + 1)
                            if (c := rng.randrange(f.q))})


def rand_nonzero(rng, f, deg: int) -> Poly:
    while True:
        p = rand_poly(rng, f, deg)
        if not p.is_zero():
            return p


def operand_pairs(f, seed: int):
    """Random fractions, plus the shapes that exercise each canonical-form step."""
    rng = random.Random(seed)
    one = Poly.one(f)
    for _ in range(25):
        yield (RatFunc.make(rand_poly(rng, f, rng.randrange(5)), rand_nonzero(rng, f, rng.randrange(4))),
               RatFunc.make(rand_poly(rng, f, rng.randrange(5)), rand_nonzero(rng, f, rng.randrange(4))))
    for _ in range(6):
        g, h, k = (rand_nonzero(rng, f, rng.randrange(1, 3)) for _ in range(3))
        u, v, w = (rand_nonzero(rng, f, rng.randrange(3)) for _ in range(3))
        x = RatFunc.make(u, g * h)
        yield RatFunc.zero(f), x                                   # zero numerator
        yield RatFunc.make(u, Poly(f, VARS_T, {(0,): rng.randrange(1, f.q)})), RatFunc.from_poly(v)
        yield x, RatFunc.make(v, g * h)                            # equal denominators
        yield x, RatFunc.make(v * g, w * h)                        # shared factors
        yield x, RatFunc.make(g * w - u, g * h)                    # the sum cancels g
        yield x, RatFunc.make(g * w * k - u * k, g * h * k)        # ... through a make
        yield x, -x                                                # cancels to zero
        yield RatFunc.make(one, g), RatFunc.make(one, g * k)


# -- against the generic route ----------------------------------------------------

@pytest.mark.parametrize("q", sorted(FIELDS))
def test_make_matches_generic_route(q):
    f = field_new(*FIELDS[q])
    rng = random.Random(SEED + q)
    for _ in range(40):
        g = rand_nonzero(rng, f, rng.randrange(3))
        num = rand_poly(rng, f, rng.randrange(4)) * g
        den = rand_nonzero(rng, f, rng.randrange(4)) * g
        assert_same(RatFunc.make(num, den), ref_make(num, den))
        assert_same(RatFunc.make(num, num if not num.is_zero() else den),
                    ref_make(num, num if not num.is_zero() else den))
    c = Poly(f, VARS_T, {(0,): f.q - 1})
    assert_same(RatFunc.make(Poly.zero(f), c), ref_make(Poly.zero(f), c))
    assert_same(RatFunc.make(c, c), ref_make(c, c))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_arithmetic_matches_generic_route(q):
    f = field_new(*FIELDS[q])
    for x, y in operand_pairs(f, SEED * q):
        rx, ry = pair(x), pair(y)
        assert_same(x + y, ref_add(rx, ry))
        assert_same(x - y, ref_add(rx, ref_neg(ry)))
        assert_same(x * y, ref_mul(rx, ry))
        if not y.is_zero():
            assert_same(x / y, ref_mul(rx, ref_inverse(ry)))
            assert_same(y ** -2, ref_pow(ry, -2))
        for k in (0, 1, 3):
            assert_same(x ** k, ref_pow(rx, k))


# -- against sympy over GF(p) ---------------------------------------------------------

def to_sympy(sympy, x, p: int, poly: Poly):
    dense = [0] * (poly.degree() + 1)
    for (i,), c in poly.terms.items():
        dense[i] = c
    return sympy.Poly(list(reversed(dense)), x, modulus=p)


def sympy_canonical(sympy, num, den):
    """(numerator, monic denominator) coefficient lists, high degree first, mod p."""
    if num.is_zero:
        return [], [1]
    g = num.gcd(den)
    num, den = sympy.div(num, g)[0], sympy.div(den, g)[0]
    lc = den.LC()
    num, den = num.quo_ground(lc), den.quo_ground(lc)
    p = den.get_modulus()
    return ([int(c) % p for c in num.all_coeffs()],
            [int(c) % p for c in den.all_coeffs()])


def ours(r: RatFunc):
    return tuple([r_.terms.get((i,), 0) for i in range(r_.degree(), -1, -1)]
                 for r_ in (r.num, r.den))


@pytest.mark.parametrize("p", [2, 3, 257])
def test_arithmetic_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("theta")
    f = field_new(p)

    def S(poly):
        return to_sympy(sympy, x, p, poly)

    for a, b in operand_pairs(f, SEED + 11 * p):
        (an, ad), (bn, bd) = (tuple(map(S, pair(r))) for r in (a, b))
        assert ours(RatFunc.make(a.num * b.den, a.den * b.num if not b.is_zero() else a.den)) \
            == sympy_canonical(sympy, an * bd, ad * bn if not b.is_zero() else ad)
        assert ours(a + b) == sympy_canonical(sympy, an * bd + bn * ad, ad * bd)
        assert ours(a - b) == sympy_canonical(sympy, an * bd - bn * ad, ad * bd)
        assert ours(a * b) == sympy_canonical(sympy, an * bn, ad * bd)
        if not b.is_zero():
            assert ours(a / b) == sympy_canonical(sympy, an * bd, ad * bn)
            assert ours(b ** -2) == sympy_canonical(sympy, bd ** 2, bn ** 2)
        assert ours(a ** 3) == sympy_canonical(sympy, an ** 3, ad ** 3)


# -- Poly.is_constant ---------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 9])
def test_is_constant_agrees_with_exponent_scan(q):
    f = field_new(*FIELDS[q])
    rng = random.Random(SEED - q)
    for vars in (VARS_T, VARS_TT):
        for _ in range(200):
            terms = {}
            for _ in range(rng.randrange(3)):
                e = tuple(rng.randrange(2) * rng.randrange(3) for _ in vars)
                terms[e] = rng.randrange(1, f.q)
            p = Poly(f, vars, terms)
            assert p.is_constant() == all(e == 0 for exps in p.terms for e in exps)
            assert (p + 1).is_constant() == p.is_constant()
