"""Finite field construction and arithmetic."""

import random

import pytest

from carlitzhd import (
    ConstraintViolated,
    DivisionByZero,
    Field,
    FieldMismatch,
    FqElem,
    NonPrimeCharacteristic,
    ReducibleModulus,
    binom_mod_p,
    field_new,
)

SEED = 1729


def test_field_new_rejects_composite_characteristic():
    for p in (1, 4, 6, 9, 15):
        with pytest.raises(NonPrimeCharacteristic):
            field_new(p)


def test_field_new_rejects_oversize_fields_before_building_tables():
    # the tables are q x q; a huge characteristic is refused before the
    # primality test, which is trial division
    for p, e in ((1031, 1), (65537, 1), (10 ** 30 + 57, 1),
                 (2, 11), (3, 7), (2, 10 ** 9)):
        with pytest.raises(ConstraintViolated):
            field_new(p, e)
    assert field_new(257).q == 257


def test_field_new_rejects_reducible_modulus():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, modulus=(1, 0, 1))
    # x^2 - 1 factors over F_3
    with pytest.raises(ReducibleModulus):
        field_new(3, 2, modulus=(2, 0, 1))


def test_field_new_default_modulus_is_irreducible():
    f4 = field_new(2, 2)
    assert f4.q == 4
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1, low coefficient first
    f9 = field_new(3, 2)
    assert f9.q == 9
    assert f9.modulus[-1] == 1


def test_field_new_is_cached():
    assert field_new(3) is field_new(3)
    assert field_new(2, 2) is field_new(2, 2)
    assert field_new(2, 2) == field_new(2, 2, modulus=(1, 1, 1))


def test_elem_accepts_int_vector_and_elem():
    f = field_new(5)
    assert f.elem(7) == f.elem(2)
    assert f.elem(-1) == f.elem(4)
    f4 = field_new(2, 2)
    g = f4.elem((0, 1))
    assert g == f4.gen
    assert f4.elem(g) == g
    with pytest.raises(FieldMismatch):
        f4.elem((0, 1, 1))  # wrong vector length


def test_coeffs_from_index_roundtrip():
    for f in (field_new(2), field_new(3), field_new(2, 2), field_new(5)):
        for idx in range(f.q):
            x = f.from_index(idx)
            assert x.idx == idx
            assert f.elem(x.coeffs) == x


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_matches_integers_mod_p(p):
    f = field_new(p)
    rng = random.Random(SEED)
    for _ in range(200):
        a, b = rng.randrange(p), rng.randrange(p)
        assert (f.elem(a) + f.elem(b)).idx == (a + b) % p
        assert (f.elem(a) - f.elem(b)).idx == (a - b) % p
        assert (f.elem(a) * f.elem(b)).idx == (a * b) % p
        if b:
            assert (f.elem(a) / f.elem(b)).idx == a * pow(b, p - 2, p) % p


@pytest.mark.parametrize("field", [field_new(2, 2), field_new(3, 2), field_new(2, 3)])
def test_extension_field_axioms(field):
    els = list(field.elements())
    assert len(els) == field.q
    one, zero = field.one, field.zero
    rng = random.Random(SEED)
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
    for a in els:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one
            assert a ** (field.q - 1) == one


def test_inverse_of_zero_raises():
    f = field_new(3)
    with pytest.raises(DivisionByZero):
        f.zero.inverse()


@pytest.mark.parametrize("field", [field_new(2, 2), field_new(3, 2), field_new(5)])
def test_frobenius_is_field_automorphism(field):
    els = list(field.elements())
    rng = random.Random(SEED)
    p = field.p
    for _ in range(200):
        a, b = rng.choice(els), rng.choice(els)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    for a in els:
        assert a.frobenius() == a ** p
        assert a.frobenius(field.e) == a  # p^e-th power is the identity
        assert a.frobenius(2) == a.frobenius().frobenius()


def test_pow_handles_negative_exponents():
    f = field_new(5)
    a = f.elem(3)
    assert a ** -1 == a.inverse()
    assert a ** -3 == (a ** 3).inverse()
    assert a ** 0 == f.one


# -- every table against a test-local digit-vector oracle ----------------------

def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e, r = 0, q
        while r % p == 0:
            r, e = r // p, e + 1
        if r == 1:
            out.append((p, e))
    return out


class DigitOracle:
    """F_q as digit vectors mod p, multiplied and reduced by the modulus.

    Index i stands for the vector of its base-p digits, low first; nothing
    here reads the field's tables.
    """

    def __init__(self, field):
        self.p, self.e, self.q, self.mod = field.p, field.e, field.q, field.modulus
        self.vecs = [[i // self.p ** k % self.p for k in range(self.e)]
                     for i in range(self.q)]

    def idx(self, v):
        out = 0
        for c in reversed(v):
            out = out * self.p + c % self.p
        return out

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self.idx([x + y for x, y in zip(self.vecs[a], self.vecs[b])])

    def neg(self, a):
        return self.idx([-x for x in self.vecs[a]])

    def mul(self, a, b):
        p, e, mod, vb = self.p, self.e, self.mod, self.vecs[b]
        if e == 1:  # one digit, nothing to reduce
            return a * b % p
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.vecs[a]):
            if x:
                for j, y in enumerate(vb, i):
                    if y:
                        prod[j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            # x^k = x^(k-e) * x^e and x^e = -(mod[0] + ... + mod[e-1] x^(e-1))
            c = prod[k] % p
            for j in range(e):
                prod[k - e + j] -= c * mod[j]
        return self.idx(prod[:e])

    def powers(self, a, n):
        """a^0, a^1, ..., a^(n-1) by repeated multiplication."""
        out = [1]
        while len(out) < n:
            out.append(self.mul(out[-1], a))
        return out


ORACLE_FIELDS = ([field_new(p, e) for p, e in _prime_powers(128)]
                 + [field_new(257), field_new(3, 2, modulus=(2, 2, 1))])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_tables_match_digit_vector_oracle(field):
    o, q = DigitOracle(field), field.q
    assert field.add_t == [[o.add(a, b) for b in range(q)] for a in range(q)]
    assert field.neg_t == [o.neg(a) for a in range(q)]
    mul = [[o.mul(a, b) for b in range(q)] for a in range(q)]
    assert field.mul_t == mul
    assert field.inv_t[1:] == [mul[a].index(1) for a in range(1, q)]
    frob = list(range(q))
    assert len(field.frob_t) == field.e
    for k in range(field.e):
        assert field.frob_t[k] == frob, k
        frob = [o.powers(a, field.p + 1)[-1] for a in frob]


SCALAR_FIELDS = [field_new(p, e) for p, e in ((2, 1), (3, 1), (7, 1), (2, 2),
                                              (2, 3), (3, 2), (5, 2), (3, 3))]


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=repr)
def test_pow_matches_repeated_multiplication(field):
    o, q = DigitOracle(field), field.q
    ks = range(-q - 1, 2 * q + 2)
    for a in range(1, q):
        inv = next(b for b in range(1, q) if o.mul(a, b) == 1)
        up, down = o.powers(a, 2 * q + 2), o.powers(inv, q + 2)
        for k in ks:
            want = up[k] if k >= 0 else down[-k]
            assert (field.from_index(a) ** k).idx == want, (a, k)
    zero = field.zero
    assert zero ** 0 == field.one
    assert all((zero ** k).is_zero() for k in (1, 2, q - 1, q, 10 ** 30))
    with pytest.raises(DivisionByZero):
        zero ** -1


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=repr)
def test_frobenius_matches_repeated_multiplication(field):
    o, p, e = DigitOracle(field), field.p, field.e
    for a in range(field.q):
        x, pw = field.from_index(a), o.powers(a, p ** (e - 1) + 1)
        for k in range(-2 * e, 2 * e + 1):
            # Frobenius has order e, so a^(p^k) for k < 0 is a^(p^(k mod e))
            assert x.frobenius(k).idx == pw[p ** (k % e)], (a, k)


def test_cross_field_operations_rejected():
    a = field_new(2).one
    b = field_new(3).one
    with pytest.raises(FieldMismatch):
        a + b


def test_binom_mod_p_matches_math_comb():
    from math import comb

    rng = random.Random(SEED)
    for p in (2, 3, 5):
        for _ in range(200):
            n, k = rng.randrange(60), rng.randrange(60)
            assert binom_mod_p(n, k, p) == comb(n, k) % p


def test_binom_mod_p_negative_upper_index():
    from math import comb

    rng = random.Random(SEED)
    for p in (2, 3, 5):
        for _ in range(200):
            n, k = rng.randrange(1, 40), rng.randrange(40)
            # binom(-n, k) = (-1)^k binom(n + k - 1, k)
            want = (-1) ** k * comb(n + k - 1, k) % p
            assert binom_mod_p(-n, k, p) == want
