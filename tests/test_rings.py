"""Exact polynomial, rational function, and s-expansion arithmetic."""

import random

import pytest

from carlitzhd import (
    ConstraintViolated,
    DivisionByZero,
    FieldMismatch,
    FqElem,
    Jet,
    L_poly,
    PoleAtTheta,
    Poly,
    RatFunc,
    SJet,
    USeries,
    VARS_T,
    VARS_TT,
    b_rat,
    binom_mod_p,
    eta_rat,
    field_new,
    poly_divexact,
    poly_gcd,
    taylor_shift,
)

from oracles import PrsFrac, prs_make, sjet_from_ratfunc, sjet_inverse

SEED = 1729


def rand_poly(rng, field, vars=VARS_T, max_deg=4, terms=4):
    nv = len(vars)
    items = []
    for _ in range(rng.randrange(terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nv))
        items.append((exps, field.from_index(rng.randrange(field.q))))
    return Poly.from_items(field, items, vars)


def rand_poly_nonzero(rng, field, vars=VARS_T, max_deg=4, terms=4):
    while True:
        p = rand_poly(rng, field, vars, max_deg, terms)
        if not p.is_zero():
            return p


def rand_ratfunc(rng, field, vars=VARS_T):
    num, den = rand_poly(rng, field, vars, 3, 3), rand_poly_nonzero(rng, field, vars, 3, 3)
    if vars == VARS_T:
        return RatFunc.make(num, den)
    r = prs_make(num, den)  # make refuses (theta, t); the value is a plain RatFunc
    return RatFunc(r.num, r.den)


# -- Poly ----------------------------------------------------------------------

def test_poly_construction_drops_zero_terms():
    f = field_new(3)
    p = Poly.from_items(f, [((2,), 0), ((1,), 2), ((1,), 1)])
    assert p == Poly.from_items(f, [((1,), 0)])
    assert p.is_zero()


def test_poly_coeff_and_degree():
    f = field_new(5)
    p = Poly.from_items(f, [((3, 1), 2), ((0, 2), 4)], VARS_TT)
    assert p.coeff((3, 1)) == f.elem(2)
    assert p.coeff((9, 9)) == f.zero
    assert p.degree(0) == 3 and p.degree(1) == 2
    assert p.total_degree() == 4
    exps, lead = p.leading_term()
    assert exps == (3, 1) and lead == f.elem(2)


def test_poly_monic_scales_leading_to_one():
    f = field_new(5)
    p = Poly.from_items(f, [((2,), 3), ((0,), 1)])
    m = p.monic()
    assert m.leading_term()[1] == f.one
    assert m.scale(3) == p


@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2)])
def test_poly_ring_axioms_sampled(q, e):
    f = field_new(q, e)
    rng = random.Random(SEED)
    for _ in range(200):
        a = rand_poly(rng, f, VARS_TT)
        b = rand_poly(rng, f, VARS_TT)
        c = rand_poly(rng, f, VARS_TT)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly.zero(f, VARS_TT)



@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2), (257, 1)])
def test_poly_sum_of_two_views_keeps_a_view(q, e):
    f = field_new(q, e)
    rng = random.Random(SEED + q)
    for _ in range(100):
        a, b = rand_poly(rng, f), rand_poly(rng, f)
        a._view(), b._view()
        for x, y in ((a, b), (a, -a), (a, -b)):
            s = x + y
            assert s.terms == dict(Poly.from_items(
                f, list(x.coeff_items()) + list(y.coeff_items())).terms)
            assert s._dv is not None and s._view() == Poly(f, VARS_T, s.terms).to_dense()
    # a sum that cancels is the zero polynomial, view and hash included
    a = Poly.from_items(f, [((0,), 1), ((2,), 1)])
    assert a._dv is not None
    z = a - a
    assert z.is_zero() and z == Poly.zero(f) and hash(z) == hash(Poly.zero(f))
    assert z._dv == [] and (z + a) == a and (z + a)._dv == a._dv


# -- the dense-first univariate Poly ---------------------------------------------

def rand_terms(rng, field, vars=VARS_T, max_deg=9, nterms=5) -> dict:
    """A random term map {exponent tuple: nonzero table index}."""
    return {tuple(rng.randrange(max_deg + 1) for _ in vars): rng.randrange(1, field.q)
            for _ in range(rng.randrange(nterms + 1))}


def summed_terms(field, pairs) -> dict:
    """The univariate term map of sum c*theta^e over (e, FqElem c) pairs,
    added up with FqElem arithmetic."""
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, field.zero) + c
    return {(e,): c.idx for e, c in acc.items() if not c.is_zero()}


def elems(field, terms: dict) -> list:
    return [(e[0], field.from_index(c)) for e, c in terms.items()]


def assert_same_value(p: Poly, terms: dict):
    """p is the value of the term map, against the Poly built from it."""
    ref = Poly(p.field, VARS_T, dict(terms))
    assert p == ref and ref == p and hash(p) == hash(ref)
    assert repr(p) == repr(ref)
    assert p.terms == ref.terms == terms
    assert p._dv == ref._dv == p.to_dense()


@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1)])
def test_univariate_poly_built_any_way_is_the_same_value(q, e):
    f = field_new(q, e)
    rng = random.Random(SEED + q * e)
    for c in [0] + f.elements()[:5]:
        assert_same_value(Poly.const(f, c), summed_terms(f, [(0, c)]))
    assert_same_value(Poly.zero(f), {})
    assert_same_value(Poly.one(f), {(0,): 1})
    for _ in range(40):
        ta, tb = rand_terms(rng, f), rand_terms(rng, f)
        a, b = Poly(f, VARS_T, dict(ta)), Poly(f, VARS_T, dict(tb))
        dense = [0] * 12
        for (i,), c in ta.items():
            dense[i] = c
        assert_same_value(Poly.from_dense(f, dense), ta)
        items = [((i,), c) for i, c in elems(f, ta) + elems(f, tb)]
        assert_same_value(Poly.from_items(f, items), summed_terms(f, [
            (i, c) for (i,), c in items]))
        assert_same_value(a + b, summed_terms(f, elems(f, ta) + elems(f, tb)))
        assert_same_value(a - b, summed_terms(f, elems(f, ta) + [
            (i, -c) for i, c in elems(f, tb)]))
        assert_same_value(a - a, {})
        assert_same_value(a * b, summed_terms(f, [
            (i + j, x * y) for i, x in elems(f, ta) for j, y in elems(f, tb)]))
        c = f.from_index(rng.randrange(f.q))
        assert_same_value(a._scaled(c.idx), summed_terms(f, [(i, x * c) for i, x in elems(f, ta)]))
        k = rng.randrange(3)
        assert_same_value(a.frobenius_power(k), summed_terms(f, [
            (i * f.p ** k, x ** (f.p ** k)) for i, x in elems(f, ta)]))
        tt = rand_terms(rng, f, VARS_TT, 6, 6)
        assert_same_value(Poly(f, VARS_TT, tt).eval_t_at_theta(), summed_terms(f, [
            (i + j, f.from_index(x)) for (i, j), x in tt.items()]))


def test_univariate_poly_above_the_dense_bound_keeps_its_terms():
    # the three-bracket product over F_256 has degree 256^3 + 256^2 + 256,
    # above rings._MAX_DENSE_DEGREE, and 8 terms: it is stored by terms alone
    f = field_new(2, 8)
    big = L_poly(f, 3)
    assert big._dv is None and len(big.terms) == 8
    assert big == Poly(f, VARS_T, dict(big.terms))
    assert hash(big) == hash(Poly(f, VARS_T, dict(big.terms)))
    assert big.degree() == 256 ** 3 + 256 ** 2 + 256
    # a sum that cancels the high terms comes back to the dense form
    small = (big + Poly.one(f)) - big
    assert small._dv == [1] and small == Poly.one(f)
    with pytest.raises(ConstraintViolated, match="largest dense degree"):
        RatFunc.make(Poly.one(f), big)


def test_poly_pow_matches_repeated_multiplication():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(50):
        a = rand_poly(rng, f)
        acc = Poly.one(f)
        for k in range(5):
            assert a ** k == acc
            acc = acc * a


def base_p_products(k, p):
    """Products of base-p powering: each nonzero digit d is raised by
    squaring (a squaring per bit below the top one, a product per further
    set bit), and the digit powers are multiplied together; a digit's
    p-power stage is a Frobenius power, which is no product."""
    count, pieces = 0, 0
    while k:
        k, d = divmod(k, p)
        if d:
            count += d.bit_length() - 1 + bin(d).count("1") - 1
            pieces += 1
    return count + max(0, pieces - 1)


def test_poly_pow_makes_only_the_products_it_needs(monkeypatch):
    # base-p powering at q = 3: 8 = 22_3 and 26 = 222_3 square each digit,
    # 3 is one Frobenius power and 13 = 111_3 multiplies three stages
    f = field_new(3)
    a = Poly(f, VARS_T, {(0,): 1, (1,): 2, (4,): 1})
    want = [Poly.one(f)]
    for _ in range(80):
        want.append(want[-1] * a)
    calls = []
    real = Poly.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for k, products in ((0, 0), (1, 0), (2, 1), (3, 0), (8, 3), (13, 2),
                        (26, 5), (80, 7)):
        calls.clear()
        assert a ** k == want[k]
        assert len(calls) == products == base_p_products(k, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
def test_poly_pow_base_p_matches_repeated_products(monkeypatch, p):
    # digits above 2 (up to 256 at p = 257) take the squaring path
    f = field_new(p)
    rng = random.Random(SEED + p)
    ks = sorted(k for k in {0, 1, p - 1, p, p + 1, 2 * p - 1, p * p - 1, 600}
                | {rng.randrange(601) for _ in range(40)} if k <= 600)
    for terms in (((0,), (1,)), ((1, 0), (0, 1))):
        vars = VARS_T if len(terms[0]) == 1 else VARS_TT
        a = Poly.from_items(f, [(terms[0], 1), (terms[1], rng.randrange(1, p))], vars)
        powers = {}
        acc = Poly.one(f, vars)
        for k in range(max(ks) + 1):
            powers[k] = acc
            acc = acc * a
        calls = []
        real = Poly.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        for k in ks:
            calls.clear()
            assert a ** k == powers[k], (p, k)
            assert len(calls) == base_p_products(k, p), (p, k)
        monkeypatch.undo()


def test_poly_frobenius_power_is_pth_power():
    for f in (field_new(2), field_new(3), field_new(2, 2)):
        rng = random.Random(SEED)
        for _ in range(50):
            a = rand_poly(rng, f, VARS_TT)
            assert a.frobenius_power(1) == a ** f.p
            assert a.frobenius_power(f.e) == a ** f.q
            assert a.frobenius_power(2) == a ** (f.p ** 2)


def test_poly_freshman_dream():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(100):
        a, b = rand_poly(rng, f), rand_poly(rng, f)
        assert (a + b) ** 3 == a ** 3 + b ** 3


def test_lift_drop_and_eval_t():
    f = field_new(3)
    p = Poly.from_items(f, [((2,), 1), ((0,), 2)])
    lifted = p.lift_tt()
    assert lifted.vars == VARS_TT
    assert lifted.drop_t() == p
    bi = Poly.from_items(f, [((1, 2), 1)], VARS_TT)  # theta * t^2
    assert bi.eval_t_at_theta() == Poly.monomial(f, (3,))
    with pytest.raises(ConstraintViolated):
        bi.drop_t()  # genuinely involves t


def test_dense_roundtrip():
    f = field_new(5)
    p = Poly.from_items(f, [((4,), 2), ((1,), 3)])
    assert Poly.from_dense(f, p.to_dense()) == p
    assert Poly.from_dense(f, [0, 0]) == Poly.zero(f)


def test_poly_gcd_properties():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        a = rand_poly_nonzero(rng, f)
        b = rand_poly_nonzero(rng, f)
        g = rand_poly_nonzero(rng, f)
        d = poly_gcd(a * g, b * g)
        # g divides the gcd; the gcd divides both products
        poly_divexact(d, poly_gcd(d, g))
        poly_divexact(a * g, d)
        poly_divexact(b * g, d)
        assert d.leading_term()[1] == f.one  # monic normalization


def test_poly_divexact_exact_and_inexact():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        a = rand_poly(rng, f)
        b = rand_poly_nonzero(rng, f)
        assert poly_divexact(a * b, b) == a
    with pytest.raises(ConstraintViolated):
        poly_divexact(Poly.monomial(f, (1,)) + Poly.one(f), Poly.monomial(f, (1,)))


# -- RatFunc -------------------------------------------------------------------

def test_ratfunc_canonical_form():
    f = field_new(3)
    a = Poly.from_items(f, [((1,), 1), ((0,), 1)])        # x + 1
    b = Poly.from_items(f, [((2,), 1), ((0,), 2)])        # x^2 + 2
    c = Poly.from_items(f, [((1,), 2), ((0,), 1)])        # 2x + 1
    assert RatFunc.make(a * c, b * c) == RatFunc.make(a, b)
    # denominator is normalized monic, scale pushed to the numerator
    r = RatFunc.make(Poly.one(f), Poly.from_items(f, [((1,), 2)]))
    assert r.den == Poly.monomial(f, (1,))
    assert r.num == Poly.const(f, 2)


def test_ratfunc_zero_denominator_raises():
    f = field_new(3)
    with pytest.raises(DivisionByZero):
        RatFunc.make(Poly.one(f), Poly.zero(f))
    with pytest.raises(DivisionByZero):
        RatFunc.one(f).inverse() * RatFunc.zero(f).inverse()


def test_ratfunc_field_axioms_sampled():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(120):
        a = rand_ratfunc(rng, f)
        b = rand_ratfunc(rng, f)
        c = rand_ratfunc(rng, f)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a
        if not a.is_zero():
            assert a * a.inverse() == RatFunc.one(f)
            assert (a / a).is_one()


def test_ratfunc_mixed_field_rejected():
    a = RatFunc.one(field_new(2))
    b = RatFunc.one(field_new(3))
    with pytest.raises(FieldMismatch):
        a + b


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_equal_values_hash_equal(q):
    # FqElem, constant Poly and RatFunc with denominator 1 compare equal
    # across types (and to the ints 0..p-1), in either order, so they must
    # hash equal too
    f = field_new(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}[q])
    rng = random.Random(SEED)
    values = list(range(f.p)) + f.elements()
    for vars in (VARS_T, VARS_TT):
        values += [Poly.const(f, c, vars) for c in f.elements()]
        values += [RatFunc.const(f, c, vars) for c in f.elements()]
        for _ in range(6):
            num = rand_poly(rng, f, vars, 3, 3)
            values += [num, RatFunc.from_poly(num), rand_ratfunc(rng, f, vars)]
    pairs = 0
    for a in values:
        for b in values:
            assert (a == b) == (b == a), (a, b)
            if a == b:
                pairs += 1
                assert hash(a) == hash(b), (a, b)
    assert pairs > len(values)
    assert len({f.from_index(1), 1, RatFunc.one(f)}) == 1
    # Poly constants equal their ints and field elements too
    assert Poly.one(f) == 1 and 1 == Poly.one(f) and Poly.zero(f, VARS_TT) == 0
    assert Poly.one(f) == f.one and f.one == Poly.one(f, VARS_TT)
    mixed = {Poly.one(f), 1, Poly.const(f, 1, VARS_TT), Poly.zero(f), 0,
             Poly.const(f, f.p - 1), f.p - 1, RatFunc.const(f, f.p - 1)}
    assert len(mixed) == len({0, 1, f.p - 1})
    # equal hashes across fields must not turn into a FieldMismatch
    other = field_new(5).one
    assert RatFunc.one(f) != other and other != RatFunc.one(f)
    assert Poly.one(f) != other and other != Poly.one(f)
    assert len({RatFunc.one(f), other}) == 2
    assert len({Poly.one(f), other}) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_scalar_equality_is_transitive(q):
    # an int equals a field-valued object only as its canonical residue
    # 0..p-1, so equality is an equivalence on ints, FqElem, Poly and RatFunc
    # constants, and equal values hash equal
    f = field_new(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}[q])
    p = f.p
    values = list(range(-2 * p, 2 * p + 1)) + f.elements()
    for vars in (VARS_T, VARS_TT):
        values += [Poly.const(f, c, vars) for c in f.elements()]
        values += [RatFunc.const(f, c, vars) for c in f.elements()]
    assert f.from_index(1) != p + 1 and f.from_index(1) != 1 - p
    assert Poly.one(f) != p + 1 and RatFunc.one(f) != 1 - p
    for a in values:
        for b in values:
            if a != b:
                continue
            assert hash(a) == hash(b), (a, b)
            for c in values:
                if b == c:
                    assert a == c, (a, b, c)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_bivariate_fractions_are_values_only(q):
    # poly_gcd, make, +, - and * (and / through *) refuse F_q[theta, t] with
    # one line; ==, hash, repr, **, inverse, frobenius_power and
    # eval_t_at_theta need no gcd and give the reference's values, the
    # canonical forms that the bivariate gcd gave
    f = field_new(*{4: (2, 2)}.get(q, (q,)))
    values = [b_rat(f, j) for j in (0, 1, q, 2 * q)] + [eta_rat(f, l) for l in (1, 2)]
    x = Poly.monomial(f, (1, 1), vars=VARS_TT)
    refused = [
        lambda r: poly_gcd(r.num, r.den),
        lambda r: poly_gcd(r.num, Poly.zero(f, VARS_TT)),
        lambda r: RatFunc.make(r.num, r.den),
        lambda r: RatFunc.make(Poly.zero(f, VARS_TT), r.den),
        lambda r: r + r, lambda r: r + 0, lambda r: 1 + r, lambda r: r + x,
        lambda r: r - r, lambda r: r - 1, lambda r: 1 - r,
        lambda r: r * r, lambda r: r * 1, lambda r: x * r, lambda r: r / x,
    ]
    for r in values:
        for op in refused:
            with pytest.raises(ConstraintViolated) as info:
                op(r)
            assert "\n" not in str(info.value)
        ref = PrsFrac.of(r)
        twin = RatFunc(r.num, r.den)
        assert r == twin == ref and hash(r) == hash(twin) == hash(ref)
        assert r != ref + 1 and len({r, twin, ref}) == 1
        assert repr(r) == repr(prs_make(r.num, r.den))
        want = PrsFrac.one(f, VARS_TT)
        for k in range(4):
            assert type(r ** k) is RatFunc and r ** k == want, k
            want = want * ref
        if not r.is_zero():
            inv = prs_make(r.den, r.num)
            assert type(r.inverse()) is RatFunc and r.inverse() == inv
            assert r ** -2 == inv * inv
        frob = PrsFrac.one(f, VARS_TT)
        for _ in range(f.p):
            frob = frob * ref
        assert type(r.frobenius_power(1)) is RatFunc and r.frobenius_power(1) == frob
        at = r.eval_t_at_theta()
        assert at.vars == VARS_T
        assert at == prs_make(r.num.eval_t_at_theta(), r.den.eval_t_at_theta())
    # univariate fractions keep their arithmetic
    one = RatFunc.one(f)
    th = Poly.monomial(f, (1,))
    assert RatFunc.make(th * th, th) == one * th and one + one - one == one
    assert poly_gcd(th * th, th) == th


def test_ratfunc_eval_t_at_theta_and_pole():
    f = field_new(3)
    t = Poly.monomial(f, (0, 1), vars=VARS_TT)
    th = Poly.monomial(f, (1, 0), vars=VARS_TT)
    r = prs_make(t * t, th + Poly.one(f, VARS_TT))
    got = r.eval_t_at_theta()
    assert got == RatFunc.make(Poly.monomial(f, (2,)),
                               Poly.monomial(f, (1,)) + Poly.one(f))
    with pytest.raises(PoleAtTheta):
        prs_make(Poly.one(f, VARS_TT), t - th).eval_t_at_theta()
    assert (t * t).eval_t_at_theta() == Poly.monomial(f, (2,))


def test_ratfunc_frobenius_power_is_pth_power():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(40):
        a = rand_ratfunc(rng, f)
        assert a.frobenius_power(1) == a ** 3


# -- SJet ----------------------------------------------------------------------

def test_taylor_shift_explicit():
    f = field_new(3)
    t2 = Poly.monomial(f, (0, 2), vars=VARS_TT)
    s = taylor_shift(t2, 4)
    want = [Poly.monomial(f, (2,)), Poly.monomial(f, (1,), 2),
            Poly.one(f), Poly.zero(f)]
    assert [c for c in s.coeffs] == [RatFunc.from_poly(w) for w in want]
    # a pure theta-polynomial is constant in s
    s2 = taylor_shift(Poly.monomial(f, (2,)), 3)
    assert s2.coeffs[0] == RatFunc.from_poly(Poly.monomial(f, (2,)))
    assert all(c.is_zero() for c in s2.coeffs[1:])


def test_taylor_shift_binomial_rule():
    # coefficient k of the shift of t^j is binom(j, k) theta^{j-k}
    f = field_new(2)
    j, order = 6, 7
    s = taylor_shift(Poly.monomial(f, (0, j), vars=VARS_TT), order)
    for k in range(order):
        b = binom_mod_p(j, k, 2)
        want = (RatFunc.from_poly(Poly.monomial(f, (j - k,), b))
                if b else RatFunc.zero(f))
        assert s.coeffs[k] == want


def test_taylor_shift_is_ring_homomorphism():
    f = field_new(3)
    rng = random.Random(SEED)
    for _ in range(60):
        a = rand_poly(rng, f, VARS_TT, 3, 3)
        b = rand_poly(rng, f, VARS_TT, 3, 3)
        assert taylor_shift(a * b, 5) == taylor_shift(a, 5) * taylor_shift(b, 5)
        assert taylor_shift(a + b, 5) == taylor_shift(a, 5) + taylor_shift(b, 5)


def test_sjet_from_ratfunc_explicit():
    f = field_new(3)
    one_over_t = prs_make(Poly.one(f, VARS_TT),
                          Poly.monomial(f, (0, 1), vars=VARS_TT))
    s = sjet_from_ratfunc(one_over_t, 3)
    # 1/t = 1/theta - s/theta^2 + s^2/theta^3 - ...
    for k in range(3):
        want = RatFunc.make(Poly.const(f, (-1) ** k),
                            Poly.monomial(f, (k + 1,)))
        assert s.coeffs[k] == want


def test_sjet_from_ratfunc_pole_raises():
    f = field_new(3)
    t = Poly.monomial(f, (0, 1), vars=VARS_TT)
    th = Poly.monomial(f, (1, 0), vars=VARS_TT)
    with pytest.raises(PoleAtTheta):
        sjet_from_ratfunc(prs_make(Poly.one(f, VARS_TT), t - th), 4)


def test_sjet_mul_inverse_roundtrip():
    f = field_new(3)
    rng = random.Random(SEED)
    order = 5
    one = SJet.constant(f, order, 1)
    for _ in range(40):
        num = rand_poly(rng, f, VARS_TT, 3, 3)
        den = rand_poly_nonzero(rng, f, VARS_TT, 3, 3)
        if den.eval_t_at_theta().is_zero():
            continue
        s = sjet_from_ratfunc(prs_make(num, den), order)
        if s.coeffs[0].is_zero():
            continue
        assert s * sjet_inverse(s) == one


def test_sjet_inverse_requires_unit_constant_term():
    from carlitzhd import NonUnitConstantTerm

    f = field_new(3)
    s = SJet(f, [RatFunc.zero(f), RatFunc.one(f), RatFunc.zero(f)])
    with pytest.raises(NonUnitConstantTerm):
        sjet_inverse(s)


def test_sjet_frobenius_power():
    f = field_new(3)
    rng = random.Random(SEED)
    order = 9
    for _ in range(20):
        den = rand_poly_nonzero(rng, f, VARS_TT, 2, 2)
        if den.eval_t_at_theta().is_zero():
            continue
        s = sjet_from_ratfunc(
            prs_make(rand_poly(rng, f, VARS_TT, 2, 2), den), order)
        assert s.frobenius_power(1) == s ** 3


def test_sjet_scale_and_order_mismatch():
    from carlitzhd import DegreeMismatch

    f = field_new(3)
    a = SJet.constant(f, 3, 2)
    assert a.scale(2) == SJet.constant(f, 3, 4)
    b = SJet.constant(f, 4, 1)
    with pytest.raises(DegreeMismatch):
        a + b


# -- immutability of the value types -------------------------------------------

def _values():
    """One value of each immutable type, with every slot set: a Poly built
    from terms, one built from its dense list (terms unset until read), a
    bivariate Poly, a RatFunc with a cached hash, a USeries, an FqElem and a
    Jet."""
    f = field_new(3, 2)
    x = Poly.from_items(f, [((2,), 1), ((0,), f.from_index(5))])
    r = RatFunc.make(Poly.one(f), x)
    hash(r)
    return [x, Poly.from_dense(f, [0, 1]), Poly.monomial(f, (1, 2)), r,
            USeries(f, -1, [1, 2], 7), FqElem(f, 4), Jet([x, x])]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_assigning_any_slot_raises(value):
    before = repr(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert repr(value) == before
