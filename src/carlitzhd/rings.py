"""Exact polynomial and rational-function arithmetic over F_q.

Polynomials live in F_q[theta] (dense lists of table indices) or
F_q[theta, t] (sparse exponent-tuple maps).  Every product of dense lists
is one _udot, a sum of products (_umul is its one part): over a prime field
one big-int multiply per part when the cost model (_packs) favours it, else
one table loop.  Sparse products and exact quotients go through one
Kronecker map into F_q[x]: a product is one table loop over integer keys, a
quotient one dense division.  The period's inverse product is a series of
partition counts mod p, built by shift-and-adds of one packed int
(_partition_counts).

Rational functions are kept in canonical form at all times: numerator and
denominator coprime, denominator monic under the degree-lexicographic order
with theta > t.  make, + and * work over K = F_q(theta) only, on the cached
dense lists of their polynomials.  SJet is a truncated expansion in
s = t - theta with exact coefficients in K.

series_mul, series_inverse, series_frobenius and pow_base_p are the one
truncated-series algebra behind SJet, jets.Jet (a t-series of
useries.TPoly mod t^n is a Jet), the exact TPoly product and
useries.USeries; pow_base_p is also Poly's (and so RatFunc's) power.  They
skip a term only when a factor is an exact zero, so a coefficient that is
zero only up to its precision still caps the precision of every term it
enters.  Each coefficient of a product is one sum of products: one _udot
for USeries (USeries.sum_of_products, whose one-pair case is USeries *), a
fold of + for any other ring.  No routine returns a jet of fractions: the
jet c of a quotient N/D at t = theta is kept as the numerators
C_k = c_k * D^(k+1) of one fraction-free recurrence on the substituted
coefficients (_quotient_jet_numerators), and a check that needs canonical
c_k builds them only for its witness.

The gcd is Euclid on dense lists in F_q[theta].  A fraction in
F_q(theta, t) (a transfer coefficient b_j, an eta_l) is a value only: it is
built canonical by its constructor, then printed, compared, powered,
inverted, Frobenius-lifted and substituted at t = theta, never added to or
multiplied with another, so no bivariate gcd is needed; poly_gcd, make, +,
- and * refuse bivariate operands.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress

from .binomials import binom_mod_p
from .errors import (
    ConstraintViolated,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    Frozen,
    PoleAtTheta,
)
from .gf import Field, FqElem

VARS_T = ("theta",)
VARS_TT = ("theta", "t")


# -- dense univariate kernels (lists of table indices, low degree first) -----

def _utrim(c: list[int]) -> list[int]:
    if c and not c[-1]:  # most lists come trimmed: one test for them
        end = len(c) - 1
        while end and not c[end - 1]:
            end -= 1
        del c[end:]
    return c


def _uadd(a: list[int], b: list[int], f: Field, sub: bool = False) -> list[int]:
    """a + b, or a - b with sub, in one pass; in characteristic 2 they agree."""
    add = f.add_t
    if sub and f.p != 2:
        neg, out = f.neg_t, list(a)
        if len(b) > len(a):
            out += [neg[x] for x in b[len(a):]]
            b = b[:len(a)]
        for i, x in enumerate(b):
            out[i] = add[out[i]][neg[x]]
        return _utrim(out)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = add[out[i]][x]
    return _utrim(out)


def _umul(a, b, f: Field, n: int | None = None) -> list[int]:
    """The first n coefficients of a*b (all by default): a one-part _udot."""
    return _udot([(0, a, b)], f, len(a) + len(b) - 1 if n is None else n)


def _udot(parts, f: Field, n: int) -> list[int]:
    """The first n coefficients of sum x^offset * a * b over the parts
    (offset, a, b), trimmed.

    One part at offset 0 with a one-term operand is one _uscale of the
    other.  Otherwise each part is cut at n - offset, a part with no
    nonzero entry left is skipped, and n is capped at the latest end of a
    part.  Over a prime field a sum that the cost model (_packs) favours
    takes one big-int multiply per part, each shifted by its offset into
    one packed sum that is unpacked once; otherwise the table loop of
    _utable adds every part into one accumulator.
    """
    if n <= 0:
        return []
    if len(parts) == 1 and not parts[0][0]:
        _, a, b = parts[0]
        if len(a) == 1:
            return _uscale(b[:n], a[0], f)
        if len(b) == 1:
            return _uscale(a[:n], b[0], f)
    cut, pairs, slots, nonzero, end = [], 0, 0, 0, 0
    for off, a, b in parts:
        m = n - off
        if m <= 0:
            continue
        if len(a) > m:
            a = a[:m]
        if len(b) > m:
            b = b[:m]
        na, nb = len(a) - a.count(0), len(b) - b.count(0)
        if na > nb:
            a, b, na, nb = b, a, nb, na
        if not na:
            continue
        cut.append((off, a, b))
        pairs += na * nb
        slots += len(a) + len(b)
        nonzero += na
        if off + len(a) + len(b) - 1 > end:
            end = off + len(a) + len(b) - 1
    n = min(n, end)
    if f.e == 1 and cut and _packs(pairs, slots + n):
        prod = _packed_dense_mul(cut, n, f.p, nonzero)
        if prod is not None:
            return _utrim([x % f.p for x in prod])
    out = [0] * n
    for off, a, b in cut:
        _utable(out, off, a, b, f)
    return _utrim(out)


def _utable(out: list[int], off: int, a, b, f: Field) -> list[int]:
    """Add x^off * a * b into out, cut at len(out): one row per nonzero
    entry of a, over the nonzero entries of b up to the cut."""
    add, mul, n = f.add_t, f.mul_t, len(out)
    bs = list(zip(compress(range(len(b)), b), compress(b, b)))
    for i in compress(range(len(a)), a):
        row, base = mul[a[i]], off + i
        for j, y in bs:
            k = base + j
            if k >= n:
                break
            out[k] = add[out[k]][row[y]]
    return out


# Cost model of _uinverse, measured over F_2, F_3, F_5, F_7 and F_257 on
# random g with 32 to 16384 terms and 1 to 256 nonzero ones, and on every
# prime-field inverse of the four benchmark workloads: Newton doubling from a
# 16-term recurrence costs about as much as the support recurrence with 24
# nonzero terms of g past g_0 (they tie from 31 at n = 63 to 55 at
# n = 2036), plus a fixed 512 pairs.  Below that the support recurrence is
# up to 4x faster; dense g (about n/2 nonzero terms over F_2) takes Newton.
_NEWTON_BASE = 16
_NEWTON_MIN_PAIRS = 512
_NEWTON_PAIRS_PER_TERM = 24


def _uinverse(g, n: int, f: Field) -> list[int]:
    """The first n coefficients of 1/g, for g with a unit constant term.

    g may hold fewer than n terms; the missing ones are zero.  The
    recurrence h_j = -(1/g_0) sum g_i h_(j-i) runs over the nonzero g_i
    only, so it costs about n * s table pairs for the s nonzero terms of g
    past g_0.  Over a prime field, once that reaches
    _NEWTON_PAIRS_PER_TERM * n + _NEWTON_MIN_PAIRS, Newton doubling
    h <- h + h(1 - g h) mod x^2k takes over, with both products on _umul
    (von zur Gathen & Gerhard, Modern Computer Algebra, section 9.1).  It
    starts from the recurrence's first k terms, where k comes from halving
    n, rounding up, until k <= _NEWTON_BASE.
    """
    g = g[:n]
    k, sizes = n, []
    if f.e == 1 and n * (len(g) - 1 - g.count(0)) >= (
            _NEWTON_PAIRS_PER_TERM * n + _NEWTON_MIN_PAIRS):
        while k > _NEWTON_BASE:
            sizes.append(k)
            k = (k + 1) // 2
    add, mul, neg = f.add_t, f.mul_t, f.neg_t
    scale = mul[neg[f.inv_t[g[0]]]]
    tail = g[1:k]
    support = list(zip(compress(range(1, k), tail),
                       map(mul.__getitem__, compress(tail, tail))))
    # each h_j, once known, adds g_i h_j into acc[i + j]; h_j = -acc[j] / g_0,
    # and acc[0] = -1 gives h_0 = 1/g_0
    acc = [0] * k
    acc[0] = neg[1]
    h = [0] * k
    for j in range(k):
        x = h[j] = scale[acc[j]]
        if x:
            for i, row in support:
                t = i + j
                if t >= k:
                    break
                acc[t] = add[acc[t]][row[x]]
    for m in reversed(sizes):
        # g h = 1 + x^k e mod x^m, so h - x^k h e = 1/g mod x^m
        k = len(h)
        e = _umul(h, g[:m], f, m)[k:]
        h += [neg[c] for c in _umul(h, e, f, m - k)]
        h += [0] * (m - len(h))
    return h


def _uscale(a: list[int], c: int, f: Field) -> list[int]:
    if c == 0:
        return []
    if c == 1:
        return _utrim(list(a))
    row = f.mul_t[c]
    return _utrim([row[x] for x in a])


def _uscale_by_binomial(run, start: int, k: int, f: Field, a: int = 0,
                        d: int = 1) -> list[int]:
    """[binom(a + (start + i)/d, k) * run[i] for each i], untrimmed, for d
    prime to p; (start + i)/d is a p-adic integer.

    By Lucas' rule the binomial mod p reads its top argument only mod p^L
    once p^L > k, so it depends only on i mod p^L: each residue class of the
    run is one binomial and one scaled slice.
    """
    mod = f.p
    while mod <= k:
        mod *= f.p
    inv = pow(d, -1, mod)
    out = [0] * len(run)
    for j in range(min(mod, len(run))):
        if c := binom_mod_p((a + (start + j) * inv) % mod, k, f.p):
            out[j::mod] = map(f.mul_t[c].__getitem__, run[j::mod])
    return out


def _ureduce(r: list[int], b: list[int], f: Field, q: list[int] | None = None) -> None:
    """r <- r mod b in place, trimmed, for a trimmed nonzero b; the quotient's
    coefficients go into q when it is given."""
    add, mul, neg = f.add_t, f.mul_t, f.neg_t
    inv_lead = f.inv_t[b[-1]]
    # the nonzero lower terms of -b; the leading term would cancel r[top],
    # which is not read again, and r[db:] is cut off once at the end
    lower = [(j, neg[y]) for j, y in enumerate(b[:-1]) if y]
    db = len(b) - 1
    for top in range(len(r) - 1, db - 1, -1):
        if r[top]:
            c = mul[r[top]][inv_lead]
            shift = top - db
            if q is not None:
                q[shift] = c
            row = mul[c]
            for j, y in lower:
                r[shift + j] = add[r[shift + j]][row[y]]
    del r[db:]
    _utrim(r)


def _udivexact(a: list[int], b: list[int], f: Field) -> list[int]:
    b = _utrim(list(b))
    if not b:
        raise DivisionByZero("univariate division by zero")
    r = list(a)
    q = [0] * max(0, len(r) - len(b) + 1)
    _ureduce(r, b, f, q)
    if r:
        raise ConstraintViolated("univariate division was not exact")
    return _utrim(q)


def _ugcd(a: list[int], b: list[int], f: Field) -> list[int]:
    """The monic gcd by Euclid, each remainder reduced in place."""
    a, b = _utrim(list(a)), _utrim(list(b))
    while b:
        _ureduce(a, b, f)
        a, b = b, a
    if a and a[-1] != 1:
        a = _uscale(a, f.inv_t[a[-1]], f)
    return a


def _ucancel(a: list[int], b: list[int], f: Field):
    """(a/g, b/g, g) for the monic g = gcd(a, b); g = [1] if a or b is constant."""
    g = _ugcd(a, b, f) if len(a) > 1 < len(b) else [1]
    return (a, b, g) if len(g) == 1 else (_udivexact(a, g, f), _udivexact(b, g, f), g)


# -- the Kronecker map and the packed product ---------------------------------
#
# The Kronecker map sends F_q[theta, t] to F_q[x] by theta -> x^stride,
# t -> x: term (i, j) goes to key i * stride + j, and a univariate term (i,)
# to key i, which is stride 1.  It is a ring map, and injective on
# polynomials of t-degree below the stride, so sparse Poly products and
# exact division run on univariate images and map back by divmod(key,
# stride).  Over F_p (e == 1) a table index is the residue itself, so a
# dense run (a USeries run, a univariate Poly's list) can be packed into one
# Python int, slot by slot, multiplied once as integers, and unpacked with
# % p.  See von zur Gathen & Gerhard, Modern Computer Algebra, section 8.4.

def _kron(p: "Poly", stride: int) -> dict[int, int]:
    """The image of p under the Kronecker map: key -> table index."""
    if len(p.vars) == 1:
        return {i: c for (i,), c in p.terms.items()}
    return {i * stride + j: c for (i, j), c in p.terms.items()}


def _unkron(image: dict, stride: int, nvars: int) -> dict:
    """The term map of an image {key: index} whose t-degrees are below the
    stride.
    """
    if nvars == 1:
        return {(k,): c for k, c in image.items()}
    return {divmod(k, stride): c for k, c in image.items()}


def _dense(image: dict) -> list[int]:
    """The dense coefficient list of a nonempty image, low degree first."""
    out = [0] * (max(image) + 1)
    for k, c in image.items():
        out[k] = c
    return out


_SLOT_TYPECODES = sorted((array(code).itemsize, code) for code in "BHIQ")
_BYTEORDER = sys.byteorder


def _slot_type(n: int, p: int):
    """(byte width, array typecode) of the narrowest slot that holds a sum of
    n products of residues below p; None when that needs more than 64 bits.
    """
    bound = n * (p - 1) ** 2
    for width, code in _SLOT_TYPECODES:
        if bound < 1 << (8 * width):
            return width, code
    return None


_PACK_MIN_PAIRS = 48


def _packs(pairs: int, slots: int) -> bool:
    """Cost model of _udot: pack when twice the table loop's pairs
    reach slots + _PACK_MIN_PAIRS, the fixed cost of a packed product.

    pairs counts the products of nonzero entries below n, at most what the
    table loop runs; slots counts the packed slots, every operand and the
    n result slots.  Measured on random operands over F_2, F_3, F_7 and
    F_257 with 3 to 2048 terms, 1% to 100% of them nonzero: a pair costs
    about two slots (93 ns against 53 ns over F_2), and the two paths tie up
    to about 24 pairs.  Sums of 2 to 8 parts of 3 to 40 terms need no
    charge per part, as the unpack is shared.
    """
    return 2 * pairs >= slots + _PACK_MIN_PAIRS


def _unpack(x: int, slot, n: int) -> array:
    """The first n slots of a packed integer."""
    width, code = slot
    nbytes = width * n
    if x.bit_length() > 8 * nbytes:
        x &= (1 << (8 * nbytes)) - 1
    out = array(code)
    out.frombytes(x.to_bytes(nbytes, _BYTEORDER))
    return out


def _packed_dense_mul(parts, n: int, p: int, nonzero: int) -> array | None:
    """The first n slots of sum x^offset * a * b over the parts (offset, a,
    b), over F_p by one big-int multiply per part, unreduced.

    Each operand is a dense run of residues, low degree first, of length at
    most n.  Every result slot sums at most nonzero products, the nonzero
    entries of each part's sparser operand summed over the parts, which
    fixes the slot width, and reduces mod p to one coefficient.  Returns
    None when a slot would need more than 64 bits.
    """
    slot = _slot_type(nonzero, p)
    if slot is None:
        return None
    # each product is added as it comes, and neither 0 + x nor x << 0,
    # which copy x, is formed
    bits, acc = 8 * slot[0], None
    for off, a, b in parts:
        prod = _pack(a, slot) * _pack(b, slot)
        if off:
            prod <<= bits * off
        acc = prod if acc is None else acc + prod
    return _unpack(acc, slot, n)


def _pack(x, slot) -> int:
    return int.from_bytes(array(slot[1], x).tobytes(), _BYTEORDER)


def _partition_counts(parts, n: int, p: int) -> list[int]:
    """The first n coefficients of prod 1/(1 - x^E) over the parts E >= 1,
    mod p: the partition counts of 0..n-1 into the parts.

    1/(1 - y) = prod_(i >= 0) (1 + y^(p^i) + ... + y^((p-1)p^i)), so each
    E p^i below n costs p - 1 shift-and-adds of one packed int, and a part
    E >= n costs nothing.  Over F_2 a slot is one bit and an add is XOR.
    For odd p a slot is 64 bits; each factor multiplies the bound on a slot
    by p, and the slots are reduced mod p before it would pass 2^64.
    """
    if n <= 0:
        return []
    if p == 2:
        h, mask = 1, (1 << n) - 1
        for e in parts:
            while e < n:
                h, e = h ^ (h << e) & mask, 2 * e
        digits = bin(h)[:1:-1].ljust(n, "0").encode()
        return list(digits.translate(bytes.maketrans(b"01", b"\0\1")))
    slot = _SLOT_TYPECODES[-1]
    bits = 8 * slot[0]
    h, bound, mask = 1, 1, (1 << (bits * n)) - 1
    for e in parts:
        while e < n:
            if bound * p >> bits:
                h, bound = _pack([c % p for c in _unpack(h, slot, n)], slot), p - 1
            acc = h
            for _ in range(p - 1):
                acc = h + ((acc << (bits * e)) & mask)
            h, bound, e = acc, bound * p, e * p
    return [c % p for c in _unpack(h, slot, n)]


# -- sparse polynomials -------------------------------------------------------

def _deglex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _accumulate(terms: dict, items, f: Field) -> dict:
    """Add (exponents, table index) pairs into terms; a key that cancels goes."""
    add = f.add_t
    for k, c in items:
        cur = add[terms.get(k, 0)][c]
        if cur:
            terms[k] = cur
        else:
            terms.pop(k, None)
    return terms


# A univariate polynomial of degree above this keeps its sparse term map: its
# dense list would cost a pointer per slot (theta^(q^3) - theta at q = 1024
# has 2^30 slots).  The dense kernels behind RatFunc, gcd and exact division
# refuse it.
_MAX_DENSE_DEGREE = 1 << 22


class Poly(Frozen):
    """Polynomial over F_q in theta (1 var) or theta, t (2 vars).

    A univariate polynomial is stored as its trimmed dense list of field-table
    indices, low degree first (_dv), and its term map ``terms`` is built on
    first read.  A bivariate one, or a univariate one of degree above
    _MAX_DENSE_DEGREE, is stored as terms alone (_dv is None).  terms maps
    exponent tuples to nonzero table indices; use coeff()/coeff_items() for
    the FqElem view.  Neither form may change after construction.
    """

    __slots__ = ("field", "vars", "terms", "_hash", "_dv")

    def __init__(self, field: Field, vars: tuple[str, ...], terms: dict | None,
                 dense: list[int] | None = None):
        """From a term map; a univariate one also gets its dense list.
        from_dense passes the list alone."""
        _poly_set_field(self, field)
        _poly_set_vars(self, vars)
        if terms is not None:
            _poly_set_terms(self, terms)
            if len(vars) == 1 and dense is None:
                top = max((i for i, in terms), default=-1)
                if top <= _MAX_DENSE_DEGREE:
                    dense = [0] * (top + 1)
                    for (i,), c in terms.items():
                        dense[i] = c
        _poly_set_hash(self, None)
        _poly_set_dv(self, dense)

    def __getattr__(self, name):
        # reached only for an unset slot: the terms of a polynomial that was
        # built from its dense list, made once
        if name != "terms":
            raise AttributeError(name)
        terms = {(i,): c for i, c in enumerate(self._dv) if c}
        _poly_set_terms(self, terms)
        return terms

    # construction helpers

    @classmethod
    def zero(cls, field: Field, vars=VARS_T) -> "Poly":
        return cls(field, vars, None, []) if len(vars) == 1 else cls(field, vars, {})

    @classmethod
    def const(cls, field: Field, value, vars=VARS_T) -> "Poly":
        c = field.elem(value)
        if c.is_zero():
            return cls.zero(field, vars)
        return cls._const(field, c.idx, vars)

    @classmethod
    def one(cls, field: Field, vars=VARS_T) -> "Poly":
        return cls._const(field, 1, vars)  # index 1 is the one

    @classmethod
    def _const(cls, field: Field, c: int, vars) -> "Poly":
        if len(vars) == 1:
            return cls(field, vars, None, [c])
        return cls(field, vars, {(0,) * len(vars): c})

    @classmethod
    def monomial(cls, field: Field, exps: tuple[int, ...], coeff=1, vars=None) -> "Poly":
        if vars is None:
            vars = VARS_T if len(exps) == 1 else VARS_TT
        if len(exps) != len(vars) or any(e < 0 for e in exps):
            raise ConstraintViolated(f"bad exponent tuple {exps} for vars {vars}")
        c = field.elem(coeff)
        if c.is_zero():
            return cls.zero(field, vars)
        return cls(field, vars, {tuple(exps): c.idx})

    @classmethod
    def from_items(cls, field: Field, items, vars=VARS_T) -> "Poly":
        """The sum of the items (exponent tuple, coefficient)."""
        items = ((tuple(exps), field.elem(coeff).idx) for exps, coeff in items)
        return cls(field, vars, _accumulate({}, items, field))

    @classmethod
    def from_dense(cls, field: Field, dense: list[int]) -> "Poly":
        """The univariate polynomial of a list, low degree first.  It keeps
        the list, trimmed in place, as its stored form: the caller must not
        reuse it."""
        _utrim(dense)
        if len(dense) > _MAX_DENSE_DEGREE + 1:
            return cls(field, VARS_T, {(i,): c for i, c in enumerate(dense) if c})
        return cls(field, VARS_T, None, dense)

    # views

    def _items(self) -> list:
        """(exponent tuple, table index) pairs in ascending order."""
        d = self._dv
        if d is None:
            return sorted(self.terms.items())
        return [((i,), c) for i, c in enumerate(d) if c]

    def coeff(self, exps: tuple[int, ...]) -> FqElem:
        d = self._dv
        if d is None:
            return self.field.from_index(self.terms.get(tuple(exps), 0))
        i = exps[0]
        return self.field.from_index(d[i] if i < len(d) else 0)

    def coeff_items(self):
        return [(e, self.field.from_index(c)) for e, c in self._items()]

    def is_zero(self) -> bool:
        d = self._dv
        return not (self.terms if d is None else d)

    def is_constant(self) -> bool:
        d = self._dv
        if d is not None:
            return len(d) <= 1
        t = self.terms
        return not t or (len(t) == 1 and not any(next(iter(t))))

    def degree(self, var: int = 0) -> int:
        """Degree in the given variable index; -1 for the zero polynomial."""
        d = self._dv
        if d is not None and var == 0:
            return len(d) - 1
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], FqElem]:
        """Leading exponent and coefficient under deglex with theta > t."""
        if self.is_zero():
            raise DivisionByZero("zero polynomial has no leading term")
        d = self._dv
        if d is not None:
            return (len(d) - 1,), self.field.from_index(d[-1])
        e = max(self.terms, key=_deglex_key)
        return e, self.field.from_index(self.terms[e])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        if lc.idx == 1:
            return self
        return self.scale(lc.inverse())

    # arithmetic

    def _compat(self, other: "Poly"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        if self.vars != other.vars:
            raise ConstraintViolated(
                f"variable sets differ: {self.vars} vs {other.vars}"
            )

    def __add__(self, other, sub: bool = False):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._compat(other)
        if self._dv is not None and other._dv is not None:
            return Poly.from_dense(self.field, _uadd(self._dv, other._dv, self.field, sub))
        out = _accumulate(dict(self.terms), (-other if sub else other).terms.items(), self.field)
        return Poly(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(self.field.neg_t[1])

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, FqElem)):
            return Poly.const(self.field, other, self.vars)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            return self.scale(self.field.elem(other))
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        f, a, b = self.field, self._dv, other._dv
        if a is not None and b is not None:
            # the one (most often a RatFunc denominator) returns the other
            if a == [1]:
                return other
            if b == [1]:
                return self
            return Poly.from_dense(f, _umul(a, b, f))
        if self.is_zero() or other.is_zero():
            return Poly.zero(f, self.vars)
        nvars = len(self.vars)
        # a constant factor only scales
        for x, y in ((self, other), (other, self)):
            if len(y.terms) == 1 and (c := y.terms.get((0,) * nvars)):
                return x if c == 1 else x.scale(f.from_index(c))
        stride = 1 if nvars == 1 else self.degree(1) + other.degree(1) + 1
        a, b = _kron(self, stride), _kron(other, stride)
        if len(a) > len(b):
            a, b = b, a
        add, mul = f.add_t, f.mul_t
        image = {}
        for i, c in a.items():
            row = mul[c]
            for j, d in b.items():
                k = i + j
                cur = add[image.get(k, 0)][row[d]]
                if cur:
                    image[k] = cur
                else:
                    image.pop(k, None)
        return Poly(f, self.vars, _unkron(image, stride, nvars))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return self._scaled(self.field.elem(c).idx)

    def _scaled(self, c: int) -> "Poly":
        """self times the element of table index c."""
        if c == 0:
            return Poly.zero(self.field, self.vars)
        if c == 1:
            return self
        row = self.field.mul_t[c]
        if self._dv is not None:
            return Poly.from_dense(self.field, [row[x] for x in self._dv])
        return Poly(self.field, self.vars, {e: row[x] for e, x in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ConstraintViolated("negative power of a polynomial")
        return pow_base_p(self, k, self.field.p, lambda: Poly.one(self.field, self.vars))

    def frobenius_power(self, k: int = 1) -> "Poly":
        """self**(p^k); exact and cheap in characteristic p."""
        pk = self.field.p ** k
        row = self.field.frob_t[k % self.field.e]
        d = self._dv
        if d is not None and (len(d) - 1) * pk <= _MAX_DENSE_DEGREE:
            out = [0] * ((len(d) - 1) * pk + 1)
            out[::pk] = [row[c] for c in d]
            return Poly.from_dense(self.field, out)
        return Poly(self.field, self.vars,
                    {tuple(x * pk for x in e): row[c] for e, c in self.terms.items()})

    # substitution / promotion

    def lift_tt(self) -> "Poly":
        if self.vars == VARS_TT:
            return self
        return Poly(self.field, VARS_TT, {(i, 0): c for (i,), c in self._items()})

    def drop_t(self) -> "Poly":
        """Inverse of lift_tt for polynomials with no t."""
        if self.vars == VARS_T:
            return self
        if any(j for (_, j) in self.terms):
            raise ConstraintViolated("polynomial actually involves t")
        return Poly(self.field, VARS_T, {(i,): c for (i, _), c in self.terms.items()})

    def eval_t_at_theta(self) -> "Poly":
        """Substitute t = theta; collapses to a univariate polynomial."""
        if self.vars == VARS_T:
            return self
        f, terms = self.field, self.terms
        top = max((i + j for i, j in terms), default=-1)
        if top > _MAX_DENSE_DEGREE:
            items = (((i + j,), c) for (i, j), c in terms.items())
            return Poly(f, VARS_T, _accumulate({}, items, f))
        out, add = [0] * (top + 1), f.add_t
        for (i, j), c in terms.items():
            out[i + j] = add[out[i + j]][c]
        return Poly.from_dense(f, out)

    def to_dense(self) -> list[int]:
        return list(self._view())

    def _view(self) -> list[int]:
        """The stored dense list of a univariate polynomial; never mutate it."""
        d = self._dv
        if d is None:
            if self.vars != VARS_T:
                raise ConstraintViolated("dense view is for univariate polynomials")
            raise ConstraintViolated(
                f"a polynomial of degree {self.degree()} is above the largest "
                f"dense degree, {_MAX_DENSE_DEGREE}")
        return d

    def __eq__(self, other):
        if isinstance(other, Poly) and self.vars == other.vars:
            if self.field != other.field:
                return False
            # each value has one stored form, fixed by its degree
            a, b = self._dv, other._dv
            if a is not None and b is not None:
                return a == b
            return self.terms == other.terms
        # a scalar, or a Poly in other variables, equals only a constant, and
        # FqElem.__eq__ rules on the field and on the int's range
        if isinstance(other, (int, FqElem, Poly)):
            return self.is_constant() and other == self.coeff((0,) * len(self.vars))
        return NotImplemented  # a RatFunc compares itself to a Poly

    def __hash__(self):
        h = self._hash
        if h is None:
            d = self._dv
            if self.is_constant():  # a RatFunc equal to it may equal an FqElem
                h = hash(self.coeff((0,) * len(self.vars)))
            elif d is not None:
                h = hash((self.field, self.vars, tuple(d)))
            else:
                h = hash((self.field, self.vars, frozenset(self.terms.items())))
            _poly_set_hash(self, h)
        return h

    def __repr__(self):
        d = self._dv
        if d is not None:
            items = [((i,), d[i]) for i in range(len(d) - 1, -1, -1) if d[i]]
        else:
            items = [(e, self.terms[e])
                     for e in sorted(self.terms, key=_deglex_key, reverse=True)]
        if not items:
            return "0"
        bits = []
        for e, c in items:
            factors = []
            if self.field.e == 1:
                if c != 1 or all(x == 0 for x in e):
                    factors.append(str(c))
            else:
                factors.append(repr(self.field.from_index(c)))
            for name, x in zip(self.vars, e):
                if x == 1:
                    factors.append(name)
                elif x > 1:
                    factors.append(f"{name}^{x}")
            bits.append("*".join(factors) or "1")
        return " + ".join(bits)


# the slot setters, bound once: a constructor stores through them directly,
# without the name lookup of object.__setattr__ and past the immutability
# guard of Frozen.__setattr__
_poly_set_field, _poly_set_vars, _poly_set_terms, _poly_set_hash, _poly_set_dv = (
    getattr(Poly, name).__set__ for name in Poly.__slots__)


# -- gcd ----------------------------------------------------------------------

def _over_k(vars: tuple[str, ...], op: str) -> None:
    """Refuse op on F_q[theta, t]: fractions there are values only."""
    if vars != VARS_T:
        raise ConstraintViolated(
            f"{op} takes operands in F_q[theta]; fractions in F_q(theta, t) are values only")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials in F_q[theta], by Euclid on their dense views."""
    if a.field != b.field:
        raise FieldMismatch("gcd of polynomials over different fields")
    if a.vars != b.vars:
        raise ConstraintViolated("gcd of polynomials in different variables")
    _over_k(a.vars, "poly_gcd")
    return Poly.from_dense(a.field, _ugcd(a._view(), b._view(), a.field))


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ConstraintViolated if b does not divide a.

    Univariate operands divide on their dense views.  Bivariate ones go
    through the Kronecker map at stride deg_t(a) + 1 and divide as dense
    univariate polynomials.  The map is injective below
    that stride, so an exact image quotient whose terms all have t-degree
    at most deg_t(a) - deg_t(b) maps back to the quotient; any other image
    quotient means that b does not divide a.
    """
    if b.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if a.is_zero():
        return a
    a._compat(b)
    if len(a.vars) == 1:
        return Poly.from_dense(a.field, _udivexact(a._view(), b._view(), a.field))
    stride = a.degree(1) + 1
    quo = _udivexact(_dense(_kron(a, stride)), _dense(_kron(b, stride)), a.field)
    # key k has t-degree k mod stride
    if any(any(quo[j::stride])
           for j in range(max(0, a.degree(1) - b.degree(1) + 1), stride)):
        raise ConstraintViolated("polynomial division is not exact")
    return Poly(a.field, a.vars, _unkron({k: c for k, c in enumerate(quo) if c}, stride, 2))


# -- rational functions -------------------------------------------------------

class RatFunc(Frozen):
    """Canonical fraction of polynomials: coprime, monic denominator (deglex).

    Construct through make()/from_poly(); the raw constructor trusts its
    arguments, and is the only way to build a fraction in F_q(theta, t).
    """

    __slots__ = ("field", "vars", "num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly):
        _rf_set_field(self, num.field)
        _rf_set_vars(self, num.vars)
        _rf_set_num(self, num)
        _rf_set_den(self, den)
        _rf_set_hash(self, None)

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "RatFunc":
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        num._compat(den)
        _over_k(num.vars, "RatFunc.make")
        if num.is_zero():
            return cls(num, Poly.one(num.field, num.vars))
        n, d, _ = _ucancel(num._view(), den._view(), num.field)
        return cls._of_dense(num.field, n, d)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.field, p.vars))

    @classmethod
    def zero(cls, field: Field, vars=VARS_T) -> "RatFunc":
        return cls(Poly.zero(field, vars), Poly.one(field, vars))

    @classmethod
    def one(cls, field: Field, vars=VARS_T) -> "RatFunc":
        return cls.from_poly(Poly.one(field, vars))

    @classmethod
    def const(cls, field: Field, value, vars=VARS_T) -> "RatFunc":
        return cls.from_poly(Poly.const(field, value, vars))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_constant() and self.den.is_constant() and self.num == self.den

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, FqElem)):
            return RatFunc.const(self.field, other, self.vars)
        return NotImplemented

    def _compat(self, other: "RatFunc"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("rational functions over different fields")
        if self.vars != other.vars:
            raise ConstraintViolated("rational functions in different variables")
        _over_k(self.vars, "fraction arithmetic")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._compat(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # b = b1 g and d = d1 g with g = gcd(b, d); a d1 + c b1 shares with
        # b1 d1 g only factors of g
        a, b, c, d, f = self.num, self.den, other.num, other.den, self.field
        b1, d1, g = _ucancel(b._view(), d._view(), f)
        num = _uadd(_umul(a._view(), d1, f), _umul(c._view(), b1, f), f)
        if not num:
            return RatFunc.zero(f, self.vars)
        num, g, _ = _ucancel(num, g, f)
        return RatFunc._of_dense(f, num, _umul(b1, _umul(d1, g, f), f))

    __radd__ = __add__

    @classmethod
    def _monic(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den with den scaled monic (deglex); no gcd is taken."""
        c = den.field.inv_t[den.leading_term()[1].idx]
        return cls(num._scaled(c), den._scaled(c))

    @classmethod
    def _of_dense(cls, f: Field, num: list[int], den: list[int]) -> "RatFunc":
        """num/den from coprime dense lists, den scaled monic."""
        c = f.inv_t[den[-1]]
        return cls(Poly.from_dense(f, _uscale(num, c, f)), Poly.from_dense(f, _uscale(den, c, f)))

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._compat(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.field, self.vars)
        # a/b, c/d coprime: only a, d and c, b share factors
        a, b, c, d, f = self.num, self.den, other.num, other.den, self.field
        a, d, _ = _ucancel(a._view(), d._view(), f)
        c, b, _ = _ucancel(c._view(), b._view(), f)
        return RatFunc._of_dense(f, _umul(a, c, f), _umul(b, d, f))

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        return RatFunc._monic(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k == 0:
            return RatFunc.one(self.field, self.vars)
        if k < 0:
            return self.inverse() ** (-k)
        # coprimality and deglex-monicity both survive powering
        return RatFunc(self.num ** k, self.den ** k)

    def frobenius_power(self, k: int = 1) -> "RatFunc":
        return RatFunc(self.num.frobenius_power(k), self.den.frobenius_power(k))

    def eval_t_at_theta(self) -> "RatFunc":
        """Substitute t = theta; raises PoleAtTheta on a genuine pole."""
        if self.vars == VARS_T:
            return self
        den_e = self.den.eval_t_at_theta()
        if den_e.is_zero():
            raise PoleAtTheta(f"denominator {self.den!r} vanishes at t = theta")
        num_e = self.num.eval_t_at_theta()
        return RatFunc.make(num_e, den_e)

    def __eq__(self, other):
        # the monic denominator is constant only when it is 1
        if isinstance(other, (int, FqElem, Poly)):
            return self.den.is_constant() and self.num == other
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        h = self._hash
        if h is None:
            # the monic denominator is constant only when it is 1, and then
            # self equals its numerator
            h = hash(self.num) if self.den.is_constant() else hash((self.num, self.den))
            _rf_set_hash(self, h)
        return h

    def __repr__(self):
        if self.den.is_constant():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


_rf_set_field, _rf_set_vars, _rf_set_num, _rf_set_den, _rf_set_hash = (
    getattr(RatFunc, name).__set__ for name in RatFunc.__slots__)


# -- truncated power series over any coefficient ring -------------------------
#
# A series is the list (c_0, ..., c_{n-1}) of its coefficients modulo X^n.
# Coefficients need +, -, * and, where named, inverse() or frobenius_power();
# None stands for an absent (exactly zero) coefficient.  ``zero`` is a
# callable that makes the zero of an empty slot, so the cost of building it
# is paid only when some slot has no term.

def _exact_zero(x) -> bool:
    """The zero rule: only an exact zero may be skipped."""
    if x is None:
        return True
    # looked up on the type: a Poly's __getattr__ raises for a missing name
    test = getattr(type(x), "is_zero", None)
    if test is None or not test(x):
        return False
    exact = getattr(type(x), "is_exact_zero", None)
    return exact is None or exact(x)


def _support(a) -> list:
    """Indices of the coefficients that are not exact zeros, ascending."""
    return [i for i, x in enumerate(a) if not _exact_zero(x)]


def _convolve(a, b, a_support, b_support, k: int, dot):
    """dot of the pairs (a_i, b_(k-i)), i in a_support and k-i in b_support;
    None if there are none."""
    pairs = [(a[i], b[k - i]) for i in a_support if i <= k and k - i in b_support]
    return dot(pairs) if pairs else None


def _fold(pairs):
    """sum of x * y over the pairs, one + at a time."""
    acc = pairs[0][0] * pairs[0][1]
    for x, y in pairs[1:]:
        acc = acc + x * y
    return acc


def _dot_of(a):
    """The sum of products for a's coefficients: their type's
    sum_of_products, or _fold.  Chosen once per series product."""
    x = next((c for c in a if c is not None), None)
    return getattr(type(x), "sum_of_products", _fold)


def _fill(out: list, zero) -> list:
    """Put one zero, made only if needed, into every empty (None) slot."""
    if all(c is not None for c in out):
        return out
    z = zero()
    return [z if c is None else c for c in out]


def series_mul(a, b, zero) -> list:
    """Truncated product of two coefficient lists of equal length."""
    a_support, b_support, dot = _support(a), set(_support(b)), _dot_of(a)
    return _fill([_convolve(a, b, a_support, b_support, k, dot)
                  for k in range(len(a))], zero)


def series_inverse(a, inv0, zero) -> list:
    """1/(sum a_i X^i) modulo X^len(a), given inv0 = 1/a_0."""
    a_support = [i for i in _support(a) if i]
    out, out_support, dot = [inv0], {0}, _dot_of(a)
    for k in range(1, len(a)):
        acc = _convolve(a, out, a_support, out_support, k, dot)
        out.append(None if acc is None else -(inv0 * acc))
        if not _exact_zero(out[k]):
            out_support.add(k)
    return _fill(out, zero)


def series_frobenius(a, k: int, p: int, zero) -> list:
    """(sum a_i X^i)^(p^k) modulo X^len(a): a_i^(p^k) moves to slot i*p^k."""
    pk = p ** k
    out = [None] * len(a)
    for i in range(0, len(a), pk):
        c = a[i // pk]
        if not _exact_zero(c):
            out[i] = c.frobenius_power(k)
    return _fill(out, zero)


def pow_base_p(x, k: int, p: int, one):
    """x**k in characteristic p from the base-p digits of k.

    x**k is the product over the digits d_i of (x^(p^i))^d_i, each digit
    power by squaring, and each x^(p^i) is a Frobenius power of the one
    before.  x needs *, inverse() and frobenius_power(1); ``one`` makes the
    identity for k = 0.
    """
    if k < 0:
        x, k = x.inverse(), -k
    if k == 0:
        return one()
    result = None
    stage = x
    while k:
        k, d = divmod(k, p)
        piece, base = None, stage
        while d:
            if d & 1:
                piece = base if piece is None else piece * base
            d >>= 1
            if d:
                base = base * base
        if piece is not None:
            result = piece if result is None else result * piece
        if k:
            stage = stage.frobenius_power(1)
    return result


def _quotient_jet_numerators(nums: list[Poly], dens: list[Poly]):
    """(C, pow): C_k = c_k * D^{k+1} for the jet c = N/D, and pow(k) = D^k.

    nums and dens are polynomial jets N and D of one derivation, D = dens[0].
    From c * D = N, one fraction-free recurrence with E_i = D_i * D^{i-1}:

        C_0 = N_0,  C_k = N_k * D^k - sum_{i=1..k} E_i * C_{k-i}.

    A term with an exact-zero factor is skipped; D^k is formed on demand.
    """
    D = dens[0]
    dpows = [Poly.one(D.field, D.vars), D]

    def dpow(k):
        while len(dpows) <= k:
            dpows.append(dpows[-1] * D)
        return dpows[k]

    es, cs = [], []
    for k, nk in enumerate(nums):
        dk = dens[k]
        es.append(dk * dpow(k - 1) if k > 1 and not dk.is_zero() else dk)
        acc = nk * dpow(k) if k and not nk.is_zero() else nk
        for i in range(1, k + 1):
            if not (es[i].is_zero() or cs[k - i].is_zero()):
                acc = acc - es[i] * cs[k - i]
        cs.append(acc)
    return cs, dpow


# -- truncated expansions in s = t - theta ------------------------------------

class SJet(Frozen):
    """Truncated series in s = t - theta with exact coefficients in F_q(theta).

    coeffs[k] is the coefficient of s^k; the object represents the class
    modulo s^order.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def constant(cls, field: Field, order: int, value) -> "SJet":
        if isinstance(value, RatFunc):
            c0 = value
        elif isinstance(value, Poly):
            c0 = RatFunc.from_poly(value)
        else:
            c0 = RatFunc.const(field, value)
        z = RatFunc.zero(field, c0.vars)
        return cls(field, [c0] + [z] * (order - 1))

    def _compat(self, other: "SJet"):
        if self.field != other.field:
            raise FieldMismatch("sjets over different fields")
        if self.order != other.order:
            raise DegreeMismatch(
                f"sjet orders differ: {self.order} vs {other.order}"
            )

    def _zero(self) -> RatFunc:
        return RatFunc.zero(self.field, self.coeffs[0].vars)

    def __add__(self, other):
        if not isinstance(other, SJet):
            return NotImplemented
        self._compat(other)
        return SJet(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (RatFunc, Poly, int, FqElem)):
            return self.scale(other)
        if not isinstance(other, SJet):
            return NotImplemented
        self._compat(other)
        return SJet(self.field, series_mul(self.coeffs, other.coeffs, self._zero))

    __rmul__ = __mul__

    def scale(self, c) -> "SJet":
        if isinstance(c, Poly):
            c = RatFunc.from_poly(c)
        elif not isinstance(c, RatFunc):
            c = RatFunc.const(self.field, c, self.coeffs[0].vars)
        return SJet(self.field, [a * c for a in self.coeffs])

    def frobenius_power(self, k: int = 1) -> "SJet":
        """self**(p^k), exact via the Frobenius homomorphism."""
        return SJet(self.field,
                    series_frobenius(self.coeffs, k, self.field.p, self._zero))

    def __pow__(self, k: int):
        return pow_base_p(self, k, self.field.p, lambda: SJet.constant(
            self.field, self.order, self.coeffs[0] ** 0))

    def _key(self) -> tuple:
        return self.field, self.coeffs

    def __repr__(self):
        bits = [f"({c!r})*s^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(bits) if bits else "0"


def _poly_hasse(f: Poly, var: int, k: int) -> Poly:
    """The k-th hyperderivative of f in the given variable (0=theta, 1=t)."""
    if k == 0:
        return f
    if var >= len(f.vars):
        return Poly.zero(f.field, f.vars)
    p = f.field.p
    mul = f.field.mul_t
    d = f._dv
    if d is not None:  # univariate, so var is 0
        return Poly.from_dense(f.field, _uscale_by_binomial(d[k:], k, k, f.field))
    out, binoms = {}, {i: binom_mod_p(i, k, p) for i in {e[var] for e in f.terms} if i >= k}
    for e, c in f.terms.items():
        i = e[var]
        if i >= k:
            b = binoms[i]
            if b:
                ne = list(e)
                ne[var] = i - k
                out[tuple(ne)] = mul[b][c]
    return Poly(f.field, f.vars, out)


def taylor_shift(f: Poly, order: int) -> SJet:
    """Expand a polynomial in t around t = theta: coefficients of s = t - theta.

    Exact for any polynomial degree; coefficient k is d_t^k(f) |_{t=theta}.
    """
    return SJet(f.field, [RatFunc.from_poly(_poly_hasse(f, 1, k).eval_t_at_theta())
                          for k in range(order)])

