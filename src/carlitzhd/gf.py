"""Small finite fields F_q, q = p^e, with table-backed arithmetic.

An element of F_{p^e} is canonically a vector of e residues in [0, p): the
coefficients of 1, x, ..., x^{e-1} where x is the class of the modulus
variable.  Internally each element is stored as a single index
idx = sum(digit_i * p^i), and all arithmetic is a lookup in tables built once
per field.  The multiplicative tables (products, inverses, powers and the
Frobenius rows) are read off one walk through the powers of the first
primitive element; addition, negation and the digit vectors themselves are
built digit by digit.  The two q*q tables hold 16 MB at q = 1021, so a field
above MAX_Q is refused before any table is built.
"""

from __future__ import annotations

from .errors import (
    ConstraintViolated,
    DivisionByZero,
    FieldMismatch,
    NonPrimeCharacteristic,
    ReducibleModulus,
)

MAX_Q = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- dense mod-p polynomial helpers used only for field construction --------

def _digits(code: int, p: int, n: int) -> list[int]:
    """The n lowest base-p digits of code, low first."""
    return [code // p ** i % p for i in range(n)]


def _fp_trim(c: list[int]) -> list[int]:
    end = len(c)
    while end and c[end - 1] == 0:
        end -= 1
    del c[end:]
    return c


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder in F_p[x]; b must be nonzero."""
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _fp_trim(a):
        shift = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        q[shift] = c
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        _fp_trim(a)
    return _fp_trim(q), a


def _fp_is_irreducible(mod: list[int], p: int) -> bool:
    """Exhaustive factor search; fine at the intended field sizes."""
    e = len(mod) - 1
    if e < 1:
        return False
    for d in range(1, e // 2 + 1):
        # all monic polynomials of degree d over F_p
        for code in range(p ** d):
            _, r = _fp_divmod(list(mod), _digits(code, p, d) + [1], p)
            if not r:
                return False
    return True


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e, low-coefficient-first code order."""
    if e == 1:
        return (0, 1)  # the polynomial x; irrelevant for e = 1
    for code in range(p ** e):
        mod = _digits(code, p, e) + [1]
        if _fp_is_irreducible(mod, p):
            return tuple(mod)
    raise ReducibleModulus(f"no irreducible of degree {e} over F_{p}")


class Field:
    """A concrete F_{p^e} with precomputed add/mul/neg/inv/frobenius tables."""

    _cache: dict[tuple, "Field"] = {}

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if p > MAX_Q:
            raise ConstraintViolated(
                f"characteristic {p} exceeds the largest supported q = {MAX_Q}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if e < 1:
            raise ReducibleModulus(f"extension degree must be >= 1, got {e}")
        if e >= MAX_Q.bit_length() or p ** e > MAX_Q:
            raise ConstraintViolated(
                f"q = {p}^{e} exceeds the largest supported q = {MAX_Q}")
        if modulus is None:
            modulus = _default_modulus(p, e)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {e}, got {modulus}"
            )
        if e > 1 and not _fp_is_irreducible(list(modulus), p):
            raise ReducibleModulus(f"modulus {modulus} factors over F_{p}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        self._build_tables()

    # Fields compare by construction data so separately built twins agree.
    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(mod {self.modulus})"

    def _vec_to_idx(self, v: list[int]) -> int:
        idx = 0
        for c in reversed(v):
            idx = idx * self.p + (c % self.p)
        return idx

    def _powers(self, g: int) -> list[int]:
        """Indices of g^0, g^1, ... up to the first power that is 1 again."""
        p, mod, gv = self.p, list(self.modulus), list(self.digits_t[g])
        out, v = [1], [1]
        while True:
            v = _fp_mul(v, gv, p)
            if len(v) >= len(mod):
                _, v = _fp_divmod(v, mod, p)
            a = self._vec_to_idx(v)
            if a == 1:
                return out
            out.append(a)

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        n = q - 1
        # digits_t[a] is the digit vector of index a, low digit first: one
        # more digit goes above the p^i vectors built so far, as for add_t
        digits = [(a,) for a in range(p)]
        for _ in range(e - 1):
            digits = [v + (y,) for y in range(p) for v in digits]
        self.digits_t = digits
        # exp_t[k] = g^k for the first g of multiplicative order q - 1, and
        # log_t its inverse; every multiplicative table is read off the pair
        for g in range(1, q):
            exp = self._powers(g)
            if len(exp) == n:
                break
        log = [0] * q  # log_t[0] is never read
        for k, a in enumerate(exp):
            log[a] = k
        self.exp_t, self.log_t = exp, log
        exp2, logs = exp + exp, log[1:]
        self.mul_t = [[0] * q] + [[0] + [exp2[la + l] for l in logs] for la in logs]
        self.inv_t = [0] + [exp[-l % n] for l in logs]  # inv_t[0] must never be used
        # frob_t[k][a] = a^(p^k) for k < e
        self.frob_t = [[0] + [exp[l * p ** k % n] for l in logs] for k in range(e)]
        # addition and negation act digit by digit: start from F_p and put
        # one more base-p digit above the m = p^i indices built so far; the
        # rows share one int object per index, as mul_t's share exp_t's
        ids = list(range(q))
        add = addp = [ids[a:p] + ids[:a] for a in range(p)]
        neg = negp = [(-a) % p for a in range(p)]
        m = p
        for _ in range(e - 1):
            add = [[ids[x + m * y] for y in addp[hi] for x in add[lo]]
                   for hi in range(p) for lo in range(m)]
            neg = [x + m * y for y in negp for x in neg]
            m *= p
        self.add_t, self.neg_t = add, neg

    # -- element constructors ------------------------------------------------

    def elem(self, value) -> "FqElem":
        """Coerce an int (image of Z) or a digit vector to a field element."""
        if isinstance(value, FqElem):
            if value.field is not self and value.field != self:
                raise FieldMismatch("element belongs to a different field")
            return FqElem(self, value.idx)
        if isinstance(value, int):
            return FqElem(self, value % self.p)
        v = list(value)
        if len(v) != self.e:
            raise FieldMismatch(
                f"digit vector must have length {self.e}, got {len(v)}"
            )
        return FqElem(self, self._vec_to_idx(v))

    def from_index(self, idx: int) -> "FqElem":
        if not 0 <= idx < self.q:
            raise FieldMismatch(f"index {idx} out of range for {self!r}")
        return FqElem(self, idx)

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, 1)

    @property
    def gen(self) -> "FqElem":
        """The class of x for e > 1, or 1 for prime fields."""
        return FqElem(self, self.p if self.e > 1 else 1)

    def elements(self):
        return [FqElem(self, i) for i in range(self.q)]


def field_new(p: int, e: int = 1, modulus: tuple[int, ...] | None = None) -> Field:
    """Construct (or fetch the cached) F_{p^e}; validates p prime and modulus."""
    key = (p, e, modulus)
    f = Field._cache.get(key)
    if f is None:
        f = Field(p, e, modulus)
        Field._cache[key] = f
    return f


class FqElem:
    """An element of a Field; immutable, hashable, canonical."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, idx: int):
        _elem_set_field(self, field)
        _elem_set_idx(self, idx)

    def __setattr__(self, *a):
        raise AttributeError("FqElem is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Canonical digit vector over the prime subfield, low degree first."""
        return self.field.digits_t[self.idx]

    def is_zero(self) -> bool:
        return self.idx == 0

    def _check(self, other) -> "FqElem":
        if not isinstance(other, FqElem):
            if isinstance(other, int):
                return self.field.elem(other)
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FqElem(self.field, self.field.add_t[self.idx][o.idx])

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.field, self.field.neg_t[self.idx])

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FqElem(self.field, self.field.add_t[self.idx][self.field.neg_t[o.idx]])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return FqElem(self.field, self.field.mul_t[self.idx][o.idx])

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if self.idx == 0:
            raise DivisionByZero("inverse of zero in " + repr(self.field))
        return FqElem(self.field, self.field.inv_t[self.idx])

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        f = self.field
        if self.idx == 0:
            if k < 0:
                raise DivisionByZero("negative power of zero in " + repr(f))
            return FqElem(f, 0 if k else 1)
        return FqElem(f, f.exp_t[f.log_t[self.idx] * k % (f.q - 1)])

    def frobenius(self, k: int = 1) -> "FqElem":
        """a^(p^k) for any integer k; Frobenius has order e."""
        return FqElem(self.field, self.field.frob_t[k % self.field.e][self.idx])

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.field == other.field and self.idx == other.idx
        if isinstance(other, int):  # only the canonical residues 0..p-1
            return 0 <= other < self.field.p and self.idx == other
        return NotImplemented  # a RatFunc compares itself to an FqElem

    def __hash__(self):
        # the prime subfield's elements equal the ints idx, so hash as them
        if self.idx < self.field.p:
            return hash(self.idx)
        return hash((self.field.p, self.field.e, self.field.modulus, self.idx))

    def __repr__(self):
        if self.field.e == 1:
            return str(self.idx)
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


# the slot setters, bound once for the constructor: they skip the name lookup
# of object.__setattr__ and the immutability guard of __setattr__
_elem_set_field, _elem_set_idx = FqElem.field.__set__, FqElem.idx.__set__
