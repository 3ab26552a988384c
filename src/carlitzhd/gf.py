"""Small finite fields F_q, q = p^e, with table-backed arithmetic.

An element of F_{p^e} is canonically a vector of e residues in [0, p): the
coefficients of 1, x, ..., x^{e-1} where x is the class of the modulus
variable.  Internally each element is stored as a single index
idx = sum(digit_i * p^i), and all arithmetic is a lookup in tables built once
per field.  The q*q tables cost O(q^2) (2.5 s and 54 MB at q = 1021), so
a field above MAX_Q is refused before any table is built.
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

def _fp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
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
            g = []
            c = code
            for _ in range(d):
                g.append(c % p)
                c //= p
            g.append(1)
            _, r = _fp_divmod(list(mod), g, p)
            if not r:
                return False
    return True


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e, low-coefficient-first code order."""
    if e == 1:
        return (0, 1)  # the polynomial x; irrelevant for e = 1
    for code in range(p ** e):
        mod = []
        c = code
        for _ in range(e):
            mod.append(c % p)
            c //= p
        mod.append(1)
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
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(mod {self.modulus})"

    def _idx_to_vec(self, idx: int) -> list[int]:
        v = []
        for _ in range(self.e):
            v.append(idx % self.p)
            idx //= self.p
        return v

    def _vec_to_idx(self, v: list[int]) -> int:
        idx = 0
        for c in reversed(v):
            idx = idx * self.p + (c % self.p)
        return idx

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        mod = list(self.modulus)
        self.add_t = [[0] * q for _ in range(q)]
        self.mul_t = [[0] * q for _ in range(q)]
        self.neg_t = [0] * q
        self.inv_t = [0] * q  # inv_t[0] stays 0 and must never be used
        self.frob_t = [0] * q
        vecs = [self._idx_to_vec(i) for i in range(q)]
        for a in range(q):
            va = vecs[a]
            self.neg_t[a] = self._vec_to_idx([(-c) % p for c in va])
            for b in range(a, q):
                vb = vecs[b]
                s = self._vec_to_idx([(x + y) % p for x, y in zip(va, vb)])
                self.add_t[a][b] = s
                self.add_t[b][a] = s
                prod = _fp_mul(_fp_trim(list(va)), _fp_trim(list(vb)), p)
                if len(prod) >= len(mod):
                    _, prod = _fp_divmod(prod, mod, p)
                prod += [0] * (e - len(prod))
                m = self._vec_to_idx(prod)
                self.mul_t[a][b] = m
                self.mul_t[b][a] = m
        for a in range(1, q):
            # a^(q-2) = a^{-1} by Lagrange; q is tiny so direct powering is fine
            acc = 1
            for _ in range(q - 2):
                acc = self.mul_t[acc][a]
            self.inv_t[a] = acc
            fr = a
            b = a
            for _ in range(p - 1):
                fr = self.mul_t[fr][b]
            self.frob_t[a] = fr

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "idx", idx)

    def __setattr__(self, *a):
        raise AttributeError("FqElem is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Canonical digit vector over the prime subfield, low degree first."""
        return tuple(self.field._idx_to_vec(self.idx))

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
        if k < 0:
            return self.inverse() ** (-k)
        acc = FqElem(self.field, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def frobenius(self, k: int = 1) -> "FqElem":
        """a^(p^k); k may be any nonnegative integer."""
        if self.field.e == 1:
            return self  # Frobenius is the identity on the prime field
        idx = self.idx
        for _ in range(k % self.field.e):
            idx = self.field.frob_t[idx]
        return FqElem(self.field, idx)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.idx == other % self.field.p
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.field.modulus, self.idx))

    def __repr__(self):
        if self.field.e == 1:
            return str(self.idx)
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"
