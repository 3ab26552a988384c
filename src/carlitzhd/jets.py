"""Truncated higher-derivation (jet) calculus.

A jet of order n is the image of an element under a higher derivation,
truncated mod X^{n+1}: the coefficient list (d^0 f, d^1 f, ..., d^n f).
Jets multiply by truncated convolution, which is exactly the generalized
Leibniz rule, so "apply the derivation" is a ring homomorphism into jets.

Two concrete derivations act on polynomials in theta and t:

    d_theta: theta |-> theta + X, t |-> t
    d_t:     t |-> t + X, theta |-> theta

They take polynomials only: no routine here forms the jet of a fraction.
A check on the jet of a quotient N/D compares the polynomial jets of N and
D by cross-multiplication, as the verify cells in carlitz do.
"""

from __future__ import annotations

from .errors import ConstraintViolated, DegreeMismatch, Frozen, NonUnitConstantTerm
from .rings import (
    Poly,
    RatFunc,
    _poly_hasse,
    pow_base_p,
    series_frobenius,
    series_inverse,
    series_mul,
)


# -- the jet container --------------------------------------------------------

class Jet(Frozen):
    """Coefficient vector (c_0, ..., c_n) of a truncated derivation image.

    Works over any coefficient ring whose elements support +, -, *, and
    (for inversion) .inverse().  Operands must share the same order.
    Products, inverses and powers come from the series algebra in rings,
    which skips a term only when a factor is an exact zero: a USeries
    coefficient known only as O(u^m) still caps the precision it enters.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DegreeMismatch("a jet needs at least the order-0 coefficient")
        _jet_set_coeffs(self, coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __len__(self):
        return len(self.coeffs)

    def _compat(self, other: "Jet"):
        if len(self.coeffs) != len(other.coeffs):
            raise DegreeMismatch(
                f"jet orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._compat(other)
        return Jet(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        self._compat(other)
        a0, b0 = self.coeffs[0], other.coeffs[0]
        return Jet(series_mul(self.coeffs, other.coeffs,
                              lambda: _ring_zero_like(a0, b0)))

    def scale(self, c):
        return Jet(a * c for a in self.coeffs)

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise DegreeMismatch(
                f"cannot extend a jet of order {self.order} to {order}"
            )
        return Jet(self.coeffs[: order + 1])

    def _zero(self):
        c0 = self.coeffs[0]
        return _ring_zero_like(c0, c0)

    def inverse(self) -> "Jet":
        c0 = self.coeffs[0]
        if _ring_is_zero(c0):
            raise NonUnitConstantTerm("jet inversion needs a unit order-0 part")
        return Jet(series_inverse(self.coeffs, c0.inverse(), self._zero))

    def frobenius_power(self, k: int = 1) -> "Jet":
        """self**(p^k) using coefficientwise Frobenius; needs ring support.

        A slot off the multiples of p^k holds the zero that k steps of
        frobenius_power(1) leave there: the zero of the order-0 product,
        lifted k - 1 more times (for a USeries, p^(k-1) times its precision).
        """
        zero = self._zero if k <= 1 else lambda: self._zero().frobenius_power(k - 1)
        return Jet(series_frobenius(self.coeffs, k, self.coeffs[0].field.p, zero))

    def __pow__(self, k: int):
        c0 = self.coeffs[0]
        return pow_base_p(self, k, c0.field.p,
                          lambda: Jet([c0 ** 0] + [self._zero()] * self.order))

    def _key(self) -> tuple:
        return self.coeffs

    def __repr__(self):
        return "Jet(" + ", ".join(repr(c) for c in self.coeffs) + ")"


# the slot setter, bound once for the constructor (as in rings.Poly)
_jet_set_coeffs = Jet.coeffs.__set__


def _ring_is_zero(x) -> bool:
    f = getattr(x, "is_zero", None)
    return bool(f()) if f is not None else False


def _ring_zero_like(a, b):
    """a*b - a*b without the product: the exact zero of Poly and RatFunc, and
    for a USeries (abs_prec, valuation()) the zero at the product's precision."""
    if type(a) is type(b):
        if isinstance(a, (Poly, RatFunc)):
            return type(a).zero(a.field, a.vars)
        if hasattr(a, "valuation"):
            return type(a)(a.field, 0, (), min(a.abs_prec + b.valuation(),
                                                 b.abs_prec + a.valuation()))
    prod = a * b
    return prod - prod


# -- hyperderivative jets on polynomials ----------------------------------------

def _jet_of(f, var: int, order: int) -> Jet:
    if not isinstance(f, Poly):
        raise ConstraintViolated(f"no hyperderivative jets for {type(f).__name__}")
    return Jet(_poly_hasse(f, var, k) for k in range(order + 1))


def d_theta_jet(f: Poly, order: int) -> Jet:
    """Jet of the polynomial f under theta |-> theta + X, t fixed."""
    return _jet_of(f, 0, order)


def d_t_jet(f: Poly, order: int) -> Jet:
    """Jet of the polynomial f under t |-> t + X, theta fixed."""
    return _jet_of(f, 1, order)
