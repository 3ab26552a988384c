"""Test-only oracles for the series algebra of `carlitzhd`.

A jet (c_0, ..., c_n) acts on jets of the same order as the upper-triangular
Toeplitz matrix with entry (i, j) = c_{j-i}, so jet products are matrix
products; the tests check `carlitzhd.jets` against this plain matrix
product.  The jet of a fraction in (theta, t), kept bivariate, is the
reference for the jets of fractions that `carlitzhd` takes only at
t = theta.  An `SJet` expansion of a rational function around t = theta and
the series inverse of an `SJet` serve as references for `eta_sjet` and the
quotient-jet recurrence.  The factor-by-factor evaluation of the alternating
interpolation expression, with its own sampler, is the reference for
`verify_lagrange`.
"""

import random

from carlitzhd import (
    VARS_T,
    DegreeMismatch,
    Jet,
    NonUnitConstantTerm,
    Poly,
    RatFunc,
    SJet,
)
from carlitzhd.jets import _ring_is_zero
from carlitzhd.rings import (
    _exact_zero,
    _poly_hasse,
    _quotient_jet_at_theta,
    series_inverse,
)


def _ring_exact_zero(a):
    """The exact zero of a's ring (a ** 0 is the exact identity)."""
    one = a ** 0
    return one - one


class RhoMatrix:
    """The (n+1)x(n+1) matrix of a jet: entry (i, j) = coefficient j - i."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DegreeMismatch("matrix must be square")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("RhoMatrix is immutable")

    @classmethod
    def from_jet(cls, jet: Jet) -> "RhoMatrix":
        n = len(jet.coeffs)
        zero = _ring_exact_zero(jet[0])
        rows = []
        for i in range(n):
            rows.append([zero] * i + list(jet.coeffs[: n - i]))
        return cls(rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def top_row(self):
        return self.entries[0]

    def __mul__(self, other):
        if not isinstance(other, RhoMatrix):
            return NotImplemented
        n = self.size
        if n != other.size:
            raise DegreeMismatch("matrix sizes differ")
        # the series zero rule: skip a term only for an exact-zero factor, so
        # an entry known only up to precision caps every entry it enters;
        # a sum with no term left is exactly zero
        zero = None
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if _exact_zero(a) or _exact_zero(b):
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    if zero is None:
                        zero = _ring_exact_zero(self.entries[0][0])
                    acc = zero
                row.append(acc)
            rows.append(row)
        return RhoMatrix(rows)

    def is_upper_toeplitz(self) -> bool:
        n = self.size
        for i in range(n):
            for j in range(n):
                if j < i:
                    if not _ring_is_zero(self.entries[i][j]):
                        return False
                elif i > 0:
                    if self.entries[i][j] != self.entries[0][j - i]:
                        return False
        return True

    def __eq__(self, other):
        return isinstance(other, RhoMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RhoMatrix(" + repr([list(r) for r in self.entries]) + ")"


def to_rho_matrix(jet: Jet) -> RhoMatrix:
    return RhoMatrix.from_jet(jet)


def fraction_jet(f, var: int, order: int) -> Jet:
    """Jet of a fraction (or polynomial) of F_q[theta, t] under d_theta (var
    0) or d_t (var 1), kept in F_q(theta, t).

    The bivariate route, which `carlitzhd` never takes: the series product of
    the numerator's jet and the inverse of the denominator's, each
    coefficient a canonical bivariate fraction.
    """
    if isinstance(f, Poly):
        f = RatFunc.from_poly(f)
    num, den = (Jet([RatFunc.from_poly(_poly_hasse(g, var, k)) for k in range(order + 1)])
                for g in (f.num, f.den))
    return num * den.inverse()


def sjet_from_ratfunc(f: RatFunc, order: int) -> SJet:
    """Expansion of a rational function around t = theta (no pole allowed).

    The Taylor coefficients d_t^k of numerator and denominator go through
    _quotient_jet_at_theta, so the expansion never inverts a series.
    """
    num, den = ([_poly_hasse(g, 1, k) for k in range(order)] for g in (f.num, f.den))
    return SJet(f.field, _quotient_jet_at_theta(num, den))


def sjet_inverse(s: SJet) -> SJet:
    """1/s modulo s^order by the series recurrence."""
    c0 = s.coeffs[0]
    if c0.is_zero():
        raise NonUnitConstantTerm("sjet inversion needs a unit constant term")
    return SJet(s.field, series_inverse(s.coeffs, c0.inverse(), s._zero))


def lagrange_factorwise(field, s: int, trials: int, seed: int, max_degree: int):
    """Per trial, (a, b, product side, alternating sum) of the interpolation
    expression, each side a product of the canonical fractions 1/(a_i - b)
    and 1/(a_k - a_i), one RatFunc product per factor; the nodes are drawn
    term by term through Poly.from_items."""
    rng = random.Random(seed)
    one = Poly.one(field, VARS_T)
    out = []
    for _ in range(trials):
        chosen = []
        while len(chosen) < s + 1:
            cand = Poly.from_items(
                field,
                [((d,), field.from_index(rng.randrange(field.q)))
                 for d in range(max_degree + 1)],
                VARS_T,
            )
            if cand not in chosen:
                chosen.append(cand)
        a, b = chosen[:s], chosen[s]
        prod = RatFunc.one(field)
        for ai in a:
            prod = prod * RatFunc.make(one, ai - b)
        total = RatFunc.zero(field)
        for i, ai in enumerate(a):
            term = RatFunc.make(one, ai - b)
            for k, ak in enumerate(a):
                if k != i:
                    term = term * RatFunc.make(one, ak - ai)
            total = total + term
        out.append((a, b, prod, total))
    return out
