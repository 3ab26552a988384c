"""Exception types and the value-type base shared across the package.

Every failure mode that callers are expected to catch has its own class so the
CLI can map them to exit codes without string matching.  Frozen is the base of
the immutable value types (field elements, polynomials, fractions, series,
jets, contexts, coordinates and reports): it holds their assignment guard and
their equality and hash.
"""


class Frozen:
    """Immutable value: assignment raises; equality and hash run over _key().

    Constructors store their slots through object.__setattr__ or the bound
    slot setters, which the guard does not see.  A value equals only a value
    of its own type with an equal key.  Types whose values equal values of
    other types (Poly, RatFunc, FqElem) define their own __eq__/__hash__.
    """

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class CarlitzhdError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeCharacteristic(CarlitzhdError):
    """Field construction was asked for a composite or invalid characteristic."""


class ReducibleModulus(CarlitzhdError):
    """The modulus supplied for an extension field has a proper factor."""


class DegreeMismatch(CarlitzhdError):
    """An operand has the wrong degree or length for the requested operation."""


class DivisionByZero(CarlitzhdError, ZeroDivisionError):
    """Division by the zero element of a field or ring."""


class FieldMismatch(CarlitzhdError):
    """Operands live over different base fields (or variable sets)."""


class PoleAtTheta(CarlitzhdError):
    """A rational function was evaluated at t = theta but has a pole there."""


class NonUnitConstantTerm(CarlitzhdError):
    """Inversion of a truncated object whose constant term is not a unit."""


class PrecisionExhausted(CarlitzhdError):
    """Requested precision cannot be met; the message names the failing bound."""


class ConstraintViolated(CarlitzhdError):
    """A documented precondition on parameters does not hold."""


class InsufficientL(CarlitzhdError):
    """The interpolation depth l is too small for the requested order."""
