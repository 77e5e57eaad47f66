"""Exception types shared across the toolkit, and `Frozen`, the base of its
immutable value types."""


class Frozen:
    """Base of the immutable value types (points, places, forms, Chow forms,
    ideals).  A subclass lists its fields in `__slots__` and sets each with
    `object.__setattr__`, when built or when a cached field is first
    computed; assigning or deleting a field afterwards raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ZeroElement(ToolkitError):
    """An operation that needs a nonzero field element received zero."""


class ZeroPolynomial(ToolkitError):
    """An operation that needs a nonzero polynomial received zero."""


class DegreeMismatch(ToolkitError):
    """Degrees that must agree do not; `key` is the monomial at fault, if any."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class VarCountMismatch(ToolkitError):
    pass


class NotHomogeneous(ToolkitError):
    """A form is not homogeneous; `key` is the monomial at fault, if any."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ParseError(ToolkitError):
    """Syntax error in polynomial / rational-function / place text.

    Carries the 0-based character position of the offending token, or None
    when the text as a whole is at fault (say, a place that is not monic).
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PointOnDivisor(ToolkitError):
    """Weil-function input lies on the divisor (Q(x) = 0)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DependentSpan(ToolkitError):
    pass


class DivisorInIdeal(ToolkitError):
    pass


class BaseLocusPoint(ToolkitError):
    pass


class NoCertificateWithinCap(ToolkitError):
    """No Nullstellensatz certificate exists up to the search's exponent limit."""


class MissingTableEntry(ToolkitError):
    pass


class PreconditionViolated(ToolkitError):
    pass


class InvariantViolated(ToolkitError):
    """A check on a computed result failed; the result must not be used."""


class SchemaError(ToolkitError):
    """Scenario file violates the JSON schema; points at the bad node when
    one is given (json_pointer None: the scenario as a whole)."""

    def __init__(self, message, json_pointer=None):
        if json_pointer is not None:
            message = f"{message} (at {json_pointer or '/'})"
        super().__init__(message)
        self.json_pointer = json_pointer
