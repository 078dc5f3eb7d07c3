"""Exception hierarchy shared across the package."""

from decimal import Decimal
from numbers import Rational


def _full_str(value) -> str:
    """``str(value)``, also past CPython's limit on integer-to-string digits.

    The limit (4,300 digits by default, since CPython 3.10.7) guards the
    parsing of untrusted text, and parsing keeps it. The values formatted
    here are the program's own results: an int, or a Fraction of ints, that
    ``str`` refuses has its integers written through ``decimal``, whose C
    implementation converts an int without the limit. Ordinary values pay
    nothing, and no process-wide setting changes.
    """
    try:
        return str(value)
    except ValueError:
        num, den = (str(Decimal(n)) for n in (value.numerator, value.denominator))
        return num if den == "1" else f"{num}/{den}"


def _excerpt(value) -> str:
    """``repr(value)`` for an error message, with the middle of a long literal cut out.

    A literal read from a file or a flag can be megabytes long. Past 40
    characters only its first 20 and last 12 are shown: a string is cut
    and then quoted, any other value is cut in its repr. A number whose
    repr ``str`` refuses, past the digit limit, is written as
    :func:`_full_str` writes it, and any other such value by its type.
    """
    if isinstance(value, str):
        text = value
    else:
        try:
            text = repr(value)
        except ValueError:  # an integer past the digit limit
            text = _full_str(value) if isinstance(value, Rational) else f"<{type(value).__name__}>"
    if len(text) > 40:
        text = f"{text[:20]}...{text[-12:]}"
    return repr(text) if isinstance(value, str) else text


def _shown(value) -> str:
    """An input value for an error message: a string as by ``_excerpt``, a number in full."""
    return _excerpt(value) if isinstance(value, str) else _full_str(value)


class ExactchainError(Exception):
    """Base class for all errors raised by this package."""


class EmptyStateSpaceError(ExactchainError):
    """Chain construction was given no states."""


class UnknownStateError(ExactchainError):
    """A state label does not belong to the chain."""

    def __init__(self, label):
        super().__init__(f"unknown state {label!r}")
        self.label = label


class NegativeProbabilityError(ExactchainError):
    """A transition entry is negative (or not a finite number)."""

    def __init__(self, frm, to, value):
        super().__init__(f"transition {frm!r} -> {to!r} has invalid probability {_shown(value)}")
        self.frm = frm
        self.to = to
        self.value = value


class RowSumNotOneError(ExactchainError):
    """A transition row does not sum to one."""

    def __init__(self, state, actual):
        super().__init__(f"row of state {state!r} sums to {_full_str(actual)}, expected 1")
        self.state = state
        self.actual = actual


class NegativeCostError(ExactchainError):
    """A cost entry is negative (or not a finite number)."""

    def __init__(self, frm, to, value):
        super().__init__(f"cost {frm!r} -> {to!r} has invalid value {_shown(value)}")
        self.frm = frm
        self.to = to
        self.value = value


class SingularSystemError(ExactchainError):
    """A linear system that should be uniquely solvable was singular.

    The graph criteria only hand nonsingular systems to the solver. In
    exact mode this is an internal error; in float mode a block left with
    probability near 1e-16 can still be singular to working precision. A
    float solve that returns a negative entry mass, or entry masses summing
    past one, beyond the arithmetic's tolerance (``Arithmetic.tol``) raises
    it too: such a solve has lost its accuracy.
    """


class StartInTargetError(ExactchainError):
    """Entry-edge law requested with the start state inside the target set."""


class ConditionHasZeroProbabilityError(ExactchainError):
    """Conditional probability requested on a zero-probability condition."""


class InvalidDistributionError(ExactchainError):
    """A probability distribution has negative mass or does not sum to one."""


class InvalidParamsError(ExactchainError, ValueError):
    """Case-study parameters violate their constraints."""


class NotHonestJondoError(ExactchainError):
    """A jondo argument must name an honest (non-collaborating) jondo."""

    def __init__(self, label):
        super().__init__(f"{label!r} is not an honest jondo")
        self.label = label


class ModelFileError(ExactchainError):
    """Base class for model-file loading failures."""


class ModelIOError(ModelFileError):
    """Model file could not be read."""


class ModelParseError(ModelFileError):
    """Model file is not valid JSON or does not match the schema."""


class LiteralRangeError(ModelParseError):
    """A numeric literal's decimal exponent lies beyond ``chain.MAX_DECIMAL_EXPONENT``.

    Raised wherever a literal is read: model and ``--init`` files, numeric
    CLI flags and parameter strings. The CLI reports it as a parse error.
    """
