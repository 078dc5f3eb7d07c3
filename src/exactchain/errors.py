"""Exception hierarchy shared across the package."""


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
        super().__init__(f"transition {frm!r} -> {to!r} has invalid probability {value}")
        self.frm = frm
        self.to = to
        self.value = value


class RowSumNotOneError(ExactchainError):
    """A transition row does not sum to one."""

    def __init__(self, state, actual):
        super().__init__(f"row of state {state!r} sums to {actual}, expected 1")
        self.state = state
        self.actual = actual


class NegativeCostError(ExactchainError):
    """A cost entry is negative (or not a finite number)."""

    def __init__(self, frm, to, value):
        super().__init__(f"cost {frm!r} -> {to!r} has invalid value {value}")
        self.frm = frm
        self.to = to
        self.value = value


class SingularSystemError(ExactchainError):
    """A linear system that should be uniquely solvable was singular.

    The graph criteria only hand nonsingular systems to the solver, so in
    exact mode this indicates an internal error. In float mode rounding can
    still make such a system singular on a valid chain (a self-loop of
    ``1 - 1e-17`` becomes ``1.0``); either way it is not a user mistake.
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
