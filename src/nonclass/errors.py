"""Exception types shared across the package."""


class NonclassError(Exception):
    """Base class for errors raised by this package."""


class CutoffError(NonclassError):
    """A Fock-space cutoff cannot certify the requested truncation quality."""


class AccuracyError(NonclassError):
    """A computed result violated its truncation-quality guarantee."""


class DomainError(NonclassError, ValueError):
    """A parameter lies outside the supported domain."""


class WindowError(NonclassError):
    """The search disk does not fit the state.

    Either the optimum sits on its boundary or its rings are too far
    apart to see the state.
    """


class ConvergenceError(NonclassError):
    """The optimizer's Newton polish ran out of steps before it stopped."""


class SpecParseError(NonclassError, ValueError):
    """A state-spec string is malformed.

    Carries the character position at which parsing failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
