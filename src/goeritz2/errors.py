"""Exception types shared across the package."""


class Goeritz2Error(Exception):
    """Base class for all package errors."""


class MalformedInput(Goeritz2Error):
    """Bad argument: unknown token, unknown generator, ill-typed document."""


class MalformedWord(Goeritz2Error):
    """Step sequence violates the chain condition."""


class ParityViolation(Goeritz2Error):
    """Odd number of crossings with one of the two curve systems.

    Kept in the public API, but never raised: a closed chain crosses each
    system evenly (`curve.validate`).
    """


class NotEmbeddable(Goeritz2Error):
    """Chord family cannot be realized by disjoint arcs."""


class EmptyAfterNormalization(Goeritz2Error):
    """Curve is null-homotopic: nothing left after spur/bigon removal."""


class InconsistentCoordinates(Goeritz2Error):
    """Normal coordinates fail the edge matching condition."""


class NotReducing(Goeritz2Error):
    """Curve is not the boundary of a reducing sphere.

    Carries a reason code: "empty", "nonseparating", "no-disk-V", "no-disk-W".
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TrichotomyViolation(Goeritz2Error):
    """No dominance inequality holds, or an A-dominant curve carries a BB, BC
    or CC arc; internal-consistency failure."""


class ConstraintViolation(Goeritz2Error):
    """A word-form constraint failed; signals an implementation bug on valid inputs."""


class BetaReductionFailure(Goeritz2Error):
    """Neither the half twist nor its inverse lowered the A-count."""


class IterationLimitExceeded(Goeritz2Error):
    """The reduction failed to make progress: a pass did not lower a+b+c by
    an even positive amount, or the last pass did not land on P."""


class InternalInvariantError(Goeritz2Error):
    """A structural invariant that should be unconditionally true failed."""


# Errors of a malformed or unembeddable curve input (command-line exit code 3).
INPUT_ERRORS = (MalformedInput, MalformedWord, NotEmbeddable, ParityViolation,
                InconsistentCoordinates, EmptyAfterNormalization)
