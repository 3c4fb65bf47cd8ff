"""Exception hierarchy shared by all hoplog modules.

Every rejection carries the name of the violated rule via ``rule`` (the
class name), so callers and tests can match on it without parsing messages.
A grounding is refused only at a cap, with ``GroundingLimitExceeded``: a
variable whose size-k universe is empty gives its clause no instance, not
an error.
"""

from __future__ import annotations


class HoplogError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def rule(self) -> str:
        return type(self).__name__


class InvalidDepth(HoplogError):
    """A term-size bound below 1 given on the command line."""


class InvalidBudget(HoplogError):
    """A valuation size budget below 1 given on the command line."""


class ParseError(HoplogError):
    """Concrete-syntax error with a source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DuplicateDeclaration(ParseError):
    pass


class TypeCheckError(HoplogError):
    pass


class UnboundSymbol(TypeCheckError):
    pass


class IllTypedApplication(TypeCheckError):
    pass


class NegOfNonBoolean(TypeCheckError):
    pass


class EqOfNonIndividual(TypeCheckError):
    pass


class IllTyped(TypeCheckError):
    pass


class NonVariableHeadArgument(TypeCheckError):
    pass


class RepeatedHeadVariable(TypeCheckError):
    pass


class ArityMismatch(TypeCheckError):
    pass


class AmbiguousVariableType(TypeCheckError):
    pass


class ConflictingVariableType(TypeCheckError):
    pass


class ProgramCheckError(TypeCheckError):
    """Aggregate of the clause-level errors found while checking a program.

    All violations are collected before raising so that the report names
    every offending occurrence, not just the first.
    """

    def __init__(self, errors: list[TypeCheckError]):
        self.errors = errors
        super().__init__("; ".join(f"{e.rule}: {e}" for e in errors))


class GroundingLimitExceeded(HoplogError):
    """A grounding passed one of the grounder's caps."""


class UnknownAtom(HoplogError):
    pass


class TooLarge(HoplogError):
    pass


class NotIncreasing(HoplogError):
    """Internal-consistency failure: a stage sequence left its ordering."""


class LocalStratificationViolation(HoplogError):
    """Internal-consistency failure: a ground clause breaks the strata."""


class DepthExceeded(HoplogError):
    """A required valuation left the configured size budget.

    Reported to callers as "unknown at this depth"; never conflated with a
    definite false answer.
    """
