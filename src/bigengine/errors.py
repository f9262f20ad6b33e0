"""Exception hierarchy for the whole engine.

Every error raised by this package derives from BigraphError so callers
(in particular the CLI) can catch one type and report a diagnostic.
"""


class BigraphError(Exception):
    pass


# -- construction / core algebra ------------------------------------------

class SignatureError(BigraphError):
    pass


class ArityMismatch(BigraphError):
    pass


class SortMismatch(BigraphError):
    pass


class WidthMismatch(BigraphError):
    pass


class AtomicViolation(BigraphError):
    pass


class UnknownName(BigraphError):
    pass


class EmptyClosure(BigraphError):
    pass


class IndexOutOfRange(BigraphError):
    pass


class NotGround(BigraphError):
    pass


# -- matching ---------------------------------------------------------------

class MatchError(BigraphError):
    pass


class PatternNotSolid(MatchError):
    pass


class TargetNotGround(MatchError):
    pass


class UnsupportedPattern(MatchError):
    """Structurally legal pattern the matcher does not support (inner names)."""


# -- rule validation / rewriting ---------------------------------------------

class RuleValidationError(BigraphError):
    pass


class InnerInterfaceMismatch(RuleValidationError):
    pass


class OuterInterfaceMismatch(RuleValidationError):
    pass


class InvalidInstMap(RuleValidationError):
    pass


class LhsNotSolid(RuleValidationError):
    pass


class ConstraintViolated(BigraphError):
    pass


# -- language frontend --------------------------------------------------------

class ParseError(BigraphError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class UnknownIdentifier(BigraphError):
    pass


class DuplicateDefinition(BigraphError):
    pass


class ElaborationError(BigraphError):
    pass


class InitNotGround(ElaborationError):
    pass


class MixedLabelKinds(ElaborationError):
    pass


class UnknownRuleInBlock(ElaborationError):
    pass


class ActionPartitionError(ElaborationError):
    pass


# -- engine -------------------------------------------------------------------

class DivergentInstantaneous(BigraphError):
    pass


class NonConfluence(BigraphError):
    pass


class RateOverflow(BigraphError):
    """The rates of an sbrs state's transitions sum to more than a float holds."""


# -- export ---------------------------------------------------------------------

class PartialSystem(BigraphError):
    pass


class UnprintableBigraph(BigraphError):
    pass
