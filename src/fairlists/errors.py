"""Exception hierarchy. Every library error derives from FairlistsError so
callers (and the CLI) can map them to a single failure class."""


class FairlistsError(Exception):
    pass


class InvalidValue(FairlistsError, ValueError):
    """A parameter outside its domain.  `param` names the parameter, so a
    caller can report it in its own terms (the CLI names the flag)."""

    def __init__(self, param, message):
        super().__init__(message)
        self.param = param


# data loading / preprocessing
class MissingColumn(FairlistsError):
    pass


class RepeatedColumn(FairlistsError):
    pass


class NonBinaryCell(FairlistsError):
    pass


class EmptyFile(FairlistsError):
    pass


class UnreadableFile(FairlistsError):
    """Bytes that do not decode as text, or a csv field over the csv module's
    size limit."""


class TooManyCategories(FairlistsError):
    pass


class SingleCategory(FairlistsError):
    pass


class NoAntecedents(FairlistsError):
    pass


class EmptyPart(FairlistsError):
    pass


# rule lists
class MalformedRuleList(FairlistsError, ValueError):
    """Text that is not a canonical rule list, or a rule list that repeats
    an antecedent."""


class UnknownAntecedent(FairlistsError):
    pass


class LengthMismatch(FairlistsError):
    pass


# fairness metrics
class EmptyGroup(FairlistsError):
    pass


class LabelsRequired(FairlistsError):
    pass


class UndefinedRate(FairlistsError):
    pass


# search
class BudgetZero(InvalidValue):
    pass


# rationalization
class KOutOfRange(FairlistsError):
    pass


class EmptyCohort(FairlistsError):
    pass
