"""Shared exception types and the default enumeration budget."""

# Default cap on the candidates one exhaustive enumeration may visit.
DEFAULT_MAX_ENUM = 10_000_000


class LawcatError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceeded(LawcatError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, what, needed, budget):
        super().__init__(f"{what}: needs {needed} candidates, budget is {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class QuantaleMismatch(LawcatError):
    """Two values over different quantales were combined."""


class DimensionMismatch(LawcatError):
    """Matrix dimensions do not line up."""


class GateUnavailable(LawcatError):
    """A result was requested whose hypothesis fails for this setting."""

    def __init__(self, gate, detail=""):
        msg = f"required gate not satisfied: {gate}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.gate = gate


class ParseError(LawcatError):
    """A workspace file could not be parsed."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message
