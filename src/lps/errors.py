"""Exception types shared across the package."""


class LpsError(Exception):
    """Base class for errors raised by this package."""


class ParseError(LpsError):
    """Malformed input text.  Carries a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class DomainError(LpsError):
    """Input is well formed but outside the supported domain."""


class BudgetError(LpsError):
    """The input is valid, but answering it would exceed a fixed work
    budget (`lps` exits 5)."""


class InternalError(LpsError):
    """An internal invariant was violated; indicates a bug."""
