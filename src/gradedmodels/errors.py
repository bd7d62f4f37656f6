"""Exception types shared across the package."""


class GradedModelError(Exception):
    """Base class for all domain errors raised by this package."""


class ChainTableError(GradedModelError):
    """A conjunction table violates one of the chain axioms.

    Carries the name of the first failed axiom and a witness tuple of
    ranks demonstrating the failure.
    """

    def __init__(self, axiom: str, witness: tuple, detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        msg = f"{axiom} fails at {witness}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class FormulaParseError(GradedModelError):
    """Concrete-syntax error, with a 1-based column position."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


class FileFormatError(GradedModelError):
    """A chain or structure file does not match the expected line format."""


class BudgetError(GradedModelError):
    """An enumeration or search would exceed its candidate budget."""


class AmalgamationError(GradedModelError):
    """An amalgam is not a member of its class, or a limit stage's
    amalgam does not realize its extension task."""
