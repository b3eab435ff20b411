"""Exception hierarchy shared across the package."""


class SpinlabError(Exception):
    """Base class for all spinlab errors."""


class MatrixFormatError(SpinlabError):
    """Malformed or invalid matrix/basis/invariant input.

    Carries a 1-based line number when the problem is tied to a
    specific line of a text file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeBoundError(SpinlabError):
    """A requested construction exceeds the configured size bound."""


class InvariantError(SpinlabError):
    """An invariant constraint is violated (p-th power law, kernel
    membership, or a basis that is dependent, outside ker(omega) or not
    spanning it)."""
