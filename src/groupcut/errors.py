class DomainError(ValueError):
    """Raised when an argument is outside an operation's stated domain."""


class NotMinimal(DomainError):
    """Raised when an operation's function is not minimal, as it requires;
    `certificate` is the failing one, as `check_minimal` gives it."""

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class FormatError(ValueError):
    """Raised when serialized input does not satisfy the interchange schema."""
