"""Exception types shared across the package."""


class RangeError(ValueError):
    """An argument falls outside the range a table or sieve can serve."""


class ContractError(ValueError):
    """A call violates an operation's stated contract."""


class ResourceError(RuntimeError):
    """An allocation would exceed the configured memory cap."""
