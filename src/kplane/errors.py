"""Exception and warning types shared across the package, and the array-size rule."""

import sys


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FormatError(ValueError):
    """A serialized file is malformed.

    Carries the byte offset at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TruncationWarning(UserWarning):
    """A quadrature or interpolation domain does not fully cover its target."""


def check_size(n, message: str) -> None:
    """Raise DomainError(message) when n float64 values could not exist as one
    array (more than sys.maxsize bytes), before anything tries to allocate them."""
    if n > sys.maxsize // 8:
        raise DomainError(message)
