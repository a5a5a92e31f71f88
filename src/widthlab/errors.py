"""Exception types shared across the package."""

from __future__ import annotations


class WidthlabError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(WidthlabError):
    """A configured work or size cap would be exceeded.

    Caps are explicit; exceeding one is an error, never silent truncation.
    """


class BooleanSpaceOverflow(WidthlabError):
    """Boolean row-space closure grew past its cap.

    Carries the member count reached when the cap was tripped.
    """

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


class ParseError(WidthlabError):
    """Malformed textual input.

    `position` is always given: the 0-based offset of the offending graph6
    character, or the 1-based number of the offending line in the line-based
    formats and CLI input files.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class ContractError(WidthlabError):
    """A cut function violated its symmetry contract f(X) = f(V \\ X)."""


class StructureError(WidthlabError):
    """A decomposition tree failed structural validation."""
