"""Shared exception types, and the one guard against sizes beyond memory.

Expected failures carry enough context to act on: accuracy errors report the
best estimate achieved, missed-zero errors point at the suspect gap, parse
errors name the offending line.
"""

import sys


class DomainError(ValueError):
    """An argument is outside an operation's supported range."""


class CoverageError(DomainError):
    """The zero set does not reach the height an operation needs."""


class AccuracyError(RuntimeError):
    """Quadrature failed to converge within the requested tolerances."""

    def __init__(self, message, achieved=None, estimate=None):
        super().__init__(message)
        self.achieved = achieved    # error estimate actually reached
        self.estimate = estimate    # value computed at the deepest level


class MissedZerosError(RuntimeError):
    """Zero scan cannot prove its count: a Gram block stays short of
    sign changes, or they exceed Turing's bound."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap              # (t_lo, t_hi) interval of the suspect gap


class ZerosParseError(ValueError):
    """Malformed zeros text stream."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


def refuse_beyond_memory(count: float, what: str) -> None:
    """Refuse, as MemoryError, ``count`` 8-byte entries that no address
    space holds, where NumPy would raise ValueError; NaN too."""
    if not count < sys.maxsize / 8:
        raise MemoryError(f"cannot hold {count:.3g} {what}")
