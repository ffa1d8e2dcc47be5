"""Exception types shared across the library, and the one size-escalation
policy built on them.

Every exception carries a ``context`` dict so that sweep drivers can attach
the (alpha, beta, t, dim) tuple that triggered a numerical failure before
re-raising.
"""

from __future__ import annotations


class KrylovGrowthError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.context = dict(context)

    def __str__(self) -> str:
        base = super().__str__()
        if self.context:
            items = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
            return f"{base} [{items}]"
        return base


class DimensionMismatch(KrylovGrowthError, ValueError):
    """Operands live in truncated spaces of different sizes."""


class TruncationOverflow(KrylovGrowthError, RuntimeError):
    """Probability mass leaked into the guard band: the truncation dim is
    too small for the requested evolution or squeeze strength."""


class Breakdown(KrylovGrowthError, RuntimeError):
    """Lanczos iteration exhausted the Krylov space before producing a
    usable chain (fewer than two sites)."""

    def __init__(self, index: int, message: str = "", **context):
        super().__init__(message or f"Lanczos breakdown at coefficient b_{index}", **context)
        self.index = index


class EdgeLeak(KrylovGrowthError, RuntimeError):
    """Chain propagation reached the last retained site: the chain is too
    short for the requested time horizon."""

    def __init__(self, t: float, message: str = "", **context):
        super().__init__(message or f"probability reached the chain end at t={t}", **context)
        self.t = t


class NonConvergent(KrylovGrowthError, RuntimeError):
    """An adaptive series did not reach the requested tolerance below the
    configured cap."""


class DecompositionFailure(KrylovGrowthError, RuntimeError):
    """The displacement-squeeze factorization could not be matched against
    the exact group exponential (outside the decomposable regime, or
    numerical breakdown)."""


def _grow(sizes, attempt, too_small):
    """``attempt(size)`` at the first of ``sizes`` where it does not raise
    ``too_small``: the library's one size-escalation loop. At the last size
    that error propagates unchanged; any other error propagates at once."""
    *smaller, last = sizes
    for size in smaller:
        try:
            return attempt(size)
        except too_small:
            pass
    return attempt(last)
