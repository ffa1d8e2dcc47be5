"""Exception types shared across the library, and the one size-escalation
policy built on them.

Every exception carries a ``context`` dict so that sweep drivers can attach
the (alpha, beta, t, dim) tuple that triggered a numerical failure before
re-raising.

The library's logger, ``logging.getLogger("krylovgrowth")``, lives here too.
It has no handler of its own and logs at DEBUG only, so nothing reaches
stderr unless the caller configures logging: each escalation of
:func:`_grow`, each time :func:`~krylovgrowth.coherent.compare_oracle`
skips for truncation, each rerun of the Lanczos recurrence after its Gram
check, and the numerical failure that ends a ``krylov-growth`` run (exit 2),
before its one stderr line.
"""

from __future__ import annotations

import logging

_log = logging.getLogger("krylovgrowth")


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


class Breakdown(KrylovGrowthError, RuntimeError):
    """Lanczos iteration exhausted the Krylov space before producing a
    usable chain (fewer than two sites)."""

    def __init__(self, index: int, message: str = "", **context):
        super().__init__(message or f"Lanczos breakdown at coefficient b_{index}", **context)
        self.index = index


class EdgeLeak(KrylovGrowthError, RuntimeError):
    """The longest chain of :func:`~krylovgrowth.algebra.chain_states` is too
    short for the time horizon: its last site holds more than ``EDGE_LEAK_TOL``
    of the probability at ``t``, with that ``m`` and ``edge_mass`` in ``context``."""

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
    ``too_small``: the library's one size-escalation loop, of the series and
    of the chain (the dense oracle is compared at the one dim it is given).
    At the last size that error propagates unchanged; any other error
    propagates at once. Each escalation is logged at DEBUG with the error's
    ``context``."""
    *smaller, last = sizes
    for size, bigger in zip(smaller, sizes[1:]):
        try:
            return attempt(size)
        except too_small as err:
            _log.debug("%s at size %s, trying %s: %s", type(err).__name__, size, bigger,
                       err.context)
    return attempt(last)
