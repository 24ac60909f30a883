"""Exception types shared across the package.

Every error raised by the library derives from :class:`ThreeBoxError`, so
callers (notably the CLI) can distinguish validation problems from bugs.
"""

from __future__ import annotations

# A refusal quotes text of at most this many characters whole, and only
# this many of a longer one, so a huge label or count makes a short message.
QUOTED_CHARS = 40


def quote(text: str) -> str:
    """``repr(text)``, or for a longer text than :data:`QUOTED_CHARS` the repr of its start and its length."""
    if len(text) <= QUOTED_CHARS:
        return repr(text)
    return f"{text[:QUOTED_CHARS]!r}... ({len(text)} characters)"


class ThreeBoxError(Exception):
    """Base class for all errors raised by this package."""


# --- deck construction and observation ---------------------------------------


class EmptyDeckError(ThreeBoxError):
    """The raw card list contains no cards."""


class UnequalValueCountsError(ThreeBoxError):
    """Some value does not appear the same number of times as the others."""

    def __init__(self, label: str, count: int, other_label: str, other_count: int):
        self.label = label
        self.count = count
        self.other_label = other_label
        self.other_count = other_count
        super().__init__(
            f"unequal value counts: {quote(label)} appears {count} time(s) "
            f"but {quote(other_label)} appears {other_count} time(s); "
            "every value of every variable must appear equally often"
        )


class UnknownLabelError(ThreeBoxError):
    """A variable or value label is not part of the deck schema."""


class DrawOutOfRangeError(ThreeBoxError):
    """A draw source produced an index outside the selected pool."""


class DeckFileError(ThreeBoxError):
    """A deck schema file is malformed."""


# --- exact probability engine -------------------------------------------------


class InvalidArgumentsError(ThreeBoxError):
    """Arguments are structurally wrong for the requested operation."""


class SequenceTooLongError(ThreeBoxError):
    """The experiment asks for more events than the enumerator will expand."""


class UndefinedConditionalError(ThreeBoxError):
    """Conditioning event has probability zero, so the conditional is undefined."""


class WeightsNotNormalizedError(ThreeBoxError):
    """Mixture weights are not positive rationals summing to one."""


# --- retrodiction formulas ----------------------------------------------------


class ZeroDenominatorError(ThreeBoxError):
    """All weighted likelihoods vanish: the conditioned-on event is impossible."""


class LengthMismatchError(ThreeBoxError):
    """Likelihood and prior sequences differ in length."""


# --- Monte Carlo ----------------------------------------------------------------


class NoAcceptedTrialsError(ThreeBoxError):
    """The postselection filter never fired over the whole run."""


# --- quantum module -------------------------------------------------------------


class DimensionMismatchError(ThreeBoxError):
    """Operands live in Hilbert spaces of different dimension."""


class NotNormalizedError(ThreeBoxError):
    """A state vector does not have unit norm."""


class BasisNotOrthonormalError(ThreeBoxError):
    """A claimed basis is not orthonormal and complete within tolerance."""


class GeometryInfeasibleError(ThreeBoxError):
    """No positive detector distance satisfies the slit path-length condition."""


# --- scenarios ------------------------------------------------------------------


class ZeroAcceptanceError(ThreeBoxError):
    """The scenario's postselection has probability zero on the given deck."""
