"""Retrodiction formulas as bare rational arithmetic.

These functions know nothing about decks or Hilbert spaces: they take
likelihoods and priors and return the retrodictive probability of an
intermediate outcome given the preparation and a postselected final outcome.
That neutrality lets the same arithmetic arbitrate between the card machine
(exact enumeration) and the quantum module (Born-rule inputs).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .deck import Value
from .errors import InvalidArgumentsError, LengthMismatchError, ZeroDenominatorError


class RetrodictionInputs(Value):
    """Inputs for a partial-observation retrodiction.

    ``likelihood`` and ``prior`` describe the queried value j: the chance of
    the postselected outcome given j, and the chance of j itself.  The
    ``_negation`` pair describes the genuine negated state ~j.  Priors must
    be complementary.
    """

    __slots__ = ("likelihood", "prior", "likelihood_negation", "prior_negation")

    def __init__(
        self, likelihood: Fraction, prior: Fraction, likelihood_negation: Fraction, prior_negation: Fraction
    ) -> None:
        fields = (likelihood, prior, likelihood_negation, prior_negation)
        for name, p in zip(self.__slots__, fields):
            if not 0 <= p <= 1:
                raise InvalidArgumentsError(f"{name} = {p} is not a probability")
        if prior + prior_negation != 1:
            raise InvalidArgumentsError(f"priors must sum to 1, got {prior} + {prior_negation}")
        Value.__init__(self, *fields)


def retrodict_partial(inputs: RetrodictionInputs) -> Fraction:
    """Retrodictive probability of value j under the partial check "j or not".

        L_j·π_j / (L_j·π_j + L_~j·π_~j)

    Raises ZeroDenominatorError when both products vanish (the postselected
    outcome is impossible).
    """
    numerator = inputs.likelihood * inputs.prior
    denominator = numerator + inputs.likelihood_negation * inputs.prior_negation
    if denominator == 0:
        raise ZeroDenominatorError("postselected outcome has probability zero under both branches")
    return numerator / denominator


def retrodict_complete(
    likelihoods: Sequence[Fraction], priors: Sequence[Fraction], index: int
) -> Fraction:
    """Retrodictive probability of value ``index`` under a complete observation.

        L_j·π_j / Σ_t L_t·π_t

    ``likelihoods[t]`` is the chance of the postselected outcome given value
    t; ``priors`` must sum to 1.
    """
    if len(likelihoods) != len(priors):
        raise LengthMismatchError(f"{len(likelihoods)} likelihoods vs {len(priors)} priors")
    if not 0 <= index < len(likelihoods):
        raise InvalidArgumentsError(f"index {index} outside 0..{len(likelihoods) - 1}")
    # Likelihoods only need a common positive scale, so anything nonnegative
    # is admissible; priors are genuine probabilities.
    if any(l < 0 for l in likelihoods):
        raise InvalidArgumentsError("likelihoods must be nonnegative")
    if any(p < 0 for p in priors):
        raise InvalidArgumentsError("priors must be nonnegative")
    if sum(priors, Fraction(0)) != 1:
        raise InvalidArgumentsError("priors must sum to 1")
    denominator = sum((l * p for l, p in zip(likelihoods, priors)), Fraction(0))
    if denominator == 0:
        raise ZeroDenominatorError("postselected outcome has probability zero under every value")
    return likelihoods[index] * priors[index] / denominator
