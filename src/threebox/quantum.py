"""Finite-dimensional states and retrodiction rules.

Implements the quantum side of the story: Born-rule probabilities, the ABL
retrodiction rule for a complete intermediate observation, its
partial-observation variant (whose denominator adds the *coherent* sum over
the untested values), the condition on pre/post-selected states that makes
two different box checks each certain, the three-slit geometry realizing
those states, and the shared-eigenstate construction where partial and
complete checks of two different variables disagree.

Dimensions are tiny (d <= 4 in every scenario), so a state is a tuple of
Python ``complex`` amplitudes and every product is a plain loop over it,
with a single absolute tolerance of 1e-9.  Nothing here loads numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple, Sequence

from .deck import Value
from .errors import (
    BasisNotOrthonormalError,
    DimensionMismatchError,
    GeometryInfeasibleError,
    InvalidArgumentsError,
    NotNormalizedError,
    ZeroDenominatorError,
)

TOLERANCE = 1e-9

# Below (1e-9)^2: a sum of probability products this small is a true zero,
# not roundoff of something meant to be finite.
_ZERO_SUM = 1e-18


class QState:
    """A normalized state vector over a labeled orthonormal basis."""

    __slots__ = ("_vector",)

    def __init__(self, amplitudes: Iterable[complex]):
        vector = _finite_vector(amplitudes)
        norm = _norm(vector)
        if abs(norm - 1.0) > TOLERANCE:
            raise NotNormalizedError(f"state norm is {norm!r}, not 1")
        self._vector = vector

    @classmethod
    def normalized(cls, amplitudes: Iterable[complex]) -> QState:
        """Build a state from any nonzero finite vector by normalizing it."""
        vector = _finite_vector(amplitudes)
        # Scale the largest real or imaginary part to one first, so that the
        # norm can neither overflow nor underflow.
        scale = max(max(abs(a.real), abs(a.imag)) for a in vector)
        if scale == 0:
            raise NotNormalizedError("cannot normalize the zero vector")
        vector = [a / scale for a in vector]
        norm = _norm(vector)
        return cls(a / norm for a in vector)

    @classmethod
    def basis_state(cls, dimension: int, index: int) -> QState:
        vector = [0] * dimension
        vector[index] = 1
        return cls(vector)

    @property
    def amplitudes(self) -> tuple[complex, ...]:
        return self._vector

    @property
    def dimension(self) -> int:
        return len(self._vector)

    def inner(self, other: QState) -> complex:
        """⟨self|other⟩."""
        _same_dimension(self, other)
        return sum(a.conjugate() * b for a, b in zip(self._vector, other._vector))

    def __repr__(self) -> str:
        return f"QState({', '.join(f'{a:.6g}' for a in self._vector)})"


def _finite_vector(amplitudes: Iterable[complex]) -> tuple[complex, ...]:
    """The amplitudes as a tuple of complex numbers; refuses an empty or non-finite one."""
    vector = tuple(map(complex, amplitudes))
    if not vector:
        raise InvalidArgumentsError("a state needs at least one amplitude")
    if not all(map(cmath.isfinite, vector)):
        raise InvalidArgumentsError(f"amplitudes must be finite, got ({', '.join(map(str, vector))})")
    return vector


def _norm(vector: Sequence[complex]) -> float:
    return math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in vector))


def _same_dimension(*states: QState) -> int:
    dimensions = {s.dimension for s in states}
    if len(dimensions) != 1:
        raise DimensionMismatchError(f"mixed dimensions: {sorted(dimensions)}")
    return dimensions.pop()


def born_probability(state: QState, value: QState) -> float:
    """Pr[value | state] = |⟨value|state⟩|²."""
    return abs(value.inner(state)) ** 2


def check_orthonormal_basis(basis: Sequence[QState]) -> int:
    """Validate a complete orthonormal basis; returns its dimension."""
    if not basis:
        raise BasisNotOrthonormalError("empty basis")
    dimension = _same_dimension(*basis)
    if len(basis) != dimension:
        raise BasisNotOrthonormalError(
            f"{len(basis)} vectors cannot be a complete basis in dimension {dimension}"
        )
    for i, row in enumerate(basis):
        for j, column in enumerate(basis):
            if not abs(row.inner(column) - (i == j)) <= TOLERANCE:
                raise BasisNotOrthonormalError("basis is not orthonormal within tolerance")
    return dimension


def _transition_products(state: QState, basis: Sequence[QState], post: QState) -> list[complex]:
    """The amplitude products ⟨post|b_t⟩⟨b_t|state⟩ for every basis vector."""
    check_orthonormal_basis(basis)
    _same_dimension(state, basis[0], post)
    return [post.inner(b) * b.inner(state) for b in basis]


def abl_complete(state: QState, basis: Sequence[QState], index: int, post: QState) -> float:
    """Retrodiction for a complete intermediate observation in ``basis``.

        |⟨post|b_j⟩|²|⟨b_j|state⟩|² / Σ_t |⟨post|b_t⟩|²|⟨b_t|state⟩|²
    """
    products = _transition_products(state, basis, post)
    if not 0 <= index < len(basis):
        raise InvalidArgumentsError(f"index {index} outside 0..{len(basis) - 1}")
    terms = [abs(p) ** 2 for p in products]
    denominator = sum(terms)
    if denominator <= _ZERO_SUM:
        raise ZeroDenominatorError("postselected outcome is unreachable through this observation")
    return terms[index] / denominator


def abl_partial(state: QState, basis: Sequence[QState], index: int, post: QState) -> float:
    """Retrodiction for the partial check "value j or not".

    The numerator matches the complete rule; the denominator adds the
    *coherent* contribution of the untested values,
    |Σ_{t≠j} ⟨post|b_t⟩⟨b_t|state⟩|², because the negated report leaves them
    superposed rather than resolved.
    """
    products = _transition_products(state, basis, post)
    if not 0 <= index < len(basis):
        raise InvalidArgumentsError(f"index {index} outside 0..{len(basis) - 1}")
    numerator = abs(products[index]) ** 2
    coherent_rest = abs(sum(products) - products[index]) ** 2
    denominator = numerator + coherent_rest
    if denominator <= _ZERO_SUM:
        raise ZeroDenominatorError("postselected outcome is unreachable through this observation")
    return numerator / denominator


def threebox_condition_check(state: QState, post: QState, basis: Sequence[QState]) -> bool:
    """Whether the pre/post pair makes boxes 1 and 2 each retrodictively certain.

    True iff ⟨post|b_1⟩⟨b_1|state⟩ = ⟨post|b_2⟩⟨b_2|state⟩ = −⟨post|b_3⟩⟨b_3|state⟩
    within tolerance, comparing the raw complex products (no phase quotient).
    """
    if _same_dimension(state, post) != 3:
        raise DimensionMismatchError("the three-box condition lives in dimension 3")
    products = _transition_products(state, basis, post)
    return abs(products[0] - products[1]) <= TOLERANCE and abs(products[0] + products[2]) <= TOLERANCE


def three_box_pair() -> tuple[QState, QState, list[QState]]:
    """The standard pre/post-selected pair (1,1,1)/√3 and (1,1,−1)/√3.

    Returns (pre, post, box basis); opening box 1 or box 2 alone then finds
    the particle with certainty, while box 3 scores 1/5.
    """
    a = 1 / math.sqrt(3)
    pre = QState((a, a, a))
    post = QState((a, a, -a))
    basis = [QState.basis_state(3, k) for k in range(3)]
    return pre, post, basis


# ---------------------------------------------------------------------------
# Three-slit geometry
# ---------------------------------------------------------------------------


def _check_lengths(**lengths: float) -> None:
    """Refuse a slit length that is not a positive finite number."""
    for name, length in lengths.items():
        if not (math.isfinite(length) and length > 0):
            raise GeometryInfeasibleError(f"{name} must be a positive finite length, got {length!r}")


class SlitGeometry(Value):
    """Three equally spaced slits with an on-axis detector.

    Slits 1 and 2 are the outer pair at distance ``separation`` from the
    middle slit 3; the detector sits ``distance`` behind slit 3, placed so
    the outer-path excess √(L²+a²) − L equals half a wavelength.
    """

    __slots__ = ("separation", "wavelength", "distance")

    def __init__(self, separation: float, wavelength: float, distance: float) -> None:
        _check_lengths(separation=separation, wavelength=wavelength, distance=distance)
        excess = math.hypot(distance, separation) - distance
        if abs(excess - wavelength / 2) > TOLERANCE * wavelength:
            raise GeometryInfeasibleError(f"path excess {excess!r} is not half the wavelength {wavelength!r}")
        Value.__init__(self, separation, wavelength, distance)

    def path_length(self, slit: int) -> float:
        """Distance from slit 1, 2, or 3 to the detector."""
        if slit not in (1, 2, 3):
            raise InvalidArgumentsError("slits are numbered 1, 2, 3")
        if slit == 3:
            return self.distance
        return math.hypot(self.distance, self.separation)

    def detector_amplitudes(self) -> tuple[complex, complex, complex]:
        """Unit-magnitude path amplitudes e^{i k r_t} at the detector."""
        k = 2 * math.pi / self.wavelength
        return tuple(cmath.exp(1j * k * self.path_length(s)) for s in (1, 2, 3))

    def detector_state(self) -> QState:
        """The normalized slit-amplitude pattern seen from the detector.

        Proportional to (1, 1, −1)/√3 up to a global phase: the outer paths
        carry half a wavelength of extra phase, so either one cancels the
        middle path.
        """
        phases = self.detector_amplitudes()
        return QState.normalized(p / phases[2] * -1 for p in phases)


def three_slit_design(separation: float, wavelength: float) -> SlitGeometry:
    """Place the detector so each outer path exceeds the middle one by λ/2.

    Solving √(L²+a²) − L = λ/2 gives the unique positive distance
    L = a²/λ − λ/4, feasible only when a > λ/2.
    """
    _check_lengths(separation=separation, wavelength=wavelength)
    if separation <= wavelength / 2:
        raise GeometryInfeasibleError(
            f"separation {separation!r} must exceed half the wavelength {wavelength!r}"
        )
    try:
        distance = separation**2 / wavelength - wavelength / 4
    except OverflowError:
        raise GeometryInfeasibleError(f"separation {separation!r} puts the detector beyond float range") from None
    return SlitGeometry(separation=separation, wavelength=wavelength, distance=distance)


# ---------------------------------------------------------------------------
# Shared-eigenstate (two-variable) construction
# ---------------------------------------------------------------------------


def shared_eigenstate_pair() -> tuple[QState, QState, list[QState]]:
    """The pre/post pair (|x1⟩+|x2⟩)/√2 and (|x2⟩+|x3⟩)/√2 with the X basis."""
    a = 1 / math.sqrt(2)
    pre = QState((a, a, 0))
    post = QState((0, a, a))
    basis = [QState.basis_state(3, k) for k in range(3)]
    return pre, post, basis


def rotated_basis(alpha: complex, beta: complex) -> list[QState]:
    """A basis sharing |x2⟩ with X but mixing the outer states:

        |q1⟩ = α|x1⟩ + β|x3⟩,  |q2⟩ = |x2⟩,  |q3⟩ = β*|x1⟩ − α*|x3⟩.
    """
    weight = abs(alpha) * abs(alpha) + abs(beta) * abs(beta)  # inf, not OverflowError, when huge
    if not abs(weight - 1) <= TOLERANCE:
        raise NotNormalizedError(f"|α|² + |β|² = {weight!r}, not 1")
    q1 = QState((alpha, 0, beta))
    q2 = QState.basis_state(3, 1)
    q3 = QState((beta.conjugate(), 0, -alpha.conjugate()))
    return [q1, q2, q3]


class SharedEigenstateReport(NamedTuple):
    """Retrodictions of the shared value under the rotated basis."""

    basis: tuple[QState, QState, QState]
    partial_result: float
    complete_result: float


def aad_analysis(alpha: complex, beta: complex) -> SharedEigenstateReport:
    """Retrodict the shared middle value through the rotated basis.

    The partial check "q2 or not" is certain (equal to the X-basis result)
    for every admissible (α, β); the complete observation instead yields
    1 / (1 + 2|αβ|²), strictly below 1 whenever both α and β are nonzero.
    """
    pre, post, _ = shared_eigenstate_pair()
    basis = rotated_basis(alpha, beta)
    return SharedEigenstateReport(
        basis=tuple(basis),
        partial_result=abl_partial(pre, basis, 1, post),
        complete_result=abl_complete(pre, basis, 1, post),
    )
