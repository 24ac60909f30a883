"""States, ABL retrodiction, slit geometry, rotated bases; numpy matrices serve as the oracle."""

import math

import numpy as np
import pytest

from threebox.errors import (
    BasisNotOrthonormalError,
    DimensionMismatchError,
    GeometryInfeasibleError,
    InvalidArgumentsError,
    NotNormalizedError,
    ZeroDenominatorError,
)
from haar import haar_random_basis, haar_random_state
from threebox.formulas import RetrodictionInputs, retrodict_partial
from threebox.quantum import (
    QState,
    SlitGeometry,
    TOLERANCE,
    abl_complete,
    abl_partial,
    aad_analysis,
    born_probability,
    rotated_basis,
    shared_eigenstate_pair,
    three_box_pair,
    three_slit_design,
    threebox_condition_check,
)

TOL = 1e-9


class TestQState:
    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            QState([1, 1, 1])
        QState(np.array([1, 1, 1]) / math.sqrt(3))

    def test_normalized_constructor(self):
        state = QState.normalized([3, 4])
        assert abs(abs(state.amplitudes[0]) - 0.6) < TOL
        with pytest.raises(NotNormalizedError):
            QState.normalized([0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), complex(-math.inf, 1)])
    def test_non_finite_amplitudes_are_refused(self, bad):
        with pytest.raises(InvalidArgumentsError):
            QState([bad, 0, 0])
        with pytest.raises(InvalidArgumentsError):
            QState.normalized([1, bad])

    def test_tiny_and_huge_amplitudes_normalize(self):
        """No finite nonzero vector is refused for an underflowing or overflowing norm."""
        half = math.sqrt(0.5)
        for amplitudes, expected in (
            ([1e-200, 1e-200], [half, half]),
            ([1e200, -1e200], [half, -half]),
            ([1e308 + 1e308j, 1e308 + 1e308j], [0.5 + 0.5j, 0.5 + 0.5j]),
        ):
            state = QState.normalized(amplitudes)
            assert np.allclose(state.amplitudes, expected, rtol=0, atol=TOL)

    def test_amplitudes_are_read_only(self):
        state = QState.basis_state(3, 0)
        with pytest.raises(TypeError):
            state.amplitudes[0] = 0
        with pytest.raises(AttributeError):
            state.amplitudes = (0, 1, 0)
        assert state.amplitudes == (1, 0, 0)


class TestBorn:
    def test_self_overlap_is_one(self):
        state = QState.normalized([1, 2j, -1])
        assert abs(born_probability(state, state) - 1) < TOL

    def test_three_box_pair_overlap_is_one_ninth(self):
        pre, post, _ = three_box_pair()
        assert abs(born_probability(pre, post) - 1 / 9) < TOL

    def test_orthogonal_states(self):
        assert born_probability(QState.basis_state(2, 0), QState.basis_state(2, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_probability(QState.basis_state(2, 0), QState.basis_state(3, 0))


def _projector(state: QState) -> np.ndarray:
    """|v⟩⟨v| as a numpy matrix."""
    v = np.array(state.amplitudes)
    return np.outer(v, v.conj())


def _sandwich(state: QState, first: np.ndarray, second: np.ndarray) -> float:
    """Wigner's formula for successive outcomes: Tr(ρ Π_first Π_second Π_first), ρ = |state⟩⟨state|."""
    value = np.trace(_projector(state) @ first @ second @ first)
    assert abs(value.imag) < 1e-12
    return float(value.real)


class TestSandwich:
    """The Born and ABL rules against Wigner's sandwich formula on numpy matrices."""

    def test_identical_projectors_collapse(self):
        pre, post, basis = three_box_pair()
        p = _projector(basis[0])
        assert abs(_sandwich(pre, p, p) - born_probability(pre, basis[0])) < TOL

    def test_three_box_pair_value(self):
        # Tr(ρ Π_b Π_post Π_b) = |<post|b>|^2 |<b|pre>|^2 = 1/9 for every box b.
        pre, post, basis = three_box_pair()
        for b in basis:
            assert abs(_sandwich(pre, _projector(b), _projector(post)) - 1 / 9) < TOL

    def test_identity_first_projector_reduces_to_born(self):
        pre, post, _ = three_box_pair()
        assert abs(_sandwich(pre, np.eye(3), _projector(post)) - born_probability(pre, post)) < TOL

    def test_dimension_mismatch(self):
        pre, post, _ = three_box_pair()
        basis = [QState.basis_state(2, k) for k in range(2)]
        for rule in (abl_complete, abl_partial):
            with pytest.raises(DimensionMismatchError):
                rule(pre, basis, 0, post)

    def test_abl_rules_are_normalized_sandwiches(self):
        """Complete: sandwich_j / Σ_t sandwich_t.  Partial: the outcomes are Π_j and 𝟙 − Π_j, and

        Tr(ρ (𝟙−Π_j) Π_post (𝟙−Π_j)) = |Σ_{t≠j} ⟨post|b_t⟩⟨b_t|pre⟩|², the coherent remainder.
        """
        rng = np.random.default_rng(41)
        for dimension in (2, 3, 4):
            for _ in range(100):
                basis = haar_random_basis(dimension, rng)
                pre, post = haar_random_state(dimension, rng), haar_random_state(dimension, rng)
                final = _projector(post)
                sandwiches = [_sandwich(pre, _projector(b), final) for b in basis]
                for j, b in enumerate(basis):
                    complete = sandwiches[j] / sum(sandwiches)
                    assert abs(abl_complete(pre, basis, j, post) - complete) <= 1e-12
                    rest = _sandwich(pre, np.eye(dimension) - _projector(b), final)
                    partial = sandwiches[j] / (sandwiches[j] + rest)
                    assert abs(abl_partial(pre, basis, j, post) - partial) <= 1e-12


class TestABLComplete:
    def test_three_box_pair_is_uniform(self):
        pre, post, basis = three_box_pair()
        for j in range(3):
            assert abs(abl_complete(pre, basis, j, post) - 1 / 3) < TOL

    def test_preparation_pins_the_value(self):
        pre, post, basis = three_box_pair()
        assert abs(abl_complete(basis[0], basis, 0, post) - 1) < TOL
        assert abl_complete(basis[0], basis, 1, post) == 0

    def test_shared_eigenstate_middle_value_certain(self):
        pre, post, basis = shared_eigenstate_pair()
        assert abs(abl_complete(pre, basis, 1, post) - 1) < TOL

    def test_sums_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pre, post = haar_random_state(3, rng), haar_random_state(3, rng)
            basis = haar_random_basis(3, rng)
            total = sum(abl_complete(pre, basis, j, post) for j in range(3))
            assert abs(total - 1) < 1e-8

    def test_at_most_one_certain_value(self):
        # Certainty at two indices would need the denominator to lose mass
        # that its own normalization guarantees is there.
        rng = np.random.default_rng(23)
        basis = [QState.basis_state(3, k) for k in range(3)]
        for _ in range(1000):
            pre, post = haar_random_state(3, rng), haar_random_state(3, rng)
            certain = sum(
                1 for j in range(3) if abl_complete(pre, basis, j, post) >= 1 - TOLERANCE
            )
            assert certain <= 1

    def test_zero_denominator(self):
        basis = [QState.basis_state(2, 0), QState.basis_state(2, 1)]
        with pytest.raises(ZeroDenominatorError):
            abl_complete(basis[0], basis, 0, basis[1])

    def test_basis_must_be_orthonormal_and_complete(self):
        pre, post, basis = three_box_pair()
        with pytest.raises(BasisNotOrthonormalError):
            abl_complete(pre, [basis[0], basis[0], basis[1]], 0, post)
        with pytest.raises(BasisNotOrthonormalError):
            abl_complete(pre, basis[:2], 0, post)

    def test_index_validated(self):
        pre, post, basis = three_box_pair()
        with pytest.raises(InvalidArgumentsError):
            abl_complete(pre, basis, 3, post)


class TestABLPartial:
    def test_boxes_one_and_two_are_certain(self):
        pre, post, basis = three_box_pair()
        assert abs(abl_partial(pre, basis, 0, post) - 1) < TOL
        assert abs(abl_partial(pre, basis, 1, post) - 1) < TOL

    def test_box_three_scores_one_fifth(self):
        # Numerator 1/9; the two untested products sum coherently to 2/3,
        # contributing 4/9: (1/9) / (1/9 + 4/9) = 1/5.
        pre, post, basis = three_box_pair()
        assert abs(abl_partial(pre, basis, 2, post) - 0.2) < TOL

    def test_shared_eigenstate_certain_in_both_bases(self):
        pre, post, x_basis = shared_eigenstate_pair()
        alpha = beta = 1 / math.sqrt(2)
        assert abs(abl_partial(pre, x_basis, 1, post) - 1) < TOL
        assert abs(abl_partial(pre, rotated_basis(alpha, beta), 1, post) - 1) < TOL

    def test_agrees_with_the_rational_retrodiction_formula(self):
        # Born-rule inputs: prior |<b_j|s>|^2, likelihood |<q|b_j>|^2, and the
        # negated branch carrying the coherent remainder over 1 - prior.
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 100:
            dimension = int(rng.integers(2, 5))
            basis = haar_random_basis(dimension, rng)
            pre, post = haar_random_state(dimension, rng), haar_random_state(dimension, rng)
            j = int(rng.integers(dimension))
            products = [post.inner(b) * b.inner(pre) for b in basis]
            prior = abs(basis[j].inner(pre)) ** 2
            if prior > 1 - 1e-6:
                continue
            coherent = abs(sum(products) - products[j]) ** 2
            inputs = RetrodictionInputs(
                likelihood=_fraction(abs(post.inner(basis[j])) ** 2),
                prior=_fraction(prior),
                likelihood_negation=_fraction(coherent) / _fraction(1 - prior),
                prior_negation=1 - _fraction(prior),
            )
            assert abs(float(retrodict_partial(inputs)) - abl_partial(pre, basis, j, post)) < TOL
            checked += 1

    def test_zero_denominator(self):
        basis = [QState.basis_state(2, 0), QState.basis_state(2, 1)]
        with pytest.raises(ZeroDenominatorError):
            abl_partial(basis[0], basis, 0, basis[1])


class TestThreeBoxCondition:
    def test_standard_pair_satisfies_it(self):
        pre, post, basis = three_box_pair()
        assert threebox_condition_check(pre, post, basis)

    def test_basis_state_pair_fails_it(self):
        pre, post, basis = three_box_pair()
        assert not threebox_condition_check(basis[0], basis[0], basis)

    def test_random_pairs_essentially_never_satisfy_it(self):
        rng = np.random.default_rng(5)
        basis = [QState.basis_state(3, k) for k in range(3)]
        hits = sum(
            threebox_condition_check(haar_random_state(3, rng), haar_random_state(3, rng), basis)
            for _ in range(100)
        )
        assert hits == 0

    def test_constructed_families_satisfy_it_and_are_doubly_certain(self):
        # Build (pre, post) with equal products on the first two basis states
        # and the opposite product on the third; normalization preserves this.
        rng = np.random.default_rng(13)
        basis = [QState.basis_state(3, k) for k in range(3)]
        for _ in range(20):
            pre_raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pre_raw[np.abs(pre_raw) < 0.1] += 0.5
            signs = np.array([1, 1, -1])
            post_raw = np.conj(signs / pre_raw)
            pre = QState.normalized(pre_raw)
            post = QState.normalized(post_raw)
            assert threebox_condition_check(pre, post, basis)
            assert abs(abl_partial(pre, basis, 0, post) - 1) < TOL
            assert abs(abl_partial(pre, basis, 1, post) - 1) < TOL

    def test_dimension_must_be_three(self):
        state = QState.basis_state(2, 0)
        with pytest.raises(DimensionMismatchError):
            threebox_condition_check(state, state, [state, QState.basis_state(2, 1)])


class TestSlitGeometry:
    def test_detector_distance(self):
        geometry = three_slit_design(separation=10.0, wavelength=1.0)
        assert abs(geometry.distance - 99.75) < TOL

    def test_half_wavelength_condition_holds(self):
        geometry = three_slit_design(separation=3.7, wavelength=0.21)
        excess = math.hypot(geometry.distance, geometry.separation) - geometry.distance
        assert abs(excess - geometry.wavelength / 2) < TOL

    def test_infeasible_when_separation_too_small(self):
        with pytest.raises(GeometryInfeasibleError):
            three_slit_design(separation=0.5, wavelength=1.0)
        with pytest.raises(GeometryInfeasibleError):
            three_slit_design(separation=1.0, wavelength=-2.0)

    @pytest.mark.parametrize(
        "separation, wavelength", [(math.nan, 1.0), (math.inf, 1.0), (10.0, math.nan), (10.0, math.inf), (1e200, 1.0)]
    )
    def test_non_finite_lengths_are_refused(self, separation, wavelength):
        with pytest.raises(GeometryInfeasibleError):
            three_slit_design(separation=separation, wavelength=wavelength)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_direct_construction_refuses_non_finite_lengths(self, length):
        for lengths in ((length, 1.0, 99.75), (10.0, length, 99.75), (10.0, 1.0, length)):
            with pytest.raises(GeometryInfeasibleError):
                SlitGeometry(*lengths)

    def test_direct_construction_checks_the_condition(self):
        with pytest.raises(GeometryInfeasibleError):
            SlitGeometry(separation=10.0, wavelength=1.0, distance=50.0)

    def test_outer_paths_cancel_the_middle_one(self):
        geometry = three_slit_design(separation=10.0, wavelength=1.0)
        amplitudes = geometry.detector_amplitudes()
        assert abs(amplitudes[0] + amplitudes[2]) < TOL
        assert abs(amplitudes[1] + amplitudes[2]) < TOL

    def test_detector_pattern_matches_the_three_box_post_state(self):
        pre, post, _ = three_box_pair()
        geometry = three_slit_design(separation=10.0, wavelength=1.0)
        assert abs(abs(geometry.detector_state().inner(post)) - 1) < TOL

    def test_path_lengths(self):
        geometry = three_slit_design(separation=10.0, wavelength=1.0)
        assert geometry.path_length(1) == geometry.path_length(2) > geometry.path_length(3)
        with pytest.raises(InvalidArgumentsError):
            geometry.path_length(0)


class TestRotatedBasisAnalysis:
    def test_equal_amplitudes_give_two_thirds(self):
        report = aad_analysis(1 / math.sqrt(2), 1 / math.sqrt(2))
        assert abs(report.partial_result - 1) < TOL
        assert abs(report.complete_result - 2 / 3) < TOL

    def test_two_thirds_against_a_direct_oracle(self):
        # Hand evaluation over the explicit rotated basis: the transition
        # products are (α*β/2, 1/2, -α*β/2), so the complete denominator is
        # 1/4 + 2|αβ/2|^2 and the result 1/(1 + 2|αβ|^2) = 2/3 here.
        alpha = beta = 1 / math.sqrt(2)
        a = np.array([1, 1, 0]) / math.sqrt(2)
        b = np.array([0, 1, 1]) / math.sqrt(2)
        rotated = [
            np.array([alpha, 0, beta]),
            np.array([0, 1, 0]),
            np.array([np.conj(beta), 0, -np.conj(alpha)]),
        ]
        products = [np.vdot(b, q) * np.vdot(q, a) for q in rotated]
        numerator = abs(products[1]) ** 2
        oracle = numerator / sum(abs(p) ** 2 for p in products)
        assert abs(oracle - 2 / 3) < TOL
        assert abs(aad_analysis(alpha, beta).complete_result - oracle) < TOL

    def test_aligned_basis_is_degenerate(self):
        report = aad_analysis(1.0, 0.0)
        assert abs(report.partial_result - 1) < TOL
        assert abs(report.complete_result - 1) < TOL

    def test_mixing_always_costs_certainty(self):
        rng = np.random.default_rng(3)
        found = 0
        while found < 100:
            pair = haar_random_state(2, rng).amplitudes
            alpha, beta = complex(pair[0]), complex(pair[1])
            if abs(alpha * beta) <= 0.05:
                continue
            report = aad_analysis(alpha, beta)
            assert abs(report.partial_result - 1) < TOL
            assert report.complete_result < 1
            expected = 1 / (1 + 2 * abs(alpha * beta) ** 2)
            assert abs(report.complete_result - expected) < TOL
            found += 1

    def test_amplitudes_must_be_normalized(self):
        with pytest.raises(NotNormalizedError):
            aad_analysis(1.0, 1.0)


def _fraction(x: float):
    from fractions import Fraction

    return Fraction(x)
