"""Haar-random states and bases for the quantum property tests, drawn with numpy."""

import numpy as np

from threebox.quantum import QState


def haar_random_state(dimension: int, rng: np.random.Generator) -> QState:
    """Uniform random state: a normalized vector of standard complex Gaussians."""
    vector = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    return QState.normalized(vector)


def haar_random_basis(dimension: int, rng: np.random.Generator) -> list[QState]:
    """Random orthonormal basis from the QR decomposition of a Gaussian matrix."""
    matrix = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal((dimension, dimension))
    q, r = np.linalg.qr(matrix)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return [QState(q[:, k]) for k in range(dimension)]
