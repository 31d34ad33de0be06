"""Shared test helpers, including an independent 2x2 matrix oracle.

The oracle builds its own matrices from Pauli constants defined here, so it
never routes through the coefficient-level code paths it is checking.
"""

import math

import numpy as np
import pytest

from sgkit.instrument import BlochState, Instrument, KrausOperator, RotationSpec, exact_normalize
from sgkit.linearize import design_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)


def mat(alpha, beta) -> np.ndarray:
    """Explicit matrix of alpha*1 + beta . sigma."""
    beta = np.asarray(beta, dtype=complex)
    return alpha * ID + beta[0] * SX + beta[1] * SY + beta[2] * SZ


def from_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of ``mat`` via the orthogonality of the Pauli basis: the (4,)
    complex coefficients [alpha, beta_x, beta_y, beta_z]."""
    m = np.asarray(m, dtype=complex)
    return np.array(
        [
            (m[0, 0] + m[1, 1]) / 2.0,
            (m[0, 1] + m[1, 0]) / 2.0,
            1j * (m[0, 1] - m[1, 0]) / 2.0,
            (m[0, 0] - m[1, 1]) / 2.0,
        ]
    )


def rotation_unitary(rot: RotationSpec) -> np.ndarray:
    """U(phi) = cos(phi/2) * 1 + i sin(phi/2) * n . sigma, the normative device
    rotation: a rotated branch is U^dag A U."""
    half = 0.5 * rot.angle
    return mat(math.cos(half), 1j * math.sin(half) * rot.axis)


def project_to_constraints(vec) -> np.ndarray:
    """Project a 16-parameter vector onto the first-order completeness subspace,
    the nullspace of the constraint rows (the whole design system without
    observables)."""
    _, s, vt = np.linalg.svd(design_matrix(()).rows)
    null = vt[int(np.sum(s > 1e-10 * s[0])):]
    return null.T @ (null @ np.asarray(vec, dtype=float).reshape(16))


def kraus_mat(k: KrausOperator) -> np.ndarray:
    return mat(k.alpha, k.beta)


def state_mat(s: BlochState) -> np.ndarray:
    return 0.5 * mat(1.0, s.r)


def bloch_of(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [np.trace(rho @ SX).real, np.trace(rho @ SY).real, np.trace(rho @ SZ).real]
    )


def random_kraus(rng, scale=0.5) -> KrausOperator:
    return KrausOperator(
        scale * complex(rng.normal(), rng.normal()),
        scale * (rng.normal(size=3) + 1j * rng.normal(size=3)),
    )


def random_pair(rng) -> Instrument:
    """Unnormalized random branch pair."""
    return Instrument(random_kraus(rng), random_kraus(rng))


def random_instrument(rng) -> Instrument:
    """Random pair renormalized to an exact instrument."""
    return exact_normalize(random_pair(rng))


def random_state(rng, pure=False) -> BlochState:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform(0.0, 1.0)
    return BlochState(v)


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
