"""Shared test helpers: random operands and the constraint-subspace projection.

The 2x2 matrix oracle is ``sgkit.verify``'s, the one ``sgkit verify`` runs; the
tests that compare a formula with explicit matrices import its helpers.
"""

import numpy as np
import pytest

from sgkit.instrument import BlochState, Instrument, KrausOperator, exact_normalize
from sgkit.linearize import design_matrix


def project_to_constraints(vec) -> np.ndarray:
    """Project a 16-parameter vector onto the first-order completeness subspace,
    the nullspace of the constraint rows (the whole design system without
    observables)."""
    _, s, vt = np.linalg.svd(design_matrix(()).rows)
    null = vt[int(np.sum(s > 1e-10 * s[0])):]
    return null.T @ (null @ np.asarray(vec, dtype=float).reshape(16))


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
