"""Shared test helpers: the constraint-subspace projection, the fits of a dataset
as ``sgkit fit`` and ``sgkit roundtrip`` make them, and the seeded ``rng`` fixture.

Random operands and the 2x2 matrix oracle are ``sgkit.verify``'s, the ones
``sgkit verify`` runs: its batched draws (``_random_instruments``, ``_random_states``,
``_random_units``, ``_random_angles``, ``_random_coefficients``) and matrix helpers.
"""

import numpy as np
import pytest

from sgkit.cli import _fit_dataset
from sgkit.linearize import design_matrix


def project_to_constraints(vec) -> np.ndarray:
    """Project a 16-parameter vector onto the first-order completeness subspace,
    the nullspace of the constraint rows (the whole design system without
    observables)."""
    _, s, vt = np.linalg.svd(design_matrix(()).rows)
    null = vt[int(np.sum(s > 1e-10 * s[0])):]
    return null.T @ (null @ np.asarray(vec, dtype=float).reshape(16))


def grouped_fits(dataset) -> list:
    """One affine fit per observable of ``dataset``: the fit step of ``sgkit fit`` and ``sgkit roundtrip``."""
    return _fit_dataset(dataset)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
