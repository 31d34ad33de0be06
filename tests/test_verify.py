"""The batched checks of ``sgkit verify`` and the array forms they evaluate.

A defect planted in an array form must fail the check that guards it, and
every object-API function must equal its array form, evaluated one operand at
a time or on the whole stacked batch.  The checks themselves run at larger
counts as acceptance criteria 1-6.
"""

import math

import numpy as np
import pytest

from sgkit import instrument, linearize, verify
from sgkit.instrument import (
    BlochState,
    Instrument,
    RotationSpec,
    SingularNormalization,
    UnnormalizedInstrument,
    effect_expectation,
    exact_normalize,
    exact_normalize_array,
    expectation_array,
    ideal_instrument,
    nonselective_apply,
    nonselective_array,
    residual_array,
    rotate_array,
    rotate_instrument,
    selective_apply,
    selective_array,
)
from sgkit.linearize import ObservableSpec, Outcome, Protocol
from sgkit.pauli import pauli_mul_array

from conftest import random_instrument, random_pair, random_state, random_unit


def failed_checks() -> dict[str, str]:
    return {name: detail for name, ok, detail in verify.run_all() if not ok}


# --- planted defects ---------------------------------------------------------------


def test_flipped_cross_sign_in_product_fails_matrix_oracle(monkeypatch):
    def flipped(a, b):
        out = pauli_mul_array(a, b)
        out[..., 1:] -= 2j * np.cross(a[..., 1:], b[..., 1:])
        return out

    monkeypatch.setattr(instrument, "pauli_mul_array", flipped)
    assert "matrix-oracle-agreement" in failed_checks()


def test_dropped_sin_term_in_rotation_fails_conjugation_check(monkeypatch):
    def dropped(a, axis, angle):
        out = rotate_array(a, axis, angle)
        out[..., 1:] -= np.sin(np.asarray(angle))[..., None] * np.cross(axis, a[..., 1:])
        return out

    monkeypatch.setattr(verify, "rotate_array", dropped)
    assert "rotation-closed-form-vs-conjugation" in failed_checks()


def test_swapped_adjoint_in_nonselective_update_fails_matrix_oracle(monkeypatch):
    """A rho A^dag instead of A^dag rho A.  The ideal instrument is Hermitian and
    cannot tell the two apart; the oracle's random instruments can."""
    # conjugated coefficients are those of A^dag, so this evaluates A rho A^dag
    monkeypatch.setattr(verify, "nonselective_array", lambda inst, r: nonselective_array(inst.conj(), r))
    assert "matrix-oracle-agreement" in failed_checks()


def test_wrong_sign_of_q_fails_exact_normalization(monkeypatch):
    inverse_sqrt = instrument._inverse_sqrt

    def flipped(s):
        out = inverse_sqrt(s)
        out[..., 1:] *= -1.0
        return out

    monkeypatch.setattr(instrument, "_inverse_sqrt", flipped)
    assert "exact-normalization" in failed_checks()


PROBABILITY_ARRAY = linearize._probability_array


def wrong_branch(inst, rotated, obs, r):
    other = Outcome.DOWN if obs.outcome is Outcome.UP else Outcome.UP
    return PROBABILITY_ARRAY(inst, rotated, ObservableSpec(obs.protocol, other, obs.m), r)


def dropped_first_stage(inst, rotated, obs, r):
    return PROBABILITY_ARRAY(inst, rotated, ObservableSpec(Protocol.SINGLE, obs.outcome, obs.m), r)


@pytest.mark.parametrize("defect", [wrong_branch, dropped_first_stage])
def test_defective_probability_fails_interpolation_checks(monkeypatch, defect):
    """The defect is planted in the one mapping from observable to probability,
    so it reaches ``model_probability`` (every simulated record) as well as the
    stacked nodes the interpolation checks evaluate."""
    inst = linearize.build_perturbed(linearize.PerturbationParams.unit(3, eta=0.1))
    obs = ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 1)
    k = random_unit(np.random.default_rng(5))
    before = linearize.model_probability(inst, obs, k)
    monkeypatch.setattr(linearize, "_probability_array", defect)
    assert linearize.model_probability(inst, obs, k) != before
    failed = failed_checks()
    assert {"interpolation-node-independence", "linearization-ratio"} <= failed.keys(), failed


# --- object API against array forms ------------------------------------------------


def test_object_api_equals_array_forms(rng):
    n = 40
    instruments = [random_instrument(rng) for _ in range(n)]
    raw = [random_pair(rng) for _ in range(n)]
    states = [random_state(rng) for _ in range(n)]
    rotations = [RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi)) for _ in range(n)]
    inst = np.stack([i.as_array() for i in instruments])
    raw_arr = np.stack([i.as_array() for i in raw])
    r = np.stack([s.r for s in states])
    axes = np.stack([rot.axis for rot in rotations])
    angles = np.array([rot.angle for rot in rotations])

    batched = {
        "expectation": expectation_array(inst[:, 0], r),
        "selective": selective_array(inst[:, 1], r),
        "nonselective": nonselective_array(inst, r),
        "normalized": exact_normalize_array(raw_arr),
        "rotated": rotate_array(inst, axes[:, None], angles[:, None]),
    }
    for i in range(n):
        up, down, state = instruments[i].up, instruments[i].down, states[i]
        expected = effect_expectation(up, state)
        assert expected == expectation_array(up.as_array(), state.r) == batched["expectation"][i]
        prob, post = selective_apply(down, state)
        assert prob == batched["selective"][0][i]
        assert np.array_equal(post.r, batched["selective"][1][i])
        assert np.array_equal(nonselective_apply(instruments[i], state).r, batched["nonselective"][i])
        assert np.array_equal(exact_normalize(raw[i]).as_array(), batched["normalized"][i])
        rotated = rotate_instrument(instruments[i], rotations[i]).as_array()
        assert np.array_equal(rotated, batched["rotated"][i])


def test_array_forms_mark_what_the_object_api_refuses():
    ideal = ideal_instrument()
    # zero-probability branch: no post-state, a NaN post vector, never divided
    down = BlochState((0.0, 0.0, -1.0))
    assert selective_apply(ideal.up, down) == (0.0, None)
    prob, post = selective_array(ideal.up.as_array(), down.r)
    assert prob == 0.0 and np.isnan(post).all()

    unnormalized = Instrument(ideal.up, ideal.up)
    state = BlochState((0.1, -0.2, 0.3))
    with pytest.raises(UnnormalizedInstrument):
        nonselective_apply(unnormalized, state)
    assert residual_array(unnormalized.as_array()) > 0.5

    with pytest.raises(SingularNormalization):
        exact_normalize(unnormalized)
    with pytest.raises(SingularNormalization):
        exact_normalize_array(np.stack([ideal.as_array(), unnormalized.as_array()]))
