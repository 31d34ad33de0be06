"""The batched checks of ``sgkit verify`` and the array forms they evaluate.

A defect planted in an array form must fail the check that guards it, and
every object-API function must equal its array form, evaluated one operand at
a time or on the whole stacked batch.
"""

import math

import numpy as np
import pytest

from sgkit import instrument, verify
from sgkit.instrument import (
    BlochState,
    DegenerateKraus,
    Instrument,
    KrausOperator,
    RotationSpec,
    SingularNormalization,
    UnnormalizedInstrument,
    effect_array,
    effect_of,
    effect_expectation,
    exact_normalize,
    exact_normalize_array,
    expectation_array,
    ideal_instrument,
    nonselective_apply,
    nonselective_array,
    normalization_residual,
    probability,
    raw_successive_probability,
    residual_array,
    rotate_array,
    rotate_kraus,
    selective_apply,
    selective_array,
    successive_array,
)
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


def test_wrong_sign_of_q_fails_exact_normalization(monkeypatch):
    inverse_sqrt = instrument._inverse_sqrt

    def flipped(s):
        out = inverse_sqrt(s)
        out[..., 1:] *= -1.0
        return out

    monkeypatch.setattr(instrument, "_inverse_sqrt", flipped)
    assert "exact-normalization" in failed_checks()


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
        "effect": effect_array(inst[:, 0]).real,
        "selective": selective_array(inst[:, 1], r),
        "nonselective": nonselective_array(inst, r),
        "successive": successive_array(raw_arr, inst[:, 0], r),
        "residual": residual_array(raw_arr),
        "normalized": exact_normalize_array(raw_arr),
        "rotated": rotate_array(inst[:, 0], axes, angles),
    }
    for i in range(n):
        up, down, state = instruments[i].up, instruments[i].down, states[i]
        expected = effect_expectation(up, state)
        assert expected == expectation_array(up.as_array(), state.r) == batched["expectation"][i]
        assert probability(up, state) == min(1.0, max(0.0, expected))
        effect = effect_of(up)
        assert effect.weight == batched["effect"][i, 0]
        assert np.array_equal(effect.xi, batched["effect"][i, 1:] / batched["effect"][i, 0])
        prob, post = selective_apply(down, state)
        assert prob == batched["selective"][0][i]
        assert np.array_equal(post.r, batched["selective"][1][i])
        assert np.array_equal(nonselective_apply(instruments[i], state).r, batched["nonselective"][i])
        assert raw_successive_probability(raw[i], up, state) == batched["successive"][i]
        assert normalization_residual(raw[i]) == batched["residual"][i]
        assert np.array_equal(exact_normalize(raw[i]).as_array(), batched["normalized"][i])
        assert np.array_equal(rotate_kraus(up, rotations[i]).as_array(), batched["rotated"][i])


def test_array_forms_mark_what_the_object_api_refuses():
    ideal = ideal_instrument()
    # zero-probability branch: no post-state, a NaN post vector, never divided
    down = BlochState((0.0, 0.0, -1.0))
    assert selective_apply(ideal.up, down) == (0.0, None)
    prob, post = selective_array(ideal.up.as_array(), down.r)
    assert prob == 0.0 and np.isnan(post).all()

    zero = KrausOperator(0.0, np.zeros(3))
    with pytest.raises(DegenerateKraus):
        effect_of(zero)
    assert not effect_array(zero.as_array()).any()

    unnormalized = Instrument(ideal.up, ideal.up)
    state = BlochState((0.1, -0.2, 0.3))
    with pytest.raises(UnnormalizedInstrument):
        nonselective_apply(unnormalized, state)
    assert residual_array(unnormalized.as_array()) == normalization_residual(unnormalized) > 0.5

    with pytest.raises(SingularNormalization):
        exact_normalize(unnormalized)
    with pytest.raises(SingularNormalization):
        exact_normalize_array(np.stack([ideal.as_array(), unnormalized.as_array()]))
