import math

import numpy as np
import pytest

from sgkit.instrument import (
    BlochState,
    Instrument,
    KrausOperator,
    RotationSpec,
    SingularNormalization,
    UnnormalizedInstrument,
    cyclic_rotation,
    effect_array,
    effect_expectation,
    exact_normalize,
    expectation_array,
    ideal_instrument,
    nonselective_apply,
    residual_array,
    rotate_array,
    rotate_instrument,
    selective_apply,
    successive_array,
)

from conftest import (
    bloch_of,
    from_matrix,
    kraus_mat,
    random_instrument,
    random_pair,
    random_state,
    random_unit,
    rotation_unitary,
    state_mat,
)

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])


# --- finiteness at the constructors ---------------------------------------------
# The Pauli kernel never checks finiteness; these constructors are where it is checked.

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("alpha", [NAN, INF, -INF, complex(0.5, NAN), complex(INF, 0.0)])
def test_kraus_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        KrausOperator(alpha, np.zeros(3))


@pytest.mark.parametrize("beta", [(NAN, 0.0, 0.0), (0.0, INF, 0.0), (0.0, 0.0, complex(0.0, NAN))])
def test_kraus_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta components must be finite"):
        KrausOperator(0.5, beta)


@pytest.mark.parametrize("angle", [NAN, INF, -INF])
def test_rotation_spec_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="angle must be finite"):
        RotationSpec(E_Z, angle)


def test_real_vector_constructors_reject_non_finite():
    with pytest.raises(ValueError, match="finite"):
        BlochState((NAN, 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        RotationSpec((NAN, 0.0, 1.0), 0.0)


# --- effects and normalization ------------------------------------------------


PROJECTOR_UP = np.array([0.5, 0.0, 0.0, 0.5])  # (1 + sigma_z) / 2


def test_effect_of_ideal_up_is_projector():
    assert np.allclose(effect_array(ideal_instrument().up.as_array()), PROJECTOR_UP, atol=1e-15)


def test_effect_of_identity_kraus():
    assert np.allclose(effect_array(np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 0.0, 0.0, 0.0])


def test_effect_of_flip_branch():
    # A = |up><down| has beta = (1, i, 0)/2 and effect (1 + sigma_z)/2
    flip = KrausOperator(0.0, 0.5 * np.array([1.0, 1.0j, 0.0]))
    assert np.allclose(effect_array(flip.as_array()), PROJECTOR_UP, atol=1e-15)


def test_effect_of_degenerate_branch():
    """A zero branch has the zero effect; nothing divides by its weight."""
    assert not effect_array(np.zeros(4, dtype=complex)).any()


def test_effect_positivity_for_normalized_instruments(rng):
    """Both eigenvalues f0 -+ |f| of a normalized instrument's effects lie in [0, 1]."""
    for _ in range(100):
        inst = random_instrument(rng)
        for branch in inst.branches:
            assert abs(branch.alpha) ** 2 + np.sum(np.abs(branch.beta) ** 2) <= 1 + 1e-9
            f = effect_array(branch.as_array()).real
            spread = float(np.linalg.norm(f[1:]))
            assert -1e-12 <= f[0] - spread
            assert f[0] + spread <= 1.0 + 1e-12


def test_normalization_residual_ideal():
    assert residual_array(ideal_instrument().as_array()) <= 1e-15


def test_normalization_residual_scaled():
    inst = ideal_instrument()
    scaled = Instrument(
        KrausOperator(1.1 * inst.up.alpha, 1.1 * inst.up.beta),
        KrausOperator(1.1 * inst.down.alpha, 1.1 * inst.down.beta),
    )
    assert residual_array(scaled.as_array()) == pytest.approx(0.21, abs=1e-12)


def test_normalization_residual_matches_matrix(rng):
    for _ in range(50):
        inst = random_pair(rng)
        total = sum(kraus_mat(b) @ kraus_mat(b).conj().T for b in inst.branches)
        matrix_resid = np.max(np.abs(from_matrix(total - np.eye(2))))
        assert residual_array(inst.as_array()) == pytest.approx(matrix_resid, abs=1e-12)


# --- probabilities and state updates ------------------------------------------


def test_probability_ideal_examples():
    up = ideal_instrument().up
    assert effect_expectation(up, BlochState(E_Z)) == pytest.approx(1.0, abs=1e-15)
    assert effect_expectation(up, BlochState(E_X)) == pytest.approx(0.5, abs=1e-15)


def test_probability_matches_matrix_trace(rng):
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        for branch in inst.branches:
            a = kraus_mat(branch)
            expected = np.trace(state_mat(state) @ a @ a.conj().T).real
            assert abs(effect_expectation(branch, state) - expected) < 1e-12


def test_probability_completeness(rng):
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        total = expectation_array(inst.as_array(), state.r).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def test_selective_ideal_projection():
    prob, post = selective_apply(ideal_instrument().up, BlochState(E_X))
    assert prob == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(post.r, E_Z, atol=1e-14)


def test_selective_orthogonal_state_absorbed():
    prob, post = selective_apply(ideal_instrument().up, BlochState(-E_Z))
    assert prob == pytest.approx(0.0, abs=1e-15)
    assert post is None


def test_selective_matches_matrix(rng):
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        for branch in inst.branches:
            prob, post = selective_apply(branch, state)
            assert prob == pytest.approx(effect_expectation(branch, state), abs=1e-12)
            if post is None:
                continue
            a = kraus_mat(branch)
            mat = a.conj().T @ state_mat(state) @ a
            assert np.max(np.abs(post.r - bloch_of(mat / np.trace(mat).real))) < 1e-12


def test_nonselective_ideal_kills_transverse_parts(rng):
    inst = ideal_instrument()
    for _ in range(20):
        state = random_state(rng)
        out = nonselective_apply(inst, state)
        assert np.allclose(out.r, [0.0, 0.0, state.r[2]], atol=1e-14)


def test_nonselective_trivial_instrument_is_identity(rng):
    half = 1.0 / math.sqrt(2.0)
    inst = Instrument(KrausOperator(half, np.zeros(3)), KrausOperator(half, np.zeros(3)))
    state = random_state(rng)
    out = nonselective_apply(inst, state)
    assert np.allclose(out.r, state.r, atol=1e-14)


def test_nonselective_matches_matrix(rng):
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        out = nonselective_apply(inst, state)
        total = sum(
            kraus_mat(b).conj().T @ state_mat(state) @ kraus_mat(b) for b in inst.branches
        )
        assert np.max(np.abs(out.r - bloch_of(total / np.trace(total).real))) < 1e-12
        assert np.linalg.norm(out.r) <= 1.0 + 1e-12


def test_nonselective_rejects_unnormalized(rng):
    with pytest.raises(UnnormalizedInstrument):
        nonselective_apply(random_pair(rng), random_state(rng))


# --- rotations ------------------------------------------------------------------


def rotated(k, rot: RotationSpec) -> np.ndarray:
    """The (4,) coefficients of the branch ``k`` after the device rotation ``rot``."""
    return rotate_array(np.asarray(k, dtype=complex), rot.axis, rot.angle)


def test_rotate_kraus_zero_angle(rng):
    k = KrausOperator(0.3 + 0.1j, rng.normal(size=3) + 1j * rng.normal(size=3)).as_array()
    assert np.array_equal(rotated(k, RotationSpec(E_Z, 0.0)), k)


def test_rotate_kraus_cyclic_permutation():
    beta = np.array([0.1, 0.2, 0.3]) + 1j * np.array([-0.4, 0.5, 0.6])
    out = rotated([0.5, *beta], cyclic_rotation(1))
    assert out[0] == 0.5
    assert np.max(np.abs(out[1:] - beta[[2, 0, 1]])) < 1e-12


def test_rotate_kraus_quarter_turn_about_z():
    out = rotated([0.0, *E_X], RotationSpec(E_Z, math.pi / 2.0))
    assert np.max(np.abs(out[1:] - E_Y)) < 1e-12


def test_rotate_kraus_agrees_with_conjugation(rng):
    for _ in range(200):
        k = KrausOperator(
            complex(rng.normal(), rng.normal()),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        u = rotation_unitary(rot)
        expected = from_matrix(u.conj().T @ kraus_mat(k) @ u)
        assert np.max(np.abs(rotated(k.as_array(), rot) - expected)) < 1e-12


def test_rotate_instrument_axis_aligned_symmetry(rng):
    inst = ideal_instrument()
    out = rotate_instrument(inst, RotationSpec(E_Z, rng.uniform(0, 2 * math.pi)))
    assert np.max(np.abs(out.up.beta - inst.up.beta)) < 1e-15
    assert np.max(np.abs(out.down.beta - inst.down.beta)) < 1e-15


def test_rotate_instrument_preserves_residual(rng):
    for _ in range(50):
        inst = random_instrument(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        before = residual_array(inst.as_array())
        after = residual_array(rotate_instrument(inst, rot).as_array())
        assert abs(before - after) < 1e-12


def cyclic_devices(inst):
    """The devices of rotation index m = 0, 1, 2, as the observables use them."""
    return [rotate_instrument(inst, cyclic_rotation(m)) for m in range(3)]


def test_cyclic_instruments_measure_z_x_y():
    devices = cyclic_devices(ideal_instrument())
    assert np.allclose(devices[0].up.beta, 0.5 * E_Z, atol=1e-15)
    assert np.allclose(devices[1].up.beta, 0.5 * E_X, atol=1e-12)
    assert np.allclose(devices[2].up.beta, 0.5 * E_Y, atol=1e-12)


def test_cyclic_instruments_group_property(rng):
    """Two third-turns make the m = 2 device, and three give the device back."""
    inst = random_instrument(rng)
    devices = cyclic_devices(inst)
    twice = rotate_instrument(devices[1], cyclic_rotation(1))
    thrice = rotate_instrument(twice, cyclic_rotation(1))
    for rotated, expected in ((twice, devices[2]), (thrice, inst)):
        assert np.max(np.abs(rotated.as_array() - expected.as_array())) < 1e-12


def test_rotation_covariance_at_probability_level(rng):
    """Rotating the device equals counter-rotating the probe state."""
    for _ in range(100):
        inst = random_instrument(rng)
        state = random_state(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        u = rotation_unitary(rot)
        counter_rotated = bloch_of(u @ state_mat(state) @ u.conj().T)
        rotated_device = rotate_instrument(inst, rot).as_array()
        assert np.max(np.abs(
            expectation_array(rotated_device, state.r)
            - expectation_array(inst.as_array(), counter_rotated)
        )) < 1e-12


# --- successive measurements ----------------------------------------------------


def test_successive_ideal_repeatability():
    inst = ideal_instrument()
    branches = inst.as_array()
    assert successive_array(branches, branches[0], E_Z) == pytest.approx(1.0, abs=1e-15)


def test_successive_ideal_preserves_kz(rng):
    inst = ideal_instrument()
    for _ in range(20):
        state = random_state(rng)
        expected = 0.5 * (1.0 + state.r[2])
        assert successive_array(inst.as_array(), inst.up.as_array(), state.r) == pytest.approx(
            expected, abs=1e-14
        )


def test_successive_matches_matrix_pipeline(rng):
    """For a normalized instrument the raw value is the renormalized two-stage one."""
    for _ in range(100):
        inst = random_instrument(rng)
        state = random_state(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(0, 2 * math.pi))
        second = rotate_instrument(inst, rot).up
        rho1 = sum(
            kraus_mat(b).conj().T @ state_mat(state) @ kraus_mat(b) for b in inst.branches
        )
        b = kraus_mat(second)
        expected = np.trace(rho1 @ b @ b.conj().T).real / np.trace(rho1).real
        assert successive_array(inst.as_array(), second.as_array(), state.r) == pytest.approx(
            expected, abs=1e-12
        )
        assert effect_expectation(second, nonselective_apply(inst, state)) == pytest.approx(
            expected, abs=1e-12
        )


def test_raw_successive_accepts_unnormalized(rng):
    inst = random_pair(rng)
    state = random_state(rng)
    rho1 = sum(
        kraus_mat(b).conj().T @ state_mat(state) @ kraus_mat(b) for b in inst.branches
    )
    second = inst.up
    b = kraus_mat(second)
    expected = np.trace(rho1 @ b @ b.conj().T).real
    assert successive_array(inst.as_array(), second.as_array(), state.r) == pytest.approx(
        expected, abs=1e-12
    )


# --- ideal instrument and normalization ------------------------------------------


def test_ideal_instrument_effects_are_projectors():
    inst = ideal_instrument()
    up, down = effect_array(inst.as_array()).real
    assert np.allclose(up, [0.5, 0.0, 0.0, 0.5]) and np.allclose(down, [0.5, 0.0, 0.0, -0.5])
    assert residual_array(inst.as_array()) == 0.0
    assert effect_expectation(inst.up, BlochState(E_X)) == pytest.approx(0.5)


def test_exact_normalize_identity_on_ideal():
    inst = exact_normalize(ideal_instrument())
    assert np.max(np.abs(inst.up.beta - 0.5 * E_Z)) < 1e-12
    assert abs(inst.up.alpha - 0.5) < 1e-12


def test_exact_normalize_undoes_scaling():
    ideal = ideal_instrument()
    scaled = Instrument(
        KrausOperator(1.1 * ideal.up.alpha, 1.1 * ideal.up.beta),
        KrausOperator(1.1 * ideal.down.alpha, 1.1 * ideal.down.beta),
    )
    out = exact_normalize(scaled)
    assert abs(out.up.alpha - 0.5) < 1e-12
    assert np.max(np.abs(out.up.beta - 0.5 * E_Z)) < 1e-12


def test_exact_normalize_random_pairs(rng):
    for _ in range(200):
        out = exact_normalize(random_pair(rng))
        assert residual_array(out.as_array()) <= 1e-12


def test_exact_normalize_rejects_singular():
    with pytest.raises(SingularNormalization):
        exact_normalize(
            Instrument(KrausOperator(0.0, np.zeros(3)), KrausOperator(0.0, np.zeros(3)))
        )


# --- gauge freedom ---------------------------------------------------------------


def test_gauge_phase_changes_nothing(rng):
    for _ in range(100):
        inst = random_instrument(rng)
        state = random_state(rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        twisted = KrausOperator(phase * inst.up.alpha, phase * inst.up.beta)
        assert effect_expectation(twisted, state) == pytest.approx(
            effect_expectation(inst.up, state), abs=1e-12
        )
        eff_a, eff_b = effect_array(inst.up.as_array()), effect_array(twisted.as_array())
        assert np.max(np.abs(eff_a - eff_b)) < 1e-12
        _, post_a = selective_apply(inst.up, state)
        _, post_b = selective_apply(twisted, state)
        if post_a is not None:
            assert np.max(np.abs(post_a.r - post_b.r)) < 1e-12


def test_bloch_state_rejects_long_vectors():
    with pytest.raises(ValueError):
        BlochState([1.0, 1.0, 1.0])
