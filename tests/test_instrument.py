import math

import numpy as np
import pytest

from sgkit.instrument import (
    BlochState,
    DegenerateKraus,
    Effect,
    Instrument,
    KrausOperator,
    RotationSpec,
    SingularNormalization,
    UnnormalizedInstrument,
    cyclic_instruments,
    cyclic_rotation,
    effect_of,
    exact_normalize,
    ideal_instrument,
    nonselective_apply,
    normalization_residual,
    probability,
    raw_successive_probability,
    rotate_instrument,
    rotate_kraus,
    rotation_unitary,
    selective_apply,
    successive_probability,
)
from sgkit.pauli import from_matrix, hermitian_eigenvalues, to_matrix

from conftest import (
    bloch_of,
    kraus_mat,
    random_instrument,
    random_pair,
    random_state,
    random_unit,
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
        Effect(0.5, (0.0, INF, 0.0))
    with pytest.raises(ValueError, match="finite"):
        RotationSpec((NAN, 0.0, 1.0), 0.0)


# --- effects and normalization ------------------------------------------------


def test_effect_of_ideal_up_is_projector():
    eff = effect_of(ideal_instrument().up)
    assert eff.weight == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(eff.xi, E_Z, atol=1e-15)


def test_effect_of_identity_kraus():
    eff = effect_of(KrausOperator(1.0, np.zeros(3)))
    assert eff.weight == pytest.approx(1.0)
    assert np.allclose(eff.xi, 0.0)


def test_effect_of_flip_branch():
    # A = |up><down| has beta = (1, i, 0)/2 and effect (1 + sigma_z)/2
    eff = effect_of(KrausOperator(0.0, 0.5 * np.array([1.0, 1.0j, 0.0])))
    assert eff.weight == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(eff.xi, E_Z, atol=1e-14)


def test_effect_of_degenerate_branch():
    with pytest.raises(DegenerateKraus):
        effect_of(KrausOperator(0.0, np.zeros(3)))


def test_effect_positivity_for_normalized_instruments(rng):
    for _ in range(100):
        inst = random_instrument(rng)
        for branch in inst.branches:
            assert abs(branch.alpha) ** 2 + np.sum(np.abs(branch.beta) ** 2) <= 1 + 1e-9
            hi, lo = hermitian_eigenvalues(effect_of(branch).coefficients())
            assert -1e-12 <= lo and hi <= 1.0 + 1e-12


def test_normalization_residual_ideal():
    assert normalization_residual(ideal_instrument()) <= 1e-15


def test_normalization_residual_scaled():
    inst = ideal_instrument()
    scaled = Instrument(
        KrausOperator(1.1 * inst.up.alpha, 1.1 * inst.up.beta),
        KrausOperator(1.1 * inst.down.alpha, 1.1 * inst.down.beta),
    )
    assert normalization_residual(scaled) == pytest.approx(0.21, abs=1e-12)


def test_normalization_residual_matches_matrix(rng):
    for _ in range(50):
        inst = random_pair(rng)
        total = sum(kraus_mat(b) @ kraus_mat(b).conj().T for b in inst.branches)
        expected = from_matrix(total - np.eye(2))
        matrix_resid = max(abs(expected.scalar), np.max(np.abs(expected.vector)))
        assert normalization_residual(inst) == pytest.approx(matrix_resid, abs=1e-12)


# --- probabilities and state updates ------------------------------------------


def test_probability_ideal_examples():
    up = ideal_instrument().up
    assert probability(up, BlochState(E_Z)) == pytest.approx(1.0, abs=1e-15)
    assert probability(up, BlochState(E_X)) == pytest.approx(0.5, abs=1e-15)


def test_probability_matches_matrix_trace(rng):
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        for branch in inst.branches:
            a = kraus_mat(branch)
            expected = np.trace(state_mat(state) @ a @ a.conj().T).real
            assert abs(probability(branch, state) - expected) < 1e-12


def test_probability_completeness(rng):
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        assert probability(inst.up, state) + probability(inst.down, state) == pytest.approx(
            1.0, abs=1e-12
        )


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
            assert prob == pytest.approx(probability(branch, state), abs=1e-12)
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


def test_rotate_kraus_zero_angle(rng):
    k = KrausOperator(0.3 + 0.1j, rng.normal(size=3) + 1j * rng.normal(size=3))
    out = rotate_kraus(k, RotationSpec(E_Z, 0.0))
    assert out.alpha == k.alpha
    assert np.array_equal(out.beta, k.beta)


def test_rotate_kraus_cyclic_permutation():
    beta = np.array([0.1, 0.2, 0.3]) + 1j * np.array([-0.4, 0.5, 0.6])
    out = rotate_kraus(KrausOperator(0.5, beta), cyclic_rotation(1))
    assert np.max(np.abs(out.beta - beta[[2, 0, 1]])) < 1e-12


def test_rotate_kraus_quarter_turn_about_z():
    out = rotate_kraus(KrausOperator(0.0, E_X), RotationSpec(E_Z, math.pi / 2.0))
    assert np.max(np.abs(out.beta - E_Y)) < 1e-12


def test_rotate_kraus_agrees_with_conjugation(rng):
    for _ in range(200):
        k = KrausOperator(
            complex(rng.normal(), rng.normal()),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        u = to_matrix(rotation_unitary(rot))
        expected = from_matrix(u.conj().T @ kraus_mat(k) @ u)
        closed = rotate_kraus(k, rot)
        assert abs(closed.alpha - expected.scalar) < 1e-12
        assert np.max(np.abs(closed.beta - expected.vector)) < 1e-12


def test_rotate_instrument_axis_aligned_symmetry(rng):
    inst = ideal_instrument()
    out = rotate_instrument(inst, RotationSpec(E_Z, rng.uniform(0, 2 * math.pi)))
    assert np.max(np.abs(out.up.beta - inst.up.beta)) < 1e-15
    assert np.max(np.abs(out.down.beta - inst.down.beta)) < 1e-15


def test_rotate_instrument_preserves_residual(rng):
    for _ in range(50):
        inst = random_instrument(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        before = normalization_residual(inst)
        after = normalization_residual(rotate_instrument(inst, rot))
        assert abs(before - after) < 1e-12


def test_cyclic_instruments_measure_z_x_y():
    devices = cyclic_instruments(ideal_instrument())
    assert np.allclose(devices[0].up.beta, 0.5 * E_Z, atol=1e-15)
    assert np.allclose(devices[1].up.beta, 0.5 * E_X, atol=1e-12)
    assert np.allclose(devices[2].up.beta, 0.5 * E_Y, atol=1e-12)


def test_cyclic_instruments_group_property(rng):
    inst = random_instrument(rng)
    devices = cyclic_instruments(inst)
    twice = rotate_instrument(
        rotate_instrument(inst, cyclic_rotation(1)), cyclic_rotation(1)
    )
    assert np.max(np.abs(twice.up.beta - devices[2].up.beta)) < 1e-12
    assert np.max(np.abs(twice.down.beta - devices[2].down.beta)) < 1e-12


def test_rotation_covariance_at_probability_level(rng):
    """Rotating the device equals counter-rotating the probe state."""
    for _ in range(100):
        inst = random_instrument(rng)
        state = random_state(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        u = to_matrix(rotation_unitary(rot))
        rotated = BlochState(bloch_of(u @ state_mat(state) @ u.conj().T))
        for branch in inst.branches:
            assert probability(rotate_kraus(branch, rot), state) == pytest.approx(
                probability(branch, rotated), abs=1e-12
            )


# --- successive measurements ----------------------------------------------------


def test_successive_ideal_repeatability():
    inst = ideal_instrument()
    assert successive_probability(inst, inst.up, BlochState(E_Z)) == pytest.approx(
        1.0, abs=1e-15
    )


def test_successive_ideal_preserves_kz(rng):
    inst = ideal_instrument()
    for _ in range(20):
        state = random_state(rng)
        expected = 0.5 * (1.0 + state.r[2])
        assert successive_probability(inst, inst.up, state) == pytest.approx(
            expected, abs=1e-14
        )


def test_successive_matches_matrix_pipeline(rng):
    for _ in range(100):
        inst = random_instrument(rng)
        state = random_state(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(0, 2 * math.pi))
        second = rotate_kraus(inst.up, rot)
        rho1 = sum(
            kraus_mat(b).conj().T @ state_mat(state) @ kraus_mat(b) for b in inst.branches
        )
        b = kraus_mat(second)
        expected = np.trace(rho1 @ b @ b.conj().T).real
        assert successive_probability(inst, second, state) == pytest.approx(
            expected, abs=1e-12
        )
        assert raw_successive_probability(inst, second, state) == pytest.approx(
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
    assert raw_successive_probability(inst, second, state) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(UnnormalizedInstrument):
        successive_probability(inst, second, state)


# --- ideal instrument and normalization ------------------------------------------


def test_ideal_instrument_effects_are_projectors():
    inst = ideal_instrument()
    up, down = effect_of(inst.up), effect_of(inst.down)
    assert up.weight == pytest.approx(0.5) and np.allclose(up.xi, E_Z)
    assert down.weight == pytest.approx(0.5) and np.allclose(down.xi, -E_Z)
    assert normalization_residual(inst) == 0.0
    assert probability(inst.up, BlochState(E_X)) == pytest.approx(0.5)


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
        assert normalization_residual(out) <= 1e-12


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
        assert probability(twisted, state) == pytest.approx(
            probability(inst.up, state), abs=1e-12
        )
        eff_a, eff_b = effect_of(inst.up), effect_of(twisted)
        assert eff_a.weight == pytest.approx(eff_b.weight, abs=1e-12)
        assert np.max(np.abs(eff_a.xi - eff_b.xi)) < 1e-12
        _, post_a = selective_apply(inst.up, state)
        _, post_b = selective_apply(twisted, state)
        if post_a is not None:
            assert np.max(np.abs(post_a.r - post_b.r)) < 1e-12


def test_bloch_state_rejects_long_vectors():
    with pytest.raises(ValueError):
        BlochState([1.0, 1.0, 1.0])
