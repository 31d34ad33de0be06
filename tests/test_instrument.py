import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgkit import pauli
from sgkit.instrument import (
    NORMALIZATION_TOL,
    BlochState,
    Instrument,
    KrausOperator,
    RotationSpec,
    SingularNormalization,
    bloch_array,
    cyclic_rotation,
    density_array,
    effect_array,
    exact_normalize_array,
    expectation_array,
    ideal_instrument,
    nonselective_array,
    residual_array,
    rotate_array,
    selective_array,
    successive_array,
)

from sgkit.verify import (
    _BASIS,
    _coefficients,
    _dagger,
    _density,
    _matrices,
    _random_angles,
    _random_coefficients,
    _random_instruments,
    _random_states,
    _random_units,
    _trace,
    _unitary,
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


def test_instrument_array_is_stacked_once_and_read_only(rng):
    inst = Instrument.from_array(_random_instruments(rng, 1)[0])
    branches = inst.as_array()
    assert inst.as_array() is branches and branches.shape == (2, 4)
    assert branches.tobytes() == np.stack((inst.up.as_array(), inst.down.as_array())).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        branches[0, 0] = 1.0


def test_probe_names_are_the_array_form(rng):
    """The three names the benchmark's ``pauli.mul_us`` probe calls give the one
    representation: the product of (4,) arrays, on a branch's own read-only array and
    on rho's coefficients [1/2, r/2]."""
    branch = Instrument.from_array(_random_instruments(rng, 1)[0]).up
    state = BlochState(_random_states(rng, 1)[0])
    assert pauli.pauli_mul is pauli.pauli_mul_array
    assert branch.coefficients() is branch.as_array()
    rho = state.coefficients()
    assert rho.dtype == complex and rho.tobytes() == density_array(state.r).tobytes()
    assert np.array_equal(rho, np.concatenate(([0.5], 0.5 * state.r)))


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
    """Both eigenvalues f0 -+ |f| of a normalized instrument's effects lie in [0, 1], so a
    selective probability is the effect's expectation, and a non-selective update keeps
    the state in the Bloch ball."""
    inst, r = _random_instruments(rng, 200), _random_states(rng, 200)
    assert np.all(np.sum(np.abs(inst) ** 2, axis=-1) <= 1 + 1e-9)
    f = effect_array(inst).real
    spread = np.linalg.norm(f[..., 1:], axis=-1)
    assert np.all(-1e-12 <= f[..., 0] - spread)
    assert np.all(f[..., 0] + spread <= 1.0 + 1e-12)
    prob, _ = selective_array(inst, r[:, None])
    assert np.max(np.abs(prob - expectation_array(inst, r[:, None]))) < 1e-12
    assert np.all(np.linalg.norm(nonselective_array(inst, r), axis=-1) <= 1.0 + 1e-12)


def test_normalization_residual_scaled():
    assert residual_array(1.1 * ideal_instrument().as_array()) == pytest.approx(0.21, abs=1e-12)


def test_normalization_residual_matches_matrix(rng):
    inst = 0.5 * _random_coefficients(rng, (50, 2, 4))
    a = _matrices(inst)
    total = (a @ _dagger(a)).sum(axis=-3)
    matrix_resid = np.max(np.abs(_coefficients(total - _BASIS[0])), axis=-1)
    assert residual_array(inst) == pytest.approx(matrix_resid, abs=1e-12)


# --- probabilities and state updates ------------------------------------------


def test_probability_ideal_examples():
    up = ideal_instrument().up.as_array()
    assert expectation_array(up, E_Z) == pytest.approx(1.0, abs=1e-15)
    assert expectation_array(up, E_X) == pytest.approx(0.5, abs=1e-15)


def test_selective_ideal_projection():
    prob, post = selective_array(ideal_instrument().up.as_array(), E_X)
    assert prob == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(post, E_Z, atol=1e-14)


def test_nonselective_trivial_instrument_is_identity(rng):
    half = 1.0 / math.sqrt(2.0)
    inst = np.array([[half, 0.0, 0.0, 0.0]] * 2, dtype=complex)
    r = _random_states(rng, 1)
    assert np.allclose(nonselective_array(inst, r), r, atol=1e-14)


# --- rotations ------------------------------------------------------------------


def rotated(k, rot: RotationSpec) -> np.ndarray:
    """The (..., 4) coefficients of the branches ``k`` after the device rotation ``rot``."""
    return rotate_array(np.asarray(k, dtype=complex), rot.axis, rot.angle)


def test_rotate_kraus_zero_angle(rng):
    k = KrausOperator(0.3 + 0.1j, _random_coefficients(rng, 3)).as_array()
    assert np.array_equal(rotated(k, RotationSpec(E_Z, 0.0)), k)


def test_rotate_kraus_cyclic_permutation():
    beta = np.array([0.1, 0.2, 0.3]) + 1j * np.array([-0.4, 0.5, 0.6])
    out = rotated([0.5, *beta], cyclic_rotation(1))
    assert out[0] == 0.5
    assert np.max(np.abs(out[1:] - beta[[2, 0, 1]])) < 1e-12


def test_rotate_kraus_quarter_turn_about_z():
    out = rotated([0.0, *E_X], RotationSpec(E_Z, math.pi / 2.0))
    assert np.max(np.abs(out[1:] - E_Y)) < 1e-12


def test_rotate_instrument_axis_aligned_symmetry(rng):
    inst = ideal_instrument().as_array()
    out = rotate_array(inst, E_Z, rng.uniform(0, 2 * math.pi))
    assert np.max(np.abs(out[:, 1:] - inst[:, 1:])) < 1e-15


def test_rotate_instrument_preserves_residual(rng):
    inst = _random_instruments(rng, 50)
    axis, angle = _random_units(rng, 50), _random_angles(rng, 50)
    after = residual_array(rotate_array(inst, axis[:, None], angle[:, None]))
    assert np.max(np.abs(residual_array(inst) - after)) < 1e-12


def cyclic_devices(inst):
    """The devices of rotation index m = 0, 1, 2, as the observables use them."""
    return [rotated(inst, cyclic_rotation(m)) for m in range(3)]


def test_cyclic_instruments_measure_z_x_y():
    devices = cyclic_devices(ideal_instrument().as_array())
    assert np.allclose(devices[0][0, 1:], 0.5 * E_Z, atol=1e-15)
    assert np.allclose(devices[1][0, 1:], 0.5 * E_X, atol=1e-12)
    assert np.allclose(devices[2][0, 1:], 0.5 * E_Y, atol=1e-12)


def test_cyclic_instruments_group_property(rng):
    """Two third-turns make the m = 2 device, and three give the device back."""
    inst = _random_instruments(rng, 1)
    devices = cyclic_devices(inst)
    twice = rotated(devices[1], cyclic_rotation(1))
    thrice = rotated(twice, cyclic_rotation(1))
    for result, expected in ((twice, devices[2]), (thrice, inst)):
        assert np.max(np.abs(result - expected)) < 1e-12


# --- successive measurements ----------------------------------------------------


def test_successive_ideal_repeatability():
    inst = ideal_instrument()
    branches = inst.as_array()
    assert successive_array(branches, branches[0], E_Z) == pytest.approx(1.0, abs=1e-15)


def test_successive_matches_matrix_pipeline(rng):
    """For a normalized instrument the raw value is the renormalized two-stage one."""
    inst, r = _random_instruments(rng, 100), _random_states(rng, 100)
    axis, angle = _random_units(rng, 100), rng.uniform(0, 2 * math.pi, size=100)
    a, u = _matrices(inst), _unitary(axis, angle)
    rho1 = (_dagger(a) @ _density(r)[:, None] @ a).sum(axis=-3)
    b = _dagger(u) @ a[:, 0] @ u
    expected = _trace(rho1 @ b @ _dagger(b)) / _trace(rho1)
    second = rotate_array(inst[:, 0], axis, angle)
    assert successive_array(inst, second, r) == pytest.approx(expected, abs=1e-12)
    assert expectation_array(second, nonselective_array(inst, r)) == pytest.approx(expected, abs=1e-12)


def test_raw_successive_accepts_unnormalized(rng):
    inst = 0.5 * _random_coefficients(rng, (2, 4))
    r = _random_states(rng, 1)[0]
    a = _matrices(inst)
    rho1 = (_dagger(a) @ _density(r) @ a).sum(axis=0)
    b = a[0]
    expected = _trace(rho1 @ b @ _dagger(b))
    assert successive_array(inst, inst[0], r) == pytest.approx(expected, abs=1e-12)


# --- ideal instrument and normalization ------------------------------------------


def test_ideal_instrument_effects_are_projectors():
    inst = ideal_instrument()
    up, down = effect_array(inst.as_array()).real
    assert np.allclose(up, [0.5, 0.0, 0.0, 0.5]) and np.allclose(down, [0.5, 0.0, 0.0, -0.5])
    assert residual_array(inst.as_array()) == 0.0
    assert expectation_array(inst.up.as_array(), E_X) == pytest.approx(0.5)


def test_exact_normalize_identity_on_ideal():
    up = exact_normalize_array(ideal_instrument().as_array())[0]
    assert np.max(np.abs(up[1:] - 0.5 * E_Z)) < 1e-12
    assert abs(up[0] - 0.5) < 1e-12


def test_exact_normalize_undoes_scaling():
    up = exact_normalize_array(1.1 * ideal_instrument().as_array())[0]
    assert abs(up[0] - 0.5) < 1e-12
    assert np.max(np.abs(up[1:] - 0.5 * E_Z)) < 1e-12


def test_exact_normalize_rejects_singular():
    with pytest.raises(SingularNormalization):
        exact_normalize_array(np.zeros((2, 4), dtype=complex))


@pytest.mark.parametrize("scale", [1e100, 1e200, 1e300, 1e-320])
def test_exact_normalize_refuses_extreme_scales_without_warning(scale):
    """Overflowing or vanishing branch sums raise SingularNormalization, and no
    numpy warning comes first (the suite turns warnings into errors)."""
    rng = np.random.default_rng(3)
    stack = scale * _random_coefficients(rng, (3, 2, 4))
    with pytest.raises(SingularNormalization):
        exact_normalize_array(stack)
    with pytest.raises(SingularNormalization):
        exact_normalize_array(stack[0])


def instrument_stacks(max_magnitude=None):
    """(n, 2, 4) complex instrument stacks with finite entries."""
    elements = st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False)
    return arrays(complex, st.tuples(st.integers(1, 4), st.just(2), st.just(4)), elements=elements)


def branch_sum_eigenvalues(inst: np.ndarray):
    """(lam_lo, lam_hi) = s0 -+ |v| of the branch sums S = s0 + v . sigma."""
    s = effect_array(inst).sum(axis=-2).real
    vnorm = np.linalg.norm(s[..., 1:], axis=-1)
    return s[..., 0] - vnorm, s[..., 0] + vnorm


@settings(deadline=None, max_examples=300)
@given(instrument_stacks())
def test_property_exact_normalize_completes_or_raises(inst):
    """Any finite input is renormalized to completeness or refused, under the
    overflow-silencing errstate its production caller (``experiment``) uses."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = exact_normalize_array(inst)
        except SingularNormalization:
            return
    assert np.all(residual_array(out) <= NORMALIZATION_TOL)


@settings(deadline=None, max_examples=200)
@given(instrument_stacks(max_magnitude=10.0))
def test_property_exact_normalize_well_conditioned(inst):
    """A well-conditioned branch sum (eigenvalue ratio below 1e3) is made complete
    to 1e-12, and normalizing the result again moves it by less than 1e-12."""
    lam_lo, lam_hi = branch_sum_eigenvalues(inst)
    assume(np.all(lam_lo > 1e-6) and np.all(lam_hi < 1e3 * lam_lo))
    out = exact_normalize_array(inst)
    assert np.all(residual_array(out) < 1e-12)
    assert np.max(np.abs(exact_normalize_array(out) - out)) < 1e-12


def test_bloch_state_rejects_long_vectors():
    with pytest.raises(ValueError):
        BlochState([1.0, 1.0, 1.0])


def test_bloch_array_rejects_a_stack_with_one_long_row(rng):
    """The norm check covers every row of a stack: one of norm 1 + 1e-9 raises."""
    stack = _random_units(rng, 8)
    assert bloch_array(stack).shape == (8, 3)
    stack[5] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="norm exceeds 1"):
        bloch_array(stack)
