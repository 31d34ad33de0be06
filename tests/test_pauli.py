import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgkit.instrument import effect_array
from sgkit.pauli import pauli_mul_array
from sgkit.verify import _coefficients, _dagger, _matrices, _random_coefficients, _unitary

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])


def coeff(scalar, vector) -> np.ndarray:
    """The (4,) complex array [scalar, *vector] of scalar * 1 + vector . sigma."""
    return np.array([scalar, *vector], dtype=complex)


def test_mul_sigma_x_sigma_y():
    out = pauli_mul_array(coeff(0, E_X), coeff(0, E_Y))
    assert out[0] == 0
    assert np.allclose(out[1:], 1j * E_Z)


def test_mul_identity_element(rng):
    a = _random_coefficients(rng, 4)
    out = pauli_mul_array(coeff(1, np.zeros(3)), a)
    assert out[0] == a[0]
    assert np.allclose(out[1:], a[1:])


def test_mul_projector_idempotent():
    p = coeff(0.5, 0.5 * E_Z)
    out = pauli_mul_array(p, p)
    assert out[0] == 0.5
    assert np.allclose(out[1:], 0.5 * E_Z)


def test_mul_matches_matrix_product(rng):
    a, b = _random_coefficients(rng, (2, 100, 4))
    out = pauli_mul_array(a, b)
    assert np.max(np.abs(_matrices(out) - _matrices(a) @ _matrices(b))) < 1e-12


def test_mul_bit_identical_to_np_cross_formula(rng):
    """The hand-written cross product does numpy.cross's arithmetic, so artifacts keep their bytes."""
    for _ in range(100):
        a, b = _random_coefficients(rng, 4), _random_coefficients(rng, 4)
        expected = a[0] * b[1:] + b[0] * a[1:] + 1j * np.cross(a[1:], b[1:])
        assert pauli_mul_array(a, b)[1:].tobytes() == expected.tobytes()


def test_mul_array_matches_mul_with_broadcasting(rng):
    """A stacked and a broadcast product equal the products of their single operands."""
    pairs = [(_random_coefficients(rng, 4), _random_coefficients(rng, 4)) for _ in range(20)]
    left = np.array([a for a, _ in pairs])
    right = np.array([b for _, b in pairs])
    batched = pauli_mul_array(left, right)
    broadcast = pauli_mul_array(left, right[0])
    for i, (a, b) in enumerate(pairs):
        for out, other in ((batched[i], b), (broadcast[i], right[0])):
            assert np.max(np.abs(out - pauli_mul_array(a, other))) < 1e-14


def test_mul_associative(rng):
    for _ in range(50):
        a, b, c = (_random_coefficients(rng, 4) for _ in range(3))
        left = pauli_mul_array(pauli_mul_array(a, b), c)
        right = pauli_mul_array(a, pauli_mul_array(b, c))
        assert np.max(np.abs(left - right)) < 1e-12


def test_adjoint_matches_conjugate_transpose(rng):
    """The adjoint of an operator is the complex conjugate of its coefficients."""
    a = _random_coefficients(rng, (50, 4))
    assert np.max(np.abs(_matrices(a.conj()) - _dagger(_matrices(a)))) < 1e-14


def test_adjoint_antihomomorphism(rng):
    for _ in range(50):
        a, b = _random_coefficients(rng, 4), _random_coefficients(rng, 4)
        left = pauli_mul_array(a, b).conj()
        right = pauli_mul_array(b.conj(), a.conj())
        assert np.max(np.abs(left - right)) < 1e-12


def test_positivity_of_a_adag(rng):
    """A A^dag is Hermitian with spectrum scalar +- |vector|, both nonnegative."""
    for _ in range(50):
        f = effect_array(_random_coefficients(rng, 4))
        assert np.max(np.abs(f.imag)) <= 1e-12
        assert f[0].real - np.linalg.norm(f[1:].real) >= -1e-12


def test_to_matrix_values():
    """The oracle of ``sgkit verify``, pinned to literal matrices: the Pauli basis, a
    projector, and the half-turn about z, U = i sigma_z, which fixes the rotation's sign."""
    basis = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    assert np.array_equal(_matrices(np.eye(4)), np.array(basis))
    assert np.allclose(_matrices(coeff(1, np.zeros(3))), np.eye(2))
    assert np.allclose(_matrices(coeff(0, E_Z)), np.diag([1.0, -1.0]))
    assert np.allclose(_matrices(coeff(0.5, 0.5 * E_Z)), np.diag([1.0, 0.0]))
    assert np.allclose(_unitary(E_Z, np.array(math.pi)), np.diag([1j, -1j]))


def test_matrix_round_trip(rng):
    a = _random_coefficients(rng, (50, 4))
    assert np.max(np.abs(_coefficients(_matrices(a)) - a)) < 1e-14


# --- properties on bounded finite operands -------------------------------------
# The kernel does not check its results, so these properties pin it down on the
# operands it is contracted for: finite, here with components of magnitude <= 1e3.
# Tolerances are relative to the operand sizes; the absolute 1e-300 covers
# products that underflow.

PART = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)
COMPONENT = st.builds(complex, PART, PART)
OPERANDS = st.builds(lambda s, x, y, z: coeff(s, (x, y, z)), COMPONENT, COMPONENT, COMPONENT, COMPONENT)
PROPERTY = settings(deadline=None, max_examples=100)


def size(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a)))


def assert_close(a: np.ndarray, b: np.ndarray, scale: float):
    assert np.max(np.abs(a - b)) <= 1e-13 * scale + 1e-300


@PROPERTY
@given(OPERANDS, OPERANDS, OPERANDS)
def test_property_mul_associative(a, b, c):
    left = pauli_mul_array(pauli_mul_array(a, b), c)
    right = pauli_mul_array(a, pauli_mul_array(b, c))
    assert_close(left, right, size(a) * size(b) * size(c))


@PROPERTY
@given(OPERANDS, OPERANDS)
def test_property_adjoint_antihomomorphism(a, b):
    """(ab)^dag = b^dag a^dag on the array form, with .conj() as the adjoint."""
    left = pauli_mul_array(a, b).conj()
    right = pauli_mul_array(b.conj(), a.conj())
    assert_close(left, right, size(a) * size(b))


@PROPERTY
@given(OPERANDS)
def test_property_effect_positive_semidefinite(a):
    """A A^dag has a real scalar at least |vector|: a positive semidefinite operator."""
    f = effect_array(a)
    tol = 1e-13 * size(a) ** 2 + 1e-300
    assert np.max(np.abs(f.imag)) <= tol
    assert f[0].real - np.linalg.norm(f[1:].real) >= -tol


@PROPERTY
@given(OPERANDS, OPERANDS)
def test_property_mul_matches_matrix_oracle(a, b):
    out = pauli_mul_array(a, b)
    assert np.max(np.abs(_matrices(out) - _matrices(a) @ _matrices(b))) <= 1e-13 * size(a) * size(b) + 1e-300
