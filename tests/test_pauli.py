import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgkit.instrument import effect_array
from sgkit.pauli import PauliCoefficients, pauli_mul, pauli_mul_array

from conftest import from_matrix, mat

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])


def random_coeff(rng):
    return PauliCoefficients(
        complex(rng.normal(), rng.normal()),
        rng.normal(size=3) + 1j * rng.normal(size=3),
    )


def test_mul_sigma_x_sigma_y():
    out = pauli_mul(PauliCoefficients(0, E_X), PauliCoefficients(0, E_Y))
    assert out.scalar == 0
    assert np.allclose(out.vector, 1j * E_Z)


def test_mul_identity_element(rng):
    a = random_coeff(rng)
    out = pauli_mul(PauliCoefficients(1, np.zeros(3)), a)
    assert out.scalar == a.scalar
    assert np.allclose(out.vector, a.vector)


def test_mul_projector_idempotent():
    p = PauliCoefficients(0.5, 0.5 * E_Z)
    out = pauli_mul(p, p)
    assert out.scalar == 0.5
    assert np.allclose(out.vector, 0.5 * E_Z)


def test_mul_matches_matrix_product(rng):
    for _ in range(100):
        a, b = random_coeff(rng), random_coeff(rng)
        out = pauli_mul(a, b)
        expected = mat(a.scalar, a.vector) @ mat(b.scalar, b.vector)
        assert np.max(np.abs(mat(out.scalar, out.vector) - expected)) < 1e-12


def test_mul_bit_identical_to_np_cross_formula(rng):
    """The hand-written cross product does numpy.cross's arithmetic, so artifacts keep their bytes."""
    for _ in range(100):
        a, b = random_coeff(rng), random_coeff(rng)
        expected = a.scalar * b.vector + b.scalar * a.vector + 1j * np.cross(a.vector, b.vector)
        assert pauli_mul(a, b).vector.tobytes() == expected.tobytes()


def test_mul_array_matches_mul_with_broadcasting(rng):
    pairs = [(random_coeff(rng), random_coeff(rng)) for _ in range(20)]
    left = np.array([[a.scalar, *a.vector] for a, _ in pairs])
    right = np.array([[b.scalar, *b.vector] for _, b in pairs])
    batched = pauli_mul_array(left, right)
    broadcast = pauli_mul_array(left, right[0])
    for i, (a, b) in enumerate(pairs):
        for out, other in ((batched[i], b), (broadcast[i], pairs[0][1])):
            expected = pauli_mul(a, other)
            assert abs(out[0] - expected.scalar) < 1e-14
            assert np.max(np.abs(out[1:] - expected.vector)) < 1e-14


def test_mul_associative(rng):
    for _ in range(50):
        a, b, c = (random_coeff(rng) for _ in range(3))
        left = pauli_mul(pauli_mul(a, b), c)
        right = pauli_mul(a, pauli_mul(b, c))
        assert abs(left.scalar - right.scalar) < 1e-12
        assert np.max(np.abs(left.vector - right.vector)) < 1e-12


def test_adjoint_matches_conjugate_transpose(rng):
    """The adjoint of an operator is the complex conjugate of its coefficients."""
    for _ in range(50):
        a = random_coeff(rng)
        expected = mat(a.scalar, a.vector).conj().T
        assert np.max(np.abs(mat(np.conj(a.scalar), a.vector.conj()) - expected)) < 1e-14


def test_adjoint_antihomomorphism(rng):
    for _ in range(50):
        a, b = random_coeff(rng).as_array(), random_coeff(rng).as_array()
        left = pauli_mul_array(a, b).conj()
        right = pauli_mul_array(b.conj(), a.conj())
        assert np.max(np.abs(left - right)) < 1e-12


def test_positivity_of_a_adag(rng):
    """A A^dag is Hermitian with spectrum scalar +- |vector|, both nonnegative."""
    for _ in range(50):
        f = effect_array(random_coeff(rng).as_array())
        assert np.max(np.abs(f.imag)) <= 1e-12
        assert f[0].real - np.linalg.norm(f[1:].real) >= -1e-12


def test_to_matrix_values():
    assert np.allclose(mat(1, np.zeros(3)), np.eye(2))
    assert np.allclose(mat(0, E_Z), np.diag([1.0, -1.0]))
    assert np.allclose(mat(0.5, 0.5 * E_Z), np.diag([1.0, 0.0]))


def test_matrix_round_trip(rng):
    for _ in range(50):
        a = random_coeff(rng)
        back = from_matrix(mat(a.scalar, a.vector))
        assert np.max(np.abs(back - a.as_array())) < 1e-14


# --- properties on bounded finite operands -------------------------------------
# The kernel does not check its results, so these properties pin it down on the
# operands it is contracted for: finite, here with components of magnitude <= 1e3.
# Tolerances are relative to the operand sizes; the absolute 1e-300 covers
# products that underflow.

PART = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)
COMPONENT = st.builds(complex, PART, PART)
OPERANDS = st.builds(
    lambda s, x, y, z: PauliCoefficients(s, (x, y, z)), COMPONENT, COMPONENT, COMPONENT, COMPONENT
)
PROPERTY = settings(deadline=None, max_examples=100)


def size(a: PauliCoefficients) -> float:
    return abs(a.scalar) + float(np.sum(np.abs(a.vector)))


def assert_close(a: PauliCoefficients, b: PauliCoefficients, scale: float):
    tol = 1e-13 * scale + 1e-300
    assert abs(a.scalar - b.scalar) <= tol
    assert np.max(np.abs(a.vector - b.vector)) <= tol


@PROPERTY
@given(OPERANDS, OPERANDS, OPERANDS)
def test_property_mul_associative(a, b, c):
    left = pauli_mul(pauli_mul(a, b), c)
    right = pauli_mul(a, pauli_mul(b, c))
    assert_close(left, right, size(a) * size(b) * size(c))


@PROPERTY
@given(OPERANDS, OPERANDS)
def test_property_adjoint_antihomomorphism(a, b):
    """(ab)^dag = b^dag a^dag on the array form, with .conj() as the adjoint."""
    tol = 1e-13 * size(a) * size(b) + 1e-300
    a, b = a.as_array(), b.as_array()
    left = pauli_mul_array(a, b).conj()
    right = pauli_mul_array(b.conj(), a.conj())
    assert np.max(np.abs(left - right)) <= tol


@PROPERTY
@given(OPERANDS)
def test_property_effect_positive_semidefinite(a):
    """A A^dag has a real scalar at least |vector|: a positive semidefinite operator."""
    f = effect_array(a.as_array())
    tol = 1e-13 * size(a) ** 2 + 1e-300
    assert np.max(np.abs(f.imag)) <= tol
    assert f[0].real - np.linalg.norm(f[1:].real) >= -tol


@PROPERTY
@given(OPERANDS, OPERANDS)
def test_property_mul_matches_matrix_oracle(a, b):
    out = pauli_mul(a, b)
    expected = mat(a.scalar, a.vector) @ mat(b.scalar, b.vector)
    assert np.max(np.abs(mat(out.scalar, out.vector) - expected)) <= 1e-13 * size(a) * size(b) + 1e-300
