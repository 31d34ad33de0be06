import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgkit.pauli import (
    NonHermitianInput,
    PauliCoefficients,
    adjoint,
    from_matrix,
    hermitian_eigenvalues,
    pauli_mul,
    pauli_mul_array,
    to_matrix,
    trace,
)

from conftest import mat

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
        assert np.max(np.abs(to_matrix(out) - expected)) < 1e-12


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


def test_adjoint_basics():
    out = adjoint(PauliCoefficients(1j, np.zeros(3)))
    assert out.scalar == -1j
    hermitian = PauliCoefficients(0.7, np.array([0.1, 0.2, 0.3]))
    again = adjoint(hermitian)
    assert again.scalar == hermitian.scalar
    assert np.allclose(again.vector, hermitian.vector)


def test_adjoint_matches_conjugate_transpose(rng):
    for _ in range(50):
        a = random_coeff(rng)
        expected = mat(a.scalar, a.vector).conj().T
        assert np.max(np.abs(to_matrix(adjoint(a)) - expected)) < 1e-14


def test_adjoint_antihomomorphism(rng):
    for _ in range(50):
        a, b = random_coeff(rng), random_coeff(rng)
        left = adjoint(pauli_mul(a, b))
        right = pauli_mul(adjoint(b), adjoint(a))
        assert abs(left.scalar - right.scalar) < 1e-12
        assert np.max(np.abs(left.vector - right.vector)) < 1e-12


def test_trace():
    assert trace(PauliCoefficients(1, np.array([5.0, -2.0, 1.0]))) == 2
    assert trace(PauliCoefficients(0, E_Z)) == 0


def test_trace_matches_matrix(rng):
    for _ in range(50):
        a = random_coeff(rng)
        assert abs(trace(a) - np.trace(mat(a.scalar, a.vector))) < 1e-13


def test_positivity_of_a_adag(rng):
    for _ in range(50):
        a = random_coeff(rng)
        val = trace(pauli_mul(a, adjoint(a)))
        assert val.real >= 0.0
        assert abs(val.imag) <= 1e-12


def test_to_matrix_values():
    assert np.allclose(to_matrix(PauliCoefficients(1, np.zeros(3))), np.eye(2))
    assert np.allclose(to_matrix(PauliCoefficients(0, E_Z)), np.diag([1.0, -1.0]))
    assert np.allclose(
        to_matrix(PauliCoefficients(0.5, 0.5 * E_Z)), np.diag([1.0, 0.0])
    )


def test_matrix_round_trip(rng):
    for _ in range(50):
        a = random_coeff(rng)
        back = from_matrix(to_matrix(a))
        assert abs(back.scalar - a.scalar) < 1e-14
        assert np.max(np.abs(back.vector - a.vector)) < 1e-14


def test_hermitian_eigenvalues_examples():
    assert hermitian_eigenvalues(PauliCoefficients(0.5, 0.5 * E_Z)) == (1.0, 0.0)
    assert hermitian_eigenvalues(PauliCoefficients(1.0, np.zeros(3))) == (1.0, 1.0)


def test_hermitian_eigenvalues_match_characteristic_roots(rng):
    for _ in range(50):
        a = PauliCoefficients(rng.normal(), rng.normal(size=3))
        hi, lo = hermitian_eigenvalues(a)
        m = mat(a.scalar, a.vector)
        # roots of det(m - x I) for a 2x2 Hermitian matrix
        tr = np.trace(m).real
        det = np.linalg.det(m).real
        disc = np.sqrt(tr * tr / 4.0 - det)
        assert abs(hi - (tr / 2.0 + disc)) < 1e-12
        assert abs(lo - (tr / 2.0 - disc)) < 1e-12


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eigenvalues(PauliCoefficients(1j, np.zeros(3)))
    with pytest.raises(NonHermitianInput):
        hermitian_eigenvalues(PauliCoefficients(0.0, np.array([0.0, 1e-6j, 0.0])))


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
    assert_close(adjoint(pauli_mul(a, b)), pauli_mul(adjoint(b), adjoint(a)), size(a) * size(b))


@PROPERTY
@given(OPERANDS, OPERANDS)
def test_property_mul_matches_matrix_oracle(a, b):
    out = pauli_mul(a, b)
    expected = mat(a.scalar, a.vector) @ mat(b.scalar, b.vector)
    assert np.max(np.abs(mat(out.scalar, out.vector) - expected)) <= 1e-13 * size(a) * size(b) + 1e-300
