"""Coefficient-level arithmetic for 2x2 operators written in the Pauli basis.

An operator is stored as ``scalar * 1 + vector . sigma`` with a complex
scalar and a complex 3-vector.  All products below are bilinear: nothing
conjugates implicitly.  The Pauli matrices are Hermitian, so A^dag has the
complex-conjugate coefficients of A, written ``.conj()`` where it is needed.

Operands are finite.  This module coerces types and shapes but never checks
finiteness, neither of its inputs nor of the results of its products.  Values
are checked once, where they enter the program: the constructors of
``KrausOperator``, ``BlochState``, ``RotationSpec`` and ``Direction``
(``sgkit.instrument``) and of ``PerturbationParams``
(``sgkit.linearize``), and the config, dataset and fits parsers of
``sgkit.cli`` and ``sgkit.experiment``.

The array forms (``pauli_mul_array``, ``dot_array``, ``cross_array``) take
broadcastable ``(..., 4)`` coefficient arrays ``[scalar, x, y, z]`` (or
``(..., 3)`` vectors) and return arrays of the broadcast shape.  They are
unvalidated under the same contract: every operand is finite.  Every sgkit
formula is built on them.  The object form ``pauli_mul`` on
``PauliCoefficients`` is a thin call into ``pauli_mul_array``; no sgkit code
path calls it, and it stays only as the operand of the benchmark's
``pauli.mul_us`` probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# Cyclic index orders for the cross product: (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1},
# the i+1 order followed by the i+2 order, so one gather serves both.
# Same elementwise arithmetic as numpy.cross, without its ~30 us per-call overhead.
_CYCLIC = np.array([1, 2, 0, 2, 0, 1])


@dataclass(frozen=True)
class PauliCoefficients:
    scalar: complex
    vector: np.ndarray

    def __post_init__(self):
        vector = np.array(self.vector, dtype=complex).reshape(3)
        vector.setflags(write=False)
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "vector", vector)

    def as_array(self) -> np.ndarray:
        """The (4,) complex array [scalar, x, y, z] the array forms take."""
        return np.concatenate(((self.scalar,), self.vector))


def dot_array(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bilinear dot product over the last axis of broadcastable (..., 3) arrays.

    A stacked matmul rounds each pair exactly as ``numpy.dot`` does and costs
    less per call than a reduction, which matters for single operands.
    """
    return (v[..., None, :] @ w[..., :, None])[..., 0, 0]


def cross_array(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of broadcastable (..., 3) arrays."""
    vv, ww = v[..., _CYCLIC], w[..., _CYCLIC]
    return vv[..., :3] * ww[..., 3:] - vv[..., 3:] * ww[..., :3]


def pauli_mul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator product of broadcastable (..., 4) arrays [scalar, x, y, z].

    Uses sigma_i sigma_j = delta_ij + i eps_ijk sigma_k.
    """
    s, v = a[..., :1], a[..., 1:]
    t, w = b[..., :1], b[..., 1:]
    scalar = s * t + dot_array(v, w)[..., None]
    return np.concatenate([scalar, s * w + t * v + 1j * cross_array(v, w)], axis=-1)


def pauli_mul(a: PauliCoefficients, b: PauliCoefficients) -> PauliCoefficients:
    """Operator product of two coefficient objects."""
    out = pauli_mul_array(a.as_array(), b.as_array())
    return PauliCoefficients(out[0], out[1:])

