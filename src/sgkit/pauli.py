"""Coefficient-level arithmetic for 2x2 operators written in the Pauli basis.

An operator ``scalar * 1 + vector . sigma`` has one representation: the complex
``(..., 4)`` array ``[scalar, x, y, z]``, with leading axes that broadcast.
All products below are bilinear: nothing conjugates implicitly.  The Pauli
matrices are Hermitian, so A^dag has the complex-conjugate coefficients of A,
written ``.conj()`` where it is needed.  The module holds no 2x2 matrices; the
one matrix oracle is ``sgkit.verify``'s, which the tests use too.

Operands are finite.  ``pauli_mul_array``, ``dot_array`` and ``cross_array``
(on ``(..., 3)`` vectors) return arrays of the broadcast shape and never check
finiteness, neither of their inputs nor of their results.  Values are checked
once, where they enter the program: the constructors of ``KrausOperator``,
``BlochState``, ``RotationSpec`` and ``Direction`` (``sgkit.instrument``) and
of ``PerturbationParams`` (``sgkit.linearize``), and the config, dataset and
fits parsers of ``sgkit.cli`` and ``sgkit.experiment``.
"""

from __future__ import annotations

import numpy as np

# Cyclic index orders for the cross product: (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1},
# the i+1 order followed by the i+2 order, so one gather serves both.
# Same elementwise arithmetic as numpy.cross, without its ~30 us per-call overhead.
_CYCLIC = np.array([1, 2, 0, 2, 0, 1])


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


# The name the benchmark's ``pauli.mul_us`` probe calls the product by.
pauli_mul = pauli_mul_array
