"""Two-outcome spin-1/2 quantum instrument.

The instrument is a pair of Kraus branches ``A = alpha * 1 + beta . sigma``.
A selective measurement maps ``rho -> A^dag rho A`` (normalized by its trace),
so the effect whose expectation gives the outcome probability is ``A A^dag``
and the completeness condition is ``sum_m A_m A_m^dag = 1``.  State updates
are always computed by operator conjugation through the Pauli algebra; the
2x2 matrix representation exists only as an independent oracle in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliCoefficients, adjoint, pauli_add, pauli_mul

NORMALIZATION_TOL = 1e-9
ZERO_PROBABILITY = 1e-12

CYCLIC_AXIS = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


class DegenerateKraus(ValueError):
    """Branch with (near-)zero effect weight; the xi vector is undefined."""


class UnnormalizedInstrument(ValueError):
    """Operation requires sum_m A_m A_m^dag = 1 within tolerance."""


class SingularNormalization(ValueError):
    """sum_m A_m A_m^dag is not positive definite; cannot renormalize."""


def _real3(values) -> np.ndarray:
    vec = np.array(values, dtype=float).reshape(3)
    if not np.isfinite(vec).all():
        raise ValueError("vector components must be finite")
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class KrausOperator:
    """One outcome branch, alpha * 1 + beta . sigma."""

    alpha: complex
    beta: np.ndarray

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not cmath.isfinite(alpha):
            raise ValueError("alpha must be finite")
        vec = np.array(self.beta, dtype=complex).reshape(3)
        if not np.isfinite(vec).all():
            raise ValueError("beta components must be finite")
        vec.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", vec)

    def coefficients(self) -> PauliCoefficients:
        return PauliCoefficients(self.alpha, self.beta)


@dataclass(frozen=True)
class Instrument:
    up: KrausOperator
    down: KrausOperator

    @property
    def branches(self) -> tuple[KrausOperator, KrausOperator]:
        return (self.up, self.down)


@dataclass(frozen=True)
class BlochState:
    """Spin-1/2 state rho = (1 + r . sigma) / 2 with |r| <= 1."""

    r: np.ndarray

    def __post_init__(self):
        vec = _real3(self.r)
        if float(np.linalg.norm(vec)) > 1.0 + 1e-12:
            raise ValueError("Bloch vector norm exceeds 1")
        object.__setattr__(self, "r", vec)

    def coefficients(self) -> PauliCoefficients:
        return PauliCoefficients(0.5, 0.5 * self.r)


@dataclass(frozen=True)
class Effect:
    """Operator weight * (1 + xi . sigma).

    For branches of a normalized instrument the spectrum lies in [0, 1]
    (weight * (1 + |xi|) <= 1); effects of raw perturbed instruments may
    exceed that bound at the size of the normalization residual, so only
    the weight range is enforced here.
    """

    weight: float
    xi: np.ndarray

    def __post_init__(self):
        weight = float(self.weight)
        xi = _real3(self.xi)
        if not (-1e-9 <= weight <= 1.0 + 1e-9):
            raise ValueError("effect weight must lie in [0, 1]")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "xi", xi)

    def coefficients(self) -> PauliCoefficients:
        return PauliCoefficients(self.weight, self.weight * self.xi)


@dataclass(frozen=True)
class RotationSpec:
    """Axis-angle device rotation; axis must be a unit vector."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = _real3(self.axis)
        if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-12:
            raise ValueError("rotation axis must be a unit vector")
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise ValueError("rotation angle must be finite")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)


@dataclass(frozen=True)
class Direction:
    """Probe direction in spherical angles, theta in [0, pi], phi_az in [0, 2pi)."""

    theta: float
    phi_az: float

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi_az)
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError("phi_az must lie in [0, 2pi)")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi_az", phi)

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi_az), st * math.sin(self.phi_az), math.cos(self.theta)]
        )


def _effect_coefficients(k: KrausOperator) -> PauliCoefficients:
    a = k.coefficients()
    return pauli_mul(a, adjoint(a))


def effect_of(k: KrausOperator) -> Effect:
    """Effect A A^dag of a branch, factored as weight * (1 + xi . sigma)."""
    f = _effect_coefficients(k)
    weight = f.scalar.real
    if weight < 1e-14:
        raise DegenerateKraus("effect weight is numerically zero")
    return Effect(weight, f.vector.real / weight)


def normalization_residual(inst: Instrument) -> float:
    """Max deviation over the four component equations of sum_m A_m A_m^dag = 1."""
    total = pauli_add(_effect_coefficients(inst.up), _effect_coefficients(inst.down))
    return max(
        abs(total.scalar - 1.0),
        float(np.max(np.abs(total.vector))),
    )


def effect_expectation(k: KrausOperator, state: BlochState) -> float:
    """tr(rho A A^dag), unclamped."""
    f = _effect_coefficients(k)
    return float(f.scalar.real + np.dot(f.vector.real, state.r))


def probability(k: KrausOperator, state: BlochState) -> float:
    """Outcome probability tr(rho A A^dag), clamped to [0, 1]."""
    return min(1.0, max(0.0, effect_expectation(k, state)))


def selective_apply(k: KrausOperator, state: BlochState) -> tuple[float, BlochState | None]:
    """Probability and post-measurement state of A^dag rho A / tr(...).

    The post state is None when the branch probability vanishes.
    """
    a = k.coefficients()
    conj = pauli_mul(pauli_mul(adjoint(a), state.coefficients()), a)
    prob = 2.0 * conj.scalar.real
    if prob < ZERO_PROBABILITY:
        return (max(0.0, prob), None)
    post = BlochState(conj.vector.real / conj.scalar.real)
    return (min(1.0, prob), post)


def conjugation_sum(inst: Instrument, state: BlochState) -> PauliCoefficients:
    """Unnormalized sum_m A_m^dag rho A_m as Pauli coefficients."""
    rho = state.coefficients()
    out = PauliCoefficients(0.0, np.zeros(3))
    for branch in inst.branches:
        a = branch.coefficients()
        out = pauli_add(out, pauli_mul(pauli_mul(adjoint(a), rho), a))
    return out


def nonselective_apply(inst: Instrument, state: BlochState) -> BlochState:
    """Outcome-averaged state update; requires a normalized instrument."""
    if normalization_residual(inst) > NORMALIZATION_TOL:
        raise UnnormalizedInstrument("instrument violates sum_m A_m A_m^dag = 1")
    total = conjugation_sum(inst, state)
    return BlochState(total.vector.real / total.scalar.real)


def raw_successive_probability(inst: Instrument, second: KrausOperator, state: BlochState) -> float:
    """tr((sum_m A_m^dag rho A_m) * B B^dag) with no intermediate renormalization.

    This is the composition probability for a non-selective stage followed by
    a selective branch B; for a normalized instrument it coincides with
    ``successive_probability``, and it stays a polynomial in any instrument
    perturbation, which the linearization machinery relies on.
    """
    rho1 = conjugation_sum(inst, state)
    f2 = _effect_coefficients(second)
    return float((rho1.scalar * f2.scalar + np.dot(rho1.vector, f2.vector)).real * 2.0)


def successive_probability(inst: Instrument, second: KrausOperator, state: BlochState) -> float:
    """Probability of branch ``second`` after a non-selective pass of ``inst``."""
    return probability(second, nonselective_apply(inst, state))


def rotation_unitary(rot: RotationSpec) -> PauliCoefficients:
    """U(phi) = cos(phi/2) * 1 + i sin(phi/2) * n . sigma."""
    half = 0.5 * rot.angle
    return PauliCoefficients(math.cos(half), 1j * math.sin(half) * rot.axis)


def rotate_kraus(k: KrausOperator, rot: RotationSpec) -> KrausOperator:
    """Device rotation U^dag A U in closed form; alpha is untouched.

    The closed form agrees with conjugation by ``rotation_unitary`` and that
    conjugation is the normative definition fixing the sign of the angle.
    """
    n = rot.axis
    phi = rot.angle
    beta = (
        math.cos(phi) * k.beta
        + math.sin(phi) * np.cross(n, k.beta)
        + 2.0 * math.sin(0.5 * phi) ** 2 * np.dot(n, k.beta) * n
    )
    return KrausOperator(k.alpha, beta)


def rotate_instrument(inst: Instrument, rot: RotationSpec) -> Instrument:
    return Instrument(rotate_kraus(inst.up, rot), rotate_kraus(inst.down, rot))


def cyclic_rotation(m: int) -> RotationSpec:
    """Rotation by m * 2pi/3 about (1,1,1)/sqrt(3); permutes the axes cyclically."""
    if m not in (0, 1, 2):
        raise ValueError("rotation index must be 0, 1 or 2")
    return RotationSpec(CYCLIC_AXIS, m * 2.0 * math.pi / 3.0)


def cyclic_instruments(inst: Instrument) -> tuple[Instrument, Instrument, Instrument]:
    """The devices measuring along z, x, y obtained from the cyclic rotations."""
    return (inst, rotate_instrument(inst, cyclic_rotation(1)), rotate_instrument(inst, cyclic_rotation(2)))


def ideal_instrument() -> Instrument:
    """The projective z filter: up = (1/2, +e_z/2), down = (1/2, -e_z/2)."""
    return Instrument(
        KrausOperator(0.5, (0.0, 0.0, 0.5)),
        KrausOperator(0.5, (0.0, 0.0, -0.5)),
    )


def exact_normalize(inst: Instrument) -> Instrument:
    """Left-multiply both branches by S^(-1/2), S = sum_m A_m A_m^dag.

    Restores the completeness condition exactly (to rounding).  Raises
    SingularNormalization when S has an eigenvalue below 1e-12.
    """
    total = pauli_add(_effect_coefficients(inst.up), _effect_coefficients(inst.down))
    s0 = total.scalar.real
    v = total.vector.real
    vnorm = float(np.linalg.norm(v))
    lam_hi = s0 + vnorm
    lam_lo = s0 - vnorm
    if lam_lo < 1e-12:
        raise SingularNormalization("branch sum is not positive definite")
    p = 0.5 * (lam_hi ** -0.5 + lam_lo ** -0.5)
    q = 0.5 * (lam_hi ** -0.5 - lam_lo ** -0.5)
    vec = q * v / vnorm if vnorm > 0.0 else np.zeros(3)
    inv_sqrt = PauliCoefficients(p, vec)
    branches = []
    for branch in inst.branches:
        out = pauli_mul(inv_sqrt, branch.coefficients())
        branches.append(KrausOperator(out.scalar, out.vector))
    return Instrument(branches[0], branches[1])
