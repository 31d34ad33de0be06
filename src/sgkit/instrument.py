"""Two-outcome spin-1/2 quantum instrument.

The instrument is a pair of Kraus branches ``A = alpha * 1 + beta . sigma``.
A selective measurement maps ``rho -> A^dag rho A`` (normalized by its trace),
so the effect whose expectation gives the outcome probability is ``A A^dag``
and the completeness condition is ``sum_m A_m A_m^dag = 1``.  State updates
are computed by operator conjugation through the Pauli algebra; 2x2 matrices
are only an independent oracle in the tests and in ``sgkit verify``.

Every formula is written once, as an unvalidated array form on stacked Pauli
coefficients: a branch is a ``(..., 4)`` complex array ``[alpha, beta]``, an
instrument ``(..., 2, 4)`` (up, down), a first stage of branches ``(..., s, 4)``,
a state its ``(..., 3)`` Bloch vector, a rotation a unit ``(..., 3)`` axis and
a ``(...)`` angle; leading axes broadcast.  Operands are finite with |r| <= 1
and unit axes, as the constructors below and ``bloch_array`` check.  The
object functions validate, raise this module's exceptions and return ``None``
post-states, and otherwise call the array forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliCoefficients, cross_array, dot_array, pauli_mul_array

NORMALIZATION_TOL = 1e-9
ZERO_PROBABILITY = 1e-12
BLOCH_NORM_TOL = 1e-12

CYCLIC_AXIS = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


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


# eq=False (identity): a field-wise == would ask an ndarray for a truth value.
@dataclass(frozen=True, eq=False)
class KrausOperator:
    """One outcome branch, alpha * 1 + beta . sigma."""

    alpha: complex
    beta: np.ndarray

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not cmath.isfinite(alpha):
            raise ValueError("alpha must be finite")
        coefficients = np.empty(4, dtype=complex)
        coefficients[0] = alpha
        coefficients[1:] = np.asarray(self.beta, dtype=complex).reshape(3)
        if not np.isfinite(coefficients).all():
            raise ValueError("beta components must be finite")
        coefficients.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", coefficients[1:])
        object.__setattr__(self, "_array", coefficients)

    def coefficients(self) -> PauliCoefficients:
        return PauliCoefficients(self.alpha, self.beta)

    def as_array(self) -> np.ndarray:
        """The read-only (4,) complex array [alpha, beta_x, beta_y, beta_z]."""
        return self._array


@dataclass(frozen=True, eq=False)
class Instrument:
    up: KrausOperator
    down: KrausOperator

    @property
    def branches(self) -> tuple[KrausOperator, KrausOperator]:
        return (self.up, self.down)

    def __post_init__(self):
        object.__setattr__(self, "_array", np.stack((self.up.as_array(), self.down.as_array())))
        self._array.setflags(write=False)

    def as_array(self) -> np.ndarray:
        """The read-only (2, 4) complex array of the up and down branches, stacked once."""
        return self._array

    @classmethod
    def from_array(cls, branches: np.ndarray) -> Instrument:
        """The instrument of a (2, 4) array, validated like any other."""
        return cls(
            KrausOperator(branches[0, 0], branches[0, 1:]),
            KrausOperator(branches[1, 0], branches[1, 1:]),
        )


@dataclass(frozen=True, eq=False)
class BlochState:
    """Spin-1/2 state rho = (1 + r . sigma) / 2 with |r| <= 1."""

    r: np.ndarray

    def __post_init__(self):
        vec = bloch_array(np.array(self.r, dtype=float).reshape(3))
        vec.setflags(write=False)
        object.__setattr__(self, "r", vec)

    def coefficients(self) -> PauliCoefficients:
        return PauliCoefficients(0.5, 0.5 * self.r)


def bloch_array(r) -> np.ndarray:
    """``r`` as one float 3-vector or an (n, 3) stack: ValueError unless every
    vector is finite with |r| <= 1, checked at once: the one Bloch-vector rule, ``BlochState``'s too."""
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != 3:
        raise ValueError("Bloch vectors must be a 3-vector or an (n, 3) stack")
    if not np.isfinite(r).all():
        raise ValueError("vector components must be finite")
    if (np.linalg.norm(r, axis=-1) > 1.0 + BLOCH_NORM_TOL).any():
        raise ValueError("Bloch vector norm exceeds 1")
    return r


@dataclass(frozen=True, eq=False)
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


# --- array forms ------------------------------------------------------------


def effect_array(a: np.ndarray) -> np.ndarray:
    """Effects A A^dag of (..., 4) branches, as (..., 4) coefficients."""
    return pauli_mul_array(a, a.conj())


def expectation_array(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """tr(rho A A^dag) of (..., 4) branches at (..., 3) Bloch vectors, unclamped."""
    f = effect_array(a).real
    return f[..., 0] + dot_array(f[..., 1:], r)


def _conjugated(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A^dag rho A for rho = (1 + r . sigma) / 2, built complex as the products would cast it."""
    rho = np.empty(r.shape[:-1] + (4,), dtype=complex)
    rho[..., 0], rho[..., 1:] = 0.5, 0.5 * r
    return pauli_mul_array(pauli_mul_array(a.conj(), rho), a)


def selective_array(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and post-measurement Bloch vectors of A^dag rho A / tr(...).

    Probabilities are clamped to [0, 1].  A post vector is NaN exactly where
    its probability is below ZERO_PROBABILITY; those entries are never divided.
    """
    conj = _conjugated(a, r).real
    prob = 2.0 * conj[..., :1]
    post = np.full(conj[..., 1:].shape, np.nan)
    np.divide(conj[..., 1:], conj[..., :1], out=post, where=prob >= ZERO_PROBABILITY)
    return np.minimum(1.0, np.maximum(0.0, prob[..., 0])), post


def _conjugation_sum(stage: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unnormalized sum_A A^dag rho A over the branches A of (..., s, 4) stages, as (..., 4)."""
    return _conjugated(stage, r[..., None, :]).sum(axis=-2)


def nonselective_array(inst: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Outcome-averaged Bloch vectors; the instruments must be normalized."""
    total = _conjugation_sum(inst, r).real
    return total[..., 1:] / total[..., :1]


def successive_array(first: np.ndarray, second: np.ndarray, r: np.ndarray) -> np.ndarray:
    """tr((sum_A A^dag rho A) B B^dag) over the branches A of (..., s, 4) first stages, then
    the (..., 4) branch B, unnormalized, so polynomial in any perturbation.  Both branches of
    a normalized instrument are a non-selective pass; the identity alone, a single measurement."""
    rho1 = _conjugation_sum(first, r)
    f2 = effect_array(second)
    return 2.0 * (rho1[..., 0] * f2[..., 0] + dot_array(rho1[..., 1:], f2[..., 1:])).real


def residual_array(inst: np.ndarray) -> np.ndarray:
    """Max deviation over the four component equations of sum_m A_m A_m^dag = 1."""
    total = effect_array(inst).sum(axis=-2)
    return np.maximum(np.abs(total[..., 0] - 1.0), np.abs(total[..., 1:]).max(axis=-1))


def _inverse_sqrt(s: np.ndarray) -> np.ndarray:
    """S^(-1/2) = p * 1 + q * v/|v| . sigma of real (..., 4) coefficients S = s0 + v . sigma,
    built complex as ``pauli_mul_array`` would cast it.

    Raises SingularNormalization when any S has an eigenvalue below 1e-12.
    """
    s0, v = s[..., :1], s[..., 1:]
    vnorm = np.sqrt(dot_array(v, v))[..., None]
    lam_hi = s0 + vnorm
    lam_lo = s0 - vnorm
    if not np.all(lam_lo >= 1e-12):
        raise SingularNormalization("branch sum is not positive definite")
    p = 0.5 * (lam_hi ** -0.5 + lam_lo ** -0.5)
    q = 0.5 * (lam_hi ** -0.5 - lam_lo ** -0.5)
    unit = np.zeros_like(v)
    np.divide(v, vnorm, out=unit, where=vnorm > 0.0)
    return np.concatenate([p, q * unit], axis=-1, dtype=complex)


def exact_normalize_array(inst: np.ndarray) -> np.ndarray:
    """Left-multiply both branches of (..., 2, 4) instruments by S^(-1/2),
    S = sum_m A_m A_m^dag.

    Raises SingularNormalization as ``_inverse_sqrt`` does, and also when S is
    so ill-conditioned that the result misses completeness by more than
    NORMALIZATION_TOL.  Overflow warnings are silenced: both checks refuse
    every non-finite intermediate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = pauli_mul_array(_inverse_sqrt(effect_array(inst).sum(axis=-2).real)[..., None, :], inst)
        residual = residual_array(out)
    if not np.all(residual <= NORMALIZATION_TOL):
        raise SingularNormalization(
            f"branch sum is too ill-conditioned to renormalize (completeness residual "
            f"{np.max(residual):.3e} after renormalization, tolerance {NORMALIZATION_TOL:g})"
        )
    return out


def rotate_array(a: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """Device rotation U^dag A U of (..., 4) branches in closed form; alpha is untouched.

    beta -> cos(phi) beta + sin(phi) n x beta + 2 sin^2(phi/2) (n . beta) n, for
    unit (..., 3) axes n and (...) angles phi.  Conjugation by the unitary
    U(phi) = cos(phi/2) * 1 + i sin(phi/2) * n . sigma is the normative
    definition that fixes the sign of the angle.
    """
    phi = np.asarray(angle)[..., None]
    beta = a[..., 1:]
    rotated = (
        np.cos(phi) * beta
        + np.sin(phi) * cross_array(axis, beta)
        + 2.0 * np.sin(0.5 * phi) ** 2 * dot_array(axis, beta)[..., None] * axis
    )
    return np.concatenate([a[..., :1], rotated], axis=-1)


# --- object API ---------------------------------------------------------------


def effect_expectation(k: KrausOperator, state: BlochState) -> float:
    """tr(rho A A^dag), unclamped."""
    return float(expectation_array(k.as_array(), state.r))


def selective_apply(k: KrausOperator, state: BlochState) -> tuple[float, BlochState | None]:
    """Probability and post-measurement state of A^dag rho A / tr(...).

    The post state is None when the branch probability vanishes.
    """
    prob, post = selective_array(k.as_array(), state.r)
    if np.isnan(post[0]):
        return (float(prob), None)
    return (float(prob), BlochState(post))


def nonselective_apply(inst: Instrument, state: BlochState) -> BlochState:
    """Outcome-averaged state update; requires a normalized instrument."""
    branches = inst.as_array()
    if residual_array(branches) > NORMALIZATION_TOL:
        raise UnnormalizedInstrument("instrument violates sum_m A_m A_m^dag = 1")
    return BlochState(nonselective_array(branches, state.r))


def rotate_instrument(inst: Instrument, rot: RotationSpec) -> Instrument:
    """Device rotation U^dag A U of both branches, as ``rotate_array`` computes it."""
    return Instrument.from_array(rotate_array(inst.as_array(), rot.axis, rot.angle))


def cyclic_rotation(m: int) -> RotationSpec:
    """Rotation by m * 2pi/3 about (1,1,1)/sqrt(3); permutes the axes cyclically."""
    if m not in (0, 1, 2):
        raise ValueError("rotation index must be 0, 1 or 2")
    return RotationSpec(CYCLIC_AXIS, m * 2.0 * math.pi / 3.0)


def ideal_instrument() -> Instrument:
    """The projective z filter: up = (1/2, +e_z/2), down = (1/2, -e_z/2)."""
    return Instrument(
        KrausOperator(0.5, (0.0, 0.0, 0.5)),
        KrausOperator(0.5, (0.0, 0.0, -0.5)),
    )


def exact_normalize(inst: Instrument) -> Instrument:
    """The instrument ``exact_normalize_array`` renormalizes to completeness at rounding
    level, SingularNormalization as it raises."""
    return Instrument.from_array(exact_normalize_array(inst.as_array()))
