"""Inverse problem: affine fits of measured deviations and parameter recovery.

Fits are weighted least squares of (frequency - ideal probability) on the
basis (1, kx, ky, kz), with binomial weights for counted data and uniform
weights for exact records.  Each fit takes its ideal baseline from one
``ideal_probability`` array call on its records' stacked directions.
Recovery stacks the fitted coefficients (scaled by 1/eta) against the design
system and solves by SVD, reporting the minimum-norm solution, rank,
nullspace and residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import RankDeficientFit
from .linearize import LinearSystem, ObservableSpec, ideal_probability

WEIGHT_CLAMP = 1e-6
RANK_RTOL = 1e-10
BASIS_SKIP_TOL = 1e-8
EXACT_CHI2_TOL = 1e-10
# Largest chi-square per degree of freedom a compatible fit or recovery may have.
FIT_CHI2_THRESHOLD = 3.0


# eq=False (identity): a field-wise == would ask an ndarray for a truth value.
@dataclass(frozen=True, eq=False)
class FitResult:
    """Affine fit of one observable's deviations from the ideal model.

    ``coefficients`` are (c0, c1, c2, c3) of c0 + c1*kx + c2*ky + c3*kz, a
    read-only (4,) array.  The covariance is the WLS estimate for counted
    data and a zero matrix for exact records, which carry no sampling
    variance.
    """

    observable: ObservableSpec
    coefficients: np.ndarray
    covariance: np.ndarray
    chi_square: float
    degrees_of_freedom: int

    def __post_init__(self):
        for name, shape in (("coefficients", (4,)), ("covariance", (4, 4))):
            value = np.array(getattr(self, name), dtype=float).reshape(shape)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.degrees_of_freedom < 1:
            raise ValueError("fit needs at least one degree of freedom")

    @property
    def has_variance(self) -> bool:
        return bool(np.any(self.covariance != 0.0))


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Minimum-norm recovery of the 16 parameters with identifiability data.

    ``row_space_basis`` (rank x 16) spans the identifiable parameter
    combinations and ``nullspace_basis`` the rest.  Both are orthonormal and
    canonical: Gram-Schmidt on e_1, e_2, ... projected onto the subspace, so
    each depends on its subspace only and not on the SVD's choice of vectors.
    ``residual_norm`` is reported on the probability-deviation scale (the
    scaled-system residual multiplied back by eta) so it can be compared
    with statistical noise and truncation error.  ``chi_square`` is the
    standard-error-weighted residual over the data rows, present only when
    the fits carry sampling variance and the data rows outnumber the rank;
    ``degrees_of_freedom`` is their difference.  The four arrays are read-only.
    """

    parameters: np.ndarray
    rank: int
    nullspace_basis: np.ndarray
    row_space_basis: np.ndarray
    residual_norm: float
    covariance: np.ndarray | None
    chi_square: float | None
    degrees_of_freedom: int | None

    def __post_init__(self):
        for name in ("parameters", "nullspace_basis", "row_space_basis", "covariance"):
            if getattr(self, name) is not None:
                getattr(self, name).setflags(write=False)


def fit_affine(records) -> FitResult:
    """Weighted least squares of one observable's deviations from the ideal model.

    Args:
        records: MeasurementRecord sequence, all for the same observable and
            all exact or all sampled, at least 5 of them spanning a rank-4
            direction design.

    The ideal baseline of every record is one ``ideal_probability`` call on
    the (n, 3) stack of their directions.

    Raises ValueError when the records mix observables or exact and sampled
    data, and RankDeficientFit when the design cannot determine 4 coefficients.
    """
    records = list(records)
    if not records:
        raise RankDeficientFit("no records")
    observable = records[0].setting.observable
    if any(rec.setting.observable != observable for rec in records):
        raise ValueError("records mix observables")
    sampled = records[0].shots > 0
    if any((rec.shots > 0) != sampled for rec in records):
        raise ValueError(f"{observable.label()}: records mix exact and sampled data")
    if len(records) < 5:
        raise RankDeficientFit(
            f"{observable.label()}: need at least 5 records, got {len(records)}"
        )

    directions = np.array([rec.setting.direction.unit_vector() for rec in records])
    design = np.column_stack([np.ones(len(records)), directions])
    frequencies = np.array([rec.frequency() for rec in records])
    values = frequencies - ideal_probability(observable, directions)

    if sampled:
        p_hat = np.clip(frequencies, WEIGHT_CLAMP, 1.0 - WEIGHT_CLAMP)
        weights = np.array([rec.shots for rec in records]) / (p_hat * (1.0 - p_hat))
    else:
        weights = np.ones(len(records))

    sqrt_w = np.sqrt(weights)
    design_w = design * sqrt_w[:, None]
    coeffs, _, _, singular = np.linalg.lstsq(design_w, values * sqrt_w, rcond=None)
    if singular[-1] <= RANK_RTOL * singular[0]:
        raise RankDeficientFit(f"{observable.label()}: direction design has rank < 4")
    residual = values - design @ coeffs
    chi_square = float(np.sum(weights * residual ** 2))
    covariance = np.linalg.inv(design.T @ (weights[:, None] * design)) if sampled else np.zeros((4, 4))
    return FitResult(
        observable=observable,
        coefficients=coeffs,
        covariance=covariance,
        chi_square=chi_square,
        degrees_of_freedom=len(records) - 4,
    )


class GoodnessOfFit(NamedTuple):
    per_fit: tuple[tuple[str, float], ...]
    chi_square: float
    degrees_of_freedom: int
    threshold: float
    compatible: bool


def goodness_of_fit(fits, threshold: float = FIT_CHI2_THRESHOLD) -> GoodnessOfFit:
    """Per-fit and aggregate chi-square per degree of freedom.

    Counted data is compatible when every fit has chi-square/dof below
    ``threshold``.  Exact records carry no noise, so their residual must
    vanish outright (chi-square below EXACT_CHI2_TOL).  Raises ValueError
    when the total chi-square overflows.
    """
    fits = list(fits)
    per_fit = tuple(
        (fit.observable.label(), fit.chi_square / fit.degrees_of_freedom) for fit in fits
    )
    chi_square = float(sum(fit.chi_square for fit in fits))
    if not np.isfinite(chi_square):
        raise ValueError("the total fit chi-square overflows")
    dof = int(sum(fit.degrees_of_freedom for fit in fits))
    compatible = all(
        fit.chi_square <= threshold * fit.degrees_of_freedom
        if fit.has_variance
        else fit.chi_square <= EXACT_CHI2_TOL
        for fit in fits
    )
    return GoodnessOfFit(per_fit, chi_square, dof, threshold, compatible)


def overall_compatible(quality: GoodnessOfFit, result: RecoveryResult, residual_threshold: float) -> bool:
    """The report's verdict: every fit is compatible, and the recovery chi-square at most FIT_CHI2_THRESHOLD
    per dof or, with none (exact fits, or no dof left), ``residual_norm`` at most ``residual_threshold``."""
    if result.chi_square is None:
        return bool(quality.compatible and result.residual_norm <= residual_threshold)
    return bool(quality.compatible and result.chi_square <= FIT_CHI2_THRESHOLD * result.degrees_of_freedom)


def _canonical_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``basis`` (orthonormal rows) fixed by the span alone.

    The unit vectors e_1, e_2, ... are projected onto the span in order and
    Gram-Schmidt orthogonalized (twice, for rounding); projections whose
    residual is below BASIS_SKIP_TOL are skipped.  An SVD returns an
    arbitrary rotation of a subspace with equal singular values; this basis
    moves only as much as the subspace does.  It is complete: a unit vector
    of the span orthogonal to the result would have every component below
    the skip tolerance.
    """
    out = np.zeros((0, basis.shape[1]))
    for v in basis.T @ basis:  # row i is the projection of e_i
        for _ in range(2):
            v = v - out.T @ (out @ v)
        norm = float(np.linalg.norm(v))
        if norm > BASIS_SKIP_TOL:
            out = np.vstack([out, v / norm])
    return out


def require_fits(system: LinearSystem, observables) -> None:
    """ValueError naming the first observable that a row of ``system`` reads and ``observables`` lacks."""
    for key in system.rhs_keys:
        if key is not None and key[0] not in observables:
            raise ValueError(f"no fit supplied for {key[0].label()}")


def recover_parameters(fits, system: LinearSystem, eta: float) -> RecoveryResult:
    """Solve the stacked linear system for the 16 parameters.

    Fitted coefficients are divided by eta (recovered parameters come out
    O(1)); constraint rows keep rhs 0.  The solve is a rank-revealing SVD:
    singular values below 1e-10 of the largest are treated as zero, the
    returned solution is minimum-norm and the nullspace and row-space bases
    orthonormal and canonical.

    Raises ValueError as ``require_fits`` does, when eta is so small that a fitted
    coefficient divided by it overflows, and when the recovery chi-square overflows.
    """
    fits = list(fits)
    by_observable = {fit.observable: fit for fit in fits}
    scale = eta if eta > 0 else 1.0
    require_fits(system, by_observable)
    # Every fit's coefficients and 4x4 covariance block, stacked, then one zero
    # slot (index -1) that the constraint rows read at factor 0.
    stacked = list(by_observable.values())
    coefficients = np.concatenate([*(fit.coefficients for fit in stacked), [0.0]])
    blocks = np.zeros((len(coefficients), len(coefficients)))
    for n, fit in enumerate(stacked):
        blocks[4 * n : 4 * n + 4, 4 * n : 4 * n + 4] = fit.covariance
    start = {fit.observable: 4 * n for n, fit in enumerate(stacked)}
    index = np.array([-1 if key is None else start[key[0]] + key[1] for key in system.rhs_keys])
    factor = np.array([0.0 if key is None else key[2] for key in system.rhs_keys])
    # w = factor / scale, never factor ** 2 / scale ** 2: a huge eta must not
    # overflow the divisor.  A tiny one overflows the variances themselves, which
    # then count as unavailable below, like zero ones.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = factor * coefficients[index] / scale
        w = factor / scale
        cov_rhs = np.outer(w, w) * blocks[np.ix_(index, index)]
    if not np.isfinite(rhs).all():
        raise ValueError(f"fitted coefficients divided by eta = {eta:g} overflow")

    matrix = system.rows
    u, s, vt = np.linalg.svd(matrix, full_matrices=True)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    pseudo = vt[:rank].T @ (np.diag(inv_s[:rank]) @ u[:, :rank].T)
    solution = pseudo @ rhs

    residual_vec = matrix @ solution - rhs
    # The norm is taken of the residual divided by a power of two, which is exact:
    # for a tiny eta the residual is about c / eta and its squares would overflow.
    exponent = int(np.frexp(np.max(np.abs(residual_vec)))[1])
    unit_norm = np.linalg.norm(np.ldexp(residual_vec, -exponent))
    with np.errstate(over="ignore"):
        residual_norm = float(unit_norm * np.ldexp(scale, exponent))
    if not np.isfinite(residual_norm):
        raise ValueError(f"the recovery residual times eta = {eta:g} overflows")

    nullspace = _canonical_basis(vt[rank:])
    row_space = _canonical_basis(vt[:rank])

    covariance = None
    chi_square = None
    dof = None
    data_rows = np.array([key is not None for key in system.rhs_keys])
    variances = np.diag(cov_rhs)[data_rows]
    if np.all((variances > 0.0) & (variances < np.inf)):
        covariance = pseudo @ cov_rhs @ pseudo.T
        # With no more data rows than the rank, no degree of freedom is left to test.
        if np.sum(data_rows) > rank:
            with np.errstate(over="ignore"):
                chi_square = float(np.sum(residual_vec[data_rows] ** 2 / variances))
            if not np.isfinite(chi_square):
                raise ValueError("the recovery chi-square overflows")
            dof = int(np.sum(data_rows)) - rank

    return RecoveryResult(
        parameters=solution,
        rank=rank,
        nullspace_basis=nullspace,
        row_space_basis=row_space,
        residual_norm=residual_norm,
        covariance=covariance,
        chi_square=chi_square,
        degrees_of_freedom=dof,
    )
