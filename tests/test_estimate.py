import numpy as np
import pytest

from sgkit.estimate import (
    FitResult,
    RankDeficientFit,
    fit_affine,
    goodness_of_fit,
    recover_parameters,
)
from sgkit.experiment import (
    ExperimentConfig,
    MeasurementRecord,
    MeasurementSetting,
    exact_dataset,
    make_grid,
    sampled_dataset,
)
from sgkit.linearize import (
    LinearSystem,
    ObservableSpec,
    Outcome,
    PARAM_LABELS,
    PerturbationParams,
    Protocol,
    default_observables,
    design_matrix,
    gauge_directions,
    ideal_probability,
)

from conftest import project_to_constraints

SINGLE_UP0 = ObservableSpec(Protocol.SINGLE, Outcome.UP, 0)


def exact_records(observable, directions, coefficients):
    """Records whose deviation from the ideal model is exactly affine."""
    records = []
    for d in directions:
        k = d.unit_vector()
        p = ideal_probability(observable, d) + coefficients @ np.array([1.0, *k])
        records.append(
            MeasurementRecord(MeasurementSetting(observable, d), 0, 0, float(p))
        )
    return records


def grouped_fits(dataset):
    groups = {}
    for rec in dataset.records:
        groups.setdefault(rec.setting.observable, []).append(rec)
    return [fit_affine(records) for records in groups.values()]


# --- fit_affine -------------------------------------------------------------


def test_fit_recovers_known_coefficients(rng):
    directions = make_grid(3, 5)
    for _ in range(10):
        coeffs = rng.uniform(-0.02, 0.02, size=4)
        fit = fit_affine(exact_records(SINGLE_UP0, directions, coeffs))
        assert np.max(np.abs(fit.coefficients - coeffs)) < 1e-10
        assert fit.chi_square < 1e-20
        assert fit.degrees_of_freedom == len(directions) - 4


def test_fit_ideal_data_gives_zero():
    fit = fit_affine(exact_records(SINGLE_UP0, make_grid(4, 8), np.zeros(4)))
    assert np.max(np.abs(fit.coefficients)) < 1e-12
    assert fit.coefficients.shape == (4,) and not fit.coefficients.flags.writeable
    assert not fit.has_variance


def test_fit_grid_choice_does_not_matter(rng):
    coeffs = rng.uniform(-0.02, 0.02, size=4)
    fits = [
        fit_affine(exact_records(SINGLE_UP0, make_grid(n_t, n_p), coeffs))
        for n_t, n_p in [(2, 3), (3, 4), (5, 7)]
    ]
    for fit in fits:
        assert np.max(np.abs(fit.coefficients - coeffs)) < 1e-10


def test_fit_sampled_chi_square_near_one():
    config = ExperimentConfig(
        PerturbationParams.zero(1e-3), 4, 8, shots=10**6, seed=99
    )
    fits = grouped_fits(sampled_dataset(config))
    for fit in fits:
        assert 0.5 <= fit.chi_square / fit.degrees_of_freedom <= 2.0
        assert fit.has_variance
        assert np.all(np.linalg.eigvalsh(fit.covariance) >= -1e-10)


def test_fit_weight_invariance():
    """Scaling all shots (hence weights) by a constant moves chi2, not coefficients."""
    directions = make_grid(3, 4)
    base, scaled = [], []
    rng = np.random.default_rng(5)
    for d in directions:
        p = ideal_probability(SINGLE_UP0, d)
        shots = 1000
        success = int(rng.binomial(shots, p))
        base.append(
            MeasurementRecord(MeasurementSetting(SINGLE_UP0, d), shots, success, None)
        )
        scaled.append(
            MeasurementRecord(
                MeasurementSetting(SINGLE_UP0, d), shots * 100, success * 100, None
            )
        )
    fit_a, fit_b = fit_affine(base), fit_affine(scaled)
    assert np.max(np.abs(fit_a.coefficients - fit_b.coefficients)) < 1e-12
    assert fit_b.chi_square == pytest.approx(100 * fit_a.chi_square, rel=1e-9)


def test_fit_rejects_rank_deficient_directions():
    from sgkit.instrument import Direction

    # all probes on one meridian: ky column vanishes
    directions = [Direction(0.1 + 0.15 * i, 0.0) for i in range(8)]
    with pytest.raises(RankDeficientFit):
        fit_affine(exact_records(SINGLE_UP0, directions, np.zeros(4)))


def test_fit_rejects_too_few_records():
    directions = make_grid(2, 3)[:4]
    with pytest.raises(RankDeficientFit):
        fit_affine(exact_records(SINGLE_UP0, directions, np.zeros(4)))


def test_fit_rejects_mixed_observables():
    directions = make_grid(2, 3)
    records = exact_records(SINGLE_UP0, directions, np.zeros(4))
    other = ObservableSpec(Protocol.SINGLE, Outcome.DOWN, 0)
    records += exact_records(other, directions, np.zeros(4))
    with pytest.raises(ValueError):
        fit_affine(records)


# --- goodness of fit ----------------------------------------------------------


def test_goodness_exact_data_compatible():
    fits = [fit_affine(exact_records(SINGLE_UP0, make_grid(4, 8), np.zeros(4)))]
    report = goodness_of_fit(fits)
    assert report.chi_square < 1e-20
    assert report.compatible


def test_goodness_sampled_compatible():
    config = ExperimentConfig(PerturbationParams.zero(1e-3), 4, 8, shots=10**6, seed=3)
    report = goodness_of_fit(grouped_fits(sampled_dataset(config)))
    assert report.compatible


def test_goodness_flags_non_affine_deviation():
    """Exact data with a deliberately non-affine deviation must be rejected."""
    records = []
    for d in make_grid(4, 8):
        k = d.unit_vector()
        p = ideal_probability(SINGLE_UP0, d) + 0.2 * k[0] * k[1]
        records.append(
            MeasurementRecord(MeasurementSetting(SINGLE_UP0, d), 0, 0, float(p))
        )
    report = goodness_of_fit([fit_affine(records)])
    assert not report.compatible


# --- recover_parameters ---------------------------------------------------------


def test_recover_identity_system(rng):
    """Row i of an identity system reads coefficient i % 4 of fit i // 4."""
    target = rng.normal(size=16)
    observables = default_observables()[:4]
    fits = [
        FitResult(obs, target[4 * i:4 * i + 4], np.zeros((4, 4)), 0.0, 1)
        for i, obs in enumerate(observables)
    ]
    keys = tuple((obs, j, 1.0) for obs in observables for j in range(4))
    system = LinearSystem(np.eye(16), tuple(PARAM_LABELS), keys)
    result = recover_parameters(fits, system, eta=1.0)
    assert np.max(np.abs(result.parameters - target)) < 1e-12
    assert result.rank == 16
    assert result.nullspace_basis.shape == (0, 16)
    assert result.residual_norm < 1e-12


def _roundtrip(truth_vec, eta, shots, seed):
    config = ExperimentConfig(
        PerturbationParams.from_vector(truth_vec, eta), 4, 8, shots=shots, seed=seed
    )
    dataset = exact_dataset(config) if shots == 0 else sampled_dataset(config)
    fits = grouped_fits(dataset)
    system = design_matrix([fit.observable for fit in fits])
    return fits, recover_parameters(fits, system, eta=eta)


def test_recover_round_trip_exact(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    _, result = _roundtrip(truth, 1e-3, 0, 1)
    row_err = np.linalg.norm(result.row_space_basis @ (result.parameters - truth))
    assert row_err <= 1e-4
    assert result.residual_norm <= 1e-6


def test_recover_gauge_in_nullspace(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    _, result = _roundtrip(truth, 1e-3, 0, 1)
    null = result.nullspace_basis
    for g in gauge_directions():
        unit = g / np.linalg.norm(g)
        inside = null.T @ (null @ unit)
        assert np.linalg.norm(inside - unit) < 1e-10


def test_recover_minimum_norm_and_optimality(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    fits, result = _roundtrip(truth, 1e-3, 0, 1)
    # orthogonal to every nullspace vector
    assert np.max(np.abs(result.nullspace_basis @ result.parameters)) < 1e-10
    # no nullspace-orthogonal nudge may decrease the residual
    system = design_matrix([fit.observable for fit in fits])
    rhs = np.zeros(len(system.rhs_keys))
    by_obs = {fit.observable: fit for fit in fits}
    for i, key in enumerate(system.rhs_keys):
        if key is not None:
            obs, j, factor = key
            rhs[i] = factor * by_obs[obs].coefficients[j] / 1e-3
    best = np.linalg.norm(system.rows @ result.parameters - rhs)
    for _ in range(20):
        nudge = rng.normal(size=16)
        nudge -= result.nullspace_basis.T @ (result.nullspace_basis @ nudge)
        nudge *= 1e-6 / np.linalg.norm(nudge)
        assert np.linalg.norm(system.rows @ (result.parameters + nudge) - rhs) >= best


def test_recover_nullspace_orthonormal(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    _, result = _roundtrip(truth, 1e-3, 0, 1)
    null = result.nullspace_basis
    assert np.max(np.abs(null @ null.T - np.eye(null.shape[0]))) < 1e-10
    assert result.rank + null.shape[0] == 16


def test_recover_nullspace_basis_is_canonical(rng):
    """A rounding-level change of the rows barely moves the reported nullspace
    or row space.

    The four nullspace singular values are all zero, and the row space has
    groups of equal singular values, so an SVD may return any rotation within
    them; the reported bases must not follow it.
    """
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    fits, result = _roundtrip(truth, 1e-3, 0, 1)
    system = design_matrix([fit.observable for fit in fits])
    nudged = LinearSystem(
        system.rows + 1e-14 * rng.normal(size=system.rows.shape),
        system.row_labels, system.rhs_keys,
    )
    moved = recover_parameters(fits, nudged, eta=1e-3)
    assert moved.rank == result.rank == 12
    assert np.max(np.abs(moved.nullspace_basis - result.nullspace_basis)) < 1e-10
    assert np.max(np.abs(moved.row_space_basis - result.row_space_basis)) < 1e-10


def test_recover_sampled_within_standard_errors(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    _, result = _roundtrip(truth, 1e-3, 10**6, 20260810)
    assert result.covariance is not None
    for v in result.row_space_basis:
        se = float(np.sqrt(v @ result.covariance @ v))
        assert abs(v @ (result.parameters - truth)) <= 4.0 * se


def test_recover_missing_fit_is_an_error(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    fits, _ = _roundtrip(truth, 1e-3, 0, 1)
    system = design_matrix([f.observable for f in fits])
    with pytest.raises(ValueError):
        recover_parameters(fits[:-1], system, eta=1e-3)
