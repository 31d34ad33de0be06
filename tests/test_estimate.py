import dataclasses
import importlib

import numpy as np
import pytest

import sgkit.cli
from sgkit.cli import _fit_dataset
from sgkit.estimate import (
    FitResult,
    RankDeficientFit,
    RecoveryResult,
    fit_affine,
    goodness_of_fit,
    recover_parameters,
)
from sgkit.experiment import (
    ExperimentConfig,
    MeasurementRecord,
    MeasurementSetting,
    generate_dataset,
    make_grid,
)
from sgkit.instrument import BlochState, RotationSpec, ideal_instrument
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


def unit_vectors(directions) -> np.ndarray:
    return np.array([d.unit_vector() for d in directions])


def exact_records(observable, directions, coefficients):
    """Records whose deviation from the ideal model is exactly affine."""
    records = []
    k = unit_vectors(directions)
    for d, row, ideal in zip(directions, k, ideal_probability(observable, k)):
        p = ideal + coefficients @ np.array([1.0, *row])
        records.append(
            MeasurementRecord(MeasurementSetting(observable, d), 0, 0, float(p))
        )
    return records


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
    fits = _fit_dataset(generate_dataset(config))
    for fit in fits:
        assert 0.5 <= fit.chi_square / fit.degrees_of_freedom <= 2.0
        assert fit.has_variance
        assert np.all(np.linalg.eigvalsh(fit.covariance) >= -1e-10)


def test_fit_weight_invariance():
    """Scaling all shots (hence weights) by a constant moves chi2, not coefficients."""
    directions = make_grid(3, 4)
    base, scaled = [], []
    rng = np.random.default_rng(5)
    for d, p in zip(directions, ideal_probability(SINGLE_UP0, unit_vectors(directions))):
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


def test_fit_rejects_mixed_exact_and_sampled_records():
    """An exact record's weight of 1 beside binomial weights of about 4e6 would
    drop it from the fit unseen, so the two kinds never share a fit."""
    records = exact_records(SINGLE_UP0, make_grid(3, 4), np.zeros(4))
    records[0] = MeasurementRecord(records[0].setting, 10**6, 500_000, None)
    with pytest.raises(ValueError, match="single/m0/up: records mix exact and sampled data"):
        fit_affine(records)


# --- goodness of fit ----------------------------------------------------------


def test_goodness_exact_data_compatible():
    fits = [fit_affine(exact_records(SINGLE_UP0, make_grid(4, 8), np.zeros(4)))]
    report = goodness_of_fit(fits)
    assert report.chi_square < 1e-20
    assert report.compatible


def test_goodness_sampled_compatible():
    config = ExperimentConfig(PerturbationParams.zero(1e-3), 4, 8, shots=10**6, seed=3)
    report = goodness_of_fit(_fit_dataset(generate_dataset(config)))
    assert report.compatible


def test_goodness_flags_non_affine_deviation():
    """Exact data with a deliberately non-affine deviation must be rejected."""
    records = []
    grid = make_grid(4, 8)
    k = unit_vectors(grid)
    for d, row, ideal in zip(grid, k, ideal_probability(SINGLE_UP0, k)):
        p = ideal + 0.2 * row[0] * row[1]
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


def test_recover_without_degrees_of_freedom_reports_no_chi_square(rng):
    """Four sampled data rows and two constraint rows have rank 6: no degree of
    freedom is left, so neither a chi-square nor a dof is reported."""
    fit = FitResult(SINGLE_UP0, rng.normal(size=4), 1e-6 * np.eye(4), 1.0, 1)
    keys = (*((SINGLE_UP0, j, 1.0) for j in range(4)), None, None)
    system = LinearSystem(np.eye(16)[:6], tuple(f"row {i}" for i in range(6)), keys)
    result = recover_parameters([fit], system, eta=1e-3)
    assert result.rank == 6
    assert result.chi_square is None and result.degrees_of_freedom is None
    assert result.covariance is not None


def _roundtrip(truth_vec, eta, shots, seed):
    config = ExperimentConfig(
        PerturbationParams.from_vector(truth_vec, eta), 4, 8, shots=shots, seed=seed
    )
    dataset = generate_dataset(config)
    fits = _fit_dataset(dataset)
    system = design_matrix([fit.observable for fit in fits])
    return fits, recover_parameters(fits, system, eta=eta)


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


def test_recover_missing_fit_is_an_error(rng):
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    fits, _ = _roundtrip(truth, 1e-3, 0, 1)
    system = design_matrix([f.observable for f in fits])
    with pytest.raises(ValueError):
        recover_parameters(fits[:-1], system, eta=1e-3)


@pytest.mark.parametrize("system_of", list(sgkit.cli.CONSTRAINTS.values()), ids=list(sgkit.cli.CONSTRAINTS))
def test_recover_covariance_propagates_each_fit_covariance(rng, system_of):
    """Rows read from one fit are correlated through its 4x4 covariance, scaled by
    their factors (2 in some paper rows) over eta; rows of different fits are not."""
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    eta = 1e-3
    fits, _ = _roundtrip(truth, eta, 10**6, 20260810)
    system = system_of([fit.observable for fit in fits])
    by_observable = {fit.observable: fit for fit in fits}
    n = len(system.rhs_keys)
    cov_rhs = np.zeros((n, n))
    for i, key_i in enumerate(system.rhs_keys):
        for k, key_k in enumerate(system.rhs_keys):
            if key_i is not None and key_k is not None and key_i[0] == key_k[0]:
                covariance = by_observable[key_i[0]].covariance[key_i[1], key_k[1]]
                cov_rhs[i, k] = key_i[2] * key_k[2] * covariance / eta ** 2
    pseudo = np.linalg.pinv(system.rows, rcond=1e-10)
    result = recover_parameters(fits, system, eta=eta)
    expected = pseudo @ cov_rhs @ pseudo.T
    assert np.max(np.abs(result.covariance - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_recovery_result_arrays_are_read_only():
    _, result = _roundtrip(np.zeros(16), 1e-3, 1000, 7)
    for array in (result.parameters, result.nullspace_basis, result.row_space_basis, result.covariance):
        assert array.flags.writeable is False
    with pytest.raises(ValueError):
        result.parameters[0] = 1.0


def test_every_dataclass_is_frozen_and_checks_or_freezes_what_it_holds():
    """A value type that checks nothing is a NamedTuple; a dataclass is frozen and has its own ``__post_init__``."""
    names = ("cli", "experiment", "estimate", "linearize", "instrument", "fields")
    unchecked = [
        cls.__name__
        for module in (importlib.import_module(f"sgkit.{name}") for name in names)
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        and not (cls.__dataclass_params__.frozen and "__post_init__" in vars(cls))
    ]
    assert unchecked == []


def _recovery_result():
    return RecoveryResult(np.zeros(16), 0, np.eye(16), np.zeros((0, 16)), 0.0, None, None, None)


@pytest.mark.parametrize(
    "make",
    [
        ideal_instrument,
        lambda: ideal_instrument().up,
        lambda: BlochState(np.array([0.0, 0.0, 1.0])),
        lambda: RotationSpec(np.array([1.0, 0.0, 0.0]), 0.5),
        lambda: PerturbationParams.from_vector(np.ones(16), 1e-3),
        lambda: design_matrix(default_observables()),
        lambda: FitResult(SINGLE_UP0, np.zeros(4), np.zeros((4, 4)), 0.0, 1),
        _recovery_result,
        lambda: ExperimentConfig(PerturbationParams.from_vector(np.ones(16), 1e-3)),
    ],
    ids=[
        "Instrument", "KrausOperator", "BlochState", "RotationSpec", "PerturbationParams", "LinearSystem",
        "FitResult", "RecoveryResult", "ExperimentConfig",
    ],
)
def test_array_holders_compare_and_hash(make):
    """``==`` of two equal-valued objects is a bool, not an array's ambiguous truth value."""
    a, b = make(), make()
    assert isinstance(a == b, bool) and a == a
    assert isinstance(hash(a), int)
