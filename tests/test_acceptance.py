"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 1-6 run the batched checks of ``sgkit verify`` (``sgkit.verify``) at
their own sample counts; 7-10 run the round trips, the reference-fidelity
report and the CLI.  Each test prints a single PASS line on success (run
pytest -s to see them); a failed assertion fails the criterion.
"""

import json
import time
from pathlib import Path

import numpy as np

from sgkit import verify
from sgkit.cli import _fit_dataset, main
from sgkit.estimate import goodness_of_fit, recover_parameters
from sgkit.experiment import ExperimentConfig, generate_dataset
from sgkit.linearize import PerturbationParams, Protocol, compare_with_paper, design_matrix

from conftest import project_to_constraints

REPO = Path(__file__).resolve().parent.parent
CONFIGS = [REPO / "configs" / "exact.json", REPO / "configs" / "sampled.json"]


def _passed(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_1_matrix_oracle_equivalence():
    # 1000 instruments: both effects, 2 x 11 probabilities, both selective
    # updates and the non-selective update of each, against 2x2 matrices
    start = time.perf_counter()
    verify.check_matrix_oracle(n=1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(1, "matrix-oracle equivalence")


def test_criterion_2_ideal_instrument_physics():
    verify.check_ideal_physics(n=100)
    _passed(2, "ideal-instrument physics")


def test_criterion_3_rotation_suite():
    verify.check_cyclic_permutation(n=100)
    verify.check_rotation_conjugation(n=1000)
    verify.check_rotation_covariance(n=200)
    _passed(3, "rotation suite")


def test_criterion_4_normalization():
    verify.check_exact_normalize(n=1000)
    verify.check_probability_completeness(n=1000)
    _passed(4, "normalization")


def test_criterion_5_gauge_invariance_and_identifiability():
    verify.check_gauge_invariance(n=200)
    verify.check_gauge_nullspace()
    _passed(5, "gauge invariance and identifiability")


def test_criterion_6_linearization_ratio():
    # 200 random parameter sets, cycling through the 9 default observables
    start = time.perf_counter()
    verify.check_linearization_ratio(n=200)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(6, "linearization ratio test")


def test_criterion_7_round_trip_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    eta = 1e-3
    config = ExperimentConfig(
        PerturbationParams.from_vector(truth, eta), 4, 8, tuple(Protocol), shots=0, seed=107,
        strict_normalization=False,
    )
    fits = _fit_dataset(generate_dataset(config))
    system = design_matrix([fit.observable for fit in fits])
    result = recover_parameters(fits, system, eta=eta)
    row_err = np.linalg.norm(result.row_space_basis @ (result.parameters - truth))
    assert row_err <= 1e-4
    assert result.residual_norm <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(7, "round-trip recovery, exact statistics")


def test_criterion_8_round_trip_sampled():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    eta = 1e-3
    config = ExperimentConfig(
        PerturbationParams.from_vector(truth, eta), 4, 8, tuple(Protocol), shots=10**6, seed=20260810,
        strict_normalization=False,
    )
    fits = _fit_dataset(generate_dataset(config))
    quality = goodness_of_fit(fits)
    assert quality.compatible
    system = design_matrix([fit.observable for fit in fits])
    result = recover_parameters(fits, system, eta=eta)
    assert result.covariance is not None
    for v in result.row_space_basis:
        se = float(np.sqrt(v @ result.covariance @ v))
        assert abs(v @ (result.parameters - truth)) <= 4.0 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(8, "round-trip recovery, sampled statistics")


def test_criterion_9_reference_fidelity_report():
    report = compare_with_paper()
    entries = report["entries"]
    assert len(entries) == 13
    groups = [e["group"] for e in entries]
    assert groups.count("normalization") == 3
    assert groups.count("identification") == 3
    assert groups.count("successive") == 7
    by_ref = {e["paper_equation"]: e for e in entries}
    confirmed = by_ref["a_r_up + b_rz_up = c0[single/m0/up]"]
    assert confirmed["verdict"] == "Confirmed"
    for entry in entries:
        assert entry["verdict"] in ("Confirmed", "SignDiscrepancy", "StructureDiscrepancy")
        assert entry["generated_row"]  # every discrepancy carries the generated counterpart
    assert json.loads(json.dumps(report)) == report
    _passed(9, "reference-fidelity report")


def test_criterion_10_cli_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(CONFIGS[1]), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(CONFIGS[1]), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    for config in CONFIGS:
        report = tmp_path / f"rt_{config.stem}.json"
        assert main(["roundtrip", "--config", str(config), "--out", str(report)]) == 0
    _passed(10, "CLI determinism and bundled round trips")
