"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run pytest -s to see them);
a failed assertion fails the criterion.
"""

import math
import time
from pathlib import Path

import numpy as np

from sgkit.cli import main
from sgkit.estimate import fit_affine, goodness_of_fit, recover_parameters
from sgkit.experiment import exact_dataset, sampled_dataset, ExperimentConfig
from sgkit.instrument import (
    BlochState,
    KrausOperator,
    RotationSpec,
    cyclic_rotation,
    effect_of,
    exact_normalize,
    ideal_instrument,
    nonselective_apply,
    normalization_residual,
    probability,
    rotate_kraus,
    selective_apply,
)
from sgkit.linearize import (
    ObservableSpec,
    Outcome,
    PerturbationParams,
    Protocol,
    build_perturbed,
    compare_with_paper,
    default_observables,
    design_matrix,
    gauge_directions,
    linear_response,
    model_probability,
)

from conftest import (
    bloch_of,
    from_matrix,
    kraus_mat,
    project_to_constraints,
    random_instrument,
    random_pair,
    random_state,
    random_unit,
    rotation_unitary,
    state_mat,
)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = [REPO / "configs" / "exact.json", REPO / "configs" / "sampled.json"]


def _passed(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_1_matrix_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    states = [random_state(rng) for _ in range(100)]
    for i in range(1000):
        inst = random_instrument(rng)
        state = states[i % 100]
        rho = state_mat(state)
        for branch in inst.branches:
            a = kraus_mat(branch)
            eff = effect_of(branch)
            f = a @ a.conj().T
            assert abs(eff.weight - 0.5 * np.trace(f).real) < 1e-12
            assert np.max(np.abs(eff.weight * eff.xi - 0.5 * bloch_of(f))) < 1e-12
            for j in range(10):
                probe = states[(i + 7 * j) % 100]
                expected = np.trace(state_mat(probe) @ f).real
                assert abs(probability(branch, probe) - expected) < 1e-12
            prob, post = selective_apply(branch, state)
            assert abs(prob - np.trace(rho @ f).real) < 1e-12
            if post is not None:
                sel = a.conj().T @ rho @ a
                assert np.max(np.abs(post.r - bloch_of(sel / np.trace(sel).real))) < 1e-12
        out = nonselective_apply(inst, state)
        total = sum(kraus_mat(b).conj().T @ rho @ kraus_mat(b) for b in inst.branches)
        assert np.max(np.abs(out.r - bloch_of(total / np.trace(total).real))) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(1, "matrix-oracle equivalence")


def test_criterion_2_ideal_instrument_physics():
    inst = ideal_instrument()
    rng = np.random.default_rng(102)
    for _ in range(100):
        state = random_state(rng)
        kz = state.r[2]
        assert abs(probability(inst.up, state) - 0.5 * (1.0 + kz)) <= 1e-14
        post = nonselective_apply(inst, state)
        assert np.max(np.abs(post.r - np.array([0.0, 0.0, kz]))) <= 1e-14
        # successive up after the non-selective pass, then a conditional repeat
        succ = model_probability(inst, ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 0), state.r)
        assert abs(succ - 0.5 * (1.0 + kz)) <= 1e-14
        prob, sel = selective_apply(inst.up, state)
        if sel is not None:
            assert abs(probability(inst.up, sel) - 1.0) <= 1e-12
    _passed(2, "ideal-instrument physics")


def test_criterion_3_rotation_suite():
    rng = np.random.default_rng(103)
    # cyclic permutation identity
    for _ in range(100):
        beta = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = KrausOperator(0.4, beta)
        assert np.max(np.abs(rotate_kraus(k, cyclic_rotation(1)).beta - beta[[2, 0, 1]])) < 1e-12
        assert np.max(np.abs(rotate_kraus(k, cyclic_rotation(2)).beta - beta[[1, 2, 0]])) < 1e-12
    # closed form vs conjugation on 1000 random (beta, axis, angle)
    for _ in range(1000):
        k = KrausOperator(
            complex(rng.normal(), rng.normal()),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        u = rotation_unitary(rot)
        expected = from_matrix(u.conj().T @ kraus_mat(k) @ u)
        closed = rotate_kraus(k, rot)
        assert abs(closed.alpha - expected[0]) < 1e-12
        assert np.max(np.abs(closed.beta - expected[1:])) < 1e-12
    # covariance at the probability level
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        rot = RotationSpec(random_unit(rng), rng.uniform(-2 * math.pi, 2 * math.pi))
        u = rotation_unitary(rot)
        rotated = BlochState(bloch_of(u @ state_mat(state) @ u.conj().T))
        for branch in inst.branches:
            assert abs(
                probability(rotate_kraus(branch, rot), state) - probability(branch, rotated)
            ) < 1e-12
    _passed(3, "rotation suite")


def test_criterion_4_normalization():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        inst = exact_normalize(random_pair(rng))
        assert normalization_residual(inst) < 1e-12
        state = random_state(rng)
        total = probability(inst.up, state) + probability(inst.down, state)
        assert abs(total - 1.0) < 1e-12
    _passed(4, "normalization")


def test_criterion_5_gauge_invariance_and_identifiability():
    rng = np.random.default_rng(105)
    for _ in range(200):
        inst = random_instrument(rng)
        state = random_state(rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        twisted = KrausOperator(phase * inst.up.alpha, phase * inst.up.beta)
        assert abs(probability(twisted, state) - probability(inst.up, state)) <= 1e-12
        eff_a, eff_b = effect_of(inst.up), effect_of(twisted)
        assert abs(eff_a.weight - eff_b.weight) <= 1e-12
        assert np.max(np.abs(eff_a.xi - eff_b.xi)) <= 1e-12
        _, post_a = selective_apply(inst.up, state)
        _, post_b = selective_apply(twisted, state)
        if post_a is not None:
            assert np.max(np.abs(post_a.r - post_b.r)) <= 1e-12
    system = design_matrix(default_observables())
    sigma_max = np.linalg.svd(system.rows, compute_uv=False)[0]
    for g in gauge_directions():
        unit = g / np.linalg.norm(g)
        assert np.linalg.norm(system.rows @ unit) <= 1e-10 * sigma_max
    _passed(5, "gauge invariance and identifiability")


def test_criterion_6_linearization_ratio():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    observables = default_observables()
    for i in range(100):
        params = PerturbationParams.from_vector(rng.uniform(-1.0, 1.0, size=16), 0.0)
        for obs in (observables[i % 6], observables[6 + i % 3]):  # one single, one successive
            k = random_unit(rng)
            delta = linear_response(params, obs, k)
            f0 = model_probability(build_perturbed(params, eta=0.0), obs, k)
            errs = []
            for eta in (1e-2, 5e-3):
                f = model_probability(build_perturbed(params, eta=eta), obs, k)
                errs.append(abs(f - f0 - eta * delta))
            if errs[0] > 1e-13:
                assert 3.5 <= errs[0] / errs[1] <= 4.5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(6, "linearization ratio test")


def _grouped_fits(dataset):
    groups = {}
    for rec in dataset.records:
        groups.setdefault(rec.setting.observable, []).append(rec)
    return [fit_affine(records) for records in groups.values()]


def test_criterion_7_round_trip_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    truth = project_to_constraints(rng.uniform(-0.08, 0.08, size=16))
    eta = 1e-3
    config = ExperimentConfig(
        PerturbationParams.from_vector(truth, eta), 4, 8, shots=0, seed=107
    )
    fits = _grouped_fits(exact_dataset(config))
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
        PerturbationParams.from_vector(truth, eta), 4, 8, shots=10**6, seed=20260810
    )
    fits = _grouped_fits(sampled_dataset(config))
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
    assert len(report.entries) == 13
    groups = [e.group for e in report.entries]
    assert groups.count("normalization") == 3
    assert groups.count("identification") == 3
    assert groups.count("successive") == 7
    by_ref = {e.reference: e for e in report.entries}
    confirmed = by_ref["a_r_up + b_rz_up = c0[single/m0/up]"]
    assert confirmed.verdict == "Confirmed"
    for entry in report.entries:
        assert entry.verdict in ("Confirmed", "SignDiscrepancy", "StructureDiscrepancy")
        assert entry.generated  # every discrepancy carries the generated counterpart
    structured = report.to_dict()
    assert [e["verdict"] for e in structured["entries"]] == [e.verdict for e in report.entries]
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
