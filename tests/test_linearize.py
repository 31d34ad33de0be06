import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgkit.instrument import ideal_instrument, normalization_residual
from sgkit.linearize import (
    ObservableSpec,
    Outcome,
    PARAM_LABELS,
    PerturbationParams,
    Protocol,
    affine_coefficients,
    build_perturbed,
    compare_with_paper,
    default_observables,
    design_matrix,
    first_order_effects,
    gauge_directions,
    linear_response,
    model_probability,
    normalization_rows,
    project_to_constraints,
    transcribed_system,
)

from conftest import random_unit

SRC = Path(__file__).resolve().parent.parent / "src"
SINGLE_UP0 = ObservableSpec(Protocol.SINGLE, Outcome.UP, 0)
ALL_OBSERVABLES = default_observables()


def random_params(rng, scale=1.0):
    return PerturbationParams.from_vector(rng.uniform(-scale, scale, size=16), 0.0)


# --- perturbed construction ----------------------------------------------------


def test_build_perturbed_zero_is_ideal():
    inst = build_perturbed(PerturbationParams.zero())
    ideal = ideal_instrument()
    assert inst.up.alpha == ideal.up.alpha
    assert np.array_equal(inst.up.beta, ideal.up.beta)
    assert np.array_equal(inst.down.beta, ideal.down.beta)


def test_build_perturbed_direct_substitution():
    params = PerturbationParams(1.0, 0.0, np.zeros(3), np.zeros(3), 0.1)
    inst = build_perturbed(params)
    assert inst.up.alpha == pytest.approx(0.6)
    assert inst.down.alpha == pytest.approx(0.5)


def test_build_perturbed_residual_is_first_order(rng):
    for _ in range(20):
        params = random_params(rng)
        inst = build_perturbed(params, eta=1e-3)
        assert normalization_residual(inst) <= 10 * 1e-3


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_perturbation_params_rejects_non_finite(bad):
    for index in range(16):
        vec = np.zeros(16)
        vec[index] = bad
        with pytest.raises(ValueError, match="must be finite"):
            PerturbationParams.from_vector(vec, 0.1)
    with pytest.raises(ValueError, match="eta must be finite"):
        PerturbationParams.zero(bad)


# --- first-order response extraction --------------------------------------------


def test_zero_params_zero_response(rng):
    for obs in ALL_OBSERVABLES:
        k = random_unit(rng)
        assert linear_response(PerturbationParams.zero(), obs, k) == pytest.approx(0.0, abs=1e-14)


def test_response_against_central_difference(rng):
    """Interpolated eta coefficient matches (f(+h) - f(-h)) / 2h.

    The difference is exact for the single protocol (quadratic in eta) and
    carries an h^2 truncation term for the quartic successive protocol.
    """
    h = 1e-4
    cases = [
        (SINGLE_UP0, 1e-8),
        (ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 1), 5e-7),
    ]
    for obs, tol in cases:
        for _ in range(10):
            params = random_params(rng)
            k = random_unit(rng)
            exact = linear_response(params, obs, k)
            fd = (
                model_probability(build_perturbed(params, eta=h), obs, k)
                - model_probability(build_perturbed(params, eta=-h), obs, k)
            ) / (2 * h)
            assert exact == pytest.approx(fd, abs=tol)


def test_response_pure_a_r_up_at_pole():
    params = PerturbationParams.unit(PARAM_LABELS.index("a_r_up"))
    assert linear_response(params, SINGLE_UP0, [0, 0, 1]) == pytest.approx(2.0, abs=1e-12)


def test_constant_part_is_a_r_plus_b_rz(rng):
    for _ in range(10):
        params = random_params(rng)
        coeffs = affine_coefficients(params, SINGLE_UP0)
        expected = params.a_up.real + params.b_up[2].real
        assert coeffs.c0 == pytest.approx(expected, abs=1e-12)


def test_response_linear_in_parameters(rng):
    obs = ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 2)
    for _ in range(10):
        p1, p2 = random_params(rng), random_params(rng)
        summed = PerturbationParams.from_vector(p1.to_vector() + p2.to_vector(), 0.0)
        k = random_unit(rng)
        assert linear_response(summed, obs, k) == pytest.approx(
            linear_response(p1, obs, k) + linear_response(p2, obs, k), abs=1e-12
        )


def test_gauge_directions_have_zero_response(rng):
    for g in gauge_directions():
        params = PerturbationParams.from_vector(g, 0.0)
        for obs in ALL_OBSERVABLES:
            k = random_unit(rng)
            assert abs(linear_response(params, obs, k)) <= 1e-12


def test_response_node_choice_independent(rng):
    params = random_params(rng)
    k = random_unit(rng)
    single_sets = [(-1.0, 0.0, 1.0), (0.0, 0.5, 1.0), (-2.0, -1.0, 0.0, 1.0)]
    values = [linear_response(params, SINGLE_UP0, k, nodes=n) for n in single_sets]
    assert max(values) - min(values) < 1e-12
    succ = ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 0)
    succ_sets = [
        (-2.0, -1.0, 0.0, 1.0, 2.0),
        (-1.0, -0.5, 0.0, 0.5, 1.0),
        (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0),  # one more node than the degree needs
    ]
    values = [linear_response(params, succ, k, nodes=n) for n in succ_sets]
    assert max(values) - min(values) < 1e-12


def test_first_order_accuracy_halving_ratio(rng):
    for i in range(20):
        params = random_params(rng)
        obs = ALL_OBSERVABLES[i % len(ALL_OBSERVABLES)]
        k = random_unit(rng)
        delta = linear_response(params, obs, k)
        f0 = model_probability(build_perturbed(params, eta=0.0), obs, k)
        errs = []
        for eta in (1e-2, 5e-3):
            f = model_probability(build_perturbed(params, eta=eta), obs, k)
            errs.append(abs(f - f0 - eta * delta))
        if errs[0] > 1e-13:
            assert 3.5 <= errs[0] / errs[1] <= 4.5


# --- affine coefficients ----------------------------------------------------------


def test_affine_zero_params():
    coeffs = affine_coefficients(PerturbationParams.zero(), SINGLE_UP0)
    assert np.allclose(coeffs.as_array(), 0.0, atol=1e-14)


def test_affine_unit_b_rx_up():
    params = PerturbationParams.unit(PARAM_LABELS.index("b_rx_up"))
    coeffs = affine_coefficients(params, SINGLE_UP0)
    assert np.allclose(coeffs.as_array(), [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_affine_unit_a_r_up():
    params = PerturbationParams.unit(PARAM_LABELS.index("a_r_up"))
    coeffs = affine_coefficients(params, SINGLE_UP0)
    assert np.allclose(coeffs.as_array(), [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_closed_form_matches_interpolation_oracle(rng):
    """Every observable's closed-form block equals the interpolated response."""
    for protocol in Protocol:
        for outcome in Outcome:
            for m in range(3):
                obs = ObservableSpec(protocol, outcome, m)
                for _ in range(2):
                    k = random_unit(rng)
                    basis = np.array([1.0, *k])
                    for i in range(16):
                        unit = PerturbationParams.unit(i)
                        closed = affine_coefficients(unit, obs).as_array() @ basis
                        assert abs(closed - linear_response(unit, obs, k)) < 1e-12, (obs, i)


def test_design_matrix_needs_no_probability_evaluation():
    """With probability evaluation patched to raise, the design system still builds.

    Runs in a fresh interpreter, so nothing an earlier test computed can
    stand in for the build.
    """
    code = (
        "import sgkit.linearize as lin\n"
        "def forbidden(*args, **kwargs):\n"
        "    raise AssertionError('the design system evaluated a model probability')\n"
        "lin.model_probability = lin.linear_response = forbidden\n"
        "rows = lin.design_matrix(lin.default_observables()).rows\n"
        "assert rows.shape == (48, 16), rows.shape\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.strip()


# --- design matrix ----------------------------------------------------------------


def test_design_matrix_no_observables_keeps_constraints():
    system = design_matrix(())
    assert system.rows.shape == (12, 16)
    assert all(key is None for key in system.rhs_keys)
    assert np.allclose(system.rows @ np.zeros(16), 0.0)


def test_constraint_rows_annihilate_gauge():
    rows = normalization_rows()
    for g in gauge_directions():
        assert np.max(np.abs(rows @ g)) < 1e-12


def test_gauge_in_full_system_nullspace():
    system = design_matrix(ALL_OBSERVABLES)
    sigma_max = np.linalg.svd(system.rows, compute_uv=False)[0]
    for g in gauge_directions():
        unit = g / np.linalg.norm(g)
        assert np.linalg.norm(system.rows @ unit) <= 1e-10 * sigma_max


def test_constant_row_support():
    system = design_matrix([SINGLE_UP0])
    row = system.rows[system.row_labels.index("single/m0/up:c0")]
    expected = np.zeros(16)
    expected[PARAM_LABELS.index("a_r_up")] = 1.0
    expected[PARAM_LABELS.index("b_rz_up")] = 1.0
    assert np.allclose(row, expected, atol=1e-12)


def test_constraint_satisfying_params_normalize_quadratically(rng):
    for _ in range(10):
        params_vec = project_to_constraints(rng.uniform(-1.0, 1.0, size=16))
        resid = []
        for eta in (1e-2, 5e-3):
            inst = build_perturbed(PerturbationParams.from_vector(params_vec, eta))
            resid.append(normalization_residual(inst))
        assert resid[0] <= 4.6 * resid[1] + 1e-15  # quadratic decay in eta


# --- first-order effects -----------------------------------------------------------


def test_first_order_effects_ideal_limit():
    up, down = first_order_effects(PerturbationParams.zero())
    assert up.weight == pytest.approx(0.5) and np.allclose(up.xi, [0, 0, 1])
    assert down.weight == pytest.approx(0.5) and np.allclose(down.xi, [0, 0, -1])


def test_first_order_effect_weight_shift(rng):
    for _ in range(10):
        params = PerturbationParams.from_vector(rng.uniform(-1, 1, 16), 1e-3)
        up, _ = first_order_effects(params)
        expected = 0.5 + params.eta * (params.a_up.real + params.b_up[2].real)
        assert up.weight == pytest.approx(expected, abs=1e-15)


def test_first_order_effects_quadratic_remainder(rng):
    from sgkit.instrument import effect_of

    for _ in range(10):
        vec = rng.uniform(-1.0, 1.0, size=16)
        errs = []
        for eta in (1e-2, 5e-3):
            params = PerturbationParams.from_vector(vec, eta)
            truncated = first_order_effects(params)
            inst = build_perturbed(params)
            full = (effect_of(inst.up), effect_of(inst.down))
            err = 0.0
            for t, f in zip(truncated, full):
                err = max(err, abs(t.weight - f.weight))
                err = max(err, float(np.max(np.abs(t.weight * t.xi - f.weight * f.xi))))
            errs.append(err)
        assert 3.5 <= errs[0] / errs[1] <= 4.5


# --- comparison with the transcribed reference system ------------------------------


def test_transcribed_system_shape():
    system = transcribed_system()
    assert system.rows.shape == (13, 16)
    assert sum(key is None for key in system.rhs_keys) == 3


GOLDEN_VERDICTS = [
    ("normalization", "(a_r + b_rz)_up + (a_r + b_rz)_down = 0", "SignDiscrepancy"),
    ("normalization", "(b_rx - b_iy)_up + (b_rx - b_iy)_down = 0", "SignDiscrepancy"),
    ("normalization", "(b_ry + b_ix)_up + (b_ry + b_ix)_down = 0", "SignDiscrepancy"),
    ("identification", "a_r_up + b_rz_up = c0[single/m0/up]", "Confirmed"),
    ("identification", "b_rx_up - b_iy_up = c2[single/m0/up]", "StructureDiscrepancy"),
    ("identification", "b_ry_up + b_ix_up = c3[single/m0/up]", "StructureDiscrepancy"),
    ("successive", "(a_r + b_rz + b_iy)_up + b_iy_down = c0[successive/m0/up]", "StructureDiscrepancy"),
    ("successive", "(a_r + b_rz - b_ix)_up - b_ix_down = c0[successive/m1/up]", "StructureDiscrepancy"),
    ("successive", "a_r_up + b_ry_up = c0[successive/m2/up]", "StructureDiscrepancy"),
    ("successive", "b_iy_up + b_iy_down = 2*c0[successive/m0/up]", "StructureDiscrepancy"),
    ("successive", "b_ix_up + b_ix_down = 2*c0[successive/m1/up]", "StructureDiscrepancy"),
    ("successive", "(a_r - b_rz)_up + (a_r - b_rz)_down = 2*c1[successive/m0/up]", "StructureDiscrepancy"),
    ("successive", "(a_i - b_iz)_up + (a_i - b_iz)_down = 2*c1[successive/m1/up]", "StructureDiscrepancy"),
]

GOLDEN_GENERATED = {
    "(a_r + b_rz)_up + (a_r + b_rz)_down = 0": "a_r_up + b_rz_up + a_r_down - b_rz_down = 0  [norm/m0:c0]",
    "a_r_up + b_rz_up = c0[single/m0/up]": "a_r_up + b_rz_up = c0[single/m0/up]",
    "b_rx_up - b_iy_up = c2[single/m0/up]": "b_ry_up + b_ix_up = c2[single/m0/up]",
    "(a_r + b_rz + b_iy)_up + b_iy_down = c0[successive/m0/up]": "2*a_r_up + 2*b_rz_up = c0[successive/m0/up]",
    "(a_r - b_rz)_up + (a_r - b_rz)_down = 2*c1[successive/m0/up]": "2*b_rx_up - 2*b_iy_up = 2*c1[successive/m0/up]",
}


def test_comparison_report_golden():
    report = compare_with_paper()
    got = [(e.group, e.reference, e.verdict) for e in report.entries]
    assert got == GOLDEN_VERDICTS
    by_ref = {e.reference: e.generated for e in report.entries}
    for ref, generated in GOLDEN_GENERATED.items():
        assert by_ref[ref] == generated
    assert all(e.generated for e in report.entries)
    assert len(report.notes) == 2
    text = report.to_text()
    assert "Confirmed" in text and "SignDiscrepancy" in text
