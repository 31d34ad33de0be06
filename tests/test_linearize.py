import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgkit import estimate, experiment, linearize
from sgkit.cli import load_config
from sgkit.instrument import (
    Instrument,
    KrausOperator,
    RotationSpec,
    bloch_array,
    effect_array,
    ideal_instrument,
    residual_array,
)
from sgkit.linearize import (
    OBSERVABLES,
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
    gauge_directions,
    ideal_coefficients,
    linear_response,
    model_probabilities,
    model_probability,
    perturbed_probabilities,
    transcribed_system,
)
from sgkit.linearize import _combination, _rhs_key
from sgkit.verify import _random_states, _random_units

from conftest import project_to_constraints

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SINGLE_UP0 = ObservableSpec(Protocol.SINGLE, Outcome.UP, 0)
ALL_OBSERVABLES = default_observables()


def random_params(rng, scale=1.0):
    return PerturbationParams.from_vector(rng.uniform(-scale, scale, size=16), 0.0)


def perturbed_at(params, eta):
    """``build_perturbed`` with the scale ``eta``, which may be negative:
    (-eta) * (-a) is eta * a, bit for bit."""
    if eta < 0:
        params, eta = PerturbationParams.from_vector(-params.to_vector(), 0.0), -eta
    return build_perturbed(replace(params, eta=eta))


# --- perturbed construction ----------------------------------------------------


def test_build_perturbed_zero_is_ideal():
    inst = build_perturbed(PerturbationParams.from_vector(np.zeros(16), 0.0))
    ideal = ideal_instrument()
    assert inst.up.alpha == ideal.up.alpha
    assert np.array_equal(inst.up.beta, ideal.up.beta)
    assert np.array_equal(inst.down.beta, ideal.down.beta)


def test_build_perturbed_direct_substitution():
    params = PerturbationParams([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], 0.1)
    inst = build_perturbed(params)
    assert inst.up.alpha == pytest.approx(0.6)
    assert inst.down.alpha == pytest.approx(0.5)


def test_build_perturbed_residual_is_first_order(rng):
    for _ in range(20):
        params = random_params(rng)
        inst = perturbed_at(params, 1e-3)
        assert residual_array(inst.as_array()) <= 10 * 1e-3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_perturbation_params_rejects_non_finite(bad):
    for index in range(16):
        vec = np.zeros(16)
        vec[index] = bad
        with pytest.raises(ValueError, match="must be finite"):
            PerturbationParams.from_vector(vec, 0.1)
    with pytest.raises(ValueError, match="eta must be finite"):
        PerturbationParams.from_vector(np.zeros(16), bad)


def test_perturbation_params_rejects_other_shapes():
    with pytest.raises(ValueError, match=r"shape \(2, 4\)"):
        PerturbationParams(np.zeros((4, 2)), 0.1)


@settings(deadline=None, max_examples=200)
@given(vector=arrays(float, 16, elements=st.floats(-1e3, 1e3)), eta=st.floats(0.0, 1e3))
def test_property_perturbation_array_holds_the_vector(vector, eta):
    """``to_vector`` returns the vector bit for bit, and ``build_perturbed``
    is alpha = 1/2 + eta*a, beta = +-e_z/2 + eta*b per branch, bit for bit up
    to the sign of a zero (``+ 0.0`` maps -0.0 to 0.0 and keeps every other value)."""
    params = PerturbationParams.from_vector(vector, eta)
    assert params.to_vector().tobytes() == vector.tobytes()
    assert params.array.shape == (2, 4) and not params.array.flags.writeable
    e_z = np.array([0.0, 0.0, 0.5])
    branches = []
    for v, sign in ((vector[:8], 1.0), (vector[8:], -1.0)):
        a, b = complex(v[0], v[1]), v[2:5] + 1j * v[5:8]
        branches.append([0.5 + eta * a, *(sign * e_z + eta * b)])
    got = build_perturbed(params).as_array() + 0.0
    assert got.tobytes() == (np.array(branches) + 0.0).tobytes()


# --- first-order response extraction --------------------------------------------


def test_zero_params_zero_response(rng):
    zero = PerturbationParams.from_vector(np.zeros(16), 0.0)
    for obs, k in zip(ALL_OBSERVABLES, _random_units(rng, len(ALL_OBSERVABLES))):
        assert linear_response(zero, obs, k) == pytest.approx(0.0, abs=1e-14)


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
        for k in _random_units(rng, 10):
            params = random_params(rng)
            exact = linear_response(params, obs, k)
            fd = (
                model_probability(perturbed_at(params, h), obs, k)
                - model_probability(perturbed_at(params, -h), obs, k)
            ) / (2 * h)
            assert exact == pytest.approx(fd, abs=tol)


def test_response_pure_a_r_up_at_pole():
    params = PerturbationParams.from_vector(np.eye(16)[PARAM_LABELS.index("a_r_up")], 0.0)
    assert linear_response(params, SINGLE_UP0, [0, 0, 1]) == pytest.approx(2.0, abs=1e-12)


def test_constant_part_is_a_r_plus_b_rz(rng):
    for _ in range(10):
        params = random_params(rng)
        coeffs = affine_coefficients(params, SINGLE_UP0)
        expected = params.array[0, 0].real + params.array[0, 3].real
        assert coeffs[0] == pytest.approx(expected, abs=1e-12)


def test_response_linear_in_parameters(rng):
    obs = ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 2)
    for k in _random_units(rng, 10):
        p1, p2 = random_params(rng), random_params(rng)
        summed = PerturbationParams.from_vector(p1.to_vector() + p2.to_vector(), 0.0)
        assert linear_response(summed, obs, k) == pytest.approx(
            linear_response(p1, obs, k) + linear_response(p2, obs, k), abs=1e-12
        )


def test_gauge_directions_have_zero_response(rng):
    for g in gauge_directions():
        params = PerturbationParams.from_vector(g, 0.0)
        for obs, k in zip(ALL_OBSERVABLES, _random_units(rng, len(ALL_OBSERVABLES))):
            assert abs(linear_response(params, obs, k)) <= 1e-12


# The eta sets of `sgkit verify`: its linearization ratio and its interpolation nodes.
VERIFY_NODE_SETS = (
    (0.0, 1e-2, 5e-3),
    (-1.0, 0.0, 1.0),
    (0.0, 0.5, 1.0),
    (-2.0, -1.0, 0.0, 1.0),
    (-2.0, -1.0, 0.0, 1.0, 2.0),
    (-1.0, -0.5, 0.0, 0.5, 1.0),
    (-3.0, -1.5, 0.0, 1.0, 2.0, 3.0),
)


@settings(deadline=None, max_examples=100)
@given(
    vector=arrays(float, 16, elements=st.floats(-1e3, 1e3)),
    obs=st.sampled_from(OBSERVABLES),
    direction=arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
    etas=st.one_of(
        st.sampled_from(VERIFY_NODE_SETS), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7)
    ),
)
def test_property_perturbed_probabilities_equal_per_eta_calls(vector, obs, direction, etas):
    """The stacked evaluation is the per-eta object path, bit for bit."""
    params = PerturbationParams.from_vector(vector, 0.0)
    k = direction / np.linalg.norm(direction)
    stacked = perturbed_probabilities(params, obs, k, etas)
    expected = np.array([model_probability(perturbed_at(params, eta), obs, k) for eta in etas])
    assert stacked.tobytes() == expected.tobytes()


def test_perturbed_probabilities_raise_like_per_eta_calls():
    """An instrument that overflows and a direction outside the Bloch ball are
    ValueErrors on both paths (the overflow's own warning is not the subject)."""
    huge = PerturbationParams.from_vector(np.full(16, 1e308), 0.0)
    pole = np.array([0.0, 0.0, 1.0])
    for params, k in ((huge, pole), (PerturbationParams.from_vector(np.zeros(16), 0.0), 2.0 * pole)):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            model_probability(perturbed_at(params, 10.0), SINGLE_UP0, k)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            perturbed_probabilities(params, SINGLE_UP0, k, (0.0, 10.0))


@pytest.mark.parametrize("obs", OBSERVABLES, ids=ObservableSpec.label)
def test_rotation_overflow_raises_on_both_paths(obs):
    """A finite instrument whose rotation overflows (n . beta exceeds the float
    range inside ``rotate_array``) is a ValueError on both paths."""
    big = 1.7e308
    inst = Instrument(KrausOperator(0.5, (big, big, big)), KrausOperator(0.5, (big, big, big)))
    params = PerturbationParams.from_vector([0.0, 0.0, big, big, big, 0.0, 0.0, 0.0] * 2, 0.0)
    pole = np.array([0.0, 0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(perturbed_at(params, 1.0).as_array()).all()
        with pytest.raises(ValueError):
            model_probability(inst, obs, pole)
        with pytest.raises(ValueError):
            perturbed_probabilities(params, obs, pole, (1.0,))


def _exact_groups(grid) -> dict:
    """The bundled exact config's records on ``grid``, by observable."""
    config, _ = load_config(REPO / "configs" / "exact.json")
    groups: dict = {}
    for rec in experiment.generate_dataset(replace(config, n_theta=grid[0], n_phi=grid[1])).records:
        groups.setdefault(rec.setting.observable, []).append(rec)
    return groups


def _constructions(monkeypatch, grid):
    """KrausOperator and RotationSpec constructions while the bundled exact
    config on ``grid`` is generated and every observable's records fitted."""
    counts = {KrausOperator: 0, RotationSpec: 0}
    for cls in counts:
        def counted(self, _cls=cls, _init=cls.__post_init__):
            counts[_cls] += 1
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    groups = _exact_groups(grid)
    for records in groups.values():
        estimate.fit_affine(records)
    monkeypatch.undo()
    return counts, sum(map(len, groups.values()))


@pytest.mark.parametrize("obs", OBSERVABLES, ids=ObservableSpec.label)
def test_model_probabilities_rotate_once_and_equal_per_record_calls(monkeypatch, obs):
    """One rotation per call, whatever the number of directions (none included),
    and each value is ``model_probability``'s, bit for bit."""
    inst = build_perturbed(PerturbationParams.from_vector(np.linspace(-1.0, 1.0, 16), 1e-2))
    grid = experiment.make_grid(3, 4)
    expected = [model_probability(inst, obs, d).hex() for d in grid]
    calls = []
    rotate = linearize.rotate_array
    monkeypatch.setattr(linearize, "rotate_array", lambda *args: calls.append(args) or rotate(*args))
    r = bloch_array([d.unit_vector() for d in grid])
    assert [p.hex() for p in model_probabilities(inst.as_array(), obs, r)] == expected
    assert list(model_probabilities(inst.as_array(), obs, np.empty((0, 3)))) == []
    assert len(calls) == 2


def test_per_record_path_builds_no_kraus_operators_or_rotations(monkeypatch):
    """Generating and fitting 4x as many records constructs no more Kraus
    operators or rotations: the per-record model evaluation builds none."""
    small, small_records = _constructions(monkeypatch, (4, 8))
    large, large_records = _constructions(monkeypatch, (8, 16))
    assert large_records == 4 * small_records
    assert large == small


def test_fits_evaluate_no_model_probability_once_each_observable_is_seen(monkeypatch):
    """After one fit per observable, fitting every observable of the bundled exact config on
    the 4x8 and 8x16 grids evaluates no probability: the ideal share is four cached numbers."""
    groups = {grid: _exact_groups(grid) for grid in ((4, 8), (8, 16))}
    for records in groups[(4, 8)].values():
        estimate.fit_affine(records)

    def forbidden(*args):
        raise AssertionError("a fit evaluated a model probability")

    monkeypatch.setattr(linearize, "_probability_array", forbidden)
    for grid in groups.values():
        assert len(grid) == 9
        for records in grid.values():
            estimate.fit_affine(records)


def test_ideal_coefficients_are_the_ideal_model_probability(rng):
    """c0 + c . k is the ideal instrument's ``model_probability`` within 1e-15 at 200 Bloch
    vectors, for every observable, and the coefficients are read-only."""
    ideal, states = ideal_instrument(), _random_states(rng, 200)
    for obs in OBSERVABLES:
        coefficients = ideal_coefficients(obs)
        assert coefficients.shape == (4,) and not coefficients.flags.writeable
        expected = [model_probability(ideal, obs, k) for k in states]
        assert np.max(np.abs(coefficients[0] + states @ coefficients[1:] - expected)) <= 1e-15, obs


# --- affine coefficients ----------------------------------------------------------


def test_affine_zero_params():
    coeffs = affine_coefficients(PerturbationParams.from_vector(np.zeros(16), 0.0), SINGLE_UP0)
    assert np.allclose(coeffs, 0.0, atol=1e-14)
    assert coeffs.shape == (4,) and not coeffs.flags.writeable


def test_affine_unit_b_rx_up():
    params = PerturbationParams.from_vector(np.eye(16)[PARAM_LABELS.index("b_rx_up")], 0.0)
    coeffs = affine_coefficients(params, SINGLE_UP0)
    assert np.allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_affine_unit_a_r_up():
    params = PerturbationParams.from_vector(np.eye(16)[PARAM_LABELS.index("a_r_up")], 0.0)
    coeffs = affine_coefficients(params, SINGLE_UP0)
    assert np.allclose(coeffs, [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_closed_form_matches_interpolation_oracle(rng):
    """Every observable's closed-form block equals the interpolated response."""
    for obs in OBSERVABLES:
        for k in _random_units(rng, 2):
            basis = np.array([1.0, *k])
            for i in range(16):
                unit = PerturbationParams.from_vector(np.eye(16)[i], 0.0)
                closed = affine_coefficients(unit, obs) @ basis
                assert abs(closed - linear_response(unit, obs, k)) < 1e-12, (obs, i)


def test_design_matrix_needs_no_probability_evaluation():
    """With probability evaluation patched to raise, the design system still builds.

    Runs in a fresh interpreter, so nothing an earlier test computed can
    stand in for the build.  The design blocks are built while
    ``sgkit.linearize`` is imported, so the one array form every model
    probability goes through, ``successive_array``, is stubbed before that import.
    """
    code = (
        "import sgkit.instrument as instrument\n"
        "def forbidden(*args, **kwargs):\n"
        "    raise AssertionError('the design system evaluated a model probability')\n"
        "instrument.successive_array = forbidden\n"
        "import sgkit.linearize as lin\n"
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
    rows = design_matrix(()).rows
    for g in gauge_directions():
        assert np.max(np.abs(rows @ g)) < 1e-12


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
            resid.append(residual_array(inst.as_array()))
        assert resid[0] <= 4.6 * resid[1] + 1e-15  # quadratic decay in eta


# --- first-order effects -----------------------------------------------------------


def test_first_order_effects_quadratic_remainder(rng):
    """The single-protocol m = 0 blocks are the first-order terms of the effects:
    ideal effect + eta * coefficients leaves an O(eta^2) remainder."""
    ideal = effect_array(ideal_instrument().as_array()).real
    for _ in range(10):
        vec = rng.uniform(-1.0, 1.0, size=16)
        params = PerturbationParams.from_vector(vec, 0.0)
        first_order = np.array(
            [affine_coefficients(params, ObservableSpec(Protocol.SINGLE, o, 0)) for o in Outcome]
        )
        errs = []
        for eta in (1e-2, 5e-3):
            full = effect_array(perturbed_at(params, eta).as_array()).real
            errs.append(float(np.max(np.abs(ideal + eta * first_order - full))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


# --- comparison with the transcribed reference system ------------------------------


def test_transcribed_system_shape():
    system = transcribed_system()
    assert system.rows.shape == (13, 16)
    assert sum(key is None for key in system.rhs_keys) == 3


def combo(**terms) -> np.ndarray:
    vec = np.zeros(16)
    for label, value in terms.items():
        vec[PARAM_LABELS.index(label)] = value
    return vec


def successive_up(m):
    return ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, m)


# The 13 paper equations encoded by hand, in order: (lhs, rhs key, group).
HAND_ENCODED = [
    (combo(a_r_up=1, b_rz_up=1, a_r_down=1, b_rz_down=1), None, "normalization"),
    (combo(b_rx_up=1, b_iy_up=-1, b_rx_down=1, b_iy_down=-1), None, "normalization"),
    (combo(b_ry_up=1, b_ix_up=1, b_ry_down=1, b_ix_down=1), None, "normalization"),
    (combo(a_r_up=1, b_rz_up=1), (SINGLE_UP0, 0, 1.0), "identification"),
    (combo(b_rx_up=1, b_iy_up=-1), (SINGLE_UP0, 2, 1.0), "identification"),
    (combo(b_ry_up=1, b_ix_up=1), (SINGLE_UP0, 3, 1.0), "identification"),
    (combo(a_r_up=1, b_rz_up=1, b_iy_up=1, b_iy_down=1), (successive_up(0), 0, 1.0), "successive"),
    (combo(a_r_up=1, b_rz_up=1, b_ix_up=-1, b_ix_down=-1), (successive_up(1), 0, 1.0), "successive"),
    (combo(a_r_up=1, b_ry_up=1), (successive_up(2), 0, 1.0), "successive"),
    (combo(b_iy_up=1, b_iy_down=1), (successive_up(0), 0, 2.0), "successive"),
    (combo(b_ix_up=1, b_ix_down=1), (successive_up(1), 0, 2.0), "successive"),
    (combo(a_r_up=1, b_rz_up=-1, a_r_down=1, b_rz_down=-1), (successive_up(0), 1, 2.0), "successive"),
    (combo(a_i_up=1, b_iz_up=-1, a_i_down=1, b_iz_down=-1), (successive_up(1), 1, 2.0), "successive"),
]


def test_paper_equations_read_as_hand_encoded():
    """Each equation's text yields the hand-encoded row, right-hand side and group."""
    system = transcribed_system()
    groups = [entry["group"] for entry in compare_with_paper()["entries"]]
    assert len(system.row_labels) == len(groups) == len(HAND_ENCODED)
    for row, key, group, (lhs, want_key, want_group) in zip(system.rows, system.rhs_keys, groups, HAND_ENCODED):
        assert row.tobytes() == lhs.tobytes()
        assert (key, group) == (want_key, want_group)


@pytest.mark.parametrize("text", ["a_r_up * b_rz_up", "a_r + b_rz_up", "(a_r + b_rz)_left"])
def test_equation_reader_refuses_unknown_notation(text):
    with pytest.raises(ValueError):
        _combination(text)


@pytest.mark.parametrize("text", ["c4[single/m0/up]", "2c0[single/m0/up]", "c0[single/m3/up]", "1"])
def test_equation_reader_refuses_unknown_right_hand_side(text):
    with pytest.raises(ValueError):
        _rhs_key(text)


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
    "(b_rx - b_iy)_up + (b_rx - b_iy)_down = 0": "b_rx_up - b_iy_up + b_rx_down + b_iy_down = 0  [norm/m0:c1]",
    "(b_ry + b_ix)_up + (b_ry + b_ix)_down = 0": "b_ry_up + b_ix_up + b_ry_down - b_ix_down = 0  [norm/m0:c2]",
    "a_r_up + b_rz_up = c0[single/m0/up]": "a_r_up + b_rz_up = c0[single/m0/up]",
    "b_rx_up - b_iy_up = c2[single/m0/up]": "b_ry_up + b_ix_up = c2[single/m0/up]",
    "(a_r + b_rz + b_iy)_up + b_iy_down = c0[successive/m0/up]": "2*a_r_up + 2*b_rz_up = c0[successive/m0/up]",
    "(a_r - b_rz)_up + (a_r - b_rz)_down = 2*c1[successive/m0/up]": "2*b_rx_up - 2*b_iy_up = 2*c1[successive/m0/up]",
}


def test_comparison_report_golden():
    report = compare_with_paper()
    entries = report["entries"]
    got = [(e["group"], e["paper_equation"], e["verdict"]) for e in entries]
    assert got == GOLDEN_VERDICTS
    by_ref = {e["paper_equation"]: e["generated_row"] for e in entries}
    for ref, generated in GOLDEN_GENERATED.items():
        assert by_ref[ref] == generated
    assert all(e["generated_row"] for e in entries)
    assert len(report["notes"]) == 2
    assert json.loads(json.dumps(report)) == report  # plain data, as the report stores it
