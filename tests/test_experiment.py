import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgkit.experiment import (
    Dataset,
    DatasetMeta,
    ExperimentConfig,
    FormatError,
    InvalidGrid,
    MeasurementRecord,
    MeasurementSetting,
    exact_dataset,
    generate_dataset,
    make_grid,
    plan_settings,
    read_dataset,
    sampled_dataset,
    write_dataset,
)
from sgkit.instrument import exact_normalize, residual_array
from sgkit.linearize import (
    ObservableSpec,
    Outcome,
    PerturbationParams,
    Protocol,
    build_perturbed,
)

from conftest import kraus_mat


def config_of(vec16, eta, **kw):
    defaults = dict(n_theta=4, n_phi=8, shots=0, seed=7)
    defaults.update(kw)
    return ExperimentConfig(PerturbationParams.from_vector(vec16, eta), **defaults)


ZERO = np.zeros(16)


# --- grid and plan -----------------------------------------------------------


def test_make_grid_2x4():
    grid = make_grid(2, 4)
    assert len(grid) == 8
    assert {d.theta for d in grid} == {math.pi / 4, 3 * math.pi / 4}
    assert all(abs(d.unit_vector()[2]) < 1.0 for d in grid)


@pytest.mark.parametrize("n_theta,n_phi", [(3, 4), (2, 3), (4, 8)])
def test_grid_design_rank_four(n_theta, n_phi):
    grid = make_grid(n_theta, n_phi)
    design = np.column_stack([np.ones(len(grid)), [d.unit_vector() for d in grid]])
    assert np.linalg.matrix_rank(design, tol=1e-10) == 4


def test_make_grid_rejects_small():
    with pytest.raises(InvalidGrid):
        make_grid(1, 4)
    with pytest.raises(InvalidGrid):
        make_grid(2, 2)


def test_plan_cardinalities():
    single = config_of(ZERO, 0.0, n_theta=2, n_phi=4, protocols=(Protocol.SINGLE,))
    assert len(plan_settings(single)) == 48
    successive = config_of(ZERO, 0.0, n_theta=2, n_phi=4, protocols=(Protocol.SUCCESSIVE,))
    assert len(plan_settings(successive)) == 24
    both = config_of(ZERO, 0.0, n_theta=2, n_phi=4)
    assert len(plan_settings(both)) == 72


def test_plan_is_deterministic_and_ordered():
    config = config_of(ZERO, 0.0, n_theta=2, n_phi=4)
    plan_a, plan_b = plan_settings(config), plan_settings(config)
    assert plan_a == plan_b
    keys = [
        (s.observable.protocol.value, s.observable.m, s.observable.outcome.value)
        for s in plan_a
    ]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], {"up": 0, "down": 1}[t[2]]))


# --- exact data ----------------------------------------------------------------


def test_exact_ideal_single_probability():
    dataset = exact_dataset(config_of(ZERO, 0.0, protocols=(Protocol.SINGLE,)))
    for rec in dataset.records:
        obs = rec.setting.observable
        if obs.m == 0 and obs.outcome is Outcome.UP:
            kz = rec.setting.direction.unit_vector()[2]
            assert rec.probability == pytest.approx(0.5 * (1 + kz), abs=1e-14)


def test_exact_ideal_successive_probability():
    dataset = exact_dataset(config_of(ZERO, 0.0, protocols=(Protocol.SUCCESSIVE,)))
    for rec in dataset.records:
        if rec.setting.observable.m == 0:
            kz = rec.setting.direction.unit_vector()[2]
            assert rec.probability == pytest.approx(0.5 * (1 + kz), abs=1e-14)


def test_exact_matches_matrix_pipeline(rng):
    from sgkit.instrument import cyclic_rotation, rotate_instrument

    from conftest import mat

    vec = rng.uniform(-1.0, 1.0, size=16)
    config = config_of(vec, 1e-3, n_theta=2, n_phi=3)
    dataset = exact_dataset(config)
    inst = build_perturbed(config.perturbation)
    for rec in dataset.records:
        obs = rec.setting.observable
        state = rec.setting.direction.unit_vector()
        rotated = rotate_instrument(inst, cyclic_rotation(obs.m))
        branch = rotated.up if obs.outcome is Outcome.UP else rotated.down
        b = kraus_mat(branch)
        rho = 0.5 * mat(1.0, state)
        if obs.protocol is Protocol.SINGLE:
            expected = np.trace(rho @ b @ b.conj().T).real
        else:
            rho1 = sum(
                kraus_mat(br).conj().T @ rho @ kraus_mat(br) for br in inst.branches
            )
            expected = np.trace(rho1 @ b @ b.conj().T).real
        assert rec.probability == pytest.approx(expected, abs=1e-12)


def test_exact_completeness_raw_and_strict(rng):
    vec = rng.uniform(-1.0, 1.0, size=16)
    eta = 1e-3
    raw = exact_dataset(config_of(vec, eta, protocols=(Protocol.SINGLE,)))
    by_setting = {}
    for rec in raw.records:
        key = (rec.setting.observable.m, rec.setting.direction)
        by_setting.setdefault(key, []).append(rec.probability)
    for probs in by_setting.values():
        assert abs(sum(probs) - 1.0) <= 10 * eta

    strict = exact_dataset(
        config_of(vec, eta, protocols=(Protocol.SINGLE,), strict_normalization=True)
    )
    by_setting = {}
    for rec in strict.records:
        key = (rec.setting.observable.m, rec.setting.direction)
        by_setting.setdefault(key, []).append(rec.probability)
    for probs in by_setting.values():
        assert abs(sum(probs) - 1.0) <= 1e-12


def test_strict_normalization_uses_normalized_instrument(rng):
    vec = rng.uniform(-1.0, 1.0, size=16)
    config = config_of(vec, 1e-2, strict_normalization=True, n_theta=2, n_phi=3)
    inst = exact_normalize(build_perturbed(config.perturbation))
    assert residual_array(inst.as_array()) <= 1e-12
    dataset = exact_dataset(config)
    assert dataset.meta.strict_normalization


# --- sampled data -----------------------------------------------------------------


def test_sampled_reproducible():
    config = config_of(ZERO, 0.0, shots=1000, seed=42, n_theta=2, n_phi=3)
    a, b = sampled_dataset(config), sampled_dataset(config)
    assert a.records == b.records


def test_sampled_probability_one_saturates():
    vec = np.zeros(16)
    vec[0] = 2.0  # pushes the up-branch weight far above 1; clamped to p = 1
    config = config_of(vec, 1.0, shots=500, seed=1, protocols=(Protocol.SINGLE,), n_theta=2, n_phi=3)
    dataset = sampled_dataset(config)
    ups = [r for r in dataset.records if r.setting.observable.outcome is Outcome.UP]
    assert all(r.successes == r.shots for r in ups)


def test_sampled_concentration(rng):
    shots = 10**6
    vec = rng.uniform(-1.0, 1.0, size=16)
    config = config_of(vec, 1e-3, shots=shots, seed=11)
    sampled = sampled_dataset(config)
    exact = exact_dataset(config_of(vec, 1e-3, shots=0, seed=11))
    bad = 0
    for s_rec, e_rec in zip(sampled.records, exact.records):
        p = e_rec.probability
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        if abs(s_rec.frequency() - p) > 5 * sigma:
            bad += 1
    assert bad <= 0.01 * len(sampled.records)


# --- file format -------------------------------------------------------------------


def test_write_read_round_trip_exact(tmp_path, rng):
    vec = rng.uniform(-1.0, 1.0, size=16)
    dataset = exact_dataset(config_of(vec, 1e-3, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    back = read_dataset(path)
    assert back.meta == dataset.meta
    assert back.records == dataset.records


def test_write_read_round_trip_sampled(tmp_path):
    dataset = sampled_dataset(config_of(ZERO, 0.0, shots=1234, seed=5, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    assert read_dataset(path).records == dataset.records


def test_read_rejects_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# sgkit-v1\n# eta=0\n# strict_normalization=false\n# seed=0\n# grid=2,3\nwrong,header\n")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_read_rejects_missing_tag(tmp_path):
    dataset = exact_dataset(config_of(ZERO, 0.0, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    stripped = "\n".join(path.read_text().splitlines()[1:]) + "\n"
    path.write_text(stripped)
    with pytest.raises(FormatError):
        read_dataset(path)


def test_read_rejects_excess_successes(tmp_path):
    dataset = sampled_dataset(config_of(ZERO, 0.0, shots=10, seed=5, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    lines = path.read_text().splitlines()
    parts = lines[6].split(",")
    parts[6] = str(int(parts[5]) + 1)  # successes > shots
    lines[6] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert "line 7" in str(err.value)


def write_edited(path, dataset, edit):
    write_dataset(dataset, path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return lines


def test_read_rejects_duplicate_setting(tmp_path):
    dataset = exact_dataset(config_of(ZERO, 0.0, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"
    lines = write_edited(path, dataset, lambda lines: lines.append(lines[7]))
    with pytest.raises(FormatError, match=f"^line {len(lines)}: duplicate setting, first on line 8$"):
        read_dataset(path)


def test_read_rejects_record_off_the_metadata_grid(tmp_path):
    dataset = exact_dataset(config_of(ZERO, 0.0, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"

    def claim_four_phi_nodes(lines):
        assert lines[4] == "# grid=2,3"
        lines[4] = "# grid=2,4"

    write_edited(path, dataset, claim_four_phi_nodes)
    # line 7 has phi = 0, a node of both grids; line 8 has phi = 2pi/3, not one of 0, pi/2, pi, 3pi/2
    with pytest.raises(FormatError, match="^line 8: direction is not on the grid=2,4 metadata grid$"):
        read_dataset(path)


@st.composite
def datasets(draw):
    """Any valid dataset: metadata, and distinct exact or sampled records on its grid."""
    n_theta, n_phi = draw(st.integers(2, 4)), draw(st.integers(3, 5))
    meta = DatasetMeta(
        eta=draw(st.floats(min_value=0.0, allow_infinity=False)),
        strict_normalization=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        n_theta=n_theta,
        n_phi=n_phi,
    )
    pool = [
        MeasurementSetting(ObservableSpec(protocol, outcome, m), direction)
        for protocol in Protocol
        for outcome in Outcome
        for m in range(3)
        for direction in make_grid(n_theta, n_phi)
    ]
    records = []
    for setting in draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)):
        shots = draw(st.integers(0, 2 ** 62))
        if shots == 0:
            records.append(MeasurementRecord(setting, 0, 0, draw(st.floats(0.0, 1.0))))
        else:
            records.append(MeasurementRecord(setting, shots, draw(st.integers(0, shots)), None))
    return Dataset(meta, records)


@settings(deadline=None, max_examples=100)
@given(datasets())
def test_property_write_read_round_trip_is_lossless(tmp_path_factory, dataset):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_dataset(dataset, path)
    assert read_dataset(path) == dataset


@pytest.fixture(scope="module")
def bundled_lines(tmp_path_factory) -> list[list[str]]:
    """The lines of a small exact and a small sampled dataset file."""
    path = tmp_path_factory.mktemp("bundled") / "data.csv"
    files = []
    for shots in (0, 1000):
        write_dataset(generate_dataset(config_of(ZERO + 0.1, 1e-2, n_theta=2, n_phi=3, shots=shots)), path)
        files.append(path.read_text(encoding="utf-8").splitlines())
    return files


# Tokens a mutated field or metadata value takes, besides arbitrary text.
EDGE_TOKENS = st.sampled_from([
    "", "nan", "inf", "-inf", "-0", "-0.001", "1e400", "-1", "3", "0x10", "1_0", " 2", "9" * 40,
    "yes", "true", "false", "up", "down", "single", "successive", "2,3", "#",
])
TOKENS = EDGE_TOKENS | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def mutated_lines(draw, files):
    """A dataset file's lines with one to three lines edited, dropped or repeated."""
    lines = list(draw(st.sampled_from(files)))
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["field", "line", "drop", "repeat"]))
        if action == "field":  # one comma-separated field, or a metadata value after '='
            head, sep, value = lines[i].partition("=") if lines[i].startswith("#") else ("", "", lines[i])
            fields = value.split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(TOKENS)
            lines[i] = head + sep + ",".join(fields)
        elif action == "line":
            lines[i] = draw(TOKENS)
        elif action == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return lines


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_property_read_dataset_parses_or_raises_format_error(tmp_path_factory, bundled_lines, data):
    lines = data.draw(mutated_lines(bundled_lines))
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        dataset = read_dataset(path)
    except FormatError:
        return
    assert math.isfinite(dataset.meta.eta) and dataset.meta.eta >= 0.0


def test_record_validation():
    setting = plan_settings(config_of(ZERO, 0.0, n_theta=2, n_phi=3))[0]
    with pytest.raises(ValueError):
        MeasurementRecord(setting, 10, 11, None)
    with pytest.raises(ValueError):
        MeasurementRecord(setting, 0, 0, 1.5)
    with pytest.raises(ValueError):
        MeasurementRecord(setting, 10, 5, 0.5)
