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
    generate_dataset,
    make_grid,
    read_dataset,
    write_dataset,
)
from sgkit.instrument import Direction, cyclic_rotation, exact_normalize_array, residual_array
from sgkit.fields import INTEGER_TEXT, NUMBER_TEXT
from sgkit.linearize import (
    OBSERVABLES,
    Outcome,
    PerturbationParams,
    Protocol,
    build_perturbed,
    default_observables,
    model_probability,
)
from sgkit.verify import _dagger, _density, _matrices, _trace, _unitary


def config_of(vec16, eta, **kw):
    defaults = dict(n_theta=4, n_phi=8, protocols=tuple(Protocol), shots=0, seed=7, strict_normalization=False)
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


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("protocols", ("single",), "protocols must be Protocol members, not ('single',)"),
        ("protocols", "single", "protocols must be Protocol members, not 'single'"),
        ("strict_normalization", "no", "strict_normalization must be true or false"),
        ("strict_normalization", 1, "strict_normalization must be true or false"),
        ("strict_normalization", None, "strict_normalization must be true or false"),
    ],
    ids=["name-tuple", "name", "no", "one", "none"],
)
def test_config_refuses_values_it_would_misread(key, value, message):
    """A protocol name is no ``Protocol`` (it would select no record), and only a bool
    says whether to renormalize."""
    with pytest.raises(ValueError) as exc:
        config_of(ZERO, 0.0, **{key: value})
    assert str(exc.value) == message


def settings_of(config) -> list[MeasurementSetting]:
    return [rec.setting for rec in generate_dataset(config).records]


def test_plan_cardinalities():
    single = config_of(ZERO, 0.0, n_theta=2, n_phi=4, protocols=(Protocol.SINGLE,))
    assert len(settings_of(single)) == 48
    successive = config_of(ZERO, 0.0, n_theta=2, n_phi=4, protocols=(Protocol.SUCCESSIVE,))
    assert len(settings_of(successive)) == 24
    both = config_of(ZERO, 0.0, n_theta=2, n_phi=4)
    assert len(settings_of(both)) == 72


def test_plan_is_deterministic_and_ordered():
    """Records run over the observables first, then over the grid nodes."""
    config = config_of(ZERO, 0.0, n_theta=2, n_phi=4)
    plan_a, plan_b = settings_of(config), settings_of(config)
    assert plan_a == plan_b
    keys = [
        (s.observable.protocol.value, s.observable.m, s.observable.outcome.value)
        for s in plan_a
    ]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], {"up": 0, "down": 1}[t[2]]))
    grid = list(make_grid(2, 4))
    assert [s.direction for s in plan_a] == grid * 9


def test_observables_are_listed_once_in_plan_order():
    assert [obs.label() for obs in OBSERVABLES] == [
        f"{protocol}/m{m}/{outcome}"
        for protocol in ("single", "successive")
        for m in range(3)
        for outcome in ("up", "down")
    ]
    assert [obs.label() for obs in default_observables()] == [
        "single/m0/up", "single/m0/down", "single/m1/up", "single/m1/down", "single/m2/up", "single/m2/down",
        "successive/m0/up", "successive/m1/up", "successive/m2/up",
    ]


SINGLE, SUCCESSIVE = Protocol.SINGLE, Protocol.SUCCESSIVE


@pytest.mark.parametrize("protocols", [(SINGLE,), (SUCCESSIVE,), (SINGLE, SUCCESSIVE), (SUCCESSIVE, SINGLE)])
def test_plan_is_default_observables_times_the_grid(protocols):
    """``observables`` keeps ``default_observables()`` order, and the records follow it."""
    grid = make_grid(2, 3)
    observables = tuple(obs for obs in default_observables() if obs.protocol in protocols)
    expected = [MeasurementSetting(obs, direction) for obs in observables for direction in grid]
    config = config_of(ZERO, 0.0, n_theta=2, n_phi=3, protocols=protocols)
    assert config.observables == observables
    assert settings_of(config) == expected


@pytest.mark.parametrize("shots", [0, 1000])
def test_protocol_order_and_repeats_leave_the_bytes_alone(tmp_path, shots):
    """Protocols listed in reverse or twice write the dataset of the listed-once order, byte for byte."""
    path, texts = tmp_path / "data.csv", set()
    for protocols in ((SINGLE, SUCCESSIVE), (SUCCESSIVE, SINGLE), (SINGLE, SUCCESSIVE, SUCCESSIVE, SINGLE)):
        config = config_of(ZERO + 0.1, 1e-2, n_theta=2, n_phi=3, shots=shots, protocols=protocols)
        write_dataset(generate_dataset(config), path)
        texts.add(path.read_bytes())
    assert len(texts) == 1


def test_generation_derives_each_grid_direction_once(monkeypatch):
    """One generation of all 9 observables calls ``Direction.unit_vector`` once per grid node."""
    calls = []
    unit_vector = Direction.unit_vector
    monkeypatch.setattr(Direction, "unit_vector", lambda self: calls.append(self) or unit_vector(self))
    generate_dataset(config_of(ZERO + 0.1, 1e-2, n_theta=3, n_phi=5))
    assert calls == list(make_grid(3, 5))


# --- exact data ----------------------------------------------------------------


def test_exact_ideal_single_probability():
    dataset = generate_dataset(config_of(ZERO, 0.0, protocols=(Protocol.SINGLE,)))
    for rec in dataset.records:
        obs = rec.setting.observable
        if obs.m == 0 and obs.outcome is Outcome.UP:
            kz = rec.setting.direction.unit_vector()[2]
            assert rec.probability == pytest.approx(0.5 * (1 + kz), abs=1e-14)


def test_exact_ideal_successive_probability():
    dataset = generate_dataset(config_of(ZERO, 0.0, protocols=(Protocol.SUCCESSIVE,)))
    for rec in dataset.records:
        if rec.setting.observable.m == 0:
            kz = rec.setting.direction.unit_vector()[2]
            assert rec.probability == pytest.approx(0.5 * (1 + kz), abs=1e-14)


def test_exact_matches_matrix_pipeline(rng):
    vec = rng.uniform(-1.0, 1.0, size=16)
    config = config_of(vec, 1e-3, n_theta=2, n_phi=3)
    dataset = generate_dataset(config)
    a = _matrices(build_perturbed(config.perturbation).as_array())
    observables = [rec.setting.observable for rec in dataset.records]
    rho = _density(np.array([rec.setting.direction.unit_vector() for rec in dataset.records]))
    # the state the rotated branch B sees: rho itself, or both branches' sum of A^dag rho A
    single = np.array([obs.protocol is Protocol.SINGLE for obs in observables])
    passed = np.where(single[:, None, None], rho, (_dagger(a) @ rho[:, None] @ a).sum(axis=1))
    rotations = [cyclic_rotation(obs.m) for obs in observables]
    u = _unitary(np.array([rot.axis for rot in rotations]), np.array([rot.angle for rot in rotations]))
    b = _dagger(u) @ a[[0 if obs.outcome is Outcome.UP else 1 for obs in observables]] @ u
    expected = _trace(passed @ b @ _dagger(b))
    assert np.array([rec.probability for rec in dataset.records]) == pytest.approx(expected, abs=1e-12)


def test_exact_completeness_raw_and_strict(rng):
    vec = rng.uniform(-1.0, 1.0, size=16)
    eta = 1e-3
    raw = generate_dataset(config_of(vec, eta, protocols=(Protocol.SINGLE,)))
    by_setting = {}
    for rec in raw.records:
        key = (rec.setting.observable.m, rec.setting.direction)
        by_setting.setdefault(key, []).append(rec.probability)
    for probs in by_setting.values():
        assert abs(sum(probs) - 1.0) <= 10 * eta

    strict = generate_dataset(
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
    inst = exact_normalize_array(build_perturbed(config.perturbation).as_array())
    assert residual_array(inst) <= 1e-12
    dataset = generate_dataset(config)
    assert dataset.meta.strict_normalization


def test_generation_clamps_probabilities_into_the_unit_interval():
    """At eta = 0.5, a_r_up = b_rz_up = -1 zeroes the up branch, and a_r_up = 1 drives
    144 model probabilities above 1: exact records read 0.0 and 1.0 exactly."""
    vec = np.zeros(16)
    vec[[0, 4]] = -1.0
    closed = generate_dataset(config_of(vec, 0.5)).records
    ups = [rec.probability for rec in closed if rec.setting.observable.outcome is Outcome.UP]
    assert len(ups) == 192 and all(p == 0.0 for p in ups)

    vec = np.zeros(16)
    vec[0] = 1.0
    config = config_of(vec, 0.5)
    inst = build_perturbed(config.perturbation)
    records = generate_dataset(config).records
    raw = [model_probability(inst, rec.setting.observable, rec.setting.direction) for rec in records]
    clamped = [rec.probability for rec, p in zip(records, raw) if p > 1.0]
    assert len(clamped) == 144 and max(raw) > 4.8
    assert all(p == 1.0 for p in clamped)


# --- sampled data -----------------------------------------------------------------


def test_sampled_reproducible():
    config = config_of(ZERO, 0.0, shots=1000, seed=42, n_theta=2, n_phi=3)
    a, b = generate_dataset(config), generate_dataset(config)
    assert a.records == b.records


def test_sampled_probability_one_saturates():
    vec = np.zeros(16)
    vec[0] = 2.0  # pushes the up-branch weight far above 1; clamped to p = 1
    config = config_of(vec, 1.0, shots=500, seed=1, protocols=(Protocol.SINGLE,), n_theta=2, n_phi=3)
    dataset = generate_dataset(config)
    ups = [r for r in dataset.records if r.setting.observable.outcome is Outcome.UP]
    assert all(r.successes == r.shots for r in ups)


def test_sampled_concentration(rng):
    shots = 10**6
    vec = rng.uniform(-1.0, 1.0, size=16)
    config = config_of(vec, 1e-3, shots=shots, seed=11)
    sampled = generate_dataset(config)
    exact = generate_dataset(config_of(vec, 1e-3, shots=0, seed=11))
    bad = 0
    for s_rec, e_rec in zip(sampled.records, exact.records):
        p = e_rec.probability
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        if abs(s_rec.frequency() - p) > 5 * sigma:
            bad += 1
    assert bad <= 0.01 * len(sampled.records)


# --- file format -------------------------------------------------------------------


def test_every_observable_round_trips(tmp_path):
    """One record of each of the 12 observables, the successive/.../down ones no plan
    writes included, reads back equal, its first three fields as the label says."""
    direction = make_grid(2, 3)[0]
    counts = [(0, 0, 0.25), (10, 3, None)]  # exact and sampled records by turns
    records = [
        MeasurementRecord(MeasurementSetting(obs, direction), *counts[i % 2]) for i, obs in enumerate(OBSERVABLES)
    ]
    dataset = Dataset(DatasetMeta(eta=0.0, strict_normalization=False, seed=0, n_theta=2, n_phi=3), records)
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    assert read_dataset(path) == dataset
    written = [line.split(",")[:3] for line in path.read_text().splitlines()[6:]]
    assert written == [[obs.protocol.value, str(obs.m), obs.outcome.value] for obs in OBSERVABLES]


@settings(deadline=None, max_examples=100)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2 ** 70, 2 ** 70))
def test_property_numbers_read_back_only_as_written(x, n):
    """The text the writer makes of a float and an int reads back as it, and
    an underscore, a leading '+' or a space makes any such text unreadable."""
    number, integer = f"{x:.17g}", str(n)
    assert NUMBER_TEXT.read("x", number) == x and INTEGER_TEXT.read("n", integer) == n
    for field, text in ((NUMBER_TEXT, number), (INTEGER_TEXT, integer)):
        for edited in (text[:1] + "_" + text[1:], "+" + text, " " + text, text + " "):
            with pytest.raises(ValueError, match="must be a"):
                field.read("x", edited)


def test_read_rejects_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# sgkit-v1\n# eta=0\n# strict_normalization=false\n# seed=0\n# grid=2,3\nwrong,header\n")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_read_rejects_missing_tag(tmp_path):
    dataset = generate_dataset(config_of(ZERO, 0.0, n_theta=2, n_phi=3))
    path = tmp_path / "data.csv"
    write_dataset(dataset, path)
    stripped = "\n".join(path.read_text().splitlines()[1:]) + "\n"
    path.write_text(stripped)
    with pytest.raises(FormatError):
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
    pool = [MeasurementSetting(obs, direction) for obs in OBSERVABLES for direction in make_grid(n_theta, n_phi)]
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


SETTING = MeasurementSetting(default_observables()[0], make_grid(2, 3)[0])


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(SETTING, 10, 11, None)
    with pytest.raises(ValueError):
        MeasurementRecord(SETTING, 0, 0, 1.5)
    with pytest.raises(ValueError):
        MeasurementRecord(SETTING, 10, 5, 0.5)


@pytest.mark.parametrize("value", [3.0, np.float64(3.0), True, np.True_], ids=repr)
@pytest.mark.parametrize("key", ["n_theta", "n_phi", "shots", "seed", "successes"])
def test_integer_fields_refuse_floats_and_bools(key, value):
    """A float or a bool is no integer even where its value lies in range: each
    field refuses it with its own message, before anything is generated."""
    if key == "successes":
        with pytest.raises(ValueError, match="^successes must be an integer$"):
            MeasurementRecord(SETTING, 10, value, None)
        return
    error = InvalidGrid if key in ("n_theta", "n_phi") else ValueError
    with pytest.raises(error, match=f"^{key} must be an integer in "):
        config_of(ZERO, 0.0, **{key: value})


def test_numpy_integers_run_end_to_end(tmp_path):
    """numpy integers are integers: generated, written and read back equal."""
    ints = dict(n_theta=np.int64(2), n_phi=np.int64(3), shots=np.int64(10), seed=np.uint64(5))
    dataset = generate_dataset(config_of(ZERO, 1e-3, **ints))
    assert len(dataset.records) == 9 * 2 * 3
    write_dataset(dataset, tmp_path / "ints.csv")
    assert read_dataset(tmp_path / "ints.csv") == dataset
    setting = dataset.records[0].setting
    assert MeasurementRecord(setting, np.int64(10), np.int64(4), None).frequency() == 0.4
