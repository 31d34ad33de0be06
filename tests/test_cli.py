import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgkit.cli
import sgkit.experiment
from sgkit.cli import ConfigError, _report_text, load_config, main
from sgkit.fields import Field

REPO = Path(__file__).resolve().parent.parent
EXACT_CONFIG = REPO / "configs" / "exact.json"
SAMPLED_CONFIG = REPO / "configs" / "sampled.json"


def write_config(path, **overrides):
    config = json.loads(EXACT_CONFIG.read_text())
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_simulate_row_count(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) - 1 == 2 * 3 * 32 + 3 * 32  # header + single + successive


def test_simulate_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(SAMPLED_CONFIG), "--out", str(out_a)])
    main(["simulate", "--config", str(SAMPLED_CONFIG), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
NAN, INF = float("nan"), float("inf")
# Edge numbers are drawn as often as any other number or JSON value.
EDGE_NUMBERS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10 ** 400, -1, 0, 1.5])
REPLACEMENTS = st.one_of(EDGE_NUMBERS, st.floats(), st.integers(), JSON_VALUES)
# Paths a mutation can hit, numeric ones first because hypothesis favours early
# choices; ("perturbation", None) is an entry at a drawn index.
CONFIG_PATHS = (
    ("eta",), ("perturbation", None), ("residual_threshold",), ("grid", "n_theta"), ("grid", "n_phi"),
    ("shots",), ("seed",), ("perturbation",), ("grid",), ("protocols",), ("strict_normalization",),
    ("constraints",), ("schema",), ("unknown",), ("grid", "n_r"),
)


@st.composite
def mutated_configs(draw):
    """A bundled config with one to three values replaced or removed."""
    config = json.loads(draw(st.sampled_from([EXACT_CONFIG, SAMPLED_CONFIG])).read_text())
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(CONFIG_PATHS))
        container = config.get(parents[0]) if parents else config
        if key is None:
            if not (isinstance(container, list) and container):
                continue
            key = draw(st.integers(0, len(container) - 1))
        elif not isinstance(container, dict):
            continue
        if not draw(st.booleans()):
            container[key] = draw(REPLACEMENTS)
        elif isinstance(container, dict):
            container.pop(key, None)
    return config


@settings(deadline=None, max_examples=150)
@given(mutated_configs())
def test_property_load_config_accepts_or_raises_config_error(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "mutated_config.json"
    path.write_text(json.dumps(config))  # NaN and Infinity are written as JSON extensions
    try:
        parsed, modes = load_config(path)
    except ConfigError:
        return
    assert np.isfinite(parsed.perturbation.to_vector()).all()
    assert np.isfinite(parsed.perturbation.eta)
    assert np.isfinite(modes["residual_threshold"]) and modes["residual_threshold"] > 0


# Each bounded integer of a config: its lowest and highest admitted value.
BOUNDS = {"n_theta": (2, 2 ** 53), "n_phi": (3, 2 ** 53), "shots": (0, 2 ** 63 - 1), "seed": (0, 2 ** 64 - 1)}


@pytest.mark.parametrize("key", BOUNDS)
def test_property_experiment_config_refuses_what_load_config_refuses(tmp_path_factory, key):
    """At each bound, just past it and at drawn integers, ``ExperimentConfig`` raises
    exactly when ``load_config`` raises ConfigError (exit 2) for the key."""
    from sgkit.experiment import ExperimentConfig, InvalidGrid
    from sgkit.linearize import PerturbationParams, Protocol

    grid = key in ("n_theta", "n_phi")
    path = tmp_path_factory.getbasetemp() / f"bounds_{key}.json"

    def agree(value):
        config = json.loads(EXACT_CONFIG.read_text())
        (config["grid"] if grid else config)[key] = value
        path.write_text(json.dumps(config))
        try:
            load_config(path)
            refused = False
        except ConfigError as exc:
            refused = True
            assert f"'{'grid.' if grid else ''}{key}'" in str(exc), exc
        fields = dict(n_theta=4, n_phi=8, protocols=tuple(Protocol), shots=0, seed=0, strict_normalization=False)
        try:
            ExperimentConfig(PerturbationParams.from_vector(np.zeros(16), 0.0), **{**fields, key: value})
        except (InvalidGrid if grid else ValueError) as exc:
            assert refused and str(exc).startswith(f"{key} must be "), (value, exc)
        else:
            assert not refused, value

    low, high = BOUNDS[key]
    for value in (low - 1, low, high, high + 1):
        agree(value)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(low - 2 ** 66, high + 2 ** 66))
    def drawn(value):
        agree(value)

    drawn()


@pytest.fixture(scope="module")
def bundled_outputs(tmp_path_factory) -> dict:
    """The dataset and the fits file of each bundled config, by config stem."""
    workdir = tmp_path_factory.mktemp("bundled_outputs")
    outputs = {}
    for config in (EXACT_CONFIG, SAMPLED_CONFIG):
        data, fits = workdir / f"{config.stem}.csv", workdir / f"{config.stem}.fits.json"
        assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--out", str(fits)]) == 0
        outputs[config.stem] = {"data": data, "fits": fits}
    return outputs


@pytest.fixture(scope="module")
def bundled_fits(bundled_outputs) -> dict:
    """The fits document `sgkit fit` writes for the exact bundled config."""
    return json.loads(bundled_outputs["exact"]["fits"].read_text())


def json_paths(node, prefix=()):
    """The path of every value inside a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*prefix, key)
        yield from json_paths(child, (*prefix, key))


@st.composite
def mutated_documents(draw, document):
    """A copy of ``document`` with one to three values replaced or removed."""
    document = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(document))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        container = document
        for parent in parents:
            container = container[parent]
        if draw(st.booleans()):
            container[key] = draw(REPLACEMENTS)
        else:
            del container[key]
    return document


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_property_load_fits_accepts_or_raises_config_error(tmp_path_factory, bundled_fits, data):
    path = tmp_path_factory.getbasetemp() / "mutated_fits.json"
    path.write_text(json.dumps(data.draw(mutated_documents(bundled_fits))))
    try:
        fits, eta, strict_normalization = sgkit.cli._load_fits(path)
    except ConfigError:
        return
    assert np.isfinite(eta) and eta >= 0
    assert isinstance(strict_normalization, bool)
    for fit in fits:
        assert np.isfinite(fit.coefficients).all() and np.isfinite(fit.covariance).all()


def json_kind(value) -> str:
    """The JSON type of a decoded value: an int and a float are both a number."""
    kinds = {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}
    return kinds.get(type(value), "null")


# Every row of the config, grid, fits and fit-entry tables: the command that reads
# it, the path of its object in the bundled exact config or fits, and its prefix.
TABLE_ROWS = [
    (command, parents, prefix, key, field)
    for command, parents, prefix, table in [
        ("simulate", (), "", sgkit.cli.CONFIG_FIELDS),
        ("simulate", ("grid",), "grid.", sgkit.cli.GRID_FIELDS),
        ("recover", (), "", sgkit.cli.FITS_FIELDS),
        ("recover", ("fits", 0), "fits[0].", sgkit.cli.FIT_FIELDS),
    ]
    for key, field in table.items()
]
# Values just outside a row's admitted range, by key, for every row whose test admits
# fewer values than its parser returns. A new row with a range needs an entry here.
JUST_OUTSIDE = {
    "schema": ["sgkit-v0"],
    "eta": [-5e-324],
    "perturbation": [[0.0] * 15 + [INF]],
    "protocols": [[]],
    "shots": [2 ** 63],
    "seed": [2 ** 64],
    "constraints": ["derive"],
    "residual_threshold": [0.0],
    "n_theta": [1, 2 ** 53 + 1],
    "n_phi": [2, 2 ** 53 + 1],
    "fits": [[]],
    "observable": [{"protocol": "single", "outcome": "up", "m": 3}],
    "coefficients": [[0.0] * 3 + [NAN]],
    # Asymmetric by twice the tolerance, relative to the largest entry.
    "covariance": [(np.eye(4) + 2e-9 * np.eye(4, k=1)).tolist()],
    "chi_square": [-5e-324],
    "degrees_of_freedom": [0, 2 ** 53 + 1],
}


def test_every_table_row_with_a_range_has_values_just_outside_it():
    ranged = {key for *_, key, field in TABLE_ROWS if field.admits is not Field._field_defaults["admits"]}
    assert ranged <= JUST_OUTSIDE.keys() <= {key for *_, key, _ in TABLE_ROWS}


@pytest.mark.parametrize(
    "command, parents, prefix, key, field", TABLE_ROWS, ids=[f"{row[0]}-{row[2]}{row[3]}" for row in TABLE_ROWS]
)
def test_property_each_table_row_refuses_another_type_and_its_range(
    tmp_path_factory, bundled_outputs, command, parents, prefix, key, field
):
    """A value of another JSON type, and each value just outside the row's range,
    exit 2 with one `error:` line that names the key."""
    flag, base = ("--config", EXACT_CONFIG) if command == "simulate" else ("--fits", bundled_outputs["exact"]["fits"])
    workdir = tmp_path_factory.getbasetemp()
    source, out = workdir / "row_edit.json", workdir / "row_edit_out"

    def row_object(document: dict) -> dict:
        for parent in parents:
            document = document[parent]
        return document

    def refused(value) -> None:
        document = json.loads(base.read_text())
        row_object(document)[key] = value
        source.write_text(json.dumps(document))
        status, err = run_main(command, flag, source, "--out", out)
        assert status == 2 and len(err) == 1 and err[0].startswith("error: "), (status, err)
        assert f"'{prefix}{key}'" in err[0], err

    for value in JUST_OUTSIDE.get(key, ()):
        refused(value)
    kind = json_kind(row_object(json.loads(base.read_text())).get(key, field.default))

    @settings(deadline=None, max_examples=5)
    @given(JSON_VALUES.filter(lambda value: json_kind(value) != kind))
    def another_type(value):
        refused(value)

    another_type()


def test_fit_zero_eta_gives_zero_coefficients(tmp_path):
    config = write_config(tmp_path / "zero.json", eta=0.0, perturbation=[0.0] * 16)
    data, fits = tmp_path / "data.csv", tmp_path / "fits.json"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--out", str(fits)]) == 0
    document = json.loads(fits.read_text())
    assert document["schema"] == "sgkit-fits-v1"
    for fit in document["fits"]:
        assert np.max(np.abs(fit["coefficients"])) < 1e-10


def test_fit_matches_linear_model(bundled_outputs):
    """Fitted coefficients agree with the first-order model to O(eta)."""
    from sgkit.linearize import PerturbationParams, affine_coefficients

    fits, eta, _ = sgkit.cli._load_fits(bundled_outputs["exact"]["fits"])
    assert eta == 1e-3
    truth = PerturbationParams.from_vector(json.loads(EXACT_CONFIG.read_text())["perturbation"], 0.0)
    for fit in fits:
        predicted = eta * affine_coefficients(truth, fit.observable)
        assert np.max(np.abs(fit.coefficients - predicted)) <= 10 * eta * eta


def test_recover_roundtrip_exact(tmp_path):
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--config", str(EXACT_CONFIG), "--out", str(report)]) == 0
    document = json.loads(report.read_text())
    assert document["schema"] == "sgkit-recovery-v1"
    assert document["compatible"] is True
    assert document["rank"] == 12
    truth = np.array(json.loads(EXACT_CONFIG.read_text())["perturbation"])
    rows = np.array(document["row_space"])
    row_err = np.linalg.norm(rows @ (np.array(document["parameters"]) - truth))
    assert row_err <= 1e-4
    assert document["residual_norm"] <= 1e-6
    assert report.with_suffix(".txt").exists()


def test_recover_roundtrip_sampled(tmp_path):
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--config", str(SAMPLED_CONFIG), "--out", str(report)]) == 0
    document = json.loads(report.read_text())
    assert document["compatible"] is True
    assert document["recovery_chi_square"] is not None


def test_recover_zero_eta(tmp_path):
    config = write_config(tmp_path / "zero.json", eta=0.0, perturbation=[0.0] * 16)
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--config", str(config), "--out", str(report)]) == 0
    document = json.loads(report.read_text())
    rows = np.array(document["row_space"])
    assert np.linalg.norm(rows @ np.array(document["parameters"])) <= 1e-8


def test_recover_incompatible_large_eta(tmp_path):
    truth = (6.0 * np.array(json.loads(EXACT_CONFIG.read_text())["perturbation"])).tolist()
    config = write_config(tmp_path / "large.json", eta=0.5, perturbation=truth)
    report = tmp_path / "report.json"
    assert main(["roundtrip", "--config", str(config), "--out", str(report)]) == 4
    document = json.loads(report.read_text())  # report still written
    assert document["compatible"] is False


def test_recover_paper_constraints(tmp_path, bundled_outputs):
    """The paper's system does not contradict exact model data: exact fits give no
    chi-square, and the residual is below the default threshold."""
    fits, report = bundled_outputs["exact"]["fits"], tmp_path / "r.json"
    assert main(["recover", "--fits", str(fits), "--out", str(report), "--constraints", "paper"]) == 0
    document = json.loads(report.read_text())
    assert document["constraints"] == "paper"
    assert document["residual_norm"] < sgkit.cli.DEFAULT_RESIDUAL_THRESHOLD
    verdicts = {entry["verdict"] for entry in document["comparison"]["entries"]}
    assert "SignDiscrepancy" in verdicts and "StructureDiscrepancy" in verdicts


def test_recover_reports_strict_normalization_and_no_dof(tmp_path, bundled_outputs):
    """The paper's system leaves the sampled fits no degree of freedom (10 data rows,
    rank 11): no chi-square, and the residual test decides. The fits document's
    strict_normalization reaches the report."""
    fits, report = tmp_path / "fits.json", tmp_path / "r.json"
    document = json.loads(bundled_outputs["sampled"]["fits"].read_text())
    fits.write_text(json.dumps({**document, "strict_normalization": True}))
    assert main(["recover", "--fits", str(fits), "--out", str(report), "--constraints", "paper"]) == 4
    document = json.loads(report.read_text())
    assert document["recovery_chi_square"] is None and document["recovery_degrees_of_freedom"] is None
    assert document["residual_norm"] > 1e-4 and document["strict_normalization"] is True
    text = report.with_suffix(".txt").read_text()
    assert "no degrees of freedom left" in text and "strict normalization: yes" in text


def test_recovery_rank_and_dof_of_the_bundled_sampled_fits(bundled_outputs):
    """The derived system's 36 data rows have rank 12 and leave 24 dof; the paper's 10
    data rows have rank 11 and leave none, so there is no chi-square."""
    from sgkit.estimate import recover_parameters

    fits, eta, _ = sgkit.cli._load_fits(bundled_outputs["sampled"]["fits"])
    observables = [fit.observable for fit in fits]
    derived = recover_parameters(fits, sgkit.cli.CONSTRAINTS["derived"](observables), eta)
    assert (derived.rank, derived.degrees_of_freedom) == (12, 24)
    assert derived.chi_square is not None
    paper = recover_parameters(fits, sgkit.cli.CONSTRAINTS["paper"](observables), eta)
    assert (paper.rank, paper.degrees_of_freedom, paper.chi_square) == (11, None, None)


def test_recover_verdict_reads_the_recovery_chi_square(tmp_path, bundled_outputs):
    """Counted fits that each pass but contradict one another fail the verdict: with
    single/m0/up's c0 moved up by 10 of its standard errors, every fit stays compatible
    and the recovery chi-square (about 124) exceeds 3 x its 24 dof."""
    fits, report = tmp_path / "fits.json", tmp_path / "r.json"
    document = json.loads(bundled_outputs["sampled"]["fits"].read_text())
    entry = document["fits"][0]
    assert entry["observable"] == {"protocol": "single", "m": 0, "outcome": "up"}
    entry["coefficients"][0] += 10.0 * np.sqrt(entry["covariance"][0][0])
    fits.write_text(json.dumps(document))
    assert main(["recover", "--fits", str(fits), "--out", str(report)]) == 4
    document = json.loads(report.read_text())
    assert document["fit_quality"]["compatible"] is True and document["compatible"] is False
    assert document["recovery_degrees_of_freedom"] == 24
    assert 3.0 * 24 < document["recovery_chi_square"] < 150.0


@pytest.mark.parametrize("constraints", list(sgkit.cli.CONSTRAINTS))
@pytest.mark.parametrize("config", ["exact", "sampled"])
def test_txt_report_is_rendered_from_the_json(tmp_path, bundled_outputs, config, constraints):
    report = tmp_path / "r.json"
    fits = bundled_outputs[config]["fits"]
    # The sampled fits are incompatible with the paper's system (exit 4), and compatible otherwise.
    status = 4 if (config, constraints) == ("sampled", "paper") else 0
    assert main(["recover", "--fits", str(fits), "--out", str(report), "--constraints", constraints]) == status
    text = report.with_suffix(".txt").read_text()
    assert text == _report_text(json.loads(report.read_text()))
    assert "Confirmed" in text and "SignDiscrepancy" in text


# --- malformed and boundary inputs: one table, run in process through main() -------


@dataclass(frozen=True)
class Row:
    """``sgkit COMMAND`` on ``edit`` of the ``base`` bundled config's config (simulate,
    roundtrip), dataset (fit) or fits document (recover), written to the file ``source``,
    with ``args`` appended and ``--out`` the file ``out`` in the same fresh directory.

    A failing row exits ``status`` with one ``error:`` line that contains ``fragment``
    and leaves the directory holding only its unchanged input. An accepting row
    (``fragment`` None) prints nothing to stderr and passes ``check`` on the file it wrote.
    """

    command: str
    edit: Callable
    status: int
    fragment: str | None
    id: str | None = None
    base: str = "exact"
    args: tuple[str, ...] = ()
    check: Callable[[Path], bool] = Path.exists
    out: str = "out.json"
    source: str = "input"


def keys(**values):
    """A config or fits edit that sets top-level keys."""
    return lambda document: {**document, **values}


def fits_entries(selection: slice, **values):
    """A fits edit that sets keys of the entries ``fits[selection]``."""

    def edit(document):
        for fit in document["fits"][selection]:
            fit.update(values)
        return document

    return edit


def repeated_key(key, value):
    """A config or fits edit, as JSON text, that gives the first ``key`` an earlier ``value``."""
    return lambda document: json.dumps(document).replace(key, f"{key}{value}, {key}", 1)


def metadata(line):
    """A dataset edit that replaces the metadata line of ``line``'s key."""
    key = line.partition("=")[0]
    return lambda lines: [line if old.startswith(key + "=") else old for old in lines]


def first_record(**by_column):
    """A dataset edit that sets fields of the first record: line 7, after 5 metadata
    lines and the header."""
    columns = {"protocol": 0, "m": 1, "outcome": 2, "shots": 5, "successes": 6, "probability": 7}

    def edit(lines):
        parts = lines[6].split(",")
        for column, value in by_column.items():
            parts[columns[column]] = value
        lines[6] = ",".join(parts)
        return lines

    return edit


def exact_single_m0_up(lines):
    """Every single/m0/up record of a sampled dataset as an exact record of its frequency."""
    for i, line in enumerate(lines):
        if line.startswith("single,0,up,"):
            *setting, shots, successes, _ = line.split(",")
            lines[i] = ",".join([*setting, "0", "0", repr(int(successes) / int(shots))])
    return lines


# At eta 10 the branch sum S of this instrument is positive definite but so
# ill-conditioned that S^(-1/2) leaves a completeness residual near 1.7e-7.
ILL_CONDITIONED = [9.95, 0, 0, 0, 9.95, 0, 0, 0, -0.0499, 0, 0, 0, 0.05, 0, 0, 0]

# Rows by the test that runs them; a test with several rows takes them as parameters.
TABLE = {
    # configs
    "test_simulate_missing_config": [Row("simulate", lambda document: None, 2, "cannot read config")],
    "test_simulate_unknown_key": [Row("simulate", keys(extra_knob=1), 2, "unknown key 'extra_knob'")],
    # A repeated key is an error at any depth, not a silent overwrite by its last value.
    "test_simulate_repeated_key_exit_2": [Row("simulate", repeated_key('"eta": ', "5.0"), 2, "repeated key 'eta'")],
    "test_simulate_bad_value": [Row("simulate", keys(eta=-1.0), 2, "key 'eta' must be a finite nonnegative number")],
    "test_non_finite_config_value_exit_2": [
        Row("roundtrip", keys(eta=NAN), 2, "'eta'", "eta-nan"),
        Row("roundtrip", keys(eta=INF), 2, "'eta'", "eta-inf"),
        Row("roundtrip", keys(perturbation=[0.0] * 15 + [NAN]), 2, "'perturbation'", "perturbation-value2"),
        Row("roundtrip", keys(perturbation=[-INF] + [0.0] * 15), 2, "'perturbation'", "perturbation-value3"),
        Row("roundtrip", keys(residual_threshold=NAN), 2, "'residual_threshold'", "residual_threshold-nan"),
        Row("roundtrip", keys(residual_threshold=INF), 2, "'residual_threshold'", "residual_threshold-inf"),
    ],
    # Finite inputs whose probabilities overflow are an error, not a clamp to [0, 1],
    # and no numpy warning comes before it.
    "test_overflowing_model_probability_exit_2": [Row("roundtrip", keys(eta=1e100), 2, "not finite")],
    # Strict normalization that cannot meet the completeness tolerance is an error.
    "test_strict_normalization_of_ill_conditioned_instrument_exit_2": [
        Row(command, keys(eta=10.0, perturbation=ILL_CONDITIONED, strict_normalization=True), 2, "ill-conditioned", command)
        for command in ("simulate", "roundtrip")
    ],
    # The binomial sampler takes a C long.
    "test_shots_beyond_the_sampler_range_exit_2": [Row("simulate", keys(shots=2 ** 63), 2, "'shots'")],
    "test_shots_at_the_sampler_limit_simulate": [Row("simulate", keys(shots=2 ** 63 - 1), 0, None)],
    # A fitted coefficient divided by a subnormal eta overflows. At a tiny eta it is
    # sampling noise and huge, yet the residual on the probability scale stays small.
    "test_roundtrip_subnormal_eta_exit_2": [Row("roundtrip", keys(eta=1e-320, shots=10 ** 6), 2, "overflow")],
    # The paper's system reads fits of both protocols: a config that measures one is
    # refused before it is simulated, with recover's message.
    "test_roundtrip_paper_constraints_of_one_protocol_exit_2": [
        Row("roundtrip", keys(constraints="paper", protocols=[protocol]), 2, f"no fit supplied for {missing}", protocol)
        for protocol, missing in (("single", "successive/m0/up"), ("successive", "single/m0/up"))
    ],
    "test_roundtrip_tiny_eta_residual_does_not_overflow": [
        Row(
            "roundtrip", keys(eta=eta, shots=10 ** 6), 4, None, str(eta),
            check=lambda report: 0.0 < json.loads(report.read_text())["residual_norm"] < 1e-2,
        )
        for eta in (1e-200, 1e-310)
    ],
    # datasets
    "test_fit_truncated_dataset_exit_3": [Row("fit", lambda lines: lines[:9], 3, "single/m0/up")],
    "test_fit_malformed_dataset_exit_2": [Row("fit", lambda lines: ["not a dataset"], 2, "missing format tag")],
    # Metadata that `sgkit fit` would copy into invalid JSON, or read as another value
    # than it says, is a format error naming its line.
    "test_fit_bad_dataset_metadata_exit_2": [
        Row("fit", metadata(line), 2, fragment, line)
        for line, fragment in [
            ("# eta=nan", "line 2: metadata key 'eta' must be"),
            ("# eta=inf", "line 2: metadata key 'eta' must be"),
            ("# eta=-0.001", "line 2: metadata key 'eta' must be"),
            ("# strict_normalization=yes", "line 3: metadata key 'strict_normalization' must be"),
            ("# grid=4,8,1", "line 5: metadata key 'grid' must be"),
            ("# seed=-1", "line 4: metadata key 'seed' must be"),
            (f"# seed={2 ** 64}", "line 4: metadata key 'seed' must be"),
        ]
    ] + [
        Row("fit", lambda lines: [*lines[:2], "# eta=0.002", *lines[2:]], 2,
            "line 3: repeated metadata key 'eta', first on line 2", "repeated # eta="),
        Row("fit", lambda lines: [*lines[:2], "# bogus=1", *lines[2:]], 2, "line 3: unknown metadata key 'bogus'", "# bogus=1"),
        Row("fit", lambda lines: [*lines[:2], "# hello", *lines[2:]], 2,
            "line 3: metadata line is neither the format tag nor key=value", "# hello"),
        Row("fit", lambda lines: [*lines[:2], "# sgkit-v1", *lines[2:]], 2,
            "line 3: repeated format tag 'sgkit-v1', first on line 1", "repeated # sgkit-v1"),
    ],
    # line 7 has phi = 0, a node of both grids
    "test_read_rejects_record_off_the_metadata_grid": [
        Row("fit", metadata("# grid=4,9"), 2, "line 8: direction is not on the grid=4,9 metadata grid")
    ],
    "test_read_rejects_duplicate_setting": [
        Row("fit", lambda lines: [*lines, lines[6]], 2, "line 295: duplicate setting, first on line 7")
    ],
    # A blank line is a malformed record, not a line to skip.
    "test_fit_blank_line_between_records_exit_2": [
        Row("fit", lambda lines: [*lines[:7], "", *lines[7:]], 2, "line 8: expected 8 fields")
    ],
    "test_read_rejects_excess_successes": [
        Row("fit", first_record(successes="1000001"), 2, "line 7: successes must lie in [0, shots]", base="sampled")
    ],
    # A count that overflows the fit's weights.
    "test_fit_shots_beyond_float_range_exit_2": [
        Row("fit", first_record(shots=str(10 ** 400), successes=str(10 ** 399)), 2, "line 7: shots", base="sampled")
    ],
    # Numbers are read only as the writer writes them: no '_', no '+', no space.
    "test_fit_numbers_not_plain_decimal_text_exit_2": [
        Row("fit", metadata("# seed=3_10"), 2, "line 4: metadata key 'seed' must be", "seed=3_10"),
        Row("fit", metadata("# seed= 310"), 2, "line 4: metadata key 'seed' must be", "seed= 310"),
        Row("fit", first_record(shots="1_000_000"), 2, "line 7: shots must be a decimal integer", "shots=1_000_000",
            base="sampled"),
        Row("fit", first_record(successes=" 962062"), 2, "line 7: successes must be a decimal integer",
            "successes= 962062", base="sampled"),
    ],
    # The first three fields are one of the 12 observables exactly as written.
    "test_fit_record_observable_not_as_written_exit_2": [
        Row("fit", first_record(**fields), 2, "line 7: protocol,m,outcome must be one of the 12 observables", id_)
        for id_, fields in [
            ("single,00,up", dict(m="00")),
            ("single,+0,up", dict(m="+0")),
            ("single, 0,up", dict(m=" 0")),
            ("successive,3,up", dict(protocol="successive", m="3")),
            ("single,0,UP", dict(outcome="UP")),
        ]
    ],
    "test_fit_mixed_exact_and_sampled_records_exit_2": [
        Row(
            "fit", first_record(shots="0", successes="0", probability="0.96"), 2,
            "records mix exact and sampled data", base="sampled",
        )
    ],
    # Each fit is of one kind, but recovery would drop its chi-square for every fit.
    "test_fit_observables_of_mixed_kind_exit_2": [
        Row("fit", exact_single_m0_up, 2, "dataset mixes exact (single/m0/up) and sampled", base="sampled")
    ],
    # The header that a metadata block alone lacks belongs on the line after the block.
    "test_fit_dataset_of_metadata_alone_exit_2": [Row("fit", lambda lines: lines[:5], 2, "line 6: header mismatch")],
    # A header-only dataset parses, but there is nothing to fit.
    "test_fit_dataset_without_records_exit_2": [Row("fit", lambda lines: lines[:6], 2, "dataset has no records")],
    # fits documents
    "test_recover_bad_residual_threshold_exit_2": [
        Row("recover", keys(), 2, "--residual-threshold", value, args=(f"--residual-threshold={value}",))
        for value in ("nan", "inf", "0", "-1e-4")
    ],
    "test_recover_fits_without_fits_key_exit_2": [
        Row("recover", lambda document: {k: v for k, v in document.items() if k != "fits"}, 2, "'fits'")
    ],
    "test_recover_fits_top_level_list_exit_2": [Row("recover", lambda document: [document], 2, "JSON object")],
    "test_recover_fits_short_coefficients_exit_2": [
        Row("recover", fits_entries(slice(0, 1), coefficients=[0.0] * 3), 2, "fits[0].coefficients")
    ],
    "test_recover_fits_duplicate_observable_exit_2": [
        Row(
            "recover", lambda document: {**document, "fits": [*document["fits"], document["fits"][2]]}, 2,
            "fits[9].observable single/m1/up repeats fits[2]",
        )
    ],
    # The exact fits' covariances are zero.
    "test_recover_fits_bad_covariance_exit_2": [
        Row("recover", fits_entries(slice(3, 4), covariance=np.diag([-1.0, 0, 0, 0]).tolist()), 2,
            "key 'fits[3].covariance' must be a symmetric positive semidefinite", "entry0-positive semidefinite"),
        Row("recover", fits_entries(slice(3, 4), covariance=(-np.eye(4, k=1)).tolist()), 2,
            "key 'fits[3].covariance' must be a symmetric positive semidefinite", "entry1-symmetric"),
    ],
    # Scaling the fitted variances by 1/eta overflows neither way.
    "test_recover_extreme_fits_eta_no_traceback": [
        Row("recover", keys(eta=eta), 0, None, str(eta)) for eta in (1e160, 1e-200)
    ],
    # Fits that parse but overflow a chi-square.
    "test_recover_overflowing_fits_exit_2": [
        Row("recover", fits_entries(slice(0, 1), degrees_of_freedom=10 ** 400), 2, "fits[0].degrees_of_freedom",
            "_huge_degrees_of_freedom-fits[0].degrees_of_freedom", base="sampled"),
        Row("recover", fits_entries(slice(0, 2), chi_square=1.5e308), 2, "fit chi-square overflows",
            "_huge_chi_squares-fit chi-square overflows", base="sampled"),
        Row("recover", fits_entries(slice(None), covariance=np.diag([5e-324] * 4).tolist()), 2,
            "recovery chi-square overflows", "_subnormal_covariances-recovery chi-square overflows", base="sampled"),
    ],
    "test_recover_empty_fits_list_exit_2": [Row("recover", keys(fits=[]), 2, "'fits'")],
    # The sampled fits with one covariance zeroed, as an exact fit has it.
    "test_recover_fits_of_mixed_kind_exit_2": [
        Row("recover", fits_entries(slice(0, 1), covariance=np.zeros((4, 4)).tolist()), 2,
            "fits document mixes exact (single/m0/up) and sampled", base="sampled")
    ],
    "test_recover_fits_repeated_entry_key_exit_2": [
        Row("recover", repeated_key('"chi_square": ', "0.0"), 2, "repeated key 'chi_square'")
    ],
    # The text report goes to --out with the suffix .txt, so an --out ending in .txt
    # would be overwritten by it.
    "test_report_out_ending_in_txt_exit_2": [
        Row(command, keys(), 2, "option '--out'", command, out="report.txt") for command in ("recover", "roundtrip")
    ],
    # Nor may either report overwrite the input.
    "test_report_out_over_its_input_exit_2": [
        Row(command, keys(), 2, "option '--out'", f"{command}-{name}", source=source, out="in.json")
        for command in ("recover", "roundtrip")
        for name, source in (("json", "in.json"), ("txt", "in.txt"))
    ],
    # Nor may simulate's dataset or fit's fits document.
    "test_simulate_and_fit_out_over_their_input_exit_2": [
        Row("simulate", keys(), 2, "option '--out'", "simulate", source="in.json", out="in.json"),
        Row("fit", lambda lines: lines, 2, "option '--out'", "fit", source="in.csv", out="in.csv"),
    ],
    "test_recover_fits_unknown_or_invalid_key_exit_2": [
        Row("recover", keys(strict_normalization="maybe"), 2, "key 'strict_normalization'", "strict_normalization=maybe"),
        Row("recover", keys(bogus=1), 2, "unknown key 'bogus'", "bogus"),
        Row("recover", fits_entries(slice(0, 1), bogus=1), 2, "unknown key 'fits[0].bogus'", "fits[0].bogus"),
    ],
}


def run_row(row: Row, tmp_path, capsys, bundled_outputs) -> None:
    if row.command == "fit":
        flag, document = "--data", bundled_outputs[row.base]["data"].read_text().splitlines()
    elif row.command == "recover":
        flag, document = "--fits", json.loads(bundled_outputs[row.base]["fits"].read_text())
    else:
        flag, document = "--config", json.loads((REPO / "configs" / f"{row.base}.json").read_text())
    document = row.edit(document)
    source, out = tmp_path / row.source, tmp_path / row.out
    if isinstance(document, str):
        source.write_text(document)
    elif document is not None:  # json writes NaN and Infinity as JSON extensions
        source.write_text("\n".join(document) + "\n" if row.command == "fit" else json.dumps(document))
    written = {path: path.read_bytes() for path in tmp_path.iterdir()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the row, as it would show on stderr
        status = main([row.command, flag, str(source), "--out", str(out), *row.args])
    err = capsys.readouterr().err.splitlines()
    assert status == row.status, err
    if row.fragment is None:
        assert err == [] and row.check(out), err
    else:
        assert len(err) == 1 and err[0].startswith("error: ") and row.fragment in err[0], err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written


def table_test(rows: list[Row]):
    """One test of ``rows``, parametrized by their ids unless it has one row."""
    if len(rows) == 1:

        def test(tmp_path, capsys, bundled_outputs):
            run_row(rows[0], tmp_path, capsys, bundled_outputs)

        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row, tmp_path, capsys, bundled_outputs):
        run_row(row, tmp_path, capsys, bundled_outputs)

    return test


for _name, _rows in TABLE.items():
    assert _name not in globals(), _name
    globals()[_name] = table_test(_rows)


def strict_json(text: str):
    """JSON that may not contain NaN or Infinity."""

    def reject(constant):
        raise AssertionError(f"non-finite number {constant} in a written file")

    return json.loads(text, parse_constant=reject)


def run_main(*args) -> tuple[int, list[str]]:
    """``main(ARGS)`` with its stderr lines, for tests that cannot take ``capsys``."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = main([str(arg) for arg in args])
    return status, stderr.getvalue().splitlines()


@pytest.fixture(scope="module")
def small_dataset_lines(tmp_path_factory) -> list[str]:
    """A sampled dataset on the smallest grid, 6 records per observable."""
    workdir = tmp_path_factory.mktemp("small_dataset")
    config = write_config(workdir / "c.json", grid={"n_theta": 2, "n_phi": 3}, shots=1000)
    assert main(["simulate", "--config", str(config), "--out", str(workdir / "d.csv")]) == 0
    return (workdir / "d.csv").read_text().splitlines()


COUNTS = st.one_of(st.sampled_from([0, 1, 2 ** 63 - 1, 2 ** 63, 10 ** 400]), st.integers(0, 10 ** 400))


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_property_fit_runs_past_the_parser(tmp_path_factory, small_dataset_lines, data):
    """`sgkit fit` on records with mutated shots, successes and probability fits,
    or exits 2 or 3 with one line; a fits file it writes is strict JSON."""
    lines = list(small_dataset_lines)
    first = next(i for i, text in enumerate(lines) if not text.startswith("#")) + 1
    for _ in range(data.draw(st.integers(1, 3))):
        line = data.draw(st.integers(first, len(lines) - 1))
        parts = lines[line].split(",")
        parts[data.draw(st.sampled_from([5, 6, 7]))] = str(data.draw(COUNTS))
        lines[line] = ",".join(parts)
    workdir = tmp_path_factory.getbasetemp()
    dataset, fits = workdir / "fuzzed.csv", workdir / "fuzzed_fits.json"
    dataset.write_text("\n".join(lines) + "\n")
    fits.unlink(missing_ok=True)
    status, err = run_main("fit", "--data", dataset, "--out", fits)
    assert status in (0, 2, 3), err
    assert len(err) == (status != 0), err
    assert fits.exists() == (status == 0)
    if status == 0:
        strict_json(fits.read_text())


MAGNITUDES = st.one_of(
    st.sampled_from([1e-320, 1e308]),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent, st.floats(1.0, 9.0), st.integers(-320, 307)),
)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_property_recover_runs_past_the_parser(tmp_path_factory, bundled_outputs, data):
    """`sgkit recover` on fits with mutated chi-squares, degrees of freedom,
    covariance diagonals, coefficients and eta exits 0, 2 or 4 with at most one
    stderr line, and a report it writes is strict JSON."""
    document = json.loads(bundled_outputs["sampled"]["fits"].read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(["chi_square", "degrees_of_freedom", "covariance", "coefficients", "eta"]))
        if key == "eta":
            document["eta"] = data.draw(MAGNITUDES)
            continue
        every = data.draw(st.booleans())
        chosen = document["fits"] if every else [data.draw(st.sampled_from(document["fits"]))]
        if key == "degrees_of_freedom":
            value = data.draw(st.integers(1, 10 ** 400))
        else:
            value = data.draw(MAGNITUDES)
        for fit in chosen:
            if key == "covariance":
                fit["covariance"] = np.diag([value] * 4).tolist()
            elif key == "coefficients":
                fit["coefficients"][data.draw(st.integers(0, 3))] = data.draw(st.sampled_from([1, -1])) * value
            else:
                fit[key] = value
    workdir = tmp_path_factory.getbasetemp()
    fits, report = workdir / "fuzzed.fits.json", workdir / "fuzzed_report.json"
    fits.write_text(json.dumps(document))
    report.unlink(missing_ok=True)
    status, err = run_main("recover", "--fits", fits, "--out", report)
    assert status in (0, 2, 4), err
    assert len(err) <= 1, err
    assert report.exists() == (status != 2)
    if report.exists():
        strict_json(report.read_text())


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "cyclic-permutation-identity" in out
    assert "probability-completeness" in out
    assert "FAIL" not in out


def test_verify_reports_failures(monkeypatch, capsys):
    import sgkit.verify

    monkeypatch.setattr(
        sgkit.verify, "run_all", lambda: [("broken-check", False, "too big")]
    )
    assert main(["verify"]) == 5
    captured = capsys.readouterr()
    assert "broken-check" in captured.out
    assert "broken-check" in captured.err


def test_simulate_unwritable_output_exit_1(tmp_path):
    out = tmp_path / "no_such_dir" / "data.csv"
    assert main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(out)]) == 1


@pytest.mark.parametrize("error", [KeyError("fits"), ZeroDivisionError("division by zero")])
def test_unexpected_exception_exit_6(monkeypatch, capsys, error):
    """An exception no input check anticipated is a defect: one line naming it, exit 6."""

    def broken(*args):
        raise error

    monkeypatch.setattr(sgkit.cli, "cmd_simulate", broken)
    assert main(["simulate", "--config", str(EXACT_CONFIG), "--out", "unused.csv"]) == 6
    assert one_error_line(capsys) == f"error: {type(error).__name__}: {error}"


# --- claims that need a fresh interpreter ------------------------------------------


def sgkit_env(**overrides) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH and
    OPENBLAS_NUM_THREADS unset, since importing ``sgkit.cli`` here has set it."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def sgkit_modules(importtime_log: str) -> set[str]:
    """The sgkit modules named in a ``-X importtime`` log."""
    names = {
        line.rsplit("|", 1)[-1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:")
    }
    return {name for name in names if name == "sgkit" or name.startswith("sgkit.")}


def imported_sgkit_modules(*args) -> set[str]:
    """The sgkit modules a fresh ``python -X importtime ARGS`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *map(str, args)],
        capture_output=True, text=True, env=sgkit_env(), stdin=subprocess.DEVNULL, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return sgkit_modules(proc.stderr)


def declared_script() -> tuple[str, str]:
    """The (name, target) of the one console script pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    ((name, target),) = scripts.items()
    return name, target


def launcher_commands() -> dict[str, list[str]]:
    """Each way to start the command: the declared target run the way the
    generated wrapper runs it, ``python -m sgkit`` and ``python -m sgkit.cli``."""
    name, target = declared_script()
    wrapper = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint({name!r}, {target!r}, 'console_scripts').load()())"
    )
    return {
        "entry point": [sys.executable, "-c", wrapper],
        "python -m sgkit": [sys.executable, "-m", "sgkit"],
        "python -m sgkit.cli": [sys.executable, "-m", "sgkit.cli"],
    }


# Runs a launcher in this interpreter on a missing config, so that after it
# returns the interpreter can still print the exit code and whether the heap
# was frozen. The launcher's own error line goes to stderr.
MISSING_CONFIG_PROBE = """
import gc, runpy, sys
from importlib.metadata import EntryPoint
launcher, target, config, out = sys.argv[1:]
sys.argv = ["sgkit", "roundtrip", "--config", config, "--out", out]
try:
    if launcher == "entry point":
        code = EntryPoint("sgkit", target, "console_scripts").load()()
    else:
        runpy.run_module(launcher.removeprefix("python -m "), run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, gc.get_freeze_count() > 0)
"""


def report_bytes(report: Path) -> bytes | None:
    """The JSON and TXT report a round trip wrote to ``report``, or None."""
    if not report.is_file():
        return None
    return report.read_bytes() + report.with_suffix(".txt").read_bytes()


@pytest.fixture(scope="module")
def launched(tmp_path_factory) -> dict[str, SimpleNamespace]:
    """Two fresh interpreters per launcher, all started at once: a round trip of the
    exact config that logs its imports and has a TMPDIR of its own, and
    ``MISSING_CONFIG_PROBE``."""
    workdir = tmp_path_factory.mktemp("launched")
    target = declared_script()[1]
    children, runs = [], {}

    def start(argv, env) -> subprocess.Popen:
        children.append(subprocess.Popen(
            [*map(str, argv)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            stdin=subprocess.DEVNULL, env=env,
        ))
        return children[-1]

    try:
        for n, (label, command) in enumerate(launcher_commands().items()):
            run = runs[label] = SimpleNamespace(report=workdir / f"r{n}.json", tmpdir=workdir / f"tmp{n}")
            run.tmpdir.mkdir()
            run.roundtrip = start(
                [*command, "roundtrip", "--config", EXACT_CONFIG, "--out", run.report],
                sgkit_env(TMPDIR=str(run.tmpdir), PYTHONPROFILEIMPORTTIME="1"),
            )
            run.missing_config = start(
                [sys.executable, "-c", MISSING_CONFIG_PROBE, label, target, workdir / "nope.json", workdir / "x.json"],
                sgkit_env(),
            )
        for run in runs.values():
            for kind in ("roundtrip", "missing_config"):
                proc = getattr(run, kind)
                stdout, stderr = proc.communicate(timeout=120)
                setattr(run, kind, subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr))
    finally:
        for proc in children:  # a no-op for each child that has exited
            proc.kill()
    return runs


def test_each_command_imports_only_what_it_runs(launched):
    assert imported_sgkit_modules("-c", "import sgkit") == {"sgkit"}
    verify = imported_sgkit_modules("-m", "sgkit.cli", "verify")
    assert "sgkit.verify" in verify
    assert not verify & {"sgkit.estimate", "sgkit.experiment"}, verify
    for label, run in launched.items():
        roundtrip = sgkit_modules(run.roundtrip.stderr)
        assert {"sgkit.estimate", "sgkit.experiment"} <= roundtrip, label
        assert "sgkit.verify" not in roundtrip, (label, roundtrip)


def test_console_script_installed(launched, tmp_path):
    """Every launcher runs ``roundtrip`` from the tree alone and writes the same
    report bytes. A program of the declared name on PATH must too, so a foreign
    tool of that name fails the test.
    """
    reports = {label: report_bytes(run.report) for label, run in launched.items()}
    exe = shutil.which(declared_script()[0])
    if exe is not None:
        proc = subprocess.run(
            [exe, "roundtrip", "--config", str(EXACT_CONFIG), "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=sgkit_env(), stdin=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 0, f"{exe}: {proc.stderr.strip()}"
        reports[exe] = report_bytes(tmp_path / "r.json")
    first = reports.pop("entry point")
    assert first
    for label, data in reports.items():
        assert data == first, f"{label} wrote different bytes"


@pytest.mark.parametrize("launcher", ["entry point", "python -m sgkit", "python -m sgkit.cli"])
def test_launcher_roundtrip_and_config_error(launched, launcher):
    """Each launcher's round trip exits 0, prints nothing but its import log and
    writes no temporary file; a missing config exits 2 with one error line."""
    run = launched[launcher]
    assert run.roundtrip.returncode == 0, run.roundtrip.stderr
    assert [line for line in run.roundtrip.stderr.splitlines() if not line.startswith("import time:")] == []
    assert run.report.is_file() and not list(run.tmpdir.iterdir())
    assert run.missing_config.stdout.split()[:1] == ["2"], run.missing_config.stderr
    lines = run.missing_config.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize(
    "launcher", ["entry point", "python -m sgkit", "python -m sgkit.cli"], ids=["entry point", "sgkit", "sgkit.cli"]
)
def test_launchers_freeze_the_heap_before_exit(tmp_path, launched, launcher):
    """Each launcher ends in ``run()``, which freezes the heap out of the final
    collection; ``main()``, which the tests call in process, freezes nothing."""
    assert launched[launcher].missing_config.stdout.split() == ["2", "True"], launched[launcher].missing_config.stderr
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")]) == 2
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_sets_one_blas_thread(preset, expected):
    """``import sgkit.cli`` before numpy leaves OpenBLAS without a worker thread,
    unless the user set OPENBLAS_NUM_THREADS."""
    env = sgkit_env() if preset is None else sgkit_env(OPENBLAS_NUM_THREADS=preset)
    code = (
        "import os, sgkit.cli, numpy; "
        "task = '/proc/self/task'; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(task)) if os.path.isdir(task) else -1)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == expected
    if preset is None and threads != "-1":
        assert threads == "1"


# sha256 of each artifact of the bundled configs.  A refactor keeps every one; a
# change that moves digits says so in CHANGES.md and records the new digests here.
ARTIFACT_DIGESTS = {
    "exact.csv": "d6877b82d902de7836a9b07cdf721fa47ef6e061800a2f007395490c4f07a8cb",
    "exact-fits.json": "65f8e825388e127902b03cce5e0c37de14bb5a2396c0c80cb735a14d2a5ce6c8",
    "exact-rec-derived.json": "e66ac4535195d32ed3f5211dc22c2f3eea0d1b0526505f4049336a2206465668",
    "exact-rec-derived.txt": "8961693f6f8e307e270e755f1bc244792f4aa8ccf75f5cf267eb08d582d8ec44",
    "exact-rec-paper.json": "8efa7826541c6fb77d2359e318e690eb81b186c4092e27a614bea9fb4c5140f6",
    "exact-rec-paper.txt": "421dc6af96782d0ea1dca507e55af2f9f24075b8e36317541071aae204f14659",
    "exact-rt.json": "e66ac4535195d32ed3f5211dc22c2f3eea0d1b0526505f4049336a2206465668",
    "exact-rt.txt": "8961693f6f8e307e270e755f1bc244792f4aa8ccf75f5cf267eb08d582d8ec44",
    "sampled.csv": "1b2fffce9c451f2c9758a63aae8fde56a2fd97817d7ada1f537d636b96b261fc",
    "sampled-fits.json": "c2c5c09e6831890d961c969937b6adee650fdf2362f6b1e697e5fc0871220101",
    "sampled-rec-derived.json": "d77068098ed312b80d4f31aba5e0d388b2859a5b04f96b3035dd1a56bc7ec412",
    "sampled-rec-derived.txt": "1ef9d97e045ae75e86153d199a037e5aaa12e2415372de4b7f211245e35a9142",
    "sampled-rec-paper.json": "8ca700157da292498c620aeabb26bb369dec07cc3aefe2bd4af83867703d5bbe",
    "sampled-rec-paper.txt": "82cdf1c829354f3eda99f47d1299c41ff7627b2ab6b1e2a9e935c93327c5b45f",
    "sampled-rt.json": "d77068098ed312b80d4f31aba5e0d388b2859a5b04f96b3035dd1a56bc7ec412",
    "sampled-rt.txt": "1ef9d97e045ae75e86153d199a037e5aaa12e2415372de4b7f211245e35a9142",
}


def test_artifacts_keep_their_recorded_digests(tmp_path):
    """simulate, fit, recover (both constraint systems) and roundtrip of both
    bundled configs write byte for byte the recorded artifacts."""
    statuses = []
    for name, config in (("exact", EXACT_CONFIG), ("sampled", SAMPLED_CONFIG)):
        data, fits = tmp_path / f"{name}.csv", tmp_path / f"{name}-fits.json"
        statuses.append(main(["simulate", "--config", str(config), "--out", str(data)]))
        statuses.append(main(["fit", "--data", str(data), "--out", str(fits)]))
        for constraints in sgkit.cli.CONSTRAINTS:
            out = tmp_path / f"{name}-rec-{constraints}.json"
            statuses.append(
                main(["recover", "--fits", str(fits), "--out", str(out), "--constraints", constraints])
            )
        statuses.append(main(["roundtrip", "--config", str(config), "--out", str(tmp_path / f"{name}-rt.json")]))
    # The sampled fits are incompatible with the paper's system (exit 4).
    assert statuses == [0, 0, 0, 0, 0, 0, 0, 0, 4, 0]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    moved = sorted(name for name, digest in ARTIFACT_DIGESTS.items() if digests.get(name) != digest)
    assert not moved, (
        f"artifacts changed: {', '.join(moved)}. A change that moves their digits must say "
        "so in CHANGES.md (ROADMAP aim 2) and record the new digests here. Two causes are "
        "not code changes: the OpenBLAS kernel (numpy.show_runtime() names it; "
        "OPENBLAS_CORETYPE=Haswell moves 12 of these files), whose matmul rounds the "
        "Pauli dot products, and, for the sampled files, numpy's Generator.binomial "
        "stream, which numpy does not promise across versions."
    )
    assert digests.keys() == ARTIFACT_DIGESTS.keys()


def test_roundtrip_takes_no_file_detour(tmp_path, monkeypatch):
    """``sgkit roundtrip`` needs no temporary directory and neither writes nor reads a
    dataset or fits file, nor runs ``sgkit fit`` or ``sgkit recover``: with all of them
    made to fail it still writes the recorded round-trip reports."""

    def refuse(*args, **kwargs):
        raise AssertionError("roundtrip left memory")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    for module, name in ((sgkit.experiment, "write_dataset"), (sgkit.experiment, "read_dataset"),
                         (sgkit.cli, "_load_fits"), (sgkit.cli, "cmd_fit"), (sgkit.cli, "cmd_recover")):
        monkeypatch.setattr(module, name, refuse)
    for name, config in (("exact", EXACT_CONFIG), ("sampled", SAMPLED_CONFIG)):
        assert main(["roundtrip", "--config", str(config), "--out", str(tmp_path / f"{name}-rt.json")]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == {name: digest for name, digest in ARTIFACT_DIGESTS.items() if "-rt." in name}


def test_roundtrip_refuses_unrecoverable_config_before_simulating(tmp_path, monkeypatch, capsys):
    """A config whose constraints mode reads a fit its protocols do not make exits 2 without generating data."""

    def refuse(*args, **kwargs):
        raise AssertionError("roundtrip simulated a config it cannot recover")

    monkeypatch.setattr(sgkit.experiment, "generate_dataset", refuse)
    config = write_config(tmp_path / "c.json", constraints="paper", protocols=["single"])
    assert main(["roundtrip", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
    assert one_error_line(capsys) == "error: no fit supplied for successive/m0/up"


@pytest.mark.parametrize("protocols", [["successive", "single"], ["single", "single", "successive"]], ids="-".join)
def test_roundtrip_reports_follow_the_observables_not_the_protocol_list(tmp_path, protocols):
    """The fits, and so the reports' system rows, come in ``ExperimentConfig.observables``
    order: a reordered or repeated protocol list writes each bundled config's reports byte for byte."""
    for config in (EXACT_CONFIG, SAMPLED_CONFIG):
        edited = tmp_path / f"edited-{config.name}"
        edited.write_text(json.dumps({**json.loads(config.read_text()), "protocols": protocols}))
        reports = []
        for source in (config, edited):
            out = tmp_path / f"{source.stem}-rt.json"
            assert main(["roundtrip", "--config", str(source), "--out", str(out)]) == 0
            reports.append(report_bytes(out))
        assert reports[0] == reports[1]


@st.composite
def small_configs(draw) -> dict:
    """The bundled config on a 2x3 to 4x8 grid, exact or with 10**3 to 10**6 shots, with
    or without strict normalization, one or both protocols and either constraint system."""
    config = json.loads(EXACT_CONFIG.read_text())
    config.update(
        grid={"n_theta": draw(st.integers(2, 4)), "n_phi": draw(st.integers(3, 8))},
        shots=draw(st.sampled_from([0, 10 ** 3, 10 ** 6]) | st.integers(10 ** 3, 10 ** 6)),
        strict_normalization=draw(st.booleans()),
        protocols=draw(st.sampled_from([["single"], ["successive"], ["single", "successive"]])),
        constraints=draw(st.sampled_from(list(sgkit.cli.CONSTRAINTS))),
    )
    return config


@settings(deadline=None, max_examples=15)
@given(small_configs())
def test_property_roundtrip_equals_simulate_fit_recover(tmp_path_factory, config):
    """``sgkit roundtrip`` exits as ``sgkit simulate``, ``fit`` and ``recover`` (with the
    config's constraints and residual threshold) do in sequence, and writes the same bytes."""
    workdir = tmp_path_factory.mktemp("roundtrip_property")
    path, data, fits = workdir / "c.json", workdir / "d.csv", workdir / "f.json"
    path.write_text(json.dumps(config))
    _, modes = load_config(path)
    assert run_main("simulate", "--config", path, "--out", data) == (0, [])
    assert run_main("fit", "--data", data, "--out", fits) == (0, [])
    staged = run_main("recover", "--fits", fits, "--out", workdir / "staged.json", "--constraints",
                      modes["constraints"], "--residual-threshold", repr(modes["residual_threshold"]))
    assert run_main("roundtrip", "--config", path, "--out", workdir / "rt.json") == staged
    assert report_bytes(workdir / "rt.json") == report_bytes(workdir / "staged.json")
