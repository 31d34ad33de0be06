import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgkit.cli
from sgkit.cli import ConfigError, _report_text, load_config, main

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


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_unknown_key(tmp_path, capsys):
    config = write_config(tmp_path / "bad.json", extra_knob=1)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    assert "extra_knob" in capsys.readouterr().err


def test_simulate_bad_value(tmp_path, capsys):
    config = write_config(tmp_path / "bad.json", eta=-1.0)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    assert "eta" in capsys.readouterr().err


def one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize(
    "key, value",
    [
        ("eta", float("nan")),
        ("eta", float("inf")),
        ("perturbation", [0.0] * 15 + [float("nan")]),
        ("perturbation", [float("-inf")] + [0.0] * 15),
        ("residual_threshold", float("nan")),
        ("residual_threshold", float("inf")),
    ],
)
def test_non_finite_config_value_exit_2(tmp_path, capsys, key, value):
    config = write_config(tmp_path / "bad.json", **{key: value})  # json writes NaN/Infinity
    assert main(["roundtrip", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
    assert f"'{key}'" in one_error_line(capsys)


def run_sgkit(*args) -> subprocess.CompletedProcess:
    """``python -m sgkit ARGS`` in a fresh interpreter, so stderr is exactly what a user sees."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sgkit", *map(str, args)],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
    )


def test_overflowing_model_probability_exit_2(tmp_path):
    """Finite inputs whose probabilities overflow are an error, not a clamp to [0, 1],
    and the error is all of stderr: no numpy warning comes before it."""
    config = write_config(tmp_path / "huge.json", eta=1e100)
    proc = run_sgkit("roundtrip", "--config", config, "--out", tmp_path / "r.json")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not finite" in lines[0], proc.stderr


def ill_conditioned_perturbation() -> list[float]:
    """At eta 10 the branch sum S of this instrument is positive definite but so
    ill-conditioned that S^(-1/2) leaves a completeness residual near 1.7e-7."""
    vec = [0.0] * 16
    vec[0] = vec[4] = 9.95
    vec[8], vec[12] = -0.0499, 0.05
    return vec


@pytest.mark.parametrize("command", ["simulate", "roundtrip"])
def test_strict_normalization_of_ill_conditioned_instrument_exit_2(tmp_path, capsys, command):
    """Strict normalization that cannot meet the completeness tolerance is an error,
    not a dataset from an instrument that is still not normalized."""
    config = write_config(
        tmp_path / "ill.json", eta=10.0, perturbation=ill_conditioned_perturbation(), strict_normalization=True
    )
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "ill-conditioned" in one_error_line(capsys)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
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
        fits, eta = sgkit.cli._load_fits(path)
    except ConfigError:
        return
    assert np.isfinite(eta) and eta >= 0
    for fit in fits:
        assert np.isfinite(fit.coefficients).all() and np.isfinite(fit.covariance).all()


def test_fit_zero_eta_gives_zero_coefficients(tmp_path):
    config = write_config(tmp_path / "zero.json", eta=0.0, perturbation=[0.0] * 16)
    data, fits = tmp_path / "data.csv", tmp_path / "fits.json"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--out", str(fits)]) == 0
    document = json.loads(fits.read_text())
    assert document["schema"] == "sgkit-fits-v1"
    for fit in document["fits"]:
        assert np.max(np.abs(fit["coefficients"])) < 1e-10


def test_fit_matches_linear_model(tmp_path):
    """Fitted coefficients agree with the first-order model to O(eta)."""
    from sgkit.linearize import (
        ObservableSpec,
        Outcome,
        PerturbationParams,
        Protocol,
        affine_coefficients,
    )

    eta = 1e-3
    data, fits = tmp_path / "data.csv", tmp_path / "fits.json"
    main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(data)])
    main(["fit", "--data", str(data), "--out", str(fits)])
    document = json.loads(fits.read_text())
    truth = PerturbationParams.from_vector(
        json.loads(EXACT_CONFIG.read_text())["perturbation"], 0.0
    )
    for fit in document["fits"]:
        obs = ObservableSpec(
            Protocol(fit["observable"]["protocol"]),
            Outcome(fit["observable"]["outcome"]),
            fit["observable"]["m"],
        )
        predicted = eta * affine_coefficients(truth, obs)
        assert np.max(np.abs(np.array(fit["coefficients"]) - predicted)) <= 10 * eta * eta


def test_fit_truncated_dataset_exit_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(data)])
    lines = data.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    truncated = lines[: header_at + 1] + lines[header_at + 1 : header_at + 4]
    data.write_text("\n".join(truncated) + "\n")
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]) == 3
    assert "single/m0/up" in capsys.readouterr().err


def test_fit_malformed_dataset_exit_2(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("not a dataset\n")
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]) == 2


@pytest.mark.parametrize(
    "line", ["# eta=nan", "# eta=inf", "# eta=-0.001", "# strict_normalization=yes"]
)
def test_fit_bad_dataset_metadata_exit_2(tmp_path, capsys, line):
    """Metadata that `sgkit fit` would copy into invalid JSON, or read as another
    value than it says, is a format error."""
    data, fits = tmp_path / "data.csv", tmp_path / "fits.json"
    assert main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(data)]) == 0
    key = line.partition("=")[0]
    edited = [line if old.startswith(key + "=") else old for old in data.read_text().splitlines()]
    data.write_text("\n".join(edited) + "\n")
    assert main(["fit", "--data", str(data), "--out", str(fits)]) == 2
    assert key[2:] in one_error_line(capsys)
    assert not fits.exists()


def test_shots_beyond_the_sampler_range_exit_2(tmp_path, capsys):
    """The binomial sampler takes a C long, so 2**63 shots is a config error."""
    assert load_config(write_config(tmp_path / "max.json", shots=2 ** 63 - 1))[0].shots == 2 ** 63 - 1
    config = write_config(tmp_path / "huge.json", shots=2 ** 63)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    assert "'shots'" in one_error_line(capsys)


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


def _malformed_fits(tmp_path, edit):
    data, fits = tmp_path / "d.csv", tmp_path / "f.json"
    main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(data)])
    main(["fit", "--data", str(data), "--out", str(fits)])
    fits.write_text(json.dumps(edit(json.loads(fits.read_text()))))
    return fits


def _recover_exit(fits, tmp_path, capsys):
    status = main(["recover", "--fits", str(fits), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return status, err


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1e-4"])
def test_recover_bad_residual_threshold_exit_2(tmp_path, capsys, threshold):
    fits = _malformed_fits(tmp_path, lambda document: document)
    capsys.readouterr()
    args = ["recover", "--fits", str(fits), "--out", str(tmp_path / "r.json")]
    assert main([*args, f"--residual-threshold={threshold}"]) == 2
    assert "--residual-threshold" in one_error_line(capsys)


def test_recover_fits_without_fits_key_exit_2(tmp_path, capsys):
    def drop_fits(document):
        del document["fits"]
        return document

    status, err = _recover_exit(_malformed_fits(tmp_path, drop_fits), tmp_path, capsys)
    assert status == 2 and "'fits'" in err


def test_recover_fits_top_level_list_exit_2(tmp_path, capsys):
    status, err = _recover_exit(_malformed_fits(tmp_path, lambda d: [d]), tmp_path, capsys)
    assert status == 2 and "JSON object" in err


def test_recover_fits_short_coefficients_exit_2(tmp_path, capsys):
    def truncate(document):
        document["fits"][0]["coefficients"] = document["fits"][0]["coefficients"][:3]
        return document

    status, err = _recover_exit(_malformed_fits(tmp_path, truncate), tmp_path, capsys)
    assert status == 2 and "fits[0].coefficients" in err


def test_recover_fits_duplicate_observable_exit_2(tmp_path, capsys):
    def repeat(document):
        document["fits"].append(document["fits"][2])
        return document

    fits = _malformed_fits(tmp_path, repeat)
    last = len(json.loads(fits.read_text())["fits"]) - 1
    status, err = _recover_exit(fits, tmp_path, capsys)
    assert status == 2 and f"fits[{last}].observable" in err and "fits[2]" in err


@pytest.mark.parametrize(
    "entry, problem", [((0, 0), "positive semidefinite"), ((0, 1), "symmetric")]
)
def test_recover_fits_bad_covariance_exit_2(tmp_path, capsys, entry, problem):
    def edit(document):
        row, column = entry
        document["fits"][3]["covariance"][row][column] = -1.0
        return document

    status, err = _recover_exit(_malformed_fits(tmp_path, edit), tmp_path, capsys)
    assert status == 2 and "fits[3].covariance" in err and f"must be {problem}" in err


@pytest.mark.parametrize("eta", [1e160, 1e-200])
def test_recover_extreme_fits_eta_no_traceback(tmp_path, eta):
    """Scaling the fitted variances by 1/eta overflows neither way into an exception."""

    def set_eta(document):
        document["eta"] = eta
        return document

    fits = _malformed_fits(tmp_path, set_eta)
    proc = run_sgkit("recover", "--fits", fits, "--out", tmp_path / "r.json")
    assert proc.returncode in (0, 4), proc.stderr
    assert "Traceback" not in proc.stderr


def test_recover_paper_constraints(tmp_path):
    data, fits, report = tmp_path / "d.csv", tmp_path / "f.json", tmp_path / "r.json"
    main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(data)])
    main(["fit", "--data", str(data), "--out", str(fits)])
    status = main(["recover", "--fits", str(fits), "--out", str(report), "--constraints", "paper"])
    assert status in (0, 4)
    document = json.loads(report.read_text())
    assert document["constraints"] == "paper"
    verdicts = {entry["verdict"] for entry in document["comparison"]["entries"]}
    assert "SignDiscrepancy" in verdicts and "StructureDiscrepancy" in verdicts


@pytest.mark.parametrize("constraints", ["derived", "paper"])
@pytest.mark.parametrize("config", ["exact", "sampled"])
def test_txt_report_is_rendered_from_the_json(tmp_path, bundled_outputs, config, constraints):
    report = tmp_path / "r.json"
    fits = bundled_outputs[config]["fits"]
    assert main(["recover", "--fits", str(fits), "--out", str(report), "--constraints", constraints]) in (0, 4)
    text = report.with_suffix(".txt").read_text()
    assert text == _report_text(json.loads(report.read_text()))
    assert "Confirmed" in text and "SignDiscrepancy" in text


def strict_json(text: str):
    """JSON that may not contain NaN or Infinity."""

    def reject(constant):
        raise AssertionError(f"non-finite number {constant} in a written file")

    return json.loads(text, parse_constant=reject)


def _huge_degrees_of_freedom(document):
    document["fits"][0]["degrees_of_freedom"] = 10 ** 400


def _huge_chi_squares(document):
    for fit in document["fits"][:2]:
        fit["chi_square"] = 1.5e308


def _subnormal_covariances(document):
    for fit in document["fits"]:
        fit["covariance"] = np.diag([5e-324] * 4).tolist()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_huge_degrees_of_freedom, "fits[0].degrees_of_freedom"),
        (_huge_chi_squares, "fit chi-square overflows"),
        (_subnormal_covariances, "recovery chi-square overflows"),
    ],
)
def test_recover_overflowing_fits_exit_2(tmp_path, capsys, bundled_outputs, edit, message):
    """Fits that parse but overflow a chi-square exit 2 with one line and write no report."""
    document = json.loads(bundled_outputs["sampled"]["fits"].read_text())
    edit(document)
    fits, report = tmp_path / "f.json", tmp_path / "r.json"
    fits.write_text(json.dumps(document))
    assert main(["recover", "--fits", str(fits), "--out", str(report)]) == 2
    assert message in one_error_line(capsys)
    assert not report.exists() and not report.with_suffix(".txt").exists()


def test_fit_shots_beyond_float_range_exit_2(tmp_path, capsys, bundled_outputs):
    """A count that overflows the fit's weights is a format error naming its line."""
    lines = bundled_outputs["sampled"]["data"].read_text().splitlines()
    line = next(i for i, text in enumerate(lines) if not text.startswith("#")) + 1
    parts = lines[line].split(",")
    parts[5:7] = [str(10 ** 400), str(10 ** 399)]
    lines[line] = ",".join(parts)
    data, fits = tmp_path / "d.csv", tmp_path / "f.json"
    data.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--data", str(data), "--out", str(fits)]) == 2
    assert f"line {line + 1}: shots" in one_error_line(capsys)
    assert not fits.exists()


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


@pytest.mark.parametrize("eta", [1e-200, 1e-310])
def test_roundtrip_tiny_eta_residual_does_not_overflow(tmp_path, capsys, eta):
    """At a tiny eta the fitted coefficients c are sampling noise and c / eta is
    huge, yet the residual norm on the probability scale stays finite, with no
    warning (every warning fails the suite)."""
    config = write_config(tmp_path / "tiny.json", eta=eta, shots=1_000_000)
    report = tmp_path / "r.json"
    assert main(["roundtrip", "--config", str(config), "--out", str(report)]) == 4
    assert capsys.readouterr().err == ""
    assert 0.0 < json.loads(report.read_text())["residual_norm"] < 1e-2


def test_roundtrip_subnormal_eta_exit_2(tmp_path, capsys):
    """A fitted coefficient divided by a subnormal eta overflows: one error line, exit 2."""
    config = write_config(tmp_path / "tiny.json", eta=1e-320, shots=1_000_000)
    assert main(["roundtrip", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
    assert "overflow" in one_error_line(capsys)


def imported_sgkit_modules(*args) -> set[str]:
    """The sgkit modules a fresh ``python -X importtime ARGS`` imports, read from its log."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *map(str, args)],
        capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {name for name in names if name == "sgkit" or name.startswith("sgkit.")}


def test_each_command_imports_only_what_it_runs(tmp_path):
    assert imported_sgkit_modules("-c", "import sgkit") == {"sgkit"}
    verify = imported_sgkit_modules("-m", "sgkit.cli", "verify")
    assert "sgkit.verify" in verify
    assert not verify & {"sgkit.estimate", "sgkit.experiment"}, verify
    roundtrip = imported_sgkit_modules(
        "-m", "sgkit", "roundtrip", "--config", EXACT_CONFIG, "--out", tmp_path / "r.json"
    )
    assert {"sgkit.estimate", "sgkit.experiment"} <= roundtrip
    assert "sgkit.verify" not in roundtrip, roundtrip


def test_console_script_installed(tmp_path):
    """The command pyproject.toml declares runs ``simulate``, from the tree alone.

    The declared target is run the way the generated wrapper runs it, and so is
    ``python -m sgkit``. A program of the declared name on PATH must write the
    same bytes, so a foreign tool of that name fails the test.
    """
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    ((name, target),) = scripts.items()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    wrapper = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint({name!r}, {target!r}, 'console_scripts').load()())"
    )
    launchers = {
        "entry point": [sys.executable, "-c", wrapper],
        "python -m sgkit": [sys.executable, "-m", "sgkit"],
    }
    exe = shutil.which(name)
    if exe is not None:
        launchers[exe] = [exe]
    outputs = {}
    for label, command in launchers.items():
        out = tmp_path / f"d{len(outputs)}.csv"
        proc = subprocess.run(
            [*command, "simulate", "--config", str(EXACT_CONFIG), "--out", str(out)],
            capture_output=True, text=True, env=env, stdin=subprocess.DEVNULL, timeout=120,
        )
        assert proc.returncode == 0, f"{label}: {proc.stderr.strip()}"
        outputs[label] = out.read_bytes()
    first = outputs.pop("entry point")
    assert first
    for label, data in outputs.items():
        assert data == first, f"{label} wrote different bytes"
