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

from sgkit.cli import ConfigError, load_config, main

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
        predicted = eta * affine_coefficients(truth, obs).as_array()
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


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "cyclic-permutation-identity" in out
    assert "probability-completeness" in out
    assert "FAIL" not in out


def test_verify_reports_failures(monkeypatch, capsys):
    import sgkit.cli

    monkeypatch.setattr(
        sgkit.cli, "run_all", lambda: [("broken-check", False, "too big")]
    )
    assert main(["verify"]) == 5
    captured = capsys.readouterr()
    assert "broken-check" in captured.out
    assert "broken-check" in captured.err


def test_simulate_unwritable_output_exit_1(tmp_path):
    out = tmp_path / "no_such_dir" / "data.csv"
    assert main(["simulate", "--config", str(EXACT_CONFIG), "--out", str(out)]) == 1


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
