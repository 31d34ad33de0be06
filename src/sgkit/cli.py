"""Command-line harness: sgkit simulate | fit | recover | verify | roundtrip.

Exit codes: 0 success, 1 I/O failure, 2 config/format errors, 3 rank-deficient
fit, 4 model/experiment incompatibility, 5 verification failure, 6 any other
error (a defect, reported in one line that names the exception type).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# Each command imports the sgkit modules it runs when it runs: `sgkit verify`
# loads neither experiment nor estimate, and no other command loads verify.
from .errors import RankDeficientFit
from .linearize import (
    ObservableSpec,
    Outcome,
    PARAM_LABELS,
    PerturbationParams,
    Protocol,
    compare_with_paper,
    design_matrix,
    render_combination,
    transcribed_system,
)

if TYPE_CHECKING:
    from .estimate import FitResult
    from .experiment import ExperimentConfig

CONFIG_SCHEMA = "sgkit-config-v1"
FITS_SCHEMA = "sgkit-fits-v1"
RECOVERY_SCHEMA = "sgkit-recovery-v1"

DEFAULT_RESIDUAL_THRESHOLD = 1e-4
FIT_CHI2_THRESHOLD = 3.0
# Fits covariances may miss symmetry and semidefiniteness by rounding, relative
# to their largest entry: `sgkit fit` output is asymmetric by about 1e-17.
COVARIANCE_RTOL = 1e-9


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    """A finite int or float; bools and ints beyond float range are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require(config: dict, key: str, kind, what: str):
    """``config[key]`` of the given kind; ``float`` accepts only finite numbers."""
    if key not in config:
        raise ConfigError(f"missing key '{key}'")
    value = config[key]
    if kind is float:
        if not _is_number(value):
            raise ConfigError(f"key '{key}' must be {what}")
        return float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"key '{key}' must be {what}")
    if not isinstance(value, kind):
        raise ConfigError(f"key '{key}' must be {what}")
    return value


def _residual_threshold(value, where: str) -> float:
    if not _is_number(value) or value <= 0:
        raise ConfigError(f"{where} must be a positive finite number")
    return float(value)


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a run configuration; unknown keys are rejected."""
    from .experiment import ExperimentConfig

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    known = {
        "schema", "eta", "perturbation", "grid", "protocols", "shots", "seed",
        "strict_normalization", "constraints", "residual_threshold",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key '{key}'")

    if _require(raw, "schema", str, "a string") != CONFIG_SCHEMA:
        raise ConfigError(f"key 'schema' must equal '{CONFIG_SCHEMA}'")
    eta = _require(raw, "eta", float, "a finite number")
    if eta < 0:
        raise ConfigError("key 'eta' must be nonnegative")
    perturbation = _require(raw, "perturbation", list, "a list of 16 finite numbers")
    if len(perturbation) != 16 or not all(_is_number(x) for x in perturbation):
        raise ConfigError("key 'perturbation' must be a list of 16 finite numbers")
    grid = _require(raw, "grid", dict, "an object")
    for key in grid:
        if key not in ("n_theta", "n_phi"):
            raise ConfigError(f"unknown key 'grid.{key}'")
    n_theta = _require(grid, "n_theta", int, "an integer")
    n_phi = _require(grid, "n_phi", int, "an integer")
    if n_theta < 2:
        raise ConfigError("key 'grid.n_theta' must be >= 2")
    if n_phi < 3:
        raise ConfigError("key 'grid.n_phi' must be >= 3")
    protocol_names = _require(raw, "protocols", list, "a list")
    try:
        protocols = tuple(Protocol(name) for name in protocol_names)
    except ValueError as exc:
        raise ConfigError(f"key 'protocols' has an invalid entry: {exc}") from exc
    if not protocols:
        raise ConfigError("key 'protocols' must not be empty")
    shots = _require(raw, "shots", int, "an integer")
    if not 0 <= shots < 2 ** 63:  # the binomial sampler takes a C long
        raise ConfigError("key 'shots' must be nonnegative and below 2**63")
    seed = _require(raw, "seed", int, "an integer")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("key 'seed' must fit in 64 bits")
    strict = raw.get("strict_normalization", False)
    if not isinstance(strict, bool):
        raise ConfigError("key 'strict_normalization' must be a boolean")
    constraints = raw.get("constraints", "derived")
    if constraints not in ("derived", "paper"):
        raise ConfigError("key 'constraints' must be 'derived' or 'paper'")
    threshold = _residual_threshold(
        raw.get("residual_threshold", DEFAULT_RESIDUAL_THRESHOLD), "key 'residual_threshold'"
    )

    config = ExperimentConfig(
        perturbation=PerturbationParams.from_vector(perturbation, eta),
        n_theta=n_theta,
        n_phi=n_phi,
        protocols=protocols,
        shots=shots,
        seed=seed,
        strict_normalization=strict,
    )
    modes = {"constraints": constraints, "residual_threshold": threshold}
    return config, modes


def cmd_simulate(config_path, out_path) -> int:
    from .experiment import generate_dataset, write_dataset

    config, _ = load_config(config_path)
    dataset = generate_dataset(config)
    write_dataset(dataset, out_path)
    return 0


def _group_records(dataset):
    groups: dict[ObservableSpec, list] = {}
    for rec in dataset.records:
        groups.setdefault(rec.setting.observable, []).append(rec)
    return groups


def _observable_dict(obs: ObservableSpec) -> dict:
    return {"protocol": obs.protocol.value, "m": obs.m, "outcome": obs.outcome.value}


def _observable_from_dict(data, where: str) -> ObservableSpec:
    try:
        m = data["m"]
        if isinstance(m, int) and not isinstance(m, bool):
            return ObservableSpec(Protocol(data["protocol"]), Outcome(data["outcome"]), m)
    except (KeyError, TypeError, ValueError):
        pass
    raise ConfigError(f"{where} must be an object with a protocol, an outcome and m in 0..2")


def _numbers(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Nested lists of finite numbers with the given shape, as a float array."""

    def fits_shape(v, dims) -> bool:
        if not dims:
            return _is_number(v)
        return isinstance(v, list) and len(v) == dims[0] and all(fits_shape(x, dims[1:]) for x in v)

    if not fits_shape(value, shape):
        raise ConfigError(f"{where} must be {' x '.join(map(str, shape))} finite numbers")
    return np.array(value, dtype=float)


def cmd_fit(data_path, out_path) -> int:
    from .estimate import fit_affine
    from .experiment import read_dataset

    dataset = read_dataset(data_path)
    fits = [fit_affine(records) for records in _group_records(dataset).values()]
    document = {
        "schema": FITS_SCHEMA,
        "eta": dataset.meta.eta,
        "strict_normalization": dataset.meta.strict_normalization,
        "fits": [
            {
                "observable": _observable_dict(fit.observable),
                "coefficients": fit.coefficients.tolist(),
                "covariance": fit.covariance.tolist(),
                "chi_square": fit.chi_square,
                "degrees_of_freedom": fit.degrees_of_freedom,
            }
            for fit in fits
        ],
    }
    _write_json(document, out_path)
    return 0


def _write_json(document: dict, path) -> None:
    """Write strict JSON: a non-finite number raises ValueError before the file is opened."""
    text = json.dumps(document, indent=1, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load_fits(path) -> tuple[list[FitResult], float]:
    from .estimate import FitResult

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read fits: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise ConfigError(f"fits document is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("fits document must be a JSON object")
    if raw.get("schema") != FITS_SCHEMA:
        raise ConfigError(f"fits document must declare schema '{FITS_SCHEMA}'")
    eta = raw.get("eta")
    if not _is_number(eta) or eta < 0:
        raise ConfigError("key 'eta' must be a nonnegative number")
    items = raw.get("fits")
    if not isinstance(items, list):
        raise ConfigError("key 'fits' must be a list")
    fits = []
    first_index = {}
    for n, item in enumerate(items):
        where = f"fits[{n}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where} must be an object")
        chi_square = item.get("chi_square")
        if not _is_number(chi_square) or chi_square < 0:
            raise ConfigError(f"{where}.chi_square must be a nonnegative number")
        dof = item.get("degrees_of_freedom")
        # Beyond 2**53 a count is no longer an exact float, and beyond 2**1024 no float.
        if not isinstance(dof, int) or isinstance(dof, bool) or not 1 <= dof <= 2 ** 53:
            raise ConfigError(f"{where}.degrees_of_freedom must be an integer in 1..2**53")
        observable = _observable_from_dict(item.get("observable"), f"{where}.observable")
        if observable in first_index:
            raise ConfigError(
                f"{where}.observable {observable.label()} repeats fits[{first_index[observable]}]"
            )
        first_index[observable] = n
        fits.append(
            FitResult(
                observable=observable,
                coefficients=_numbers(item.get("coefficients"), (4,), f"{where}.coefficients"),
                covariance=_covariance(item.get("covariance"), f"{where}.covariance"),
                chi_square=float(chi_square),
                degrees_of_freedom=dof,
            )
        )
    return fits, float(eta)


def _covariance(value, where: str) -> np.ndarray:
    """A 4 x 4 symmetric positive semidefinite matrix, to COVARIANCE_RTOL of its largest entry."""
    covariance = _numbers(value, (4, 4), where)
    largest = float(np.max(np.abs(covariance)))
    unit = covariance / largest if largest > 0.0 else covariance
    if np.max(np.abs(unit - unit.T)) > COVARIANCE_RTOL:
        raise ConfigError(f"{where} must be symmetric")
    if np.linalg.eigvalsh(0.5 * (unit + unit.T))[0] < -COVARIANCE_RTOL:
        raise ConfigError(f"{where} must be positive semidefinite")
    return covariance


def _recovery_report(fits, eta, constraints, residual_threshold) -> dict:
    """The recovery report as the JSON document that ``sgkit recover`` writes."""
    from .estimate import goodness_of_fit, recover_parameters

    if constraints == "paper":
        system = transcribed_system()
    else:
        system = design_matrix([fit.observable for fit in fits])
    result = recover_parameters(fits, system, eta=eta)
    quality = goodness_of_fit(fits, threshold=FIT_CHI2_THRESHOLD)
    if result.chi_square is not None and result.degrees_of_freedom:
        recovery_ok = result.chi_square <= FIT_CHI2_THRESHOLD * result.degrees_of_freedom
    else:
        recovery_ok = result.residual_norm <= residual_threshold
    return {
        "schema": RECOVERY_SCHEMA,
        "constraints": constraints,
        "eta": eta,
        "parameter_labels": list(PARAM_LABELS),
        "parameters": result.parameters.tolist(),
        "rank": result.rank,
        "nullspace": result.nullspace_basis.tolist(),
        "row_space": result.row_space_basis.tolist(),
        "residual_norm": result.residual_norm,
        "covariance": None if result.covariance is None else result.covariance.tolist(),
        "recovery_chi_square": result.chi_square,
        "recovery_degrees_of_freedom": result.degrees_of_freedom,
        "fit_quality": {
            "per_fit": [[label, value] for label, value in quality.per_fit],
            "chi_square": quality.chi_square,
            "degrees_of_freedom": quality.degrees_of_freedom,
            "threshold": quality.threshold,
            "compatible": quality.compatible,
        },
        "comparison": compare_with_paper(),
        "compatible": bool(quality.compatible and recovery_ok),
    }


def _report_text(document: dict) -> str:
    """The TXT report, rendered from the JSON document alone."""
    lines = [
        "parameter recovery report",
        f"constraint system: {document['constraints']}",
        f"eta: {document['eta']:.6g}",
        "",
        "recovered parameters (minimum-norm):",
    ]
    for label, value in zip(document["parameter_labels"], document["parameters"]):
        lines.append(f"  {label:12s} {value: .6e}")
    lines.append("")
    lines.append(f"rank: {document['rank']} of 16")
    lines.append(f"residual (probability scale): {document['residual_norm']:.6e}")
    if document["recovery_chi_square"] is not None:
        lines.append(
            f"recovery chi-square: {document['recovery_chi_square']:.4g}"
            f" over {document['recovery_degrees_of_freedom']} dof"
        )
    lines.append("unidentifiable directions:")
    for vec in document["nullspace"]:
        lines.append(f"  {render_combination(vec, zero_tol=1e-8)}")
    quality = document["fit_quality"]
    lines.append("")
    lines.append(f"fit chi-square: {quality['chi_square']:.4g} over {quality['degrees_of_freedom']} dof")
    lines.append(f"fit compatibility: {'yes' if quality['compatible'] else 'NO'}")
    lines.append(f"overall compatibility: {'yes' if document['compatible'] else 'NO'}")
    lines.append("")
    entries = document["comparison"]["entries"]
    width = max(len(e["paper_equation"]) for e in entries)
    lines.append("reference equation".ljust(width) + "  verdict               generated counterpart")
    for e in entries:
        lines.append(f"{e['paper_equation'].ljust(width)}  {e['verdict'].ljust(20)}  {e['generated_row']}")
    for note in document["comparison"]["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def cmd_recover(fits_path, out_path, constraints="derived", residual_threshold=DEFAULT_RESIDUAL_THRESHOLD) -> int:
    residual_threshold = _residual_threshold(residual_threshold, "option '--residual-threshold'")
    fits, eta = _load_fits(fits_path)
    document = _recovery_report(fits, eta, constraints, residual_threshold)
    _write_json(document, out_path)
    Path(out_path).with_suffix(".txt").write_text(_report_text(document), encoding="utf-8")
    return 0 if document["compatible"] else 4


def cmd_verify() -> int:
    from .verify import run_all

    results = run_all()
    width = max(len(name) for name, _, _ in results)
    failures = []
    for name, ok, detail in results:
        print(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 5
    return 0


def cmd_roundtrip(config_path, out_path) -> int:
    from .experiment import generate_dataset, write_dataset

    config, modes = load_config(config_path)
    with tempfile.TemporaryDirectory() as workdir:
        data_path = Path(workdir) / "dataset.csv"
        fits_path = Path(workdir) / "fits.json"
        write_dataset(generate_dataset(config), data_path)
        status = cmd_fit(data_path, fits_path)
        if status != 0:
            return status
        return cmd_recover(
            fits_path,
            out_path,
            constraints=modes["constraints"],
            residual_threshold=modes["residual_threshold"],
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit affine deviation coefficients")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("recover", help="recover instrument parameters from fits")
    p.add_argument("--fits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--constraints", choices=("derived", "paper"), default="derived")
    p.add_argument("--residual-threshold", type=float, default=DEFAULT_RESIDUAL_THRESHOLD)

    p = sub.add_parser("verify", help="run the oracle and invariant suites")

    p = sub.add_parser("roundtrip", help="simulate, fit and recover in one run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "fit":
            return cmd_fit(args.data, args.out)
        if args.command == "recover":
            return cmd_recover(
                args.fits, args.out,
                constraints=args.constraints,
                residual_threshold=args.residual_threshold,
            )
        if args.command == "verify":
            return cmd_verify()
        if args.command == "roundtrip":
            return cmd_roundtrip(args.config, args.out)
        raise AssertionError("unreachable")
    except RankDeficientFit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, FormatError and invalid model values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not a bad input: still one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
