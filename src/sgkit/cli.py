"""Command-line harness: sgkit simulate | fit | recover | verify | roundtrip.

Exit codes: 0 success, 1 I/O failure, 2 config/format errors, 3 rank-deficient
fit, 4 model/experiment incompatibility, 5 verification failure, 6 any other
error (a defect, reported in one line that names the exception type).
"""

from __future__ import annotations

import os

# Set before numpy loads OpenBLAS: sgkit's largest BLAS operand, one observable's
# (n_theta*n_phi)x4 least squares (128x4 on 8x16), is too small to share out.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# Each command imports the sgkit modules it runs when it runs: `sgkit verify`
# loads neither experiment nor estimate, and no other command loads verify.
from .errors import RankDeficientFit
from .fields import (
    EXACT_INTEGERS, N_PHI, N_THETA, NONNEGATIVE, SEED, SHOTS, STRICT_NORMALIZATION, Field, integer, number, of_type,
    read_fields,
)
from .linearize import (
    ObservableSpec,
    Outcome,
    PARAM_LABELS,
    PerturbationParams,
    Protocol,
    compare_with_paper,
    default_observables,
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

# Each constraints mode and the recovery system it solves for fits of the given observables.
CONSTRAINTS = {"derived": design_matrix, "paper": lambda observables: transcribed_system()}
DEFAULT_RESIDUAL_THRESHOLD = 1e-4
# Fits covariances may miss symmetry and semidefiniteness by rounding, relative
# to their largest entry: `sgkit fit` output is asymmetric by about 1e-17.
COVARIANCE_RTOL = 1e-9


class ConfigError(ValueError):
    pass


def _config_error(message: str, _key: str) -> ConfigError:
    return ConfigError(message)


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error, never a silent overwrite."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ConfigError(f"repeated key '{key}'")
        document[key] = value
    return document


def _read_json_object(path, document: str) -> dict:
    """The JSON object stored at ``path``; ``document`` names it in every error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {document}: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise ConfigError(f"{document} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{document} must be a JSON object")
    return raw


def _array(shape: tuple[int, ...]):
    """A parser of nested lists of finite JSON numbers with the given shape, to a float array."""

    def nested(value, dims):
        if not dims:
            return number(value)
        if type(value) is not list or len(value) != dims[0]:
            raise ValueError(f"not a list of {dims[0]}")
        return [nested(x, dims[1:]) for x in value]

    return lambda value: np.array(nested(value, shape), dtype=float)


def _observable(value) -> ObservableSpec:
    if of_type(dict)(value).keys() != {"protocol", "outcome", "m"}:
        raise ValueError("not the keys of an observable")
    return ObservableSpec(Protocol(value["protocol"]), Outcome(value["outcome"]), integer(value["m"]))


def _covariance(covariance: np.ndarray) -> bool:
    """Symmetric and positive semidefinite, to COVARIANCE_RTOL of the largest entry."""
    largest = float(np.max(np.abs(covariance)))
    unit = covariance / largest if largest > 0.0 else covariance
    return bool(
        np.max(np.abs(unit - unit.T)) <= COVARIANCE_RTOL
        and np.linalg.eigvalsh(0.5 * (unit + unit.T))[0] >= -COVARIANCE_RTOL
    )


CONFIG_FIELDS = {
    "schema": Field(of_type(str), f"'{CONFIG_SCHEMA}'", lambda value: value == CONFIG_SCHEMA),
    "eta": NONNEGATIVE,
    "perturbation": Field(_array((16,)), "a list of 16 finite numbers"),
    "grid": Field(of_type(dict), "an object"),
    "protocols": Field(
        lambda value: tuple(map(Protocol, of_type(list)(value))), "a non-empty list of 'single' and 'successive'", bool
    ),
    "shots": SHOTS,
    "seed": SEED,
    "strict_normalization": STRICT_NORMALIZATION,
    "constraints": Field(of_type(str), " or ".join(map(repr, CONSTRAINTS)), CONSTRAINTS.__contains__, "derived"),
    "residual_threshold": Field(
        number, "a positive finite number", lambda x: x > 0.0, DEFAULT_RESIDUAL_THRESHOLD
    ),
}
GRID_FIELDS = {"n_theta": N_THETA, "n_phi": N_PHI}
FITS_FIELDS = {
    "schema": Field(of_type(str), f"'{FITS_SCHEMA}'", lambda value: value == FITS_SCHEMA),
    "eta": NONNEGATIVE,
    "strict_normalization": STRICT_NORMALIZATION,
    "fits": Field(
        lambda value: [of_type(dict)(item) for item in of_type(list)(value)], "a non-empty list of objects", bool
    ),
}
FIT_FIELDS = {
    "observable": Field(_observable, "an object with a protocol, an outcome and m in 0..2"),
    "coefficients": Field(_array((4,)), "a list of 4 finite numbers"),
    "covariance": Field(
        _array((4, 4)), "a symmetric positive semidefinite 4 x 4 matrix of finite numbers", _covariance
    ),
    "chi_square": NONNEGATIVE,
    "degrees_of_freedom": Field(integer, "an integer in [1, 2**53]", lambda n: 1 <= n <= EXACT_INTEGERS),
}


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Read a run configuration through CONFIG_FIELDS and GRID_FIELDS."""
    from .experiment import ExperimentConfig

    values = read_fields(CONFIG_FIELDS, _read_json_object(path, "config"), _config_error)
    grid = read_fields(GRID_FIELDS, values["grid"], _config_error, "grid.")
    perturbation = PerturbationParams.from_vector(values["perturbation"], values["eta"])
    run = {key: values[key] for key in ("protocols", "shots", "seed", "strict_normalization")}
    modes = {key: values[key] for key in ("constraints", "residual_threshold")}
    return ExperimentConfig(perturbation, **grid, **run), modes


def _check_out(in_path, out_path, report: bool = False) -> None:
    """ConfigError unless the input and the files the command writes, ``out_path`` and for a report
    its .txt sibling, are distinct after ``Path.resolve()``: no output overwrites another file."""
    outputs = [Path(out_path)]
    if report:
        outputs.append(outputs[0].with_suffix(".txt"))
    if len({Path(path).resolve() for path in (in_path, *outputs)}) <= len(outputs):
        files = "the JSON report, the text report (.txt) and the input" if report else "the output and the input"
        raise ConfigError(f"option '--out' {str(out_path)!r}: {files} must be distinct files")


def cmd_simulate(config_path, out_path) -> int:
    from .experiment import generate_dataset, write_dataset

    _check_out(config_path, out_path)
    config, _ = load_config(config_path)
    write_dataset(generate_dataset(config), out_path)
    return 0


def _fit_dataset(dataset) -> list[FitResult]:
    """One affine fit per observable of ``dataset``, in the order of their first records."""
    from .estimate import fit_affine

    groups: dict[ObservableSpec, list] = {}
    for rec in dataset.records:
        groups.setdefault(rec.setting.observable, []).append(rec)
    return [fit_affine(records) for records in groups.values()]


def cmd_fit(data_path, out_path) -> int:
    from .experiment import FormatError, read_dataset

    _check_out(data_path, out_path)
    dataset = read_dataset(data_path)
    if not dataset.records:
        raise FormatError("dataset has no records")
    fits = _fit_dataset(dataset)
    _require_one_kind(fits, FormatError, "dataset")
    document = {
        "schema": FITS_SCHEMA,
        "eta": dataset.meta.eta,
        "strict_normalization": dataset.meta.strict_normalization,
        "fits": [{key: _plain(getattr(fit, key)) for key in FIT_FIELDS} for fit in fits],
    }
    _write_json(document, out_path)
    return 0


def _plain(value):
    """A FitResult field as JSON data: an observable as its protocol, m and outcome, an array as lists."""
    if isinstance(value, ObservableSpec):
        return {"protocol": value.protocol.value, "m": value.m, "outcome": value.outcome.value}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _require_one_kind(fits, error: type[ValueError], what: str) -> None:
    """Refuse exact fits next to sampled ones: recovery would drop its chi-square for all."""
    kinds = {fit.has_variance: fit.observable.label() for fit in fits}
    if len(kinds) > 1:
        raise error(f"{what} mixes exact ({kinds[False]}) and sampled ({kinds[True]}) observables")


def _write_json(document: dict, path) -> None:
    """Write strict JSON: a non-finite number raises ValueError before the file is opened."""
    text = json.dumps(document, indent=1, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load_fits(path) -> tuple[list[FitResult], float, bool]:
    """The fits, eta and strict_normalization of a fits document, read through
    FITS_FIELDS and FIT_FIELDS; no observable may have two entries."""
    from .estimate import FitResult

    document = read_fields(FITS_FIELDS, _read_json_object(path, "fits document"), _config_error)
    fits = []
    first_index = {}
    for n, entry in enumerate(document["fits"]):
        fit = FitResult(**read_fields(FIT_FIELDS, entry, _config_error, f"fits[{n}]."))
        first = first_index.setdefault(fit.observable, n)
        if first != n:
            raise ConfigError(f"fits[{n}].observable {fit.observable.label()} repeats fits[{first}]")
        fits.append(fit)
    _require_one_kind(fits, ConfigError, "fits document")
    return fits, document["eta"], document["strict_normalization"]


def _write_report(out_path, fits, eta, strict_normalization, constraints, system, residual_threshold) -> int:
    """Write the report of ``fits`` recovered against ``system``, the ``constraints`` mode's, as JSON to
    ``out_path`` and, rendered from the JSON, as TXT to its .txt sibling; 0 if compatible, else 4."""
    from .estimate import goodness_of_fit, overall_compatible, recover_parameters

    result = recover_parameters(fits, system, eta=eta)
    quality = goodness_of_fit(fits)
    document = {
        "schema": RECOVERY_SCHEMA,
        "constraints": constraints,
        "eta": eta,
        "strict_normalization": strict_normalization,
        "parameter_labels": list(PARAM_LABELS),
        "parameters": result.parameters.tolist(),
        "rank": result.rank,
        "nullspace": result.nullspace_basis.tolist(),
        "row_space": result.row_space_basis.tolist(),
        "residual_norm": result.residual_norm,
        "covariance": None if result.covariance is None else result.covariance.tolist(),
        "recovery_chi_square": result.chi_square,
        "recovery_degrees_of_freedom": result.degrees_of_freedom,
        "fit_quality": quality._asdict(),
        "comparison": compare_with_paper(),
        "compatible": overall_compatible(quality, result, residual_threshold),
    }
    _write_json(document, out_path)
    Path(out_path).with_suffix(".txt").write_text(_report_text(document), encoding="utf-8")
    return 0 if document["compatible"] else 4


def _report_text(document: dict) -> str:
    """The TXT report, rendered from the JSON document alone."""
    lines = [
        "parameter recovery report",
        f"constraint system: {document['constraints']}",
        f"eta: {document['eta']:.6g}",
        f"strict normalization: {'yes' if document['strict_normalization'] else 'no'}",
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
    elif document["covariance"] is not None:
        lines.append("recovery chi-square: none, no degrees of freedom left")
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


def cmd_recover(fits_path, out_path, constraints, residual_threshold) -> int:
    _check_out(fits_path, out_path, report=True)
    CONFIG_FIELDS["residual_threshold"].read("option '--residual-threshold'", residual_threshold)
    fits, eta, strict_normalization = _load_fits(fits_path)
    system = CONSTRAINTS[constraints]([fit.observable for fit in fits])
    return _write_report(out_path, fits, eta, strict_normalization, constraints, system, residual_threshold)


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
    """simulate, fit and recover in memory, after refusing a config whose system reads an unmeasured fit."""
    from .estimate import require_fits
    from .experiment import generate_dataset

    _check_out(config_path, out_path, report=True)
    config, modes = load_config(config_path)
    # The observables of the fits this run makes, in the order it makes them.
    observables = [obs for obs in default_observables() if obs.protocol in config.protocols]
    system = CONSTRAINTS[modes["constraints"]](observables)
    require_fits(system, observables)
    dataset = generate_dataset(config)
    fits = _fit_dataset(dataset)
    return _write_report(out_path, fits, dataset.meta.eta, dataset.meta.strict_normalization, system=system, **modes)


# Each command's help, required flags and call on the parsed arguments. A call
# looks its cmd_* function up when it runs, so replacing one replaces the command.
COMMANDS = {
    "simulate": (
        "generate a dataset from a config", ("--config", "--out"), lambda a: cmd_simulate(a.config, a.out)
    ),
    "fit": ("fit affine deviation coefficients", ("--data", "--out"), lambda a: cmd_fit(a.data, a.out)),
    "recover": (
        "recover instrument parameters from fits", ("--fits", "--out"),
        lambda a: cmd_recover(a.fits, a.out, a.constraints, a.residual_threshold),
    ),
    "verify": ("run the oracle and invariant suites", (), lambda a: cmd_verify()),
    "roundtrip": (
        "simulate, fit and recover in one run", ("--config", "--out"), lambda a: cmd_roundtrip(a.config, a.out)
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, required=True)
    # recover's two optional flags follow its required ones
    recover = sub.choices["recover"]
    recover.add_argument("--constraints", choices=CONSTRAINTS, default=CONFIG_FIELDS["constraints"].default)
    recover.add_argument("--residual-threshold", type=float, default=CONFIG_FIELDS["residual_threshold"].default)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
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


def run() -> int:
    """``main()`` for a process about to exit; its heap, freed anyway, skips the final collection."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
