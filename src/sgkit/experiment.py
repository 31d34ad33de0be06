"""Synthetic data generation and the dataset file format.

Datasets are CSV with a leading ``#`` metadata block.  One generator,
``generate_dataset``, writes both kinds of records from one loop over the
observables and the grid: exact records use shots = 0 as a sentinel and carry
the model probability; sampled records carry binomial counts.  The per-setting
random stream is derived from (seed, setting index), so generation order never
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import (
    INTEGER_TEXT, N_PHI, N_THETA, NONNEGATIVE, NUMBER_TEXT, REQUIRED, SEED, SHOTS, STRICT_NORMALIZATION, Field,
    integral, read_fields,
)
from .instrument import Direction, bloch_array, exact_normalize_array
from .linearize import (
    OBSERVABLES,
    ObservableSpec,
    PerturbationParams,
    Protocol,
    build_perturbed,
    default_observables,
    model_probabilities,
)

FORMAT_TAG = "sgkit-v1"
CSV_HEADER = "protocol,m,outcome,theta,phi_az,shots,successes,probability"


class InvalidGrid(ValueError):
    """Grid parameters outside the admissible range."""


class FormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeasurementSetting(NamedTuple):
    observable: ObservableSpec
    direction: Direction


@dataclass(frozen=True)
class MeasurementRecord:
    """One dataset row; probability is populated exactly when shots = 0."""

    setting: MeasurementSetting
    shots: int
    successes: int
    probability: float | None

    def __post_init__(self):
        SHOTS.require("shots", self.shots)
        if not integral(self.successes):
            raise ValueError("successes must be an integer")
        if not 0 <= self.successes <= max(self.shots, 0):
            raise ValueError("successes must lie in [0, shots]")
        if self.shots == 0:
            if self.probability is None or not 0.0 <= self.probability <= 1.0:
                raise ValueError("exact records need a probability in [0, 1]")
        elif self.probability is not None:
            raise ValueError("sampled records must not carry a probability")

    def frequency(self) -> float:
        if self.shots == 0:
            return float(self.probability)
        return self.successes / self.shots


@dataclass(frozen=True)
class ExperimentConfig:
    perturbation: PerturbationParams
    n_theta: int = 4
    n_phi: int = 8
    protocols: tuple[Protocol, ...] = (Protocol.SINGLE, Protocol.SUCCESSIVE)
    shots: int = 0
    seed: int = 0
    strict_normalization: bool = False

    def __post_init__(self):
        N_THETA.require("n_theta", self.n_theta, InvalidGrid)
        N_PHI.require("n_phi", self.n_phi, InvalidGrid)
        SHOTS.require("shots", self.shots)
        SEED.require("seed", self.seed)
        STRICT_NORMALIZATION.read("strict_normalization", self.strict_normalization)
        if not self.protocols:
            raise ValueError("at least one protocol required")
        protocols = tuple(self.protocols)
        if not all(isinstance(p, Protocol) for p in protocols):
            raise ValueError(f"protocols must be Protocol members, not {self.protocols!r}")
        object.__setattr__(self, "protocols", protocols)


class DatasetMeta(NamedTuple):
    eta: float
    strict_normalization: bool
    seed: int
    n_theta: int
    n_phi: int


class Dataset(NamedTuple):
    meta: DatasetMeta
    records: list


def _grid_theta(i: int, n_theta: int) -> float:
    return math.pi * (i + 0.5) / n_theta


def _grid_phi(j: int, n_phi: int) -> float:
    return 2.0 * math.pi * j / n_phi


def make_grid(n_theta: int, n_phi: int) -> tuple[Direction, ...]:
    """Midpoint-theta by uniform-phi grid; never touches the poles."""
    N_THETA.require("n_theta", n_theta, InvalidGrid)
    N_PHI.require("n_phi", n_phi, InvalidGrid)
    return tuple(
        Direction(_grid_theta(i, n_theta), _grid_phi(j, n_phi))
        for i in range(n_theta)
        for j in range(n_phi)
    )


def _on_grid(direction: Direction, n_theta: int, n_phi: int) -> bool:
    """Whether ``direction`` is, bit for bit, a node of ``make_grid(n_theta, n_phi)``."""
    i = round(direction.theta * n_theta / math.pi - 0.5)
    j = round(direction.phi_az * n_phi / (2.0 * math.pi))
    return (
        0 <= i < n_theta
        and 0 <= j < n_phi
        and _grid_theta(i, n_theta) == direction.theta
        and _grid_phi(j, n_phi) == direction.phi_az
    )


def generate_dataset(config: ExperimentConfig) -> Dataset:
    """One record per observable of ``default_observables()`` in the config's protocols and
    grid node, in that order, at the model probability clamped to [0, 1].

    With shots = 0 a record carries that probability (the exact sentinel);
    otherwise it carries binomial counts drawn from the setting's own stream
    ``default_rng([seed, index])``.  The grid's Bloch stack is built and checked
    once; after ``build_perturbed`` the instrument is its (2, 4) array, which
    ``model_probabilities`` rotates and checks once per observable.  A non-finite
    probability is an error, never clamped, and so is any overflow: numpy's
    overflow and invalid-value warnings are off, since the finiteness checks
    refuse every non-finite value.
    """
    grid = make_grid(config.n_theta, config.n_phi)
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        inst = build_perturbed(config.perturbation).as_array()
        if config.strict_normalization:
            inst = exact_normalize_array(inst)
        r = bloch_array([direction.unit_vector() for direction in grid])
        for obs in default_observables():
            if obs.protocol not in config.protocols:
                continue
            for direction, p in zip(grid, model_probabilities(inst, obs, r)):
                if not math.isfinite(p):
                    raise ValueError(f"model probability of {obs.label()} is not finite")
                p = min(1.0, max(0.0, p))
                setting = MeasurementSetting(obs, direction)
                if config.shots == 0:
                    records.append(MeasurementRecord(setting, 0, 0, p))
                else:
                    successes = int(np.random.default_rng([config.seed, len(records)]).binomial(config.shots, p))
                    records.append(MeasurementRecord(setting, config.shots, successes, None))
    meta = DatasetMeta(
        config.perturbation.eta, config.strict_normalization, config.seed, config.n_theta, config.n_phi
    )
    return Dataset(meta, records)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# Each observable's first three CSV fields, protocol,m,outcome, and back.
_CSV_TEXT = {obs: f"{obs.protocol.value},{obs.m},{obs.outcome.value}" for obs in OBSERVABLES}
_CSV_OBSERVABLE = {text: obs for obs, text in _CSV_TEXT.items()}


def write_dataset(dataset: Dataset, path) -> None:
    meta = dataset.meta
    lines = [
        f"# {FORMAT_TAG}",
        f"# eta={_fmt(meta.eta)}",
        f"# strict_normalization={'true' if meta.strict_normalization else 'false'}",
        f"# seed={meta.seed}",
        f"# grid={meta.n_theta},{meta.n_phi}",
        CSV_HEADER,
    ]
    for rec in dataset.records:
        d = rec.setting.direction
        prob = "" if rec.probability is None else _fmt(rec.probability)
        lines.append(
            f"{_CSV_TEXT[rec.setting.observable]},"
            f"{_fmt(d.theta)},{_fmt(d.phi_az)},{rec.shots},{rec.successes},{prob}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Each metadata key's row: the config's rules, read from the key's text.
_META_FIELDS = {
    "eta": NONNEGATIVE._replace(parse=NUMBER_TEXT.parse),
    "strict_normalization": STRICT_NORMALIZATION._replace(
        parse=lambda text: ("false", "true").index(text) == 1, default=REQUIRED
    ),
    "seed": SEED._replace(parse=INTEGER_TEXT.parse),
    "grid": Field(
        lambda text: tuple(map(INTEGER_TEXT.parse, text.split(","))),
        f"n_theta,n_phi with n_theta {N_THETA.what} and n_phi {N_PHI.what}",
        lambda g: len(g) == 2 and N_THETA.admits(g[0]) and N_PHI.admits(g[1]),
    ),
}


def read_dataset(path) -> Dataset:
    """Parse a dataset file; FormatError names the offending line.

    The metadata block holds the format tag and eta, strict_normalization,
    seed and grid once each, and no other line.  Every record must sit on the
    metadata's ``grid=`` nodes and no setting (observable and direction) may
    appear twice.  A record's first three fields are one of OBSERVABLES as
    ``write_dataset`` writes it, and its numbers are plain decimal text.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    texts: dict[str, str] = {}
    lines_of: dict[str, int] = {}
    tag_line = None
    body_start = None
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        content = line[1:].strip()
        if content == FORMAT_TAG:
            if tag_line is not None:
                raise FormatError(f"repeated format tag '{FORMAT_TAG}', first on line {tag_line}", line=i + 1)
            tag_line = i + 1
        elif "=" not in content:
            raise FormatError("metadata line is neither the format tag nor key=value", line=i + 1)
        else:
            key, _, value = content.partition("=")
            if key in texts:
                raise FormatError(f"repeated metadata key '{key}', first on line {lines_of[key]}", line=i + 1)
            texts[key], lines_of[key] = value, i + 1
    if tag_line is None:
        raise FormatError(f"missing format tag '{FORMAT_TAG}'")
    if body_start is None or lines[body_start] != CSV_HEADER:
        raise FormatError("header mismatch", line=(body_start or 0) + 1)
    values = read_fields(
        _META_FIELDS, texts, lambda message, key: FormatError(message, lines_of.get(key)), noun="metadata key"
    )
    n_theta, n_phi = values.pop("grid")
    meta = DatasetMeta(n_theta=n_theta, n_phi=n_phi, **values)
    records = []
    first_line: dict[MeasurementSetting, int] = {}
    for lineno, line in enumerate(lines[body_start + 1 :], start=body_start + 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise FormatError("expected 8 fields", line=lineno)
        try:
            observable = _CSV_OBSERVABLE.get(",".join(parts[:3]))
            if observable is None:
                raise ValueError(f"protocol,m,outcome must be one of the {len(OBSERVABLES)} observables")
            direction = Direction(NUMBER_TEXT.read("theta", parts[3]), NUMBER_TEXT.read("phi_az", parts[4]))
            record = MeasurementRecord(
                MeasurementSetting(observable, direction),
                INTEGER_TEXT.read("shots", parts[5]),
                INTEGER_TEXT.read("successes", parts[6]),
                NUMBER_TEXT.read("probability", parts[7]) if parts[7] != "" else None,
            )
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno) from exc
        if not _on_grid(direction, meta.n_theta, meta.n_phi):
            raise FormatError(
                f"direction is not on the grid={meta.n_theta},{meta.n_phi} metadata grid",
                line=lineno,
            )
        seen = first_line.setdefault(record.setting, lineno)
        if seen != lineno:
            raise FormatError(f"duplicate setting, first on line {seen}", line=lineno)
        records.append(record)
    return Dataset(meta, records)
