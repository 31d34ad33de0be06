"""Synthetic experiment planning, data generation and the dataset file format.

Datasets are CSV with a leading ``#`` metadata block.  Exact records use
shots = 0 as a sentinel and carry the model probability; sampled records
carry binomial counts.  The per-setting random stream is derived from
(seed, setting index), so generation order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instrument import Direction, exact_normalize
from .linearize import (
    ObservableSpec,
    Outcome,
    PerturbationParams,
    Protocol,
    build_perturbed,
    model_probability,
)

FORMAT_TAG = "sgkit-v1"
CSV_HEADER = "protocol,m,outcome,theta,phi_az,shots,successes,probability"


class InvalidGrid(ValueError):
    """Grid parameters below the admissible minimum."""


class FormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MeasurementSetting:
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
        if self.shots < 0:
            raise ValueError("shots must be nonnegative")
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
        if self.n_theta < 2 or self.n_phi < 3:
            raise InvalidGrid("grid needs n_theta >= 2 and n_phi >= 3")
        if self.shots < 0:
            raise ValueError("shots must be nonnegative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not self.protocols:
            raise ValueError("at least one protocol required")
        object.__setattr__(self, "protocols", tuple(self.protocols))


@dataclass(frozen=True)
class DatasetMeta:
    eta: float
    strict_normalization: bool
    seed: int
    n_theta: int
    n_phi: int


@dataclass
class Dataset:
    meta: DatasetMeta
    records: list = field(default_factory=list)


def _grid_theta(i: int, n_theta: int) -> float:
    return math.pi * (i + 0.5) / n_theta


def _grid_phi(j: int, n_phi: int) -> float:
    return 2.0 * math.pi * j / n_phi


def make_grid(n_theta: int, n_phi: int) -> tuple[Direction, ...]:
    """Midpoint-theta by uniform-phi grid; never touches the poles."""
    if n_theta < 2 or n_phi < 3:
        raise InvalidGrid("grid needs n_theta >= 2 and n_phi >= 3")
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


def plan_settings(config: ExperimentConfig) -> tuple[MeasurementSetting, ...]:
    """Deterministic plan ordered by (protocol, m, outcome, grid index)."""
    grid = make_grid(config.n_theta, config.n_phi)
    settings = []
    for protocol in (Protocol.SINGLE, Protocol.SUCCESSIVE):
        if protocol not in config.protocols:
            continue
        outcomes = (Outcome.UP, Outcome.DOWN) if protocol is Protocol.SINGLE else (Outcome.UP,)
        for m in range(3):
            for outcome in outcomes:
                for direction in grid:
                    settings.append(
                        MeasurementSetting(ObservableSpec(protocol, outcome, m), direction)
                    )
    return tuple(settings)


def _config_instrument(config: ExperimentConfig):
    inst = build_perturbed(config.perturbation)
    if config.strict_normalization:
        inst = exact_normalize(inst)
    return inst


def _meta(config: ExperimentConfig) -> DatasetMeta:
    return DatasetMeta(
        eta=config.perturbation.eta,
        strict_normalization=config.strict_normalization,
        seed=config.seed,
        n_theta=config.n_theta,
        n_phi=config.n_phi,
    )


def _clamped_probability(inst, setting: MeasurementSetting) -> float:
    """Model probability clamped to [0, 1]; a non-finite one is an error, never clamped.

    Callers build the instrument and evaluate it with numpy's overflow and
    invalid-value warnings off: either ends in this error, or in the
    finiteness and positive-definiteness checks of the strict-normalization
    instrument, and never in a warning.
    """
    p = model_probability(inst, setting.observable, setting.direction)
    if not math.isfinite(p):
        raise ValueError(f"model probability of {setting.observable.label()} is not finite")
    return min(1.0, max(0.0, p))


def exact_dataset(config: ExperimentConfig) -> Dataset:
    """Records with the exact model probabilities (shots = 0 sentinel)."""
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        inst = _config_instrument(config)
        for setting in plan_settings(config):
            records.append(MeasurementRecord(setting, 0, 0, _clamped_probability(inst, setting)))
    return Dataset(_meta(config), records)


def sampled_dataset(config: ExperimentConfig) -> Dataset:
    """Binomial counts at the exact probabilities, reproducible per setting."""
    if config.shots < 1:
        raise ValueError("sampled datasets need shots >= 1")
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        inst = _config_instrument(config)
        for index, setting in enumerate(plan_settings(config)):
            p = _clamped_probability(inst, setting)
            rng = np.random.default_rng([config.seed, index])
            successes = int(rng.binomial(config.shots, p))
            records.append(MeasurementRecord(setting, config.shots, successes, None))
    return Dataset(_meta(config), records)


def generate_dataset(config: ExperimentConfig) -> Dataset:
    return exact_dataset(config) if config.shots == 0 else sampled_dataset(config)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
        obs = rec.setting.observable
        d = rec.setting.direction
        prob = "" if rec.probability is None else _fmt(rec.probability)
        lines.append(
            f"{obs.protocol.value},{obs.m},{obs.outcome.value},"
            f"{_fmt(d.theta)},{_fmt(d.phi_az)},{rec.shots},{rec.successes},{prob}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_meta(raw: dict[str, str]) -> DatasetMeta:
    try:
        grid = raw["grid"].split(",")
        meta = DatasetMeta(
            eta=float(raw["eta"]),
            strict_normalization=raw["strict_normalization"] == "true",
            seed=int(raw["seed"]),
            n_theta=int(grid[0]),
            n_phi=int(grid[1]),
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise FormatError(f"bad or missing metadata: {exc}") from exc
    if not (math.isfinite(meta.eta) and meta.eta >= 0.0):
        raise FormatError("bad metadata: eta must be a finite nonnegative number")
    if raw["strict_normalization"] not in ("true", "false"):
        raise FormatError("bad metadata: strict_normalization must be true or false")
    # Beyond 2**53 grid indices are no longer exact floats, so nodes stop being distinct.
    if not (2 <= meta.n_theta <= 2 ** 53 and 3 <= meta.n_phi <= 2 ** 53):
        raise FormatError("bad metadata: grid needs 2 <= n_theta <= 2**53 and 3 <= n_phi <= 2**53")
    return meta


def read_dataset(path) -> Dataset:
    """Parse a dataset file; FormatError names the offending line.

    Every record must sit on the metadata's ``grid=`` nodes, no setting
    (observable and direction) may appear twice, and shots lie below 2**63.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta_raw: dict[str, str] = {}
    tag_seen = False
    body_start = None
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        content = line[1:].strip()
        if content == FORMAT_TAG:
            tag_seen = True
        elif "=" in content:
            key, _, value = content.partition("=")
            meta_raw[key.strip()] = value.strip()
    if not tag_seen:
        raise FormatError(f"missing format tag '{FORMAT_TAG}'")
    if body_start is None or lines[body_start] != CSV_HEADER:
        raise FormatError("header mismatch", line=(body_start or 0) + 1)
    meta = _parse_meta(meta_raw)
    records = []
    first_line: dict[MeasurementSetting, int] = {}
    for lineno, line in enumerate(lines[body_start + 1 :], start=body_start + 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise FormatError("expected 8 fields", line=lineno)
        try:
            protocol = Protocol(parts[0])
            m = int(parts[1])
            outcome = Outcome(parts[2])
            direction = Direction(float(parts[3]), float(parts[4]))
            shots = int(parts[5])
            if shots >= 2 ** 63:  # a config's bound; counts beyond float range break the fit
                raise ValueError("shots must be below 2**63")
            successes = int(parts[6])
            probability = float(parts[7]) if parts[7] != "" else None
            record = MeasurementRecord(
                MeasurementSetting(ObservableSpec(protocol, outcome, m), direction),
                shots,
                successes,
                probability,
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
