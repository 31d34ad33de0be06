"""The sgkit call sequences the benchmark times, each call wrapped in a span.

``span`` is ``Tracer.span`` on traced runs and ``spans.no_span`` otherwise,
so traced and untraced runs execute the same calls.
"""

from __future__ import annotations

import numpy as np

from sgkit import cli, estimate, experiment, linearize
from sgkit.linearize import PerturbationParams, Protocol

import inputs
from checks import FIT_CHI2_THRESHOLD
from spans import no_span

SWEEP_POOL = 60


def experiment_config(config: dict) -> experiment.ExperimentConfig:
    """The library form of a benchmark config dict."""
    return experiment.ExperimentConfig(
        perturbation=PerturbationParams.from_vector(config["perturbation"], config["eta"]),
        n_theta=config["grid"]["n_theta"],
        n_phi=config["grid"]["n_phi"],
        protocols=tuple(Protocol(p) for p in config["protocols"]),
        shots=config["shots"],
        seed=config["seed"],
        strict_normalization=config["strict_normalization"],
    )


def sweep_setup(seed: int):
    """sweep-warm set-up: draw the configs and warm the design system."""
    pool = inputs.config_pool(seed, inputs.sweep_config, SWEEP_POOL)
    configs = [experiment_config(c) for c in pool]
    warm_design(no_span)
    return pool, configs


def warm_design(span) -> None:
    with span("linearize.design_matrix"):
        linearize.design_matrix(linearize.default_observables())


def simulate_and_recover(config, data_path, span):
    """generate -> write -> read -> fit each observable -> design -> recover + goodness."""
    with span("experiment.generate_dataset"):
        dataset = experiment.generate_dataset(config)
    with span("experiment.write_dataset"):
        experiment.write_dataset(dataset, data_path)
    with span("experiment.read_dataset"):
        dataset = experiment.read_dataset(data_path)
    groups: dict = {}
    for rec in dataset.records:
        groups.setdefault(rec.setting.observable, []).append(rec)
    fits = []
    for records in groups.values():
        with span("estimate.fit_affine"):
            fits.append(estimate.fit_affine(records))
    with span("linearize.design_matrix"):
        system = linearize.design_matrix([fit.observable for fit in fits])
    with span("estimate.recover_parameters"):
        result = estimate.recover_parameters(fits, system, eta=dataset.meta.eta)
    with span("estimate.goodness_of_fit"):
        quality = estimate.goodness_of_fit(fits, threshold=FIT_CHI2_THRESHOLD)
    return result, quality, len(dataset.records)


def roundtrip_calls(config_path, data_path, span):
    """The public calls ``cmd_roundtrip`` makes, in its order; no report is written."""
    with span("cli.load_config"):
        config, _ = cli.load_config(config_path)
    result, quality, records = simulate_and_recover(config, data_path, span)
    with span("linearize.compare_with_paper"):
        linearize.compare_with_paper()
    return result, quality, records


def result_bytes(result) -> bytes:
    return np.asarray(result.parameters, dtype=float).tobytes()
