"""Per-layer metrics of a traced run: span summaries and per-call probes.

Span-derived metrics read the spans the workload loop and its complements
recorded (see run.py).  The per-call probes time single public functions on
operands drawn from the workload's own configs.
"""

from __future__ import annotations

import itertools
import statistics
import time

from sgkit import instrument, linearize, pauli
from sgkit.experiment import make_grid
from sgkit.instrument import BlochState
from sgkit.linearize import ObservableSpec, Outcome, PerturbationParams, Protocol

from spans import Tracer

PROBE_OPERANDS = 32
PROBE_REPEATS = 5
PROBE_MIN_S = 0.02


def per_call_us(fn, operands) -> float:
    """Median over repeats of the time per call, each repeat at least PROBE_MIN_S."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            for args in operands:
                fn(*args)
        first = time.perf_counter() - start
        if first >= PROBE_MIN_S:
            break
        loops *= 2
    samples = [first]
    for _ in range(PROBE_REPEATS - 1):
        start = time.perf_counter()
        for _ in range(loops):
            for args in operands:
                fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / (loops * len(operands)) * 1e6


def _take(iterable):
    return list(itertools.islice(itertools.cycle(iterable), PROBE_OPERANDS))


def probe_metrics(pool) -> dict:
    """Per-call times of the kernel and instrument functions, in microseconds."""
    eta = pool[0]["eta"]
    params = [PerturbationParams.from_vector(c["perturbation"], eta) for c in pool[:8]]
    raw = [linearize.build_perturbed(p) for p in params]
    normalized = [instrument.exact_normalize(inst) for inst in raw]
    grid = pool[0]["grid"]
    directions = make_grid(grid["n_theta"], grid["n_phi"])
    states = [BlochState(d.unit_vector()) for d in directions]
    # operand j pairs instrument j % 8 with grid direction j
    pairs = _take(zip(itertools.cycle(range(len(raw))), states))
    single = [ObservableSpec(Protocol.SINGLE, o, m) for m in range(3) for o in Outcome]
    successive = [ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, m) for m in range(3)]
    zero_eta = [PerturbationParams.from_vector(c["perturbation"], 0.0) for c in pool[:8]]
    rotations = [instrument.cyclic_rotation(m) for m in range(3)]

    return {
        "pauli.mul_us": per_call_us(
            pauli.pauli_mul,
            [(raw[i].up.coefficients(), s.coefficients()) for i, s in pairs],
        ),
        "linearize.model_probability.single_us": per_call_us(
            linearize.model_probability,
            [(raw[i], obs, d) for (i, _), obs, d in zip(pairs, _take(single), _take(directions))],
        ),
        "linearize.model_probability.successive_us": per_call_us(
            linearize.model_probability,
            [(raw[i], obs, d) for (i, _), obs, d in zip(pairs, _take(successive), _take(directions))],
        ),
        "instrument.effect_expectation_us": per_call_us(
            instrument.effect_expectation, [(raw[i].up, s) for i, s in pairs]
        ),
        "instrument.selective_apply_us": per_call_us(
            instrument.selective_apply, [(normalized[i].down, s) for i, s in pairs]
        ),
        "instrument.nonselective_apply_us": per_call_us(
            instrument.nonselective_apply, [(normalized[i], s) for i, s in pairs]
        ),
        "instrument.exact_normalize_us": per_call_us(
            instrument.exact_normalize, [(inst,) for inst in _take(raw)]
        ),
        "instrument.rotate_instrument_us": per_call_us(
            instrument.rotate_instrument, list(zip(_take(raw), _take(rotations)))
        ),
        "linearize.linear_response_us": per_call_us(
            linearize.linear_response,
            list(zip(_take(zero_eta), _take(single + successive), _take(directions))),
        ),
    }


def span_cost_us(n: int = 20000) -> float:
    """Cost of one empty span, the unit of tracing overhead."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / n * 1e6


def _durations(tracer, name, kinds):
    return [
        s["end"] - s["start"]
        for s in tracer.spans
        if s["name"] == name and tracer.kinds[s["trace"]] in kinds
    ]


def _per_trace(tracer, name, kinds) -> dict[int, float]:
    totals: dict[int, float] = {}
    for s in tracer.spans:
        if s["name"] == name and tracer.kinds[s["trace"]] in kinds:
            totals[s["trace"]] = totals.get(s["trace"], 0.0) + s["end"] - s["start"]
    return totals


def _mean(values) -> float:
    return statistics.fmean(values)


def span_metrics(tracer, records: dict[int, int], dataset_bytes: dict[int, int], check_names) -> dict:
    """Layer metrics from the recorded spans.

    ``records`` and ``dataset_bytes`` map the trace id of each simulate-and-
    recover operation (kinds "roundtrip" and "sweep") to its dataset size.
    """
    ops = ("roundtrip", "sweep")
    gen = _per_trace(tracer, "experiment.generate_dataset", ops)
    fit = _per_trace(tracer, "estimate.fit_affine", ops)
    n_records = sum(records[t] for t in gen)
    out = {
        "linearize.design_matrix.cold_s": _mean(
            _durations(tracer, "linearize.design_matrix", ("roundtrip",))
        ),
        "linearize.design_matrix.warm_ms": 1e3 * _mean(
            _durations(tracer, "linearize.design_matrix", ("sweep", "design-warm"))
        ),
        "linearize.compare_with_paper_ms": 1e3 * _mean(
            _durations(tracer, "linearize.compare_with_paper", ("roundtrip",))
        ),
        "experiment.generate_s": _mean(gen.values()),
        "experiment.generate_us_per_record": 1e6 * sum(gen.values()) / n_records,
        "experiment.write_ms": 1e3 * _mean(_durations(tracer, "experiment.write_dataset", ops)),
        "experiment.read_ms": 1e3 * _mean(_durations(tracer, "experiment.read_dataset", ops)),
        "experiment.records": _mean(records[t] for t in gen),
        "experiment.dataset_bytes": _mean(dataset_bytes[t] for t in gen),
        "estimate.fit_s": _mean(fit.values()),
        "estimate.fit_us_per_record": 1e6 * sum(fit.values()) / n_records,
        "estimate.recover_ms": 1e3 * _mean(_durations(tracer, "estimate.recover_parameters", ops)),
        "estimate.goodness_ms": 1e3 * _mean(_durations(tracer, "estimate.goodness_of_fit", ops)),
        "cli.import_s": _mean(_durations(tracer, "cli.import", ("roundtrip", "verify"))),
        "cli.load_config_ms": 1e3 * _mean(_durations(tracer, "cli.load_config", ("roundtrip",))),
    }
    for name in check_names:
        out[f"verify.{name}_s"] = _mean(_durations(tracer, f"verify.{name}", ("verify",)))
    return out
