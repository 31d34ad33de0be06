"""Self-checks behind ``sgkit verify``: oracle and invariant suites at fixed seeds."""

from __future__ import annotations

import math

import numpy as np

from .instrument import (
    BlochState,
    Instrument,
    KrausOperator,
    RotationSpec,
    cyclic_rotation,
    effect_of,
    exact_normalize,
    ideal_instrument,
    nonselective_apply,
    normalization_residual,
    probability,
    rotate_kraus,
    rotation_unitary,
    selective_apply,
)
from .linearize import (
    ObservableSpec,
    Outcome,
    PerturbationParams,
    Protocol,
    affine_coefficients,
    build_perturbed,
    design_matrix,
    default_observables,
    gauge_directions,
    linear_response,
    model_probability,
)
from .pauli import from_matrix, to_matrix


def _random_state(rng) -> BlochState:
    v = rng.normal(size=3)
    return BlochState(v / np.linalg.norm(v) * rng.uniform(0.0, 1.0))


def _random_instrument(rng) -> Instrument:
    def branch():
        return KrausOperator(
            complex(rng.normal(), rng.normal()) * 0.5,
            0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)),
        )

    return exact_normalize(Instrument(branch(), branch()))


def _matrix_probability(k: KrausOperator, s: BlochState) -> float:
    a = to_matrix(k.coefficients())
    rho = to_matrix(s.coefficients())
    return float(np.trace(rho @ a @ a.conj().T).real)


def check_matrix_oracle(n: int = 200) -> None:
    """Coefficient-level probability/effects/post-states match 2x2 matrices."""
    rng = np.random.default_rng(11)
    for _ in range(n):
        inst = _random_instrument(rng)
        state = _random_state(rng)
        for branch in inst.branches:
            assert abs(probability(branch, state) - _matrix_probability(branch, state)) < 1e-12
            eff = effect_of(branch)
            a = to_matrix(branch.coefficients())
            f = from_matrix(a @ a.conj().T)
            assert abs(eff.weight - f.scalar.real) < 1e-12
            assert np.max(np.abs(eff.weight * eff.xi - f.vector.real)) < 1e-12
            prob, post = selective_apply(branch, state)
            if post is not None:
                rho = to_matrix(state.coefficients())
                mat = a.conj().T @ rho @ a
                mat = mat / np.trace(mat).real
                expected = 2.0 * from_matrix(mat).vector.real
                assert np.max(np.abs(post.r - expected)) < 1e-12


def check_probability_completeness(n: int = 300) -> None:
    """f_up + f_down = 1 for normalized instruments."""
    rng = np.random.default_rng(12)
    for _ in range(n):
        inst = _random_instrument(rng)
        state = _random_state(rng)
        total = probability(inst.up, state) + probability(inst.down, state)
        assert abs(total - 1.0) < 1e-12


def check_ideal_physics() -> None:
    """Projective filter: f_up = (1+kz)/2, repeatability, transverse wipe-out."""
    inst = ideal_instrument()
    rng = np.random.default_rng(13)
    for _ in range(50):
        state = _random_state(rng)
        kz = state.r[2]
        assert abs(probability(inst.up, state) - 0.5 * (1.0 + kz)) < 1e-14
        post = nonselective_apply(inst, state)
        assert np.max(np.abs(post.r - np.array([0.0, 0.0, kz]))) < 1e-14
        prob, sel = selective_apply(inst.up, state)
        if sel is not None:
            assert abs(probability(inst.up, sel) - 1.0) < 1e-12


def check_cyclic_permutation() -> None:
    """The third-turn rotation about (1,1,1)/sqrt(3) permutes axes cyclically."""
    rng = np.random.default_rng(14)
    for _ in range(50):
        beta = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = KrausOperator(0.3, beta)
        b1 = rotate_kraus(k, cyclic_rotation(1)).beta
        assert np.max(np.abs(b1 - beta[[2, 0, 1]])) < 1e-12
        b2 = rotate_kraus(k, cyclic_rotation(2)).beta
        assert np.max(np.abs(b2 - beta[[1, 2, 0]])) < 1e-12


def check_rotation_conjugation(n: int = 200) -> None:
    """Closed-form rotation equals U^dag A U conjugation."""
    rng = np.random.default_rng(15)
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = RotationSpec(axis, rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        k = KrausOperator(
            complex(rng.normal(), rng.normal()),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        closed = rotate_kraus(k, rot).coefficients()
        u = to_matrix(rotation_unitary(rot))
        conj = from_matrix(u.conj().T @ to_matrix(k.coefficients()) @ u)
        assert abs(closed.scalar - conj.scalar) < 1e-12
        assert np.max(np.abs(closed.vector - conj.vector)) < 1e-12


def check_rotation_covariance(n: int = 100) -> None:
    """Rotating the device equals rotating the state, at the probability level."""
    rng = np.random.default_rng(16)
    for _ in range(n):
        inst = _random_instrument(rng)
        state = _random_state(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = RotationSpec(axis, rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        u = to_matrix(rotation_unitary(rot))
        rho = to_matrix(state.coefficients())
        rotated_state = BlochState(from_matrix(u @ rho @ u.conj().T).vector.real * 2.0)
        for branch in inst.branches:
            lhs = probability(rotate_kraus(branch, rot), state)
            rhs = probability(branch, rotated_state)
            assert abs(lhs - rhs) < 1e-12


def check_exact_normalize(n: int = 300) -> None:
    """Renormalization drives the completeness residual to rounding level."""
    rng = np.random.default_rng(17)
    for _ in range(n):
        inst = _random_instrument(rng)
        assert normalization_residual(inst) < 1e-12


def check_gauge_invariance(n: int = 100) -> None:
    """A per-branch global phase changes no probability or post-state."""
    rng = np.random.default_rng(18)
    for _ in range(n):
        inst = _random_instrument(rng)
        state = _random_state(rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        twisted = KrausOperator(phase * inst.up.alpha, phase * inst.up.beta)
        assert abs(probability(twisted, state) - probability(inst.up, state)) < 1e-12
        _, post_a = selective_apply(inst.up, state)
        _, post_b = selective_apply(twisted, state)
        if post_a is not None and post_b is not None:
            assert np.max(np.abs(post_a.r - post_b.r)) < 1e-12


def check_gauge_nullspace() -> None:
    """Both phase directions are annihilated by the derived design system."""
    system = design_matrix(default_observables())
    sigma_max = np.linalg.svd(system.rows, compute_uv=False)[0]
    for direction in gauge_directions():
        unit = direction / np.linalg.norm(direction)
        assert np.linalg.norm(system.rows @ unit) <= 1e-10 * sigma_max


def check_linearization_ratio(n: int = 10) -> None:
    """First-order error halves quadratically when eta halves."""
    rng = np.random.default_rng(19)
    observables = [
        ObservableSpec(Protocol.SINGLE, Outcome.UP, 1),
        ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 2),
    ]
    for i in range(n):
        params = PerturbationParams.from_vector(rng.uniform(-1.0, 1.0, size=16), 0.0)
        obs = observables[i % 2]
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        delta = linear_response(params, obs, k)
        f0 = model_probability(build_perturbed(params, eta=0.0), obs, k)
        errors = []
        for eta in (1e-2, 5e-3):
            f = model_probability(build_perturbed(params, eta=eta), obs, k)
            errors.append(abs(f - f0 - eta * delta))
        if errors[0] > 1e-13:
            ratio = errors[0] / errors[1]
            assert 3.5 <= ratio <= 4.5


def check_node_independence() -> None:
    """The eta^1 coefficient does not depend on the interpolation nodes, and
    the closed-form response of every observable equals the interpolated one."""
    rng = np.random.default_rng(20)
    params = PerturbationParams.from_vector(rng.uniform(-1.0, 1.0, size=16), 0.0)
    cases = [
        (ObservableSpec(Protocol.SINGLE, Outcome.DOWN, 0), ((-1.0, 0.0, 1.0), (0.0, 0.5, 1.0), (-2.0, -1.0, 0.0, 1.0))),
        (ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, 1), ((-2.0, -1.0, 0.0, 1.0, 2.0), (-1.0, -0.5, 0.0, 0.5, 1.0), (-3.0, -1.5, 0.0, 1.0, 2.0, 3.0))),
    ]
    for obs, node_sets in cases:
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        values = [linear_response(params, obs, k, nodes=nodes) for nodes in node_sets]
        assert max(values) - min(values) < 1e-12
    for protocol in Protocol:
        for outcome in Outcome:
            for m in range(3):
                obs = ObservableSpec(protocol, outcome, m)
                k = rng.normal(size=3)
                k /= np.linalg.norm(k)
                closed = affine_coefficients(params, obs).as_array() @ np.array([1.0, *k])
                assert abs(closed - linear_response(params, obs, k)) < 1e-12, obs.label()


ALL_CHECKS = (
    ("matrix-oracle-agreement", check_matrix_oracle),
    ("probability-completeness", check_probability_completeness),
    ("ideal-instrument-physics", check_ideal_physics),
    ("cyclic-permutation-identity", check_cyclic_permutation),
    ("rotation-closed-form-vs-conjugation", check_rotation_conjugation),
    ("rotation-covariance", check_rotation_covariance),
    ("exact-normalization", check_exact_normalize),
    ("gauge-invariance", check_gauge_invariance),
    ("gauge-nullspace", check_gauge_nullspace),
    ("linearization-ratio", check_linearization_ratio),
    ("interpolation-node-independence", check_node_independence),
)


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, check in ALL_CHECKS:
        try:
            check()
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # a crashed check is a failed check
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
