"""Self-checks behind ``sgkit verify``: oracle and invariant suites at fixed seeds.

Each randomized check draws all of its instruments, states, axes and angles
as arrays, evaluates the array forms of ``sgkit.instrument`` on the whole
batch in one pass and asserts every element.  The 2x2 matrix oracle is built
from its own Pauli matrices, ``_BASIS``, with einsum and matmul; it never
routes through the Pauli product it checks.  It is sgkit's one matrix oracle:
the unit tests compare formulas with explicit matrices through these helpers
too, and pin them to literal matrices (``tests/test_pauli.py``).
"""

from __future__ import annotations

import math

import numpy as np

from .instrument import (
    cyclic_rotation,
    effect_array,
    exact_normalize_array,
    expectation_array,
    ideal_instrument,
    nonselective_array,
    residual_array,
    rotate_array,
    selective_array,
    successive_array,
)
from .linearize import (
    OBSERVABLES,
    ObservableSpec,
    Outcome,
    PerturbationParams,
    Protocol,
    affine_coefficients,
    design_matrix,
    default_observables,
    gauge_directions,
    linear_response,
    model_probability_array,
    perturbed_probabilities,
)

# The Pauli basis 1, sigma_x, sigma_y, sigma_z as matrices, which the oracle alone uses.
_BASIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


# --- matrix oracle ------------------------------------------------------------


def _matrices(c: np.ndarray) -> np.ndarray:
    """(..., 4) Pauli coefficients to (..., 2, 2) matrices."""
    return np.einsum("...k,kij->...ij", c, _BASIS)


def _coefficients(m: np.ndarray) -> np.ndarray:
    """(..., 2, 2) matrices to (..., 4) Pauli coefficients, c_k = tr(sigma_k M) / 2."""
    return 0.5 * np.einsum("kji,...ij->...k", _BASIS, m)


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1).real


def _density(r: np.ndarray) -> np.ndarray:
    """(..., 3) Bloch vectors to density matrices (1 + r . sigma) / 2."""
    return 0.5 * _matrices(np.concatenate([np.ones(r.shape[:-1] + (1,)), r], axis=-1))


def _bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors of (..., 2, 2) matrices normalized to unit trace."""
    return 2.0 * _coefficients(rho).real[..., 1:] / _trace(rho)[..., None]


def _unitary(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """U = cos(phi/2) * 1 + i sin(phi/2) * n . sigma, the normative rotation."""
    half = 0.5 * angle[..., None]
    return _matrices(np.concatenate([np.cos(half), 1j * np.sin(half) * axis], axis=-1))


def _require(errors, tol: float, what: str) -> None:
    """Per-element assertion: every entry of ``errors`` lies below ``tol``."""
    errors = np.asarray(errors)
    bad = ~(errors < tol)
    assert not bad.any(), (
        f"{what}: {np.count_nonzero(bad)} of {errors.size} entries at or above {tol:g} "
        f"(worst {np.max(errors):.3e})"
    )


# --- random draws -------------------------------------------------------------


def _random_units(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _random_states(rng, n: int) -> np.ndarray:
    return _random_units(rng, n) * rng.uniform(0.0, 1.0, size=(n, 1))


def _random_coefficients(rng, shape) -> np.ndarray:
    """Complex Pauli coefficients of ``shape`` with standard normal real and imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_instruments(rng, n: int) -> np.ndarray:
    """(n, 2, 4) exactly normalized instruments."""
    return exact_normalize_array(0.5 * _random_coefficients(rng, (n, 2, 4)))


def _random_angles(rng, n: int) -> np.ndarray:
    return rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)


def _defined(post: np.ndarray) -> np.ndarray:
    """Where a selective update has a post-state (its vector is not NaN)."""
    return ~np.isnan(post[..., 0])


# --- checks -------------------------------------------------------------------


def check_matrix_oracle(n: int = 200) -> None:
    """Coefficient-level probabilities, effects, selective and non-selective
    updates and every observable's model probability match 2x2 matrices."""
    rng = np.random.default_rng(11)
    inst = _random_instruments(rng, n)
    r = _random_states(rng, n)[:, None, :]  # one state per instrument, both branches
    a = _matrices(inst)
    rho = _density(r)
    f = a @ _dagger(a)
    _require(np.abs(expectation_array(inst, r) - _trace(rho @ f)), 1e-12, "probability")
    _require(np.abs(effect_array(inst).real - _coefficients(f).real), 1e-12, "effect")
    conjugated = _dagger(a) @ rho @ a
    prob, post = selective_array(inst, r)
    _require(np.abs(prob - _trace(rho @ f)), 1e-12, "selective probability")
    defined = _defined(post)
    _require(np.abs(post[defined] - _bloch(conjugated[defined])), 1e-12, "selective post-state")
    total = conjugated.sum(axis=-3)
    _require(np.abs(nonselective_array(inst, r[:, 0]) - _bloch(total)), 1e-12, "non-selective state")
    # ten more probe states per instrument, each against both effects
    probes = _random_states(rng, 10 * n).reshape(n, 10, 1, 3)
    expected = _trace(_density(probes) @ f[:, None])
    _require(np.abs(expectation_array(inst[:, None], probes) - expected), 1e-12, "probe probability")
    # each observable: tr((sum_A A^dag rho A) B B^dag), its first stages A written out here:
    # the identity alone passes rho, both branches pass ``total``; B B^dag for each m and branch
    passed = {Protocol.SINGLE: rho[:, 0], Protocol.SUCCESSIVE: total}
    rotations = [cyclic_rotation(m) for m in range(3)]
    u = _unitary(np.stack([rot.axis for rot in rotations]), np.array([rot.angle for rot in rotations]))
    b = _dagger(u[:, None, None]) @ a @ u[:, None, None]
    effects = b @ _dagger(b)
    for obs in OBSERVABLES:
        expected = _trace(passed[obs.protocol] @ effects[obs.m][:, 0 if obs.outcome is Outcome.UP else 1])
        _require(np.abs(model_probability_array(inst, obs, r[:, 0]) - expected), 1e-12, obs.label())


def check_probability_completeness(n: int = 300) -> None:
    """f_up + f_down = 1 for normalized instruments."""
    rng = np.random.default_rng(12)
    inst = _random_instruments(rng, n)
    r = _random_states(rng, n)
    total = expectation_array(inst, r[:, None, :]).sum(axis=-1)
    _require(np.abs(total - 1.0), 1e-12, "f_up + f_down")


def check_ideal_physics(n: int = 50) -> None:
    """Projective filter: f_up = (1+kz)/2, also after a non-selective pass,
    repeatability, transverse wipe-out."""
    inst = ideal_instrument().as_array()
    rng = np.random.default_rng(13)
    r = _random_states(rng, n)
    kz = r[:, 2]
    _require(np.abs(expectation_array(inst[0], r) - 0.5 * (1.0 + kz)), 1e-14, "f_up")
    post = nonselective_array(inst, r)
    _require(np.abs(post - kz[:, None] * np.array([0.0, 0.0, 1.0])), 1e-14, "non-selective state")
    _require(np.abs(successive_array(inst, inst[0], r) - 0.5 * (1.0 + kz)), 1e-14, "successive f_up")
    _, sel = selective_array(inst[0], r)
    sel = sel[_defined(sel)]
    _require(np.abs(expectation_array(inst[0], sel) - 1.0), 1e-12, "repeated f_up")


def check_cyclic_permutation(n: int = 50) -> None:
    """The third-turn rotation about (1,1,1)/sqrt(3) permutes axes cyclically."""
    rng = np.random.default_rng(14)
    beta = _random_coefficients(rng, (n, 3))
    k = np.concatenate([np.full((n, 1), 0.3 + 0j), beta], axis=-1)
    for m, order in ((1, [2, 0, 1]), (2, [1, 2, 0])):
        rot = cyclic_rotation(m)
        rotated = rotate_array(k, rot.axis, rot.angle)[:, 1:]
        _require(np.abs(rotated - beta[:, order]), 1e-12, f"cyclic rotation {m}")


def check_rotation_conjugation(n: int = 200) -> None:
    """Closed-form rotation equals U^dag A U conjugation."""
    rng = np.random.default_rng(15)
    axis = _random_units(rng, n)
    angle = _random_angles(rng, n)
    k = _random_coefficients(rng, (n, 4))
    u = _unitary(axis, angle)
    expected = _coefficients(_dagger(u) @ _matrices(k) @ u)
    _require(np.abs(rotate_array(k, axis, angle) - expected), 1e-12, "rotated coefficients")


def check_rotation_covariance(n: int = 100) -> None:
    """Rotating the device equals rotating the state, at the probability level."""
    rng = np.random.default_rng(16)
    inst = _random_instruments(rng, n)
    r = _random_states(rng, n)
    axis = _random_units(rng, n)
    angle = _random_angles(rng, n)
    u = _unitary(axis, angle)
    rotated_state = _bloch(u @ _density(r) @ _dagger(u))
    lhs = expectation_array(rotate_array(inst, axis[:, None, :], angle[:, None]), r[:, None, :])
    rhs = expectation_array(inst, rotated_state[:, None, :])
    _require(np.abs(lhs - rhs), 1e-12, "rotated device vs rotated state")


def check_exact_normalize(n: int = 300) -> None:
    """Renormalization drives the completeness residual to rounding level."""
    rng = np.random.default_rng(17)
    _require(residual_array(_random_instruments(rng, n)), 1e-12, "completeness residual")


def check_gauge_invariance(n: int = 100) -> None:
    """A per-branch global phase changes no effect, probability or post-state."""
    rng = np.random.default_rng(18)
    up = _random_instruments(rng, n)[:, 0]
    r = _random_states(rng, n)
    twisted = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(n, 1))) * up
    _require(np.abs(effect_array(twisted) - effect_array(up)), 1e-12, "effect")
    _require(
        np.abs(expectation_array(twisted, r) - expectation_array(up, r)), 1e-12, "probability"
    )
    _, post_a = selective_array(up, r)
    _, post_b = selective_array(twisted, r)
    both = _defined(post_a) & _defined(post_b)
    _require(np.abs(post_a[both] - post_b[both]), 1e-12, "selective post-state")


def check_gauge_nullspace() -> None:
    """Both phase directions are annihilated by the derived design system."""
    system = design_matrix(default_observables())
    sigma_max = np.linalg.svd(system.rows, compute_uv=False)[0]
    for direction in gauge_directions():
        unit = direction / np.linalg.norm(direction)
        assert np.linalg.norm(system.rows @ unit) <= 1e-10 * sigma_max


def check_linearization_ratio(n: int = 10) -> None:
    """The closed-form response is the eta^1 term of the model probability:
    the first-order error falls fourfold when eta halves, cycling through
    every default observable."""
    rng = np.random.default_rng(19)
    observables = default_observables()
    etas = (1e-2, 5e-3)
    for i in range(n):
        params = PerturbationParams.from_vector(rng.uniform(-1.0, 1.0, size=16), 0.0)
        obs = observables[i % len(observables)]
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        delta = affine_coefficients(params, obs) @ np.array([1.0, *k])
        f0, *f = perturbed_probabilities(params, obs, k, (0.0, *etas))
        errors = [abs(fe - f0 - eta * delta) for eta, fe in zip(etas, f)]
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
    for obs in OBSERVABLES:
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        closed = affine_coefficients(params, obs) @ np.array([1.0, *k])
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
