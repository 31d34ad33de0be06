"""Small-non-ideality model and the linear identification system.

The perturbed filter is alpha = 1/2 + eta*a, beta = +-e_z/2 + eta*b per
branch, 16 real parameters in all.  The first-order response of tr(rho F) is
affine in the probe direction, and its coefficients are the Pauli
coefficients of the eta-derivative of the Heisenberg-picture effect F: B B^dag
for a single measurement with branch B, sum_n A_n B B^dag A_n^dag for a
non-selective pass followed by B.  The module derives these 4x16 blocks in
closed form, once, at import.  Exact polynomial interpolation in eta
(``linear_response``; the probabilities are polynomials of degree <= 2 for
single measurements and <= 4 for successive ones) stays as the independent
oracle the tests and ``sgkit verify`` compare the closed form against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .instrument import (
    BlochState,
    Direction,
    Effect,
    Instrument,
    KrausOperator,
    cyclic_rotation,
    effect_expectation,
    ideal_instrument,
    raw_successive_probability,
    rotate_instrument,
    rotate_kraus,
)
from .pauli import PauliCoefficients, adjoint, pauli_add, pauli_mul, pauli_mul_array


class Protocol(Enum):
    SINGLE = "single"
    SUCCESSIVE = "successive"


class Outcome(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ObservableSpec:
    """One measured success frequency: protocol, outcome, device rotation index.

    For the successive protocol the rotation index applies to the selective
    second stage; the first stage is always the unrotated non-selective pass.
    """

    protocol: Protocol
    outcome: Outcome
    m: int

    def __post_init__(self):
        if self.m not in (0, 1, 2):
            raise ValueError("rotation index must be 0, 1 or 2")

    def label(self) -> str:
        return f"{self.protocol.value}/m{self.m}/{self.outcome.value}"


PARAM_LABELS = (
    "a_r_up", "a_i_up",
    "b_rx_up", "b_ry_up", "b_rz_up",
    "b_ix_up", "b_iy_up", "b_iz_up",
    "a_r_down", "a_i_down",
    "b_rx_down", "b_ry_down", "b_rz_down",
    "b_ix_down", "b_iy_down", "b_iz_down",
)

COEFF_LABELS = ("c0", "c1", "c2", "c3")


@dataclass(frozen=True)
class PerturbationParams:
    """16 real non-ideality parameters (a, b per outcome) plus the scale eta."""

    a_up: complex
    a_down: complex
    b_up: np.ndarray
    b_down: np.ndarray
    eta: float

    def __post_init__(self):
        for name in ("a_up", "a_down"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        for name in ("b_up", "b_down"):
            vec = np.array(getattr(self, name), dtype=complex).reshape(3)
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} components must be finite")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise ValueError("eta must be finite")
        if eta < 0.0:
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "eta", eta)

    @classmethod
    def zero(cls, eta: float = 0.0) -> "PerturbationParams":
        return cls(0.0, 0.0, np.zeros(3), np.zeros(3), eta)

    @classmethod
    def from_vector(cls, vec, eta: float) -> "PerturbationParams":
        v = np.asarray(vec, dtype=float).reshape(16)
        a_up = complex(v[0], v[1])
        b_up = v[2:5] + 1j * v[5:8]
        a_down = complex(v[8], v[9])
        b_down = v[10:13] + 1j * v[13:16]
        return cls(a_up, a_down, b_up, b_down, eta)

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [
                [self.a_up.real, self.a_up.imag],
                self.b_up.real, self.b_up.imag,
                [self.a_down.real, self.a_down.imag],
                self.b_down.real, self.b_down.imag,
            ]
        )

    @classmethod
    def unit(cls, index: int, eta: float = 0.0) -> "PerturbationParams":
        vec = np.zeros(16)
        vec[index] = 1.0
        return cls.from_vector(vec, eta)


@dataclass(frozen=True)
class AffineCoefficients:
    """Coefficients of c0 + c1*kx + c2*ky + c3*kz over probe directions."""

    c0: float
    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2, self.c3])


@dataclass(frozen=True)
class LinearSystem:
    """Rows over the 16 parameters plus labels and per-row data hooks.

    ``rhs_keys[i]`` is None for a constraint row (rhs stays 0) or a tuple
    ``(observable, coefficient_index, scale)`` telling which fitted
    coefficient feeds the row, scaled by ``scale``.
    """

    rows: np.ndarray
    rhs: np.ndarray
    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    rhs_keys: tuple[tuple[ObservableSpec, int, float] | None, ...]

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        rhs = np.array(self.rhs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.column_labels):
            raise ValueError("row width must match column labels")
        if rows.shape[0] != len(self.row_labels) or rows.shape[0] != rhs.shape[0]:
            raise ValueError("row count must match labels and rhs")
        if len(self.rhs_keys) != rows.shape[0]:
            raise ValueError("rhs_keys must match row count")
        rows.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "column_labels", tuple(self.column_labels))
        object.__setattr__(self, "rhs_keys", tuple(self.rhs_keys))


def build_perturbed(params: PerturbationParams, eta: float | None = None) -> Instrument:
    """Instrument with alpha = 1/2 + eta*a, beta = +-e_z/2 + eta*b (no repair)."""
    scale = params.eta if eta is None else float(eta)
    e_z = np.array([0.0, 0.0, 0.5])
    return Instrument(
        KrausOperator(0.5 + scale * params.a_up, e_z + scale * params.b_up),
        KrausOperator(0.5 + scale * params.a_down, -e_z + scale * params.b_down),
    )


def _direction_vector(k) -> np.ndarray:
    if isinstance(k, Direction):
        return k.unit_vector()
    return np.asarray(k, dtype=float).reshape(3)


def model_probability(inst: Instrument, obs: ObservableSpec, k) -> float:
    """Model success frequency of an observable; unclamped and polynomial in
    any perturbation of the instrument (no intermediate renormalization)."""
    state = BlochState(_direction_vector(k))
    rotated = rotate_instrument(inst, cyclic_rotation(obs.m))
    if obs.protocol is Protocol.SINGLE:
        branch = rotated.up if obs.outcome is Outcome.UP else rotated.down
        return effect_expectation(branch, state)
    second = rotated.up if obs.outcome is Outcome.UP else rotated.down
    return raw_successive_probability(inst, second, state)


def ideal_probability(obs: ObservableSpec, k) -> float:
    return model_probability(ideal_instrument(), obs, k)


_SINGLE_NODES = (-1.0, 0.0, 1.0)
_SUCCESSIVE_NODES = (-2.0, -1.0, 0.0, 1.0, 2.0)


def response_degree(obs: ObservableSpec) -> int:
    return 2 if obs.protocol is Protocol.SINGLE else 4


def linear_response(
    params: PerturbationParams,
    obs: ObservableSpec,
    k,
    nodes: tuple[float, ...] | None = None,
) -> float:
    """Exact coefficient of eta^1 in the model probability at direction k.

    Evaluates the probability at distinct eta nodes and interpolates the
    polynomial; any node set of the right size gives the same answer up to
    rounding.
    """
    if nodes is None:
        nodes = _SINGLE_NODES if obs.protocol is Protocol.SINGLE else _SUCCESSIVE_NODES
    degree = len(nodes) - 1
    if degree < response_degree(obs):
        raise ValueError("not enough interpolation nodes for the polynomial degree")
    kvec = _direction_vector(k)
    values = [model_probability(build_perturbed(params, eta=node), obs, kvec) for node in nodes]
    vander = np.vander(np.asarray(nodes, dtype=float), degree + 1, increasing=True)
    coeffs = np.linalg.solve(vander, np.asarray(values))
    return float(coeffs[1])


def affine_coefficients(params: PerturbationParams, obs: ObservableSpec) -> AffineCoefficients:
    """First-order response as an affine function of the probe direction."""
    return AffineCoefficients(*(_RESPONSE_BLOCKS[obs] @ params.to_vector()))


def default_observables(protocols=(Protocol.SINGLE, Protocol.SUCCESSIVE)) -> tuple[ObservableSpec, ...]:
    """Deterministic observable set: up/down x m for single, up x m for successive."""
    out = []
    if Protocol.SINGLE in protocols:
        for m in range(3):
            for outcome in (Outcome.UP, Outcome.DOWN):
                out.append(ObservableSpec(Protocol.SINGLE, outcome, m))
    if Protocol.SUCCESSIVE in protocols:
        for m in range(3):
            out.append(ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, m))
    return tuple(out)


# --- closed-form first-order responses -----------------------------------------
# Operators below are (..., 4) complex arrays of Pauli coefficients; a leading
# axis of 16 holds the derivatives with respect to the 16 parameters.


def _unit_perturbations() -> np.ndarray:
    """d(alpha, beta)/d(parameter_i) of the up and the down branch, shape (2, 16, 4)."""
    units = [PerturbationParams.unit(i) for i in range(16)]
    return np.array(
        [[[p.a_up, *p.b_up] for p in units], [[p.a_down, *p.b_down] for p in units]]
    )


def _rotation_matrix(m: int) -> np.ndarray:
    """The real 3x3 matrix that ``rotate_kraus`` applies to beta for ``cyclic_rotation(m)``."""
    rot = cyclic_rotation(m)
    return np.array([rotate_kraus(KrausOperator(0.0, e), rot).beta.real for e in np.eye(3)]).T


def _rotated(ops: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """(..., 4) Kraus operators with beta rotated and alpha untouched."""
    # einsum rather than a matmul: a matmul here would start the BLAS library
    # at import, which raised the peak RSS of an `sgkit roundtrip` by 0.4 MB.
    beta = np.einsum("...j,kj->...k", ops[..., 1:], rotation)
    return np.concatenate([ops[..., :1], beta], axis=-1)


def _effect_derivative(b0: np.ndarray, db: np.ndarray) -> np.ndarray:
    """d(B B^dag) = dB B0^dag + B0 dB^dag."""
    return pauli_mul_array(db, b0.conj()) + pauli_mul_array(b0, db.conj())


def _response_block(
    obs: ObservableSpec, ideal: np.ndarray, units: np.ndarray, rotation: np.ndarray
) -> np.ndarray:
    """4x16 block of d(coefficient_j)/d(parameter_i) for one observable.

    ``ideal`` (2, 4) holds the unrotated ideal branches, ``units`` (2, 16, 4)
    their unit perturbations, ``rotation`` is ``_rotation_matrix(obs.m)``.

    tr(rho H) = h0 + h . k for rho = (1 + k . sigma)/2 and Hermitian H, so the
    affine coefficients are the Pauli coefficients of the effect's derivative.
    For the successive protocol H = sum_n A_n F A_n^dag, with the unrotated
    first stage A_n and the effect F of the rotated second-stage branch B:
    dH = sum_n (dA_n F0 A_n0^dag + A_n0 dF A_n0^dag + A_n0 F0 dA_n^dag).
    """
    branch = 0 if obs.outcome is Outcome.UP else 1
    b0 = _rotated(ideal[branch], rotation)
    d_effect = _effect_derivative(b0, _rotated(units[branch], rotation))
    if obs.protocol is Protocol.SUCCESSIVE:
        f0 = pauli_mul_array(b0, b0.conj())
        d_effect = sum(
            pauli_mul_array(pauli_mul_array(da, f0), a0.conj())
            + pauli_mul_array(pauli_mul_array(a0, d_effect), a0.conj())
            + pauli_mul_array(pauli_mul_array(a0, f0), da.conj())
            for a0, da in zip(ideal, units)
        )
    block = np.ascontiguousarray(d_effect.real.T)
    block.setflags(write=False)
    return block


def _response_blocks() -> MappingProxyType:
    """Read-only blocks of every observable: 2 protocols x 2 outcomes x 3 rotations."""
    ideal = np.array([[k.alpha, *k.beta] for k in ideal_instrument().branches])
    units = _unit_perturbations()
    rotations = [_rotation_matrix(m) for m in range(3)]
    observables = (
        ObservableSpec(protocol, outcome, m)
        for protocol in Protocol
        for outcome in Outcome
        for m in range(3)
    )
    return MappingProxyType(
        {obs: _response_block(obs, ideal, units, rotations[obs.m]) for obs in observables}
    )


_RESPONSE_BLOCKS = _response_blocks()


def design_matrix(observables) -> LinearSystem:
    """Linear system relating the 16 parameters to observable coefficients.

    One row per (observable, coefficient) pair, read from the closed-form
    response blocks, followed by the first-order completeness
    constraints (the four affine parts of f_up + f_down - 1 per rotation,
    rhs 0).  Constraint rows are consequences of the single-protocol rows, so
    they are generated from those same blocks.
    """
    rows: list[np.ndarray] = []
    labels: list[str] = []
    keys: list[tuple[ObservableSpec, int, float] | None] = []
    for obs in observables:
        block = _RESPONSE_BLOCKS[obs]
        for j in range(4):
            rows.append(block[j])
            labels.append(f"{obs.label()}:{COEFF_LABELS[j]}")
            keys.append((obs, j, 1.0))
    for m in range(3):
        up = _RESPONSE_BLOCKS[ObservableSpec(Protocol.SINGLE, Outcome.UP, m)]
        down = _RESPONSE_BLOCKS[ObservableSpec(Protocol.SINGLE, Outcome.DOWN, m)]
        for j in range(4):
            rows.append(up[j] + down[j])
            labels.append(f"norm/m{m}:{COEFF_LABELS[j]}")
            keys.append(None)
    matrix = np.array(rows)
    return LinearSystem(matrix, np.zeros(len(rows)), tuple(labels), PARAM_LABELS, tuple(keys))


def normalization_rows(system: LinearSystem | None = None) -> np.ndarray:
    """The constraint rows of a design system (rows whose rhs is pinned to 0)."""
    if system is None:
        system = design_matrix(())
    mask = [key is None for key in system.rhs_keys]
    return system.rows[np.array(mask)]


def project_to_constraints(vec) -> np.ndarray:
    """Project a 16-parameter vector onto the first-order completeness subspace."""
    rows = normalization_rows()
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-10 * s[0]))
    null = vt[rank:]
    v = np.asarray(vec, dtype=float).reshape(16)
    return null.T @ (null @ v)


def gauge_directions() -> tuple[np.ndarray, np.ndarray]:
    """Per-branch global-phase directions; unobservable by construction."""
    up = np.zeros(16)
    up[PARAM_LABELS.index("a_i_up")] = 0.5
    up[PARAM_LABELS.index("b_iz_up")] = 0.5
    down = np.zeros(16)
    down[PARAM_LABELS.index("a_i_down")] = 0.5
    down[PARAM_LABELS.index("b_iz_down")] = -0.5
    return up, down


def first_order_effects(params: PerturbationParams) -> tuple[Effect, Effect]:
    """Effects of the perturbed instrument truncated to first order in eta.

    delta(A A^dag) = dA A0^dag + A0 dA^dag, computed through the algebra.
    """
    eta = params.eta
    ideal = ideal_instrument()
    out = []
    for branch, a, b, sign in (
        (ideal.up, params.a_up, params.b_up, 1.0),
        (ideal.down, params.a_down, params.b_down, -1.0),
    ):
        base = branch.coefficients()
        delta = PauliCoefficients(a, b)
        d_eff = pauli_add(pauli_mul(delta, adjoint(base)), pauli_mul(base, adjoint(delta)))
        weight = 0.5 + eta * d_eff.scalar.real
        weighted_xi = np.array([0.0, 0.0, sign * 0.5]) + eta * d_eff.vector.real
        out.append(Effect(weight, weighted_xi / weight))
    return (out[0], out[1])


# --- comparison against the hand-transcribed reference equations -------------

_IDX = {label: i for i, label in enumerate(PARAM_LABELS)}


def _combo(**terms) -> np.ndarray:
    vec = np.zeros(16)
    for label, value in terms.items():
        vec[_IDX[label]] = value
    return vec


@dataclass(frozen=True)
class ReferenceEquation:
    """One equation of the published first-order system, as transcribed."""

    text: str
    lhs: np.ndarray
    group: str
    rhs_key: tuple[ObservableSpec, int, float] | None


def _single_up0() -> ObservableSpec:
    return ObservableSpec(Protocol.SINGLE, Outcome.UP, 0)


def _succ(m: int) -> ObservableSpec:
    return ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, m)


def reference_equations() -> tuple[ReferenceEquation, ...]:
    """The 13 transcribed equations: 3 completeness, 3 identification from the
    single protocol, 7 from the successive protocol."""
    return (
        ReferenceEquation(
            "(a_r + b_rz)_up + (a_r + b_rz)_down = 0",
            _combo(a_r_up=1, b_rz_up=1, a_r_down=1, b_rz_down=1),
            "normalization", None,
        ),
        ReferenceEquation(
            "(b_rx - b_iy)_up + (b_rx - b_iy)_down = 0",
            _combo(b_rx_up=1, b_iy_up=-1, b_rx_down=1, b_iy_down=-1),
            "normalization", None,
        ),
        ReferenceEquation(
            "(b_ry + b_ix)_up + (b_ry + b_ix)_down = 0",
            _combo(b_ry_up=1, b_ix_up=1, b_ry_down=1, b_ix_down=1),
            "normalization", None,
        ),
        ReferenceEquation(
            "a_r_up + b_rz_up = c0[single/m0/up]",
            _combo(a_r_up=1, b_rz_up=1),
            "identification", (_single_up0(), 0, 1.0),
        ),
        ReferenceEquation(
            "b_rx_up - b_iy_up = c2[single/m0/up]",
            _combo(b_rx_up=1, b_iy_up=-1),
            "identification", (_single_up0(), 2, 1.0),
        ),
        ReferenceEquation(
            "b_ry_up + b_ix_up = c3[single/m0/up]",
            _combo(b_ry_up=1, b_ix_up=1),
            "identification", (_single_up0(), 3, 1.0),
        ),
        ReferenceEquation(
            "(a_r + b_rz + b_iy)_up + b_iy_down = c0[successive/m0/up]",
            _combo(a_r_up=1, b_rz_up=1, b_iy_up=1, b_iy_down=1),
            "successive", (_succ(0), 0, 1.0),
        ),
        ReferenceEquation(
            "(a_r + b_rz - b_ix)_up - b_ix_down = c0[successive/m1/up]",
            _combo(a_r_up=1, b_rz_up=1, b_ix_up=-1, b_ix_down=-1),
            "successive", (_succ(1), 0, 1.0),
        ),
        ReferenceEquation(
            "a_r_up + b_ry_up = c0[successive/m2/up]",
            _combo(a_r_up=1, b_ry_up=1),
            "successive", (_succ(2), 0, 1.0),
        ),
        ReferenceEquation(
            "b_iy_up + b_iy_down = 2*c0[successive/m0/up]",
            _combo(b_iy_up=1, b_iy_down=1),
            "successive", (_succ(0), 0, 2.0),
        ),
        ReferenceEquation(
            "b_ix_up + b_ix_down = 2*c0[successive/m1/up]",
            _combo(b_ix_up=1, b_ix_down=1),
            "successive", (_succ(1), 0, 2.0),
        ),
        ReferenceEquation(
            "(a_r - b_rz)_up + (a_r - b_rz)_down = 2*c1[successive/m0/up]",
            _combo(a_r_up=1, b_rz_up=-1, a_r_down=1, b_rz_down=-1),
            "successive", (_succ(0), 1, 2.0),
        ),
        ReferenceEquation(
            "(a_i - b_iz)_up + (a_i - b_iz)_down = 2*c1[successive/m1/up]",
            _combo(a_i_up=1, b_iz_up=-1, a_i_down=1, b_iz_down=-1),
            "successive", (_succ(1), 1, 2.0),
        ),
    )


def transcribed_system() -> LinearSystem:
    """The reference equations assembled as a solvable linear system."""
    eqs = reference_equations()
    rows = np.array([eq.lhs for eq in eqs])
    labels = tuple(eq.text for eq in eqs)
    keys = tuple(eq.rhs_key for eq in eqs)
    return LinearSystem(rows, np.zeros(len(eqs)), labels, PARAM_LABELS, keys)


def _round_clean(value: float) -> float:
    snapped = round(value * 4.0) / 4.0
    return snapped if abs(value - snapped) < 1e-9 else value


def render_combination(vec, zero_tol: float = 1e-9) -> str:
    """Human-readable rendering of a parameter combination row."""
    terms = []
    for value, label in zip(np.asarray(vec, dtype=float), PARAM_LABELS):
        if abs(value) <= zero_tol:
            continue
        value = _round_clean(value)
        sign = "-" if value < 0 else "+"
        mag = abs(value)
        body = label if abs(mag - 1.0) < 1e-12 else f"{mag:.10g}*{label}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


@dataclass(frozen=True)
class ComparisonEntry:
    group: str
    reference: str
    generated: str
    verdict: str


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "group": e.group,
                    "paper_equation": e.reference,
                    "generated_row": e.generated,
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        width = max(len(e.reference) for e in self.entries)
        lines = ["reference equation".ljust(width) + "  verdict               generated counterpart"]
        for e in self.entries:
            lines.append(f"{e.reference.ljust(width)}  {e.verdict.ljust(20)}  {e.generated}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _verdict(lhs: np.ndarray, generated: np.ndarray, tol: float = 1e-9) -> str:
    if np.allclose(lhs, generated, atol=tol):
        return "Confirmed"
    support_l = np.abs(lhs) > tol
    support_g = np.abs(generated) > tol
    if np.array_equal(support_l, support_g) and np.allclose(
        np.abs(lhs), np.abs(generated), atol=tol
    ):
        return "SignDiscrepancy"
    return "StructureDiscrepancy"


def compare_with_paper() -> ComparisonReport:
    """Match the transcribed reference equations against the generated system.

    Every reference equation gets a verdict (Confirmed, SignDiscrepancy or
    StructureDiscrepancy) together with the generated counterpart row.
    """
    system = design_matrix(default_observables())
    by_key = {key[:2]: row for row, key in zip(system.rows, system.rhs_keys) if key}
    norm_rows = [
        (label, row)
        for row, label, key in zip(system.rows, system.row_labels, system.rhs_keys)
        if key is None
    ]
    entries = []
    for eq in reference_equations():
        if eq.rhs_key is None:
            support = np.abs(eq.lhs) > 1e-9
            scores = [
                int(np.sum(support & (np.abs(row) > 1e-9)))
                - int(np.sum(support ^ (np.abs(row) > 1e-9)))
                for _, row in norm_rows
            ]
            label, row = norm_rows[int(np.argmax(scores))]
            generated_text = f"{render_combination(row)} = 0  [{label}]"
            verdict = _verdict(eq.lhs, row)
        else:
            obs, j, scale = eq.rhs_key
            row = by_key[(obs, j)]
            claim = scale * row
            rhs_text = f"{COEFF_LABELS[j]}[{obs.label()}]"
            if scale != 1.0:
                rhs_text = f"{scale:g}*{rhs_text}"
            generated_text = f"{render_combination(claim)} = {rhs_text}"
            verdict = _verdict(eq.lhs, claim)
        entries.append(ComparisonEntry(eq.group, eq.text, generated_text, verdict))
    notes = (
        "post-measurement states are computed by operator conjugation; the "
        "printed coefficient expansion of the non-selective update drops the "
        "(k.b*)b + (k.b)b* terms and is not used",
        "the generated single-protocol responses attach the published "
        "parameter combinations to angular terms shifted by one cyclic step",
    )
    return ComparisonReport(tuple(entries), notes)
