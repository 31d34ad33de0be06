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

``PerturbationParams`` holds the 16 parameters as one read-only (2, 4)
complex array, [a, b_x, b_y, b_z] per branch; only its ``from_vector`` and
``to_vector`` know their PARAM_LABELS order.  The paper's 13 first-order
equations are held once, as their printed text, and ``transcribed_system``
reads both sides of each equation from that text.

``model_probability``, run once per simulated record, checks the rotated
instrument as an array and rebuilds no ``Instrument`` or ``RotationSpec``:
the ideal instrument and the three cyclic rotations are built at import.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .instrument import (
    BlochState,
    Direction,
    Instrument,
    cyclic_rotation,
    expectation_array,
    ideal_instrument,
    rotate_array,
    successive_array,
)
from .pauli import pauli_mul_array


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


# Where Re and Im of [a, b_x, b_y, b_z] sit among each branch's 8 PARAM_LABELS.
_RE, _IM = [0, 2, 3, 4], [1, 5, 6, 7]


@dataclass(frozen=True)
class PerturbationParams:
    """16 real non-ideality parameters, as the read-only (2, 4) complex array
    [a, b_x, b_y, b_z] of the up and the down branch, plus the scale eta."""

    array: np.ndarray
    eta: float

    def __post_init__(self):
        array = np.array(self.array, dtype=complex)
        if array.shape != (2, 4) or not np.isfinite(array).all():
            raise ValueError("perturbation must be finite and of shape (2, 4)")
        array.setflags(write=False)
        object.__setattr__(self, "array", array)
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise ValueError("eta must be finite")
        if eta < 0.0:
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "eta", eta)

    @classmethod
    def zero(cls, eta: float = 0.0) -> "PerturbationParams":
        return cls(np.zeros((2, 4)), eta)

    @classmethod
    def from_vector(cls, vec, eta: float) -> "PerturbationParams":
        """The parameters of a 16-vector in PARAM_LABELS order."""
        v = np.asarray(vec, dtype=float).reshape(2, 8)
        array = np.empty((2, 4), dtype=complex)
        array.real, array.imag = v[:, _RE], v[:, _IM]
        return cls(array, eta)

    def to_vector(self) -> np.ndarray:
        """The 16-vector in PARAM_LABELS order."""
        v = np.empty((2, 8))
        v[:, _RE], v[:, _IM] = self.array.real, self.array.imag
        return v.reshape(16)

    @classmethod
    def unit(cls, index: int, eta: float = 0.0) -> "PerturbationParams":
        vec = np.zeros(16)
        vec[index] = 1.0
        return cls.from_vector(vec, eta)


@dataclass(frozen=True)
class LinearSystem:
    """Rows over the 16 parameters (columns in PARAM_LABELS order) plus row
    labels and per-row data hooks.

    ``rhs_keys[i]`` is None for a constraint row, whose right-hand side is 0,
    or a tuple ``(observable, coefficient_index, scale)`` telling which fitted
    coefficient, scaled by ``scale``, is the row's right-hand side.
    """

    rows: np.ndarray
    row_labels: tuple[str, ...]
    rhs_keys: tuple[tuple[ObservableSpec, int, float] | None, ...]

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(PARAM_LABELS):
            raise ValueError("rows must have one column per parameter")
        if rows.shape[0] != len(self.row_labels):
            raise ValueError("row count must match row labels")
        if len(self.rhs_keys) != rows.shape[0]:
            raise ValueError("rhs_keys must match row count")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "rhs_keys", tuple(self.rhs_keys))


_IDEAL_INSTRUMENT = ideal_instrument()
_IDEAL = _IDEAL_INSTRUMENT.as_array()
_ROTATIONS = tuple(cyclic_rotation(m) for m in range(3))


def build_perturbed(params: PerturbationParams) -> Instrument:
    """Instrument with alpha = 1/2 + eta*a, beta = +-e_z/2 + eta*b (no repair)."""
    return Instrument.from_array(_IDEAL + params.eta * params.array)


def _direction_vector(k) -> np.ndarray:
    if isinstance(k, Direction):
        return k.unit_vector()
    return np.asarray(k, dtype=float).reshape(3)


def _probability_array(inst: np.ndarray, rotated: np.ndarray, obs: ObservableSpec, r: np.ndarray) -> np.ndarray:
    """The probability of ``obs`` for (..., 2, 4) instruments and their rotations by
    ``obs.m``: the rotated device's branch, alone or after a pass of the unrotated one."""
    branch = rotated[..., 0 if obs.outcome is Outcome.UP else 1, :]
    if obs.protocol is Protocol.SINGLE:
        return expectation_array(branch, r)
    return successive_array(inst, branch, r)


def _finite(inst: np.ndarray) -> np.ndarray:
    if not np.isfinite(inst).all():
        raise ValueError("instrument components must be finite")
    return inst


def model_probability(inst: Instrument, obs: ObservableSpec, k) -> float:
    """Model success frequency of an observable; unclamped and polynomial in
    any perturbation of the instrument (no intermediate renormalization).
    The rotated instrument is checked as an array: ValueError if not finite."""
    state = BlochState(_direction_vector(k))
    rot = _ROTATIONS[obs.m]
    branches = inst.as_array()
    rotated = _finite(rotate_array(branches, rot.axis, rot.angle))
    return float(_probability_array(branches, rotated, obs, state.r))


def ideal_probability(obs: ObservableSpec, k) -> float:
    return model_probability(_IDEAL_INSTRUMENT, obs, k)


def perturbed_probabilities(params: PerturbationParams, obs: ObservableSpec, k, etas) -> np.ndarray:
    """The model probability of ``obs`` at ``k`` for ``build_perturbed(params)``
    with its eta replaced by each of ``etas`` (negative ones too), in one pass
    of the array forms over the stacked (n, 2, 4) instruments: bit for bit
    ``model_probability`` per eta, ValueErrors included."""
    scale = np.asarray(etas, dtype=float)[:, None, None]
    inst = _finite(_IDEAL + scale * params.array)
    rot = _ROTATIONS[obs.m]
    rotated = _finite(rotate_array(inst, rot.axis, rot.angle))
    return _probability_array(inst, rotated, obs, BlochState(_direction_vector(k)).r)


_SINGLE_NODES = (-1.0, 0.0, 1.0)
_SUCCESSIVE_NODES = (-2.0, -1.0, 0.0, 1.0, 2.0)


def linear_response(
    params: PerturbationParams,
    obs: ObservableSpec,
    k,
    nodes: tuple[float, ...] | None = None,
) -> float:
    """Exact coefficient of eta^1 in the model probability at direction k.

    Evaluates the probability at distinct eta nodes, all in one
    ``perturbed_probabilities`` pass, and interpolates the polynomial; any
    node set of the right size gives the same answer up to rounding.
    """
    fewest = _SINGLE_NODES if obs.protocol is Protocol.SINGLE else _SUCCESSIVE_NODES
    if nodes is None:
        nodes = fewest
    if len(nodes) < len(fewest):
        raise ValueError("not enough interpolation nodes for the polynomial degree")
    values = perturbed_probabilities(params, obs, k, nodes)
    vander = np.vander(np.asarray(nodes, dtype=float), len(nodes), increasing=True)
    coeffs = np.linalg.solve(vander, values)
    return float(coeffs[1])


def affine_coefficients(params: PerturbationParams, obs: ObservableSpec) -> np.ndarray:
    """First-order response c0 + c1*kx + c2*ky + c3*kz over probe directions,
    as the read-only (4,) array (c0, c1, c2, c3)."""
    coefficients = _RESPONSE_BLOCKS[obs] @ params.to_vector()
    coefficients.setflags(write=False)
    return coefficients


def default_observables() -> tuple[ObservableSpec, ...]:
    """Deterministic observable set: up/down x m for single, up x m for successive."""
    single = (ObservableSpec(Protocol.SINGLE, outcome, m) for m in range(3) for outcome in Outcome)
    successive = (ObservableSpec(Protocol.SUCCESSIVE, Outcome.UP, m) for m in range(3))
    return (*single, *successive)


# --- closed-form first-order responses -----------------------------------------
# Operators below are (..., 4) complex arrays of Pauli coefficients; a leading
# axis of 16 holds the derivatives with respect to the 16 parameters.


def _unit_perturbations() -> np.ndarray:
    """d(alpha, beta)/d(parameter_i) of the up and the down branch, shape (2, 16, 4)."""
    return np.stack([PerturbationParams.unit(i).array for i in range(16)], axis=1)


def _rotation_matrix(m: int) -> np.ndarray:
    """The real 3x3 matrix that ``rotate_array`` applies to beta for ``cyclic_rotation(m)``."""
    rot = _ROTATIONS[m]
    basis = np.concatenate([np.zeros((3, 1)), np.eye(3)], axis=1)  # branches 0 + e_i . sigma
    return rotate_array(basis, rot.axis, rot.angle)[:, 1:].T


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
    units = _unit_perturbations()
    rotations = [_rotation_matrix(m) for m in range(3)]
    observables = (
        ObservableSpec(protocol, outcome, m)
        for protocol in Protocol
        for outcome in Outcome
        for m in range(3)
    )
    return MappingProxyType(
        {obs: _response_block(obs, _IDEAL, units, rotations[obs.m]) for obs in observables}
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
    return LinearSystem(np.array(rows), tuple(labels), tuple(keys))


def gauge_directions() -> tuple[np.ndarray, np.ndarray]:
    """Per-branch global-phase directions; unobservable by construction."""
    up = np.zeros(16)
    up[PARAM_LABELS.index("a_i_up")] = 0.5
    up[PARAM_LABELS.index("b_iz_up")] = 0.5
    down = np.zeros(16)
    down[PARAM_LABELS.index("a_i_down")] = 0.5
    down[PARAM_LABELS.index("b_iz_down")] = -0.5
    return up, down


# --- comparison against the published equations -----------------------------

# The first-order system of the paper, as printed: signed terms, (...)_up|down
# groups whose terms take that branch, and a right-hand side that is 0 (a
# completeness condition) or N*cJ[protocol/mM/outcome], the fitted coefficient
# J of that observable scaled by N.  This text is the only transcription.
_PAPER_EQUATIONS = (
    "(a_r + b_rz)_up + (a_r + b_rz)_down = 0",
    "(b_rx - b_iy)_up + (b_rx - b_iy)_down = 0",
    "(b_ry + b_ix)_up + (b_ry + b_ix)_down = 0",
    "a_r_up + b_rz_up = c0[single/m0/up]",
    "b_rx_up - b_iy_up = c2[single/m0/up]",
    "b_ry_up + b_ix_up = c3[single/m0/up]",
    "(a_r + b_rz + b_iy)_up + b_iy_down = c0[successive/m0/up]",
    "(a_r + b_rz - b_ix)_up - b_ix_down = c0[successive/m1/up]",
    "a_r_up + b_ry_up = c0[successive/m2/up]",
    "b_iy_up + b_iy_down = 2*c0[successive/m0/up]",
    "b_ix_up + b_ix_down = 2*c0[successive/m1/up]",
    "(a_r - b_rz)_up + (a_r - b_rz)_down = 2*c1[successive/m0/up]",
    "(a_i - b_iz)_up + (a_i - b_iz)_down = 2*c1[successive/m1/up]",
)

_TERM = re.compile(r"\s*([+-]?)\s*(?:\(([^)]*)\)_(up|down)|(\w+))")
_RHS = re.compile(r"(?:(\d+)\*)?c([0-3])\[(\w+)/m(\d)/(\w+)\]")


def _combination(text: str, branch: str = "") -> np.ndarray:
    """The parameter vector of a signed sum of labels and (...)_up|down groups;
    ``branch`` is appended to every label of a group's body."""
    if _TERM.sub("", text).strip():
        raise ValueError(f"cannot read parameter combination {text!r}")
    vec = np.zeros(len(PARAM_LABELS))
    for sign, group, group_branch, label in _TERM.findall(text):
        scale = -1.0 if sign == "-" else 1.0
        if group:
            vec += scale * _combination(group, "_" + group_branch)
        else:
            vec[PARAM_LABELS.index(label + branch)] += scale
    return vec


def _rhs_key(text: str) -> tuple[ObservableSpec, int, float] | None:
    """``LinearSystem.rhs_keys`` entry of a right-hand side."""
    if text == "0":
        return None
    match = _RHS.fullmatch(text)
    if match is None:
        raise ValueError(f"cannot read right-hand side {text!r}")
    scale, j, protocol, m, outcome = match.groups()
    return ObservableSpec(Protocol(protocol), Outcome(outcome), int(m)), int(j), float(scale or 1)


def transcribed_system() -> LinearSystem:
    """The paper's equations, read from their printed text: 3 completeness,
    3 identification from the single protocol, 7 from the successive protocol."""
    sides = [text.split(" = ") for text in _PAPER_EQUATIONS]
    return LinearSystem(
        np.array([_combination(lhs) for lhs, _ in sides]),
        _PAPER_EQUATIONS,
        tuple(_rhs_key(rhs) for _, rhs in sides),
    )


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


# A coefficient at or below this is zero when equations are compared.
_ZERO_TOL = 1e-9


def _verdict(lhs: np.ndarray, generated: np.ndarray) -> str:
    if np.allclose(lhs, generated, atol=_ZERO_TOL):
        return "Confirmed"
    support_l = np.abs(lhs) > _ZERO_TOL
    support_g = np.abs(generated) > _ZERO_TOL
    if np.array_equal(support_l, support_g) and np.allclose(
        np.abs(lhs), np.abs(generated), atol=_ZERO_TOL
    ):
        return "SignDiscrepancy"
    return "StructureDiscrepancy"


def compare_with_paper() -> dict:
    """Match the paper's equations against the generated system.

    Returns the recovery report's ``comparison`` section: ``entries``, one
    per paper equation with its ``group`` (normalization, identification or
    successive, after its right-hand side), the ``paper_equation``, the
    ``generated_row`` counterpart and a ``verdict`` (Confirmed,
    SignDiscrepancy or StructureDiscrepancy), and a list of ``notes``.
    """
    paper = transcribed_system()
    constraints = design_matrix(())
    entries = []
    for lhs, text, key in zip(paper.rows, paper.row_labels, paper.rhs_keys):
        if key is None:
            support = np.abs(lhs) > _ZERO_TOL
            scores = [
                int(np.sum(support & (np.abs(row) > _ZERO_TOL)))
                - int(np.sum(support ^ (np.abs(row) > _ZERO_TOL)))
                for row in constraints.rows
            ]
            best = int(np.argmax(scores))
            row = constraints.rows[best]
            group = "normalization"
            generated_text = f"{render_combination(row)} = 0  [{constraints.row_labels[best]}]"
            verdict = _verdict(lhs, row)
        else:
            obs, j, scale = key
            claim = scale * _RESPONSE_BLOCKS[obs][j]
            group = "identification" if obs.protocol is Protocol.SINGLE else "successive"
            rhs_text = f"{COEFF_LABELS[j]}[{obs.label()}]"
            if scale != 1.0:
                rhs_text = f"{scale:g}*{rhs_text}"
            generated_text = f"{render_combination(claim)} = {rhs_text}"
            verdict = _verdict(lhs, claim)
        entries.append(
            dict(group=group, paper_equation=text, generated_row=generated_text, verdict=verdict)
        )
    notes = [
        "post-measurement states are computed by operator conjugation; the "
        "printed coefficient expansion of the non-selective update drops the "
        "(k.b*)b + (k.b)b* terms and is not used",
        "the generated single-protocol responses attach the published "
        "parameter combinations to angular terms shifted by one cyclic step",
    ]
    return {"entries": entries, "notes": notes}
