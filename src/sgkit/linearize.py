"""Small-non-ideality model and the linear identification system.

The perturbed filter is alpha = 1/2 + eta*a, beta = +-e_z/2 + eta*b per
branch, 16 real parameters in all.  Every protocol is one row of
``FIRST_STAGE``: the branches A that the state passes through before the
rotated device's branch B, so that p = tr(rho H) with H = sum_A A B B^dag A^dag.
The probabilities, the closed-form first-order blocks (the Pauli coefficients
of dH/d eta, built once at import) and the interpolation degree all read that
table.  Exact polynomial interpolation in eta (``linear_response``) stays as
the independent oracle the tests and ``sgkit verify`` check the blocks against.

``PerturbationParams`` holds the 16 parameters as one read-only (2, 4)
complex array, [a, b_x, b_y, b_z] per branch; only its ``from_vector`` and
``to_vector`` know their PARAM_LABELS order.  The paper's 13 first-order
equations are held once, as their printed text, and ``transcribed_system``
reads both sides of each equation from that text.

``model_probabilities``, which generates every simulated record from a (2, 4)
instrument array on an (n, 3) stack of Bloch vectors, rotates and checks the
instrument once per observable and builds no ``Instrument`` or
``RotationSpec``; ``model_probability`` is its per-record form at one Direction
or 3-vector.  Every probability is affine in the Bloch vector, so the ideal
instrument's share of an observable is four numbers, ``ideal_coefficients``,
which a fit subtracts.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterator

import numpy as np

from .instrument import (
    Direction,
    Instrument,
    bloch_array,
    cyclic_rotation,
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
    """One measured success frequency: protocol, outcome and the rotation index of the
    measured branch (the protocol's ``FIRST_STAGE`` is never rotated)."""

    protocol: Protocol
    outcome: Outcome
    m: int

    def __post_init__(self):
        if self.m not in (0, 1, 2):
            raise ValueError("rotation index must be 0, 1 or 2")

    def label(self) -> str:
        return f"{self.protocol.value}/m{self.m}/{self.outcome.value}"


# Every observable, in the order records are generated: protocol, then m, then outcome.
OBSERVABLES = tuple(
    ObservableSpec(protocol, outcome, m) for protocol in Protocol for m in range(3) for outcome in Outcome
)


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


# eq=False (identity): a field-wise == would ask an ndarray for a truth value.
@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


_IDEAL = ideal_instrument().as_array()
# Each protocol's first stage: the rows of the stack [1, A_up, A_down] of the unrotated
# instrument that the state passes before the rotated device's branch B.
FIRST_STAGE = MappingProxyType({Protocol.SINGLE: (0,), Protocol.SUCCESSIVE: (1, 2)})
_ROTATIONS = tuple(cyclic_rotation(m) for m in range(3))


def build_perturbed(params: PerturbationParams) -> Instrument:
    """Instrument with alpha = 1/2 + eta*a, beta = +-e_z/2 + eta*b (no repair)."""
    return Instrument.from_array(_IDEAL + params.eta * params.array)


def _direction_vector(k) -> np.ndarray:
    if isinstance(k, Direction):
        return k.unit_vector()
    return np.asarray(k, dtype=float).reshape(3)


def _first_stage(inst: np.ndarray, protocol: Protocol, identity=(1.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """Rows ``FIRST_STAGE[protocol]`` of [identity, A_up, A_down] of (..., 2, 4) instruments."""
    stack = np.empty(inst.shape[:-2] + (3, 4), dtype=complex)
    stack[..., 0, :], stack[..., 1:, :] = identity, inst
    return stack[..., FIRST_STAGE[protocol], :]


def _probability_array(inst: np.ndarray, rotated: np.ndarray, obs: ObservableSpec, r: np.ndarray) -> np.ndarray:
    """The probability of ``obs`` for (..., 2, 4) instruments and their rotations by
    ``obs.m``: the protocol's first stage of the unrotated device, then the rotated one's branch."""
    branch = rotated[..., 0 if obs.outcome is Outcome.UP else 1, :]
    return successive_array(_first_stage(inst, obs.protocol), branch, r)


def _rotated(inst: np.ndarray, m: int) -> np.ndarray:
    """(..., 2, 4) instruments rotated by ``cyclic_rotation(m)``: ValueError unless both are finite."""
    rot = _ROTATIONS[m]
    rotated = rotate_array(inst, rot.axis, rot.angle) if np.isfinite(inst).all() else inst
    if not np.isfinite(rotated).all():
        raise ValueError("instrument components must be finite")
    return rotated


def model_probability_array(inst: np.ndarray, obs: ObservableSpec, r: np.ndarray) -> np.ndarray:
    """The model probability of ``obs`` for (..., 2, 4) instruments at unchecked (..., 3)
    Bloch vectors in one pass, the instruments rotated and checked as ``model_probability`` does."""
    return _probability_array(inst, _rotated(inst, obs.m), obs, r)


def model_probabilities(inst: np.ndarray, obs: ObservableSpec, r: np.ndarray) -> Iterator[float]:
    """``model_probability`` of the instrument of a (2, 4) array at each row of an (n, 3) stack
    that ``bloch_array`` has checked, bit for bit, ValueErrors included; the instrument is
    rotated and checked once, before the first."""
    rotated = _rotated(inst, obs.m)
    for row in r:
        yield float(_probability_array(inst, rotated, obs, row))


def model_probability(inst: Instrument, obs: ObservableSpec, k) -> float:
    """Model success frequency of an observable at one Direction or 3-vector, unclamped and
    polynomial in any perturbation of the instrument (no intermediate renormalization);
    ValueError unless all is finite."""
    return float(model_probability_array(inst.as_array(), obs, bloch_array(_direction_vector(k))))


@functools.cache
def ideal_coefficients(obs: ObservableSpec) -> np.ndarray:
    """The ideal instrument's probability of ``obs`` as the read-only (4,) array (c0, c1, c2, c3)
    of c0 + c1*kx + c2*ky + c3*kz, read off its model probability at the Bloch vectors 0, e_x,
    e_y and e_z; computed once per observable and process."""
    p = model_probability_array(_IDEAL, obs, np.eye(4, 3, -1))
    coefficients = np.concatenate([p[:1], p[1:] - p[0]])
    coefficients.setflags(write=False)
    return coefficients


def perturbed_probabilities(params: PerturbationParams, obs: ObservableSpec, k, etas) -> np.ndarray:
    """The model probability of ``obs`` at ``k`` for ``build_perturbed(params)`` with its
    eta replaced by each of ``etas`` (negative ones too), in one pass over the stacked
    instruments: bit for bit ``model_probability`` per eta, ValueErrors included."""
    scale = np.asarray(etas, dtype=float)[:, None, None]
    return model_probability_array(_IDEAL + scale * params.array, obs, bloch_array(_direction_vector(k)))


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
    # Degree 2 in eta from the branch B, plus 2 from a first stage other than the identity.
    fewest = (-1.0, 0.0, 1.0) if FIRST_STAGE[obs.protocol] == (0,) else (-2.0, -1.0, 0.0, 1.0, 2.0)
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
    """The measured observables in OBSERVABLES order: single up and down, successive up."""
    return tuple(obs for obs in OBSERVABLES if obs.protocol is Protocol.SINGLE or obs.outcome is Outcome.UP)


# --- closed-form first-order responses -----------------------------------------
# Operators below are (..., 4) complex arrays of Pauli coefficients; a leading
# axis of 16 holds the derivatives with respect to the 16 parameters.


# d(alpha, beta)/d(parameter_i) of the up and the down branch, shape (16, 2, 4).
_UNITS = np.stack([PerturbationParams.from_vector(row, 0.0).array for row in np.eye(16)])


def _response_block(obs: ObservableSpec) -> np.ndarray:
    """4x16 block of d(coefficient_j)/d(parameter_i) for one observable, whose measured
    branch and its ``_UNITS`` are rotated as in ``model_probability``.

    tr(rho H) = h0 + h . k for rho = (1 + k . sigma)/2 and Hermitian H, so the
    affine coefficients are the Pauli coefficients of the effect's derivative.
    H = sum_A A F A^dag over the first stage A, with F = B B^dag and dF = dB B0^dag
    + B0 dB^dag: dH = sum_A (dA F0 A0^dag + A0 dF A0^dag + A0 F0 dA^dag), the identity's dA = 0.
    """
    branch = 0 if obs.outcome is Outcome.UP else 1
    rot = _ROTATIONS[obs.m]
    b0 = rotate_array(_IDEAL, rot.axis, rot.angle)[branch]
    f0, db = pauli_mul_array(b0, b0.conj()), rotate_array(_UNITS[:, branch], rot.axis, rot.angle)
    d_effect = pauli_mul_array(db, b0.conj()) + pauli_mul_array(b0, db.conj())
    a0, da = _first_stage(_IDEAL, obs.protocol), _first_stage(_UNITS, obs.protocol, 0.0)
    d_h = (
        pauli_mul_array(pauli_mul_array(da, f0), a0.conj())
        + pauli_mul_array(pauli_mul_array(a0, d_effect[:, None]), a0.conj())
        + pauli_mul_array(pauli_mul_array(a0, f0), da.conj())
    ).sum(axis=-2)
    block = np.ascontiguousarray(d_h.real.T)
    block.setflags(write=False)
    return block


# Read-only blocks of every observable.
_RESPONSE_BLOCKS = MappingProxyType({obs: _response_block(obs) for obs in OBSERVABLES})


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
    single = [_RESPONSE_BLOCKS[obs] for obs in OBSERVABLES if obs.protocol is Protocol.SINGLE]
    for m, (up, down) in enumerate(zip(single[0::2], single[1::2])):
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
_RHS = re.compile(r"(?:(\d+)\*)?c([0-3])\[(.*)\]")


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


_BY_LABEL = {obs.label(): obs for obs in OBSERVABLES}


def _rhs_key(text: str) -> tuple[ObservableSpec, int, float] | None:
    """``LinearSystem.rhs_keys`` entry of a right-hand side."""
    if text == "0":
        return None
    match = _RHS.fullmatch(text)
    if match is None or match[3] not in _BY_LABEL:
        raise ValueError(f"cannot read right-hand side {text!r}")
    scale, j, label = match.groups()
    return _BY_LABEL[label], int(j), float(scale or 1)


def transcribed_system() -> LinearSystem:
    """The paper's equations, read from their printed text: 3 completeness,
    3 identification from the single protocol, 7 from the successive protocol."""
    sides = [text.split(" = ") for text in _PAPER_EQUATIONS]
    return LinearSystem(
        np.array([_combination(lhs) for lhs, _ in sides]),
        _PAPER_EQUATIONS,
        tuple(_rhs_key(rhs) for _, rhs in sides),
    )


# A coefficient at or below this is zero when equations are compared or rendered.
_ZERO_TOL = 1e-9


def _round_clean(value: float) -> float:
    snapped = round(value * 4.0) / 4.0
    return snapped if abs(value - snapped) < 1e-9 else value


def render_combination(vec, zero_tol: float = _ZERO_TOL) -> str:
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
    # The completeness equations, in printed order, pair with norm/m0:c0, c1 and c2.
    constraints = design_matrix(())
    completeness = zip(constraints.rows, constraints.row_labels)
    entries = []
    for lhs, text, key in zip(paper.rows, paper.row_labels, paper.rhs_keys):
        if key is None:
            row, label = next(completeness)
            group = "normalization"
            generated_text = f"{render_combination(row)} = 0  [{label}]"
            verdict = _verdict(lhs, row)
        else:
            obs, j, scale = key
            claim = scale * _RESPONSE_BLOCKS[obs][j]
            group = "identification" if obs.protocol is Protocol.SINGLE else "successive"
            generated_text = f"{render_combination(claim)} = {text.split(' = ')[1]}"
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
