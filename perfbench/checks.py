"""Output checks applied to every benchmark operation.

Each check returns a list of failure reasons; an empty list means the
operation passed.  Tolerances are stated here once.
"""

from __future__ import annotations

import numpy as np

EXPECTED_RANK = 12
VERIFY_CHECKS = 11
# Exact data: the only error left is the O(eta) truncation of the first-order
# model, about 1e-5 at the benchmark's operating point.
EXACT_TOL = 1e-4
# Sampled data: every identifiable combination within this many standard
# errors of the reported covariance (two-sided 6 sigma: ~2e-9 per combination).
SAMPLED_SIGMAS = 6.0
GAUGE_TOL = 1e-8
# The CLI's compatibility rule, restated for in-process recoveries.
FIT_CHI2_THRESHOLD = 3.0
RESIDUAL_THRESHOLD = 1e-4


def recovery_error(parameters, row_space, truth) -> float:
    """Max |row_space @ (p_hat - p)|: the error of the identifiable combinations."""
    return float(np.max(np.abs(np.asarray(row_space) @ (np.asarray(parameters) - truth))))


def check_recovery(report: dict, truth, exact: bool, gauge_directions) -> list[str]:
    """Check a recovery report (the CLI's JSON document, or the same keys)."""
    reasons = []
    if report["rank"] != EXPECTED_RANK:
        reasons.append(f"rank {report['rank']} != {EXPECTED_RANK}")
    if report["compatible"] is not True:
        reasons.append("report is not compatible")
    null = np.asarray(report["nullspace"], dtype=float).reshape(-1, 16)
    for g in gauge_directions:
        unit = g / np.linalg.norm(g)
        if np.linalg.norm(unit - null.T @ (null @ unit)) > GAUGE_TOL:
            reasons.append("a gauge direction is outside the reported nullspace")
    params = np.asarray(report["parameters"], dtype=float)
    row_space = np.asarray(report["row_space"], dtype=float)
    if exact:
        err = recovery_error(params, row_space, truth)
        if not err <= EXACT_TOL:
            reasons.append(f"recovery_err {err:.3e} > {EXACT_TOL:g}")
    elif report["covariance"] is None:
        reasons.append("sampled recovery reports no covariance")
    else:
        cov = np.asarray(report["covariance"], dtype=float)
        for v in row_space:
            se = float(np.sqrt(max(v @ cov @ v, 0.0)))
            if not abs(v @ (params - truth)) <= SAMPLED_SIGMAS * se:
                reasons.append(f"a combination is off by more than {SAMPLED_SIGMAS:g} standard errors")
                break
    return reasons


def compatible(quality_compatible: bool, result) -> bool:
    """Overall compatibility as ``sg recover`` decides it."""
    if result.chi_square is not None and result.degrees_of_freedom:
        ok = result.chi_square <= FIT_CHI2_THRESHOLD * result.degrees_of_freedom
    else:
        ok = result.residual_norm <= RESIDUAL_THRESHOLD
    return bool(quality_compatible and ok)


def report_of(result, quality_compatible: bool) -> dict:
    """The keys ``check_recovery`` reads, taken from an in-process RecoveryResult."""
    return {
        "rank": result.rank,
        "compatible": compatible(quality_compatible, result),
        "nullspace": result.nullspace_basis,
        "parameters": result.parameters,
        "row_space": result.row_space_basis,
        "covariance": result.covariance,
    }


def check_verify_output(returncode: int, stdout: str) -> list[str]:
    reasons = []
    if returncode != 0:
        reasons.append(f"sg verify exited {returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    passed = sum(1 for line in lines if line.split()[-1:] == ["PASS"])
    if passed != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS:
        reasons.append(f"{passed} PASS lines of {len(lines)}, expected {VERIFY_CHECKS}")
    return reasons
