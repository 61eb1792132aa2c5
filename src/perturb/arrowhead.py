"""Closed-form leading eigenpair for diagonal-plus-arrowhead perturbations.

For A = diag(lambda) and E carrying a single coupling row/column g, the top
eigenpair of A + E solves a scalar secular equation in the eigenvalue shift
gamma. This is both fast at large n (no dense factorization) and an
independent oracle for the fixed-point solver on rank-2 perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError
from .matcore import Spectrum, json_fields

__all__ = ["SecularSolution", "solve_gamma", "arrowhead_eigvec", "lower_bound_check"]


@dataclass(frozen=True)
class SecularSolution:
    """Top eigenpair of the arrowhead-perturbed matrix, in closed form.

    (a, w) is the unit top eigenvector split into its first coordinate and the
    rest; gamma > 0 is the eigenvalue shift; rho_j = g_j^2 / (gap_j + gamma)
    are the weights whose sum is gamma.
    """

    gamma: float
    rho: np.ndarray
    a: float
    w: np.ndarray
    top_eigenvalue: float

    def vector(self) -> np.ndarray:
        return np.concatenate(([self.a], self.w))

    def to_dict(self) -> dict:
        return json_fields(self)


def _secular(gamma: float, g2: np.ndarray, gaps: np.ndarray) -> tuple[float, float]:
    """Value and derivative of f(gamma) = gamma - sum g_j^2 / (gap_j + gamma)."""
    den = gaps + gamma
    val = gamma - float(np.sum(g2 / den))
    deriv = 1.0 + float(np.sum(g2 / (den * den)))
    return val, deriv


def solve_gamma(spectrum: Spectrum, g: np.ndarray, tol: float = 1e-14) -> float:
    """Unique positive root of gamma = sum_j g_j^2 / (lambda1 - lambda_{j+1} + gamma).

    f(gamma) = gamma - sum(...) is strictly increasing with f(0) <= 0 and
    f(sum g_j^2 / gap_j) >= 0, so a safeguarded Newton iteration from the
    bracket midpoint converges; bisection takes over whenever a Newton step
    leaves the bracket. Residual at return is <= tol * max(gamma, 1).
    """
    g = np.asarray(g, dtype=np.float64)
    gaps = spectrum.gaps()
    if g.size != gaps.size:
        raise ValueError(f"g must have length n-1 = {gaps.size}, got {g.size}")
    g2 = g * g
    if not g2.any():
        return 0.0
    lo, hi = 0.0, float(np.sum(g2 / gaps))
    gamma = 0.5 * (lo + hi)
    for _ in range(200):
        val, deriv = _secular(gamma, g2, gaps)
        if abs(val) <= tol * max(gamma, 1.0):
            return gamma
        if val > 0:
            hi = gamma
        else:
            lo = gamma
        step = gamma - val / deriv
        gamma = step if lo < step < hi else 0.5 * (lo + hi)
    val, _ = _secular(gamma, g2, gaps)
    if abs(val) <= tol * max(gamma, 1.0):
        return gamma
    raise NumericFailureError("secular root-finding did not converge", residual=abs(val))


def arrowhead_eigvec(spectrum: Spectrum, g: np.ndarray, gamma: float) -> SecularSolution:
    """Assemble the top eigenpair from the secular root.

    a = (1 + sum rho_j^2/g_j^2)^(-1/2), w_j = rho_j a / g_j; coordinates with
    g_j = 0 take the continuous limit rho_j = w_j = 0.
    """
    g = np.asarray(g, dtype=np.float64)
    gaps = spectrum.gaps()
    den = gaps + gamma
    rho = g * g / den
    live = g != 0.0
    ratio_sq = np.zeros_like(g)
    ratio_sq[live] = (rho[live] / g[live]) ** 2
    a = 1.0 / math.sqrt(1.0 + float(ratio_sq.sum()))
    w = np.zeros_like(g)
    w[live] = rho[live] * a / g[live]
    return SecularSolution(
        gamma=float(gamma),
        rho=rho,
        a=a,
        w=w,
        top_eigenvalue=float(spectrum.lambdas[0] + gamma),
    )


def lower_bound_check(
    sol: SecularSolution, spectrum: Spectrum, g: np.ndarray
) -> tuple[bool, float]:
    """Check |w_j| >= |g_j| / (4 (lambda1 - lambda_{j+1})) on every live coordinate.

    Returns (holds, min_slack) where slack_j = 4 |w_j| gap_j / |g_j| - 1;
    vacuously true (slack inf) when g = 0.
    """
    g = np.asarray(g, dtype=np.float64)
    gaps = spectrum.gaps()
    live = g != 0.0
    if not live.any():
        return True, math.inf
    slack = 4.0 * np.abs(sol.w[live]) * gaps[live] / np.abs(g[live]) - 1.0
    min_slack = float(slack.min())
    return bool(min_slack >= 0.0), min_slack
