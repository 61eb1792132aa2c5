"""Closed-form spectral-gap functionals, operator-norm estimators and the Weyl check.

The gap functional K_{n,p} drives everything: it decides whether the
fixed-point construction is expected to contract, it prices the sin-theta
bound, and its mu-variant prices the eigenvalue-domination check, which
verify_shifted_domination runs. That check takes its margin from
rs_solver.solve on the identity basis when the solve proves it, else from a
dense eigvalsh; this module sits above rs_solver, which imports nothing
from it. The operator-norm estimators certify contraction (upper bounds,
interpolated, proved at p = 2 by matcore.cholesky_below) and probe
mixed-norm scaling (lower bounds, multistart projected ascent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpectrumError, NumericFailureError, PerturbError
from .matcore import (
    Spectrum,
    _leading_tolerance,
    _rounding_pad,
    cholesky_below,
    dual_exponent,
    force_hermitian,
    is_hermitian,
    json_fields,
    lp_norm,
    operator_norm_exact,
)
# Bound by name, as the matcore names are: code that replaces rs_solver.solve (the
# campaign benchmark times upper_bound's solves so) does not see the Weyl check's.
from .rs_solver import solve

__all__ = [
    "AssumptionReport",
    "gap_vector",
    "conjugate_gap_norm",
    "k_np",
    "default_p_grid",
    "best_p",
    "davis_kahan_bound",
    "rs_sin_theta_bound",
    "mu_assumption",
    "ellipsoid_covering_bound",
    "opnorm_pp_upper",
    "opnorm_lower",
    "opnorm_dual_lower",
    "assumption_report",
    "verify_shifted_domination",
]

DEFAULT_C0 = 0.1
REFERENCE_NOISE_SCALE = 2.0  # times sqrt(n): typical spectral norm of unit-variance noise


def gap_vector(spectrum: Spectrum) -> np.ndarray:
    """Reciprocal gaps d_j = 1/(lambda1 - lambda_{j+1}), length n-1."""
    gaps = spectrum.gaps()
    if np.any(gaps <= 0):
        raise InvalidSpectrumError("gap vector needs lambda1 > lambda_j for every j > 1")
    return 1.0 / gaps


def conjugate_gap_norm(d: np.ndarray, p: float) -> float:
    """||d||_{p/(p-2)}, read as the inf-norm at p=2 and the 1-norm at p=inf."""
    if p == 2:
        return lp_norm(d, math.inf)
    if p == math.inf:
        return lp_norm(d, 1)
    return lp_norm(d, p / (p - 2.0))


def _gap_functional(d: np.ndarray, n: int, p: float) -> float:
    """The formula of k_np (d the reciprocal gaps) and mu_assumption (d = 1/mu)."""
    if p == math.inf:
        return math.log(n) * lp_norm(d, 1)
    return math.sqrt(p * math.log(n)) * n ** (1.0 / p) * conjugate_gap_norm(d, p)


def k_np(spectrum: Spectrum, p: float) -> float:
    """Gap functional: sqrt(p log n) n^(1/p) ||d||_{p/(p-2)}, or log n ||d||_1 at p=inf."""
    if p < 2:
        raise ValueError(f"k_np requires p >= 2, got {p}")
    return _gap_functional(gap_vector(spectrum), spectrum.n, p)


_P_GRID_POINTS = 32


def default_p_grid(n: int) -> list[float]:
    """Geometric grid of exponents in [2, max(2, log n)], plus infinity.

    Exponents above log n are redundant up to constants, so the grid stops
    there and lets the explicit infinity entry cover the large-p regime.
    """
    top = max(2.0, math.log(n))
    if top == 2.0:
        grid = [2.0]
    else:
        grid = list(np.geomspace(2.0, top, _P_GRID_POINTS))
    grid.append(math.inf)
    return grid


def best_p(spectrum: Spectrum, grid: list[float] | None = None) -> tuple[float, float]:
    """Argmin and min of k_np over the exponent grid."""
    if grid is None:
        grid = default_p_grid(spectrum.n)
    if not grid:
        raise ValueError("empty exponent grid")
    vals = [(k_np(spectrum, p), p) for p in grid]
    k_star, p_star = min(vals, key=lambda t: t[0])
    return p_star, k_star


def davis_kahan_bound(spectrum: Spectrum, e_norm: float) -> float:
    """Classical l2 comparator ||E||_2 / (lambda1 - lambda2)."""
    if e_norm < 0:
        raise ValueError("noise norm must be nonnegative")
    return e_norm / spectrum.delta


def rs_sin_theta_bound(spectrum: Spectrum, C: float) -> float:
    """sin-theta bound C sqrt(log n) ( sum_{j>=2} (lambda1-lambda_j)^-2 )^(1/2)."""
    if not C > 0:
        raise ValueError("constant must be positive")
    return C * math.sqrt(math.log(spectrum.n)) * lp_norm(gap_vector(spectrum), 2)


def mu_assumption(mu: np.ndarray, p: float) -> float:
    """Gap functional with reciprocal diagonal weights 1/mu in place of d."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.size == 0 or np.any(mu <= 0):
        raise ValueError("mu must be a nonempty positive vector")
    if p < 2:
        raise ValueError(f"mu_assumption requires p >= 2, got {p}")
    return _gap_functional(1.0 / mu, mu.size, p)


def ellipsoid_covering_bound(a: np.ndarray, theta: float) -> float:
    """Metric-entropy bound for covering an ellipsoid with unit balls.

    log N <= sum_{j in J} log a_j + |J_theta| log(e / theta) where
    J = {a_j > 1} and J_theta = {a_j^2 >= 1 - theta}. An empty J contributes 0.
    """
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0):
        raise ValueError("ellipsoid semi-axes must be positive")
    if not 0.0 < theta < 0.5:
        raise ValueError("theta must lie in (0, 1/2)")
    big = a[a > 1.0]
    wide = int(np.count_nonzero(a * a >= 1.0 - theta))
    first = float(np.log(big).sum()) if big.size else 0.0
    return first + wide * math.log(math.e / theta)


def opnorm_pp_upper(M: np.ndarray, p: float) -> float:
    """Certified upper bound on ||M||_{p,p} via Riesz-Thorin interpolation.

    ||M||_{p,p} <= ||M||_{1,1}^(1/p) ||M||_{inf,inf}^(1-1/p); exact at the
    endpoints. At p=2 it is tightened with a Cholesky-proved bound c on the
    spectral norm, ||M||_2 <= c <= ||M||_2 (1 + 5e-10) up to rounding (see
    _spectral_norm_upper), or with the exact norm when that proof is
    inconclusive.
    """
    if p < 1:
        raise ValueError(f"opnorm_pp_upper requires p >= 1, got {p}")
    M = np.atleast_2d(np.asarray(M))
    mags = np.abs(M)
    n1, ninf = float(mags.sum(axis=0).max()), float(mags.sum(axis=1).max())
    del mags  # freed before the p = 2 proof forms M* M
    if p == 1:
        return n1
    if p == math.inf:
        return ninf
    interp = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)
    if p == 2:
        return min(interp, _spectral_norm_upper(M))
    return interp


_LANCZOS_STEPS = 64
_LANCZOS_STALL = 1e-12
_LANCZOS_STREAM = 0x5EED  # start vector; a private generator leaves numpy's global RNG alone


def _lanczos_top(G: np.ndarray) -> float:
    """Lanczos estimate of the largest eigenvalue of the Hermitian matrix G.

    Matvecs with G from a fixed random start vector, each new vector
    reorthogonalized against all previous ones (Gram-Schmidt applied twice).
    Stops when the top Ritz value grows by at most _LANCZOS_STALL relative,
    when the Krylov space is invariant, or after _LANCZOS_STEPS steps. The
    estimate is a Ritz value, so it does not exceed lambda_max(G) beyond
    rounding; it proves nothing by itself.
    """
    n = G.shape[0]
    steps = min(n, _LANCZOS_STEPS)
    V = np.empty((steps, n), dtype=G.dtype)
    v = np.random.default_rng(_LANCZOS_STREAM).standard_normal(n)
    V[0] = v / np.linalg.norm(v)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    theta = -math.inf
    for k in range(steps):
        w = G @ V[k]
        basis = V[: k + 1]
        alpha[k] = float(np.vdot(V[k], w).real)
        for _ in range(2):
            w -= basis.T @ (basis.conj() @ w)
        T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        ritz = float(np.linalg.eigvalsh(T)[-1])
        stalled = ritz - theta <= _LANCZOS_STALL * abs(ritz)
        theta = ritz
        b = float(np.linalg.norm(w))
        if stalled or k + 1 == steps or not b > np.finfo(np.float64).eps * abs(ritz):
            break
        beta[k] = b
        V[k + 1] = w / b
    return theta


def _spectral_norm_upper(M: np.ndarray) -> float:
    """Upper bound c on ||M||_2, proved by one Cholesky factorization.

    With G the floating-point M* M (m x m), u = eps/2 and pad = 2 (m+2) u
    (matcore._rounding_pad):

    * c^2 = theta (1 + 1e-9), with theta the Lanczos estimate of
      lambda_max(G); c is sqrt(c^2) rounded up.
    * g = pad ||M||_F^2 bounds ||G - M* M||_2: each entry of the computed
      product errs by at most m u / (1 - m u) times the same entry of
      |M|* |M|, whose Frobenius norm is at most ||M||_F^2 (Higham, Accuracy
      and Stability of Numerical Algorithms, sec. 3.5), and the bound holds
      for either triangle of G. ||M||_F^2 is summed from one np.vecdot per
      row of M, which starts no BLAS threads (see matcore._frobenius); its
      rounding is a small fraction of pad's factor 2.
    * cholesky_below(G, t) with t = c^2 - g rounded down proves
      lambda_max(G) < t, so lambda_max(M* M) < c^2.

    pad is twice the first-order rounding bound, which absorbs the
    second-order terms. Assumes no underflow. The result therefore lies in
    [||M||_2, ||M||_2 (1 + 5e-10)] up to the Lanczos error, which only
    decides whether the proof succeeds. When it does not (theta too low, or
    non-finite entries), operator_norm_exact(M, 2) decides.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite is tested below
        g = _rounding_pad(M.shape[1]) * float(np.vecdot(M, M).real.sum())
    if not math.isfinite(g):  # G's entries are bounded by ||M||_F^2 when it is finite
        return operator_norm_exact(M, 2)
    G = M.conj().T @ M
    c2 = _lanczos_top(G) * (1.0 + 1e-9)
    if cholesky_below(G, float(np.nextafter(c2 - g, -math.inf))):
        return float(np.nextafter(math.sqrt(c2), math.inf))
    return operator_norm_exact(M, 2)


# ---------------------------------------------------------------------------
# Mixed-norm lower bounds by projected ascent
# ---------------------------------------------------------------------------

def _dual_vector(z: np.ndarray, a: float) -> np.ndarray:
    """Maximizer of Re<z, u> over the unit lp ball ||u||_a <= 1."""
    mags = np.abs(z)
    if mags.max() == 0.0:
        out = np.zeros_like(z)
        out[0] = 1.0
        return out
    phase = np.where(mags == 0, 1.0, z / np.where(mags == 0, 1.0, mags))
    if a == 1:
        out = np.zeros_like(z)
        k = int(mags.argmax())
        out[k] = phase[k]
        return out
    if a == math.inf:
        return phase.astype(z.dtype)
    u = phase * (mags / mags.max()) ** (1.0 / (a - 1.0))
    return u / lp_norm(u, a)


def _norm_subgradient(y: np.ndarray, b: float) -> np.ndarray:
    """Direction psi with ||y||_b = Re<psi, y> / ||psi||_{b'}; scale is irrelevant."""
    mags = np.abs(y)
    phase = np.where(mags == 0, 1.0, y / np.where(mags == 0, 1.0, mags))
    if b == math.inf:
        out = np.zeros_like(y)
        k = int(mags.argmax())
        out[k] = phase[k]
        return out
    if b == 1:
        return phase.astype(y.dtype)
    return phase * (mags / max(mags.max(), 1e-300)) ** (b - 1.0)


_ASCENT_STEPS = 500
_ASCENT_RTOL = 1e-12


def opnorm_lower(
    M: np.ndarray, p_dom: float, p_tgt: float, restarts: int = 8, seed: int = 0
) -> float:
    """Lower bound on ||M||_{p_dom, p_tgt} = sup{||Mu||_p_tgt : ||u||_p_dom <= 1}.

    Every value returned is ||M u||_p_tgt at an explicit u on the unit
    p_dom-sphere, so it is a true lower bound up to the rounding of one
    product. M must have finite entries (ValueError otherwise).

    At p_dom = p_tgt = 2 the supremum is ||M||_2, attained at the top right
    singular vector v: from eigh when M is exactly self-adjoint (the
    eigenvector of the largest |lambda|), from svd otherwise. The result is
    ||M v||_2 / ||v||_2 or the best column norm, whichever is larger; seed is
    not used.

    Other exponents use multistart conditional-gradient ascent: each step
    replaces u by the maximizer of the linearized objective over the unit
    ball, so the value is nondecreasing and every iterate certifies a valid
    lower bound. One start is the best coordinate vector, the rest are
    random. Each start stops when a step gains at most _ASCENT_RTOL relative,
    or after _ASCENT_STEPS steps.
    """
    M = np.atleast_2d(np.asarray(M))
    if restarts < 1:
        raise ValueError("restarts >= 1 required")
    if not np.isfinite(M).all():
        raise ValueError("opnorm_lower needs a matrix with finite entries")
    if not M.any():
        return 0.0
    n = M.shape[1]
    col_norms = [lp_norm(M[:, j], p_tgt) for j in range(n)]
    best_j = int(np.argmax(col_norms))
    if p_dom == p_tgt == 2:
        try:
            if is_hermitian(M):
                w, V = np.linalg.eigh(M)
                v = V[:, int(np.argmax(np.abs(w)))]
            else:
                v = np.linalg.svd(M, full_matrices=False)[2][0].conj()
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"singular vector solver failed: {exc}") from exc
        return max(col_norms[best_j], lp_norm(M @ v, 2) / lp_norm(v, 2))
    rng = np.random.default_rng(int(seed))
    complex_input = np.iscomplexobj(M)

    best_col = np.zeros(n, dtype=M.dtype)
    best_col[best_j] = 1.0
    starts = [best_col]
    for _ in range(restarts - 1):
        u = rng.standard_normal(n)
        if complex_input:
            u = u + 1j * rng.standard_normal(n)
        starts.append(u / lp_norm(u, p_dom))

    best = 0.0
    for u in starts:
        val = 0.0
        for _ in range(_ASCENT_STEPS):
            y = M @ u
            new_val = lp_norm(y, p_tgt)
            if new_val <= val * (1.0 + _ASCENT_RTOL):
                val = max(val, new_val)
                break
            val = new_val
            u = _dual_vector(M.conj().T @ _norm_subgradient(y, p_tgt), p_dom)
        best = max(best, val)
    return best


def opnorm_dual_lower(M: np.ndarray, p: float, restarts: int = 8, seed: int = 0) -> float:
    """Lower bound on the dual-paired norm sup{||Mu||_p : ||u||_{p'} <= 1}, p in [2, inf)."""
    if not 2.0 <= p < math.inf:
        raise ValueError(f"opnorm_dual_lower requires p in [2, inf), got {p}")
    return opnorm_lower(M, dual_exponent(p), p, restarts=restarts, seed=seed)


# ---------------------------------------------------------------------------
# Assumption report
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    """Per-exponent table of the gap functional plus the advisory verdict.

    dk_bound is the Davis-Kahan comparator at the reference noise norm
    2 sqrt(n); rs_l2_bound is the sin-theta bound at reference constant C=1.
    """

    n: int
    c0: float
    d: list[float]
    table: list[dict]
    best_p: float
    k_best: float
    satisfied: bool
    dk_bound: float
    rs_l2_bound: float

    def to_dict(self) -> dict:
        return json_fields(self)


def assumption_report(spectrum: Spectrum, c0: float = DEFAULT_C0) -> AssumptionReport:
    """Evaluate the gap functional over default_p_grid and issue the verdict."""
    n = spectrum.n
    grid = default_p_grid(n)
    d = gap_vector(spectrum)
    table = []
    for p in grid:
        np_norm = conjugate_gap_norm(d, p) * (1.0 if p == math.inf else n ** (1.0 / p))
        table.append({"p": p, "np_norm": np_norm, "k": k_np(spectrum, p)})
    p_star, k_star = best_p(spectrum, grid)
    return AssumptionReport(
        n=n,
        c0=c0,
        d=[float(x) for x in d],
        table=table,
        best_p=p_star,
        k_best=k_star,
        satisfied=bool(k_star <= c0),
        dk_bound=davis_kahan_bound(spectrum, REFERENCE_NOISE_SCALE * math.sqrt(n)),
        rs_l2_bound=rs_sin_theta_bound(spectrum, 1.0),
    )


# ---------------------------------------------------------------------------
# Randomized Weyl domination check
# ---------------------------------------------------------------------------

def _trs_sphere_min(B: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """Global minimum of z*Bz - Re(c*z) over the unit sphere.

    Eigendecompose B and solve the secular equation ||(B - sigma I)^{-1} c/2|| = 1
    for the multiplier sigma <= lambda_min(B) by bisection; the hard case
    (no root below lambda_min) pads with the bottom eigenvector.
    """
    w, V = np.linalg.eigh(B if is_hermitian(B) else force_hermitian(B))
    ct = V.conj().T @ np.asarray(c)
    d_min = float(w[0])
    cnorm = float(np.linalg.norm(ct))
    if cnorm == 0.0:
        return d_min, V[:, 0]

    def znorm_sq(sigma: float) -> float:
        return float(np.sum(np.abs(ct) ** 2 / (4.0 * (w - sigma) ** 2)))

    eps = 1e-13 * max(1.0, abs(d_min))
    hi = d_min - eps
    lo = d_min - 0.5 * cnorm - 1.0
    if znorm_sq(hi) >= 1.0:
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if znorm_sq(mid) >= 1.0:
                hi = mid
            else:
                lo = mid
        sigma = 0.5 * (lo + hi)
        z = V @ (ct / (2.0 * (w - sigma)))
        z = z / np.linalg.norm(z)
    else:
        # hard case: sigma = lambda_min, remaining mass on the bottom eigenvector
        zt = np.zeros_like(ct)
        interior = w - d_min > eps
        zt[interior] = ct[interior] / (2.0 * (w[interior] - d_min))
        t = math.sqrt(max(0.0, 1.0 - float(np.vdot(zt, zt).real)))
        zt[0] += t
        z = V @ zt
        z = z / np.linalg.norm(z)
    val = float((np.vdot(z, B @ z) - np.vdot(c, z)).real)
    return val, z


def _certified_margin(X: np.ndarray, mu: np.ndarray) -> float | None:
    """lambda_min(D_mu - X) from solve on the identity basis, or None when it is not proved.

    With P the stable ascending order of mu, lambda_min(D_mu - X) is
    -lambda_max(diag(-mu[P]) + X[P][:, P]), the top eigenvalue that solve
    computes with the 1-D A = -mu[P], nonincreasing, on the identity basis
    (no n x n array but the permuted X): one read of X, the fixed point in
    O(n^2) and, with verify, the O(n) interlacing certificate. The margin
    is -lambda~ when the report is leading_certified, so that
    |lambda_max - lambda~| <= tau with tau = 1e-9 (unit + |lambda~|) (an
    oracle-fallback's lambda~ is the oracle's own), and |lambda~| > tau, so
    that the margin's sign is the true one. None, for the caller's dense
    eigvalsh, when n < 2, when X is not exactly self-adjoint or of mu's
    order, when min(mu) is tied (A's top eigenvalue is then not simple),
    when solve raises a PerturbError, or when the report proves less.
    """
    n = mu.size
    if n < 2 or mu.shape != (n,) or X.shape != (n, n) or not np.can_cast(X.dtype, np.complex128):
        return None
    order = np.argsort(mu, kind="stable")
    lambdas = -mu[order]
    if not lambdas[0] > lambdas[1]:
        return None
    if np.array_equal(order, np.arange(n - 1, -1, -1)):  # mu descending: slices copy ~8x faster
        E = X[::-1, ::-1].copy()
    else:
        E = X[np.ix_(order, order)]
    spectrum = Spectrum(lambdas)
    try:
        report = solve(lambdas, E, verify=True)
    except (PerturbError, ValueError):  # ValueError: solve finds E not exactly self-adjoint
        return None
    lam = report.lambda_tilde
    if report.leading_certified and abs(lam) > _leading_tolerance(spectrum, lam):
        return -lam
    return None


def verify_shifted_domination(
    X: np.ndarray,
    mu: np.ndarray,
    tau: float = 0.0,
    g: np.ndarray | None = None,
) -> tuple[bool, float]:
    """Check z*Xz + tau ||z|| Re(g*z) <= z*D_mu z for all z; margin is the slack.

    tau = 0 reduces to the semidefinite test X <= D_mu with margin
    lambda_min(D_mu - X). It is taken from solve on the identity basis when
    that proves it to within a tolerance that cannot flip its sign
    (_certified_margin): X exactly self-adjoint, min(mu) unique, the report
    leading_certified and |margin| > 1e-9 (unit + |margin|). Otherwise, and
    for tau > 0 without a nonzero g, a dense eigvalsh of D_mu - X decides
    (of its Hermitian part when X is not exactly self-adjoint). tau > 0
    with a nonzero g minimizes the shifted form on the unit sphere via a
    trust-region-style secular solve. Raises ValueError unless X, mu and g
    are finite, mu is positive and tau lies in [0, 1].
    """
    X = np.atleast_2d(np.asarray(X))
    mu = np.asarray(mu, dtype=np.float64)
    for name, v in (("X", X), ("mu", mu), ("g", g)):
        if v is not None and not np.all(np.isfinite(v)):
            raise ValueError(f"{name} has non-finite entries")
    if np.any(mu <= 0):
        raise ValueError("mu must be positive")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if tau == 0.0:
        margin = _certified_margin(X, mu)
        if margin is not None:
            return bool(margin >= 0.0), margin
    B = np.diag(mu) - X
    if tau == 0.0 or g is None or not np.any(np.asarray(g)):
        margin = float(np.linalg.eigvalsh(B if is_hermitian(B) else force_hermitian(B))[0])
        return bool(margin >= 0.0), margin
    margin, _ = _trs_sphere_min(B, tau * np.asarray(g))
    return bool(margin >= 0.0), margin
