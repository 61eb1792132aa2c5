"""Leading eigenpair of A + E by the quadratic fixed-point construction.

In the eigenbasis of A the noise splits into blocks (E11, E12, E21, E22), and
the leading eigenvector of A + E is (u + U_perp q) / sqrt(1 + ||q||^2) where q
solves the quadratic system

    L q = E21 - q (E12 q),      L = (lambda1 + E11) I - (diag(lambda_2..n) + E22).

One loop solves it: with d_j = lambda1 - lambda_{j+1} + E11 the shifted gaps
and D = diag(d), q <- (E22 q + E21) / (d + Re(E12 q)) from q = 0, one E22
matvec per step. In y = D^{1/2} q the same loop reads

    y <- D (D + c)^{-1} (S y + D^{-1/2} E21),   S = D^{-1/2} E22 D^{-1/2},   c = Re(E12 q),

so its linear part contracts at ||S||_2, the spectral radius of E22 D^{-1}
(S is Hermitian and similar to it). The loop runs only when a proved upper
bound on ||S||_2 is at or below a cap. contraction_gate tries two rungs: the
weighted Frobenius norm ||S||_F, padded for rounding, in O(n^2); then ||S||_2
itself (a Lanczos estimate proved by one Cholesky factorization). The paper's
||E22 D^{-1}||_p is at least ||S||_2 for every p, so it is not on the solve
path; the experiments record it. The report carries the bound that gated the
loop and names its rung, along with the step count, the residuals and a
leading-eigenvalue certificate. That certificate is for the
exact A + E and needs no eigendecomposition of it: the residual bound puts
an eigenvalue near lambda~, and Cauchy interlacing (identity basis, O(n^2))
or one Cholesky factorization (bounds.cholesky_below) shows that none lies
above it. Only when these proofs are inconclusive does the dense
computation decide.

solve calls partition, contraction_gate, solve_q, assemble_eigvec and
verify_solution in turn, and EigDecomposition.is_identity decides once
whether the basis is the identity. On that basis, the paper's own setting, A
must be diag(eig.spectrum.lambdas), and solve reads each n x n operand as
few times as the proofs allow: A's off-diagonal entries once, to prove them
zero; E for finiteness, self-adjointness, the gate, one matvec per loop
step, and in verification E u~, the |E| row sums and the interlacing bound.
It forms no I* E I, no product with the identity, and no A + E unless the
Cholesky proof or the oracle is reached. The randomized Weyl domination
check is in bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import cholesky_below, opnorm_pp_upper
from .bounds import verify_shifted_domination  # noqa: F401  re-exported; its home is bounds
from .errors import (
    ContractionFailureError,
    GapCollapseError,
    InconsistentEigenvalueError,
    NonConvergenceError,
    PerturbError,
)
from .matcore import (
    EigDecomposition,
    Spectrum,
    force_hermitian,
    hermitian_eig,
    is_hermitian,
    json_fields,
    lp_norm,
    top_eigpair,
)

__all__ = [
    "PartitionedPerturbation",
    "SolverReport",
    "ContractionGate",
    "partition",
    "build_shifted_gaps",
    "contraction_gate",
    "solve_q",
    "assemble_eigvec",
    "eigenvalue_from_q",
    "coordinate_bounds",
    "verify_solution",
    "solve",
]

DEFAULT_TOL = 1e-12
# In y = D^{1/2} q solve_q's map reads y <- D (D + c)^{-1} (S y + D^{-1/2} E21)
# with S = D^{-1/2} E22 D^{-1/2} and c = Re(E12 q), zero at the start and
# nonnegative at the leading fixed point (lambda~ >= lambda1 + E11, the
# Rayleigh quotient of u1). So ||D (D + c)^{-1}||_2 <= 1, and the linear part
# contracts in the 2-norm of y at rate ||S||_2 = rho(E22 D^{-1}), which is at
# most the paper's ||E22 D^{-1}||_p for every p. Every rung of contraction_gate
# is a proved upper bound on ||S||_2. The rest of the Jacobian comes from c's
# dependence on q, is of order ||E21||_2 ||E12 D^{-1}||_2 / min(d), and so also
# needs E12 not too large against the gaps. 0.9 accepts the slow band and flags
# it in reports; inputs that still fail to converge fall back to the oracle.
CERTIFICATE_CAP = 0.9
# Entries per row band of the O(n^2) reductions (_weighted_frobenius_upper,
# _abs_row_sums): it bounds the band's temporary, which stays in cache.
_FROBENIUS_BAND = 1 << 16


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for the O(n^2) products of the rs path; a real one on the calling thread.

    A real product is np.vecdot(x, M): one dot product per row of M, never
    split across threads, so no step of the loop waits on a thread that
    another process holds. A complex product stays M @ x: on a 511 x 511
    complex M, np.vecdot(x.conj(), M) took 0.18 ms against 0.066 ms for
    M @ x (2-core VM, numpy 2.4.6).
    """
    if np.iscomplexobj(M) or np.iscomplexobj(x):
        return M @ x
    return np.vecdot(x, M)


@dataclass(frozen=True)
class PartitionedPerturbation:
    """Noise matrix expressed in the eigenbasis of A and split around u1.

    e21 is exactly conj(e12) and e22 is exactly Hermitian: the blocks of
    U* E U, symmetrized at most once. They may be views of the caller's E
    (see partition).
    """

    e11: float
    e12: np.ndarray
    e22: np.ndarray

    @property
    def e21(self) -> np.ndarray:
        return self.e12.conj()


@dataclass
class SolverReport:
    """Everything a solve produced, including its certificates.

    ``contraction_upper`` is the bound that gated the loop and
    ``contraction_rung`` the rung that proved it (see contraction_gate):
    the first at or under the cap, else the smallest computed. The rung is
    empty when the gate did not finish (collapsed shifted gaps, or a
    NumericFailureError from the spectral rung; the bound is then inf).
    """

    q: np.ndarray
    u_tilde: np.ndarray
    lambda_tilde: float
    iterations: int
    contraction_upper: float
    contraction_rung: str = ""
    residual2: float = math.nan
    orth_residual: float = math.nan
    coord_ratios: np.ndarray = field(default_factory=lambda: np.zeros(0))
    q_norm2: float = math.nan
    leading_certified: bool = False
    method: str = "rs"
    fallback_reason: str = ""

    def to_dict(self) -> dict:
        return json_fields(self)


def partition(eig: EigDecomposition, E: np.ndarray) -> PartitionedPerturbation:
    """Conjugate E into the eigenbasis of A and split blocks around u1.

    E must be exactly self-adjoint, else ValueError. On the identity basis
    (A diagonal) the two products are skipped, as I* E I equals E entry for
    entry in IEEE arithmetic, and the blocks are views of E (or of its
    complex copy for a complex basis). Otherwise they are views of the fresh
    U* E U, symmetrized only when rounding broke its self-adjointness (the
    sum in (M + M*)/2 can overflow).
    """
    E = np.asarray(E)
    if E.shape != (eig.n, eig.n):
        raise ValueError(f"noise shape {E.shape} does not match basis dimension {eig.n}")
    if not is_hermitian(E):
        raise ValueError("E is not exactly self-adjoint (M != M*)")
    basis = eig.basis
    if eig.is_identity:
        tilde = E.astype(np.result_type(E, basis), copy=False)
    else:
        tilde = basis.conj().T @ E @ basis
        if not is_hermitian(tilde):
            tilde = force_hermitian(tilde)
    return PartitionedPerturbation(float(tilde[0, 0].real), tilde[0, 1:], tilde[1:, 1:])


def build_shifted_gaps(spectrum: Spectrum, e11: float) -> np.ndarray:
    """Shifted gaps d_j = lambda1 - lambda_{j+1} + E11; raises if any entry closes."""
    d = spectrum.gaps() + e11
    if np.any(d <= 0):
        raise GapCollapseError(
            f"shifted gap collapsed: min(lambda1 - lambda_j + E11) = {d.min():.6g}"
        )
    return d


def _weighted_frobenius_upper(M: np.ndarray, d: np.ndarray, hollow: bool = False) -> float:
    """Upper bound on ||D^{-1/2} M D^{-1/2}||_F for D = diag(d) > 0, in O(m^2).

    With ``hollow`` the diagonal of M is left out. The square of the norm is
    sum_i v_i sum_j p_ij v_j with p_ij = |M_ij / sigma|^2 and v = sigma / d,
    where sigma is the power of two with sigma <= max(d) < 2 sigma. Dividing
    by sigma is exact, every v_j exceeds 1/2, and the value does not change
    when M and d are scaled by the same power of two. Per row band of at most
    _FROBENIUS_BAND entries, M / sigma is squared in place (a complex entry
    as its real and imaginary parts) and each row is dotted with v by
    np.vecdot, on the calling thread; a dot product with v sums the rows.

    Rounding, with u = eps/2 and N = m (real M) or 2 m (complex M) squares
    per row: d may carry one rounding, as fl(t - a) does, and fl(sigma / d_j)
    adds one, so each term p_ij v_i v_j carries five relative errors of at
    most u (the square and two per weight). The row dot products of N terms
    and the outer one of m terms add gamma_N and gamma_m in any order of
    summation, fused multiply-adds allowed (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 3.1), so the pad holds whatever order the
    BLAS dot sums in. All terms are nonnegative, so the sum errs by at most
    gamma_{N + m + 5} relative; the square root halves that and adds u.
    pad = (N + m + 7) u is twice the first-order bound, which absorbs the
    second-order terms, and the padded norm is rounded up.
    Assumes no underflow (max(d) normal); a sum that is not finite gives inf.
    """
    m = M.shape[0]
    top = float(d.max())
    if not np.finfo(np.float64).tiny <= top < math.inf:
        return math.inf
    exponent = math.frexp(top)[1] - 1
    scale = math.ldexp(1.0, -exponent)
    complex_case = np.iscomplexobj(M)
    rows = max(1, _FROBENIUS_BAND // max(m, 1))
    band = np.empty((min(rows, m), m), dtype=np.result_type(M, np.float64))
    y = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite gives inf
        v = math.ldexp(1.0, exponent) / d
        vv = np.repeat(v, 2) if complex_case else v  # weights of the (real, imaginary) pairs
        for i in range(0, m, rows):
            W = band[: min(rows, m - i)]
            np.multiply(M[i:i + rows], scale, out=W)
            if hollow:
                W.flat[i :: m + 1] = 0.0  # entries (r, i + r), the diagonal of M
            R = W.view(np.float64)
            R *= R
            np.vecdot(R, vv, out=y[i:i + rows])
        s = float(y @ v)
    if not math.isfinite(s):
        return math.inf
    pad = ((3 if complex_case else 2) * m + 7) * (np.finfo(np.float64).eps / 2.0)
    return float(np.nextafter(math.sqrt(s) * (1.0 + pad), math.inf))


class ContractionGate(NamedTuple):
    """A proved upper bound on the loop's contraction rate ||S||_2 and the rung that proved it."""

    bound: float
    rung: str


def _spectral_upper(e22: np.ndarray, d: np.ndarray) -> float:
    """Upper bound on ||S||_2, S = D^{-1/2} E22 D^{-1/2}, from bounds.opnorm_pp_upper at p = 2.

    S is formed as E22 * (w w^T) with w = 1 / sqrt(d). The product w_i w_j
    equals w_j w_i bit for bit, so for an exactly Hermitian E22 the computed
    S is exactly Hermitian too. The proof (bounds._spectral_norm_upper)
    forms the Gram matrix S* S, an n^3 product, for its Lanczos estimate and
    Cholesky factorization; only when that proof is inconclusive does the
    exact-norm fallback read eigvalsh(S), with no Gram matrix.

    Rounding, with u = eps/2 and m the order of S: d may carry one rounding,
    as fl(t - a) does, and fl(sqrt(d_j)) and the reciprocal add one each, so
    w_j errs by at most 2.5 u relative; the weight product and the product
    with e_ij add one each. So fl(S) = S + S o Delta entrywise with
    |Delta_ij| <= 7 u to first order, and
    ||fl(S) - S||_2 <= ||S o Delta||_F <= 7 u ||S||_F <= 7 u sqrt(m) ||S||_2,
    which gives ||S||_2 <= ||fl(S)||_2 / (1 - 7 sqrt(m) u). opnorm_pp_upper
    bounds ||fl(S)||_2 for the matrix as computed, and the pad
    14 sqrt(m) u is twice the first-order term, which absorbs the
    second-order terms and the rounding of 1 + pad; the padded bound is
    rounded up. The pad rests on ||S||_F <= sqrt(m) ||S||_2 alone, not on a
    computed ||S||_F, which can overflow where ||S||_2 does not. Assumes no
    underflow; an S or a norm that is not finite gives inf.
    """
    pad = 14.0 * math.sqrt(e22.shape[0]) * (np.finfo(np.float64).eps / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a norm that is not finite gives inf
        w = 1.0 / np.sqrt(d)
        S = e22 * (w[:, np.newaxis] * w[np.newaxis, :])
        if not np.all(np.isfinite(S)):
            return math.inf
        return float(np.nextafter(opnorm_pp_upper(S, 2) * (1.0 + pad), math.inf))


def contraction_gate(d: np.ndarray, e22: np.ndarray, cap: float) -> ContractionGate:
    """The first proved upper bound on ||S||_2, S = D^{-1/2} E22 D^{-1/2}, that is at most ``cap``.

    Rungs, cheapest first: "weighted-frobenius", the padded ||S||_F, in
    O(n^2) (||S||_2 <= ||S||_F); then "spectral", ||S||_2 itself, padded
    (_spectral_upper: a Lanczos estimate proved by one Cholesky
    factorization of the Gram matrix S* S, an n^3 product formed in
    bounds._spectral_norm_upper, within a relative 1e-9 of the exact norm).
    When neither is at most ``cap``, returns the smaller.
    """
    frobenius = ContractionGate(_weighted_frobenius_upper(e22, d), "weighted-frobenius")
    if frobenius.bound <= cap:
        return frobenius
    spectral = ContractionGate(_spectral_upper(e22, d), "spectral")
    return spectral if spectral.bound <= frobenius.bound else frobenius


def _unit(spectrum: Spectrum) -> float:
    """min(1, max(|lambda_1|, |lambda_n|)): the absolute unit of the tolerances.

    At or above unit scale it is 1; below it the stop test, the residual
    target and tau scale with A, so a scaled-down input is solved as its
    unit-scale copy is.
    """
    return min(1.0, max(abs(float(spectrum.lambdas[0])), abs(float(spectrum.lambdas[-1]))))


def _check_tol(tol: float) -> None:
    """ValueError unless tol is finite and positive."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def solve_q(
    part: PartitionedPerturbation, spectrum: Spectrum, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, int]:
    """Solve L q = E21 - q (E12 q) by the shifted map q <- (E22 q + E21) / (d + Re(E12 q)).

    The quadratic term moves into the denominator: the map's fixed points
    solve (D + Re(E12 q)) q = E22 q + E21, where E12 q is real (it equals
    -E21* (Lambda_2 + E22 - lambda~)^{-1} E21 with lambda~ real), so they are
    exactly the solutions of L q = E21 - q (E12 q). At the fixed point the
    shift Re(E12 q) is lambda~ - lambda1 - E11; carried in the denominator it
    keeps the step stable under strong E12 coupling, where
    q <- D^{-1}(E22 q + E21 - (E12 q) q) can diverge.

    Runs the loop alone: the caller admits it (solve does so through
    contraction_gate). Returns q and the number of steps. Stops when
    ||D (q_next - q)||_2 <= tol * unit and the quadratic residual is below
    tol * (||E21||_2 + unit), unit = min(1, max(|lambda_1|, |lambda_n|)).
    Raises GapCollapseError when a shifted gap d_j is not positive;
    NonConvergenceError when some d_j + Re(E12 q) is not positive, when the
    shift or the step ||D dq||_2 is not finite, after three consecutive
    non-contracting steps, or at the step cap; ValueError unless tol is
    finite and positive.
    """
    _check_tol(tol)
    d = build_shifted_gaps(spectrum, part.e11)
    cap = max(200, int(math.ceil(-10.0 * math.log2(tol))))
    e21, e12, e22 = part.e21, part.e12, part.e22
    unit = _unit(spectrum)
    step_tol = tol * unit
    target = tol * (lp_norm(e21, 2) + unit)
    d_min = float(d.min())

    q = np.zeros_like(e21)
    e22q = np.zeros_like(e21)  # E22 q, carried so each step costs one matvec
    prev_change = math.inf
    bad_steps = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below stops the loop
        for step in range(1, cap + 1):
            shift = float((e12 @ q).real)
            if not d_min + shift > 0:
                raise NonConvergenceError(
                    f"shifted gap d_j + Re(E12 q) = {d_min + shift:.4g} is not positive"
                )
            q_next = (e22q + e21) / (d + shift)
            change = lp_norm(d * (q_next - q), 2)
            if not (math.isfinite(shift) and math.isfinite(change)):
                raise NonConvergenceError(
                    f"fixed-point iteration overflowed: Re(E12 q) = {shift:.4g}, "
                    f"||D dq||_2 = {change:.4g}"
                )
            if change >= prev_change and change > step_tol:
                bad_steps += 1
                if bad_steps >= 3:
                    raise NonConvergenceError(
                        f"fixed-point iteration diverging: ||D dq||_2 = {change:.4g}"
                    )
            else:
                bad_steps = 0
            prev_change = change
            q = q_next
            e22q = _matvec(e22, q)
            if change <= step_tol:
                resid = lp_norm(d * q - e22q - (e21 - (e12 @ q) * q), 2)
                if resid <= target:
                    return q, step
    raise NonConvergenceError(f"fixed-point iteration exceeded cap {cap}")


def assemble_eigvec(eig: EigDecomposition, q: np.ndarray) -> np.ndarray:
    """Unit vector (u + U_perp q) (1 + ||q||^2)^(-1/2); overlap with u1 is positive.

    On the identity basis u + U_perp q is (1, q) with no product: for finite
    q its entries are those of e1 + I[:, 1:] q, bit for bit (a -0.0 in q
    reads +0.0 there too).
    """
    q = np.asarray(q)
    if q.size != eig.n - 1:
        raise ValueError(f"q must have length n-1 = {eig.n - 1}")
    if eig.is_identity:
        u = np.zeros(eig.n, dtype=np.result_type(eig.basis, q))
        u[0] = 1.0
        u[1:] += q
    else:
        u = eig.leading_vector() + _matvec(eig.tail_basis(), q)
    return u / math.sqrt(1.0 + float(np.vdot(q, q).real))


def eigenvalue_from_q(spectrum: Spectrum, e11: float, e12: np.ndarray, q: np.ndarray) -> float:
    """Eigenvalue identity lambda1 + E11 + E12 q; the product must be real.

    Its imaginary part may not exceed 1e-10 max(unit, sum_j |E12_j| |q_j|),
    unit = min(1, max(|lambda_1|, |lambda_n|)) from ``spectrum``: a bound
    that scales with the terms of the dot product and, below unit scale,
    with A, so a scaled A + E is judged as its unit-scale copy is.
    """
    e12, q = np.asarray(e12), np.asarray(q)
    cross = complex(e12 @ q)
    if abs(cross.imag) > 1e-10 * max(_unit(spectrum), float(np.abs(e12) @ np.abs(q))):
        raise InconsistentEigenvalueError(
            f"E12 q has imaginary part {cross.imag:.3g}; not an eigenpair"
        )
    return float(spectrum.lambdas[0] + e11 + cross.real)


def coordinate_bounds(q: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Per-coordinate statistic (lambda1 - lambda_{j+1}) |<u~, u_{j+1}>| / sqrt(log n).

    Uses the unshifted gaps and the exact overlap |q_j| (1 + ||q||^2)^(-1/2).
    """
    q = np.asarray(q)
    scale = 1.0 / math.sqrt(1.0 + float(np.vdot(q, q).real))
    return spectrum.gaps() * np.abs(q) * scale / math.sqrt(math.log(spectrum.n))


def _is_diagonal(M: np.ndarray) -> bool:
    """True when every off-diagonal entry of the square M is zero; NaN counts as nonzero.

    One read of the off-diagonal entries: after M's first entry, its n^2 - 1
    remaining entries in row-major order form n - 1 rows of n + 1, each
    ending on the diagonal.
    """
    n = M.shape[0]
    return n < 2 or not np.any(M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n])


def _abs_row_sums(M: np.ndarray) -> np.ndarray:
    """sum_j |M_ij| for every row i, in row bands of at most _FROBENIUS_BAND entries."""
    m = M.shape[1]
    rows = max(1, _FROBENIUS_BAND // max(m, 1))
    band = np.empty((min(rows, M.shape[0]), m))
    out = np.empty(M.shape[0])
    for i in range(0, M.shape[0], rows):
        W = band[: min(rows, M.shape[0] - i)]
        np.abs(M[i:i + rows], out=W)
        W.sum(axis=1, out=out[i:i + rows])
    return out


def _interlacing_bound(E: np.ndarray, a: np.ndarray, t: float) -> float:
    """Upper bound on ||G^{-1/2} F G^{-1/2}||_F for the trailing block of A~ = diag(a) + E.

    A~[1:, 1:] = diag(c) + F with c = a[1:] + Re diag(E)[1:] and F the
    hollow E[1:, 1:], and g = t - c, all in exact arithmetic. inf unless
    every g_j is positive. A value below 1 proves lambda_max(A~[1:, 1:]) < t;
    see _top_eigenvalue_within. The computed fl(c_j) is within
    u |fl(c_j)| / (1 - u) of c_j, u = eps/2, so g is taken at
    t' = t - eps max_j |fl(c_j)|, rounded down: each t' - fl(c_j) is then at
    most the exact g_j, and its one rounding is _weighted_frobenius_upper's.
    """
    c = a[1:] + E.diagonal()[1:].real
    t = float(np.nextafter(t - np.finfo(np.float64).eps * float(np.abs(c).max()), -math.inf))
    g = t - c
    if not np.all(g > 0):
        return math.inf
    return _weighted_frobenius_upper(E[1:, 1:], g, hollow=True)


def _top_eigenvalue_within(
    M: np.ndarray, a: np.ndarray | None, lam: float, residual2: float, tau: float
) -> bool:
    """True when |lambda_max(A~) - lam| <= tau is proved; False when the proof is inconclusive.

    On the identity basis A~ = diag(a) + M is the exact A + E, with a the
    diagonal of A and M = E. On other bases a is None and M is the
    floating-point sum fl(A + E). u~ is the report's vector. With u = eps/2
    the unit roundoff, pad = 2 (n+2) u and ||A~||_inf taken as
    max_i (sum_j |M_ij| + |a_i|), the proof needs no eigendecomposition:

    * lower side: the computed residual2 errs from the exact
      ||A~ u~ - lam u~||_2 / ||u~||_2 by at most (n + 3) u ||A~||_inf to first
      order (the products, the sum with a u~ or the rounding of fl(A + E),
      lam u~ and the difference), so r = residual2 + pad ||A~||_inf bounds it
      and some eigenvalue of A~ lies within r of lam (the residual bound;
      Parlett, The Symmetric Eigenvalue Problem). r <= tau gives
      lambda_max >= lam - tau.
    * upper side, on the identity basis: let t = lam - r, rounded down.
      Cauchy interlacing gives lambda_2(A~) <= lambda_max(A~[1:, 1:])
      (Horn and Johnson, Matrix Analysis, sec. 4.3). Write
      A~[1:, 1:] = diag(c) + F with F zero on the diagonal and G = diag(g),
      g = t - c > 0. Then t I - A~[1:, 1:] = G^{1/2} (I - K) G^{1/2} with
      K = G^{-1/2} F G^{-1/2}, positive definite when ||K||_F < 1
      (_interlacing_bound, padded for rounding, including that of c). So
      lambda_2 < lam - r, and the eigenvalue within r of lam is lambda_max.
      O(n^2), and conclusive when u~ is close to e1, as on the identity basis.
    * upper side otherwise: cholesky_below on H = fl(A + E), formed here on
      the identity basis, proves lambda_max(H) < t with t = lam + tau, rounded
      down, less rho = eps ||A~||_inf, rounded down. H differs from A + E by
      at most u |A + E| entrywise (on the diagonal only, on the identity
      basis), so by at most rho in the 2-norm, and Weyl's inequality gives
      lambda_max(A + E) < t + rho <= lam + tau. Its diagonal shift s must stay
      under tau (max_shift): a larger s puts t - s at or below lam, where the
      factorization is expected to fail, so it is not tried.

    pad is twice the first-order bound of the lower side, which absorbs the
    second-order terms and ||u~||_2 - 1. Assumes no underflow. r > tau or an
    inconclusive upper side leaves the question to the caller.
    """
    n = M.shape[0]
    unit_roundoff = np.finfo(np.float64).eps / 2.0
    sums = _abs_row_sums(M)
    if a is not None:
        sums += np.abs(a)
    norm = float(sums.max())
    r = residual2 + 2.0 * (n + 2) * unit_roundoff * norm
    if not r <= tau:
        return False
    if a is not None and _interlacing_bound(M, a, float(np.nextafter(lam - r, -math.inf))) < 1.0:
        return True
    if a is None:
        H = M.copy()
    else:
        H = M.astype(np.result_type(M, a))
        H[np.diag_indices(n)] += a
    t = float(np.nextafter(lam + tau, -math.inf))
    t = float(np.nextafter(t - np.finfo(np.float64).eps * norm, -math.inf))
    return cholesky_below(H, t, max_shift=tau)


def verify_solution(
    A: np.ndarray,
    E: np.ndarray,
    report: SolverReport,
    spectrum: Spectrum,
    eig: EigDecomposition | None = None,
    lambda_max: float | None = None,
) -> SolverReport:
    """Fill residuals and the leading-eigenpair certificate on a report.

    Certification needs both lambda~ > (lambda1 + lambda2)/2 and
    |lambda_max(A + E) - lambda~| <= tau with tau = 1e-9 (unit + |lambda~|),
    unit = min(1, max(|lambda_1|, |lambda_n|)) from ``spectrum``. Without
    ``lambda_max`` the second condition is proved for the exact A + E by the
    residual bound (lower side) and, for the upper side, Cauchy interlacing
    when ``eig`` has the identity basis, else one Cholesky factorization; see
    _top_eigenvalue_within. When that proof is inconclusive, lambda_max is
    read from the dense oracle, top_eigpair(A + E); a ``lambda_max`` passed
    in (the oracle's top eigenvalue, already computed) is used as it is.
    Neither is tried when the first condition fails. Failures are recorded,
    never raised, except that the oracle raises InvalidSpectrumError when the
    top eigenvalue of A + E is not simple.

    On the identity basis A must be diagonal (else ValueError), and A + E is
    never formed unless the Cholesky proof or the oracle is reached: A~ u~ is
    E u~ + a u~ with a the diagonal of A. Elsewhere A + E is formed once.

    orth_residual is ||U~_perp* A~ u~||_2 for any orthonormal basis U~_perp
    of u~'s complement, that is ||A~ u~ - u~ (u~* A~ u~)||_2 for unit u~.
    Both residuals take the max-rescaled lp_norm, so entries near 1e300 do
    not overflow the sum of squares.
    """
    A, E = np.asarray(A), np.asarray(E)
    u, lam = report.u_tilde, report.lambda_tilde
    if eig is not None and eig.is_identity:
        if not _is_diagonal(A):
            raise ValueError("eig has the identity basis but A is not diagonal")
        M, a = E, A.diagonal()
        w = _matvec(E, u) + a * u
    else:
        M, a = A + E, None
        w = _matvec(M, u)
    report.residual2 = lp_norm(w - lam * u, 2)
    report.orth_residual = lp_norm(w - u * np.vdot(u, w), 2)
    half = (spectrum.lambdas[0] + spectrum.lambdas[1]) / 2.0
    tau = 1e-9 * (_unit(spectrum) + abs(lam))
    if not lam > half:
        report.leading_certified = False
    elif lambda_max is None and _top_eigenvalue_within(M, a, lam, report.residual2, tau):
        report.leading_certified = True
    else:
        if lambda_max is None:
            lambda_max = top_eigpair(M if a is None else A + E)[0]
        report.leading_certified = bool(abs(lam - lambda_max) <= tau)
    return report


def _check_operands(A: np.ndarray, E: np.ndarray, eig: EigDecomposition | None) -> None:
    """Raise ValueError unless A and E are valid operands and an identity-basis ``eig`` describes A.

    A and E must be nonempty, square and alike in shape, of a dtype that
    casts safely to complex128 (the dtypes numpy.linalg takes) and finite,
    and A exactly self-adjoint. On the identity basis A must be
    diag(eig.spectrum.lambdas) exactly. One read of A's off-diagonal entries
    proves it diagonal (_is_diagonal), after which its finiteness and
    self-adjointness are O(n) checks on its diagonal. A non-identity ``eig``
    is trusted, not checked.
    """
    for name, M in (("A", A), ("E", E)):
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
            raise ValueError(f"{name} must be a square matrix of order >= 1, got shape {M.shape}")
        if not np.can_cast(M.dtype, np.complex128):
            raise ValueError(f"{name} has dtype {M.dtype}, not safely castable to complex128")
    identity = eig is not None and eig.is_identity and A.shape == (eig.n, eig.n)
    diagonal = identity and _is_diagonal(A)
    for name, M in (("A", A.diagonal() if diagonal else A), ("E", E)):
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} has non-finite entries")
    if not (np.all(A.diagonal().imag == 0) if diagonal else is_hermitian(A)):
        raise ValueError("A is not exactly self-adjoint (M != M*)")
    if A.shape != E.shape:
        raise ValueError(f"A has shape {A.shape} but E has shape {E.shape}")
    if identity and not (diagonal and np.array_equal(A.diagonal(), eig.spectrum.lambdas)):
        raise ValueError("eig has the identity basis, but A is not diag(eig.spectrum.lambdas)")


def solve(
    A: np.ndarray,
    E: np.ndarray,
    tol: float = DEFAULT_TOL,
    certificate_cap: float = CERTIFICATE_CAP,
    eig: EigDecomposition | None = None,
    verify: bool = True,
) -> SolverReport:
    """End-to-end solve with oracle fallback.

    A and E must be numeric, finite, square, nonempty, of one shape and
    exactly self-adjoint; anything else raises ValueError. An ``eig`` with
    the identity basis must describe A, which must then be exactly
    diag(eig.spectrum.lambdas), else ValueError; any other ``eig`` is
    trusted. Runs partition, the contraction gate, the loop (solve_q) and
    assembly in turn. The gate is contraction_gate on the shifted gaps; when
    its bound exceeds ``certificate_cap`` it raises ContractionFailureError
    and the loop does not run. On any PerturbError in that chain (gap
    collapse, contraction failure, divergence, a complex eigenvalue) solve
    falls back to the dense oracle's leading eigenpair, top_eigpair(A + E),
    tags the report method "oracle-fallback" and records the caught error as
    "<ErrorType>: <message>" in ``fallback_reason`` (empty on "rs"), so
    pipelines never silently lose a trial. Either way the report carries the
    gate's bound and rung; the bound is inf and the rung empty when the
    shifted gaps collapse or the spectral rung's eigensolver fails (a
    NumericFailureError, which falls back like the others). ``tol`` must be
    finite and positive and ``certificate_cap`` positive (inf allowed), else
    ValueError before any work on A or E. A top eigenvalue that is not
    simple, of A or of A + E where the oracle decides, raises
    InvalidSpectrumError.
    """
    _check_tol(tol)
    if not certificate_cap > 0.0:
        raise ValueError(f"certificate_cap must be positive, got {certificate_cap}")
    A, E = np.asarray(A), np.asarray(E)
    _check_operands(A, E, eig)
    if eig is None:
        eig = hermitian_eig(A)
    part = partition(eig, E)
    spectrum = eig.spectrum
    gate = ContractionGate(math.inf, "")
    lambda_max = None
    try:
        gate = contraction_gate(build_shifted_gaps(spectrum, part.e11), part.e22, certificate_cap)
        if not gate.bound <= certificate_cap:
            raise ContractionFailureError(
                f"iteration operator norm bound {gate.bound:.4g} ({gate.rung}) "
                f"exceeds cap {certificate_cap}"
            )
        q, iterations = solve_q(part, spectrum, tol=tol)
        u = assemble_eigvec(eig, q)
        lam = eigenvalue_from_q(spectrum, part.e11, part.e12, q)
        method, reason = "rs", ""
    except PerturbError as err:
        lambda_max, u = top_eigpair(A + E)
        head = complex(np.vdot(eig.leading_vector(), u))
        if abs(head) > 0:
            u = u * (abs(head) / head)  # overlap with u1 real nonnegative
            head = abs(head)
        q = (eig.tail_basis().conj().T @ u) / max(float(abs(head)), np.finfo(np.float64).eps)
        lam, iterations = lambda_max, 0
        method, reason = "oracle-fallback", f"{type(err).__name__}: {err}"
    report = SolverReport(
        q=q,
        u_tilde=u,
        lambda_tilde=lam,
        iterations=iterations,
        contraction_upper=gate.bound,
        contraction_rung=gate.rung,
        coord_ratios=coordinate_bounds(q, spectrum),
        q_norm2=float(np.linalg.norm(q)),
        method=method,
        fallback_reason=reason,
    )
    if verify:
        verify_solution(A, E, report, spectrum, eig=eig, lambda_max=lambda_max)
    return report
