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
weighted Frobenius norm ||S||_F, padded for rounding, in O(n^2); then the
paper's ||E22 D^{-1}||_p from contraction_certificate (at p = 2 a Lanczos
estimate proved by one Cholesky factorization). The report carries the bound
that gated the loop and names its rung, along with the step count, the
residuals and a leading-eigenvalue certificate. That certificate needs no
eigendecomposition of A + E: the residual bound puts an eigenvalue near
lambda~, and Cauchy interlacing (identity basis, O(n^2)) or one Cholesky
factorization (bounds.cholesky_below) shows that none lies above it. Only
when these proofs are inconclusive does the dense computation decide.

solve calls partition, solve_q, assemble_eigvec and verify_solution in turn,
and EigDecomposition.is_identity decides once whether the basis is the
identity. The randomized Weyl domination check is in bounds.
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
    lp_norm,
)

__all__ = [
    "PartitionedPerturbation",
    "SolverReport",
    "ContractionGate",
    "partition",
    "build_shifted_gaps",
    "contraction_certificate",
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
# Largest real matrix-vector product _matvec hands to BLAS in one call.
# OpenBLAS 0.3.31 keeps a real gemv of up to 4.1e5 entries on one thread and
# splits one of 5.2e5 over its threads.
_MATVEC_BAND = 1 << 18
# Entries per row band of _weighted_frobenius_upper's scaled copy of M.
_FROBENIUS_BAND = 1 << 16


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x on the calling thread, for the O(n^2) products of the rs path.

    A BLAS gemv split over threads waits for every thread at its end. When
    another process holds a core that wait takes a scheduler time slice,
    several times the product itself, and the loop makes one product per
    step. So a real M of more than _MATVEC_BAND entries goes to BLAS in row
    bands of at most that size (the last may take one row more), each run
    on the calling thread. Every band but the last is a multiple of four
    rows, the column group of OpenBLAS's gemv kernel, and the last is never
    a single row, so each entry comes out as in one single-threaded call.
    Complex products are left whole: OpenBLAS threads them from a few
    thousand entries, too few rows for a band to pay.
    """
    rows, cols = M.shape
    if M.size <= _MATVEC_BAND or np.iscomplexobj(M) or np.iscomplexobj(x):
        return M @ x
    step = max(4, _MATVEC_BAND // cols // 4 * 4)
    out = np.empty(rows, dtype=np.result_type(M, x))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()  # the last band takes the single row left over
    for start, stop in zip(starts, starts[1:] + [rows]):
        np.matmul(M[start:stop], x, out=out[start:stop])
    return out


@dataclass(frozen=True)
class PartitionedPerturbation:
    """Noise matrix expressed in the eigenbasis of A and split around u1.

    e21 is exactly conj(e12) and e22 is exactly Hermitian, so block
    reassembly reproduces U* E U up to one symmetrization. The blocks may be
    views of the caller's E (see partition).
    """

    e11: float
    e12: np.ndarray
    e22: np.ndarray

    @property
    def e21(self) -> np.ndarray:
        return self.e12.conj()

    @property
    def n(self) -> int:
        return int(self.e12.size + 1)

    def reassemble(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.e22.dtype)
        out[0, 0] = self.e11
        out[0, 1:] = self.e12
        out[1:, 0] = self.e21
        out[1:, 1:] = self.e22
        return out


@dataclass
class SolverReport:
    """Everything a solve produced, including its certificates.

    ``contraction_upper`` is the bound that gated the loop and
    ``contraction_rung`` the rung that proved it (see contraction_gate):
    the first at or under the cap, else the smallest computed. The rung is
    empty when the gate did not finish (collapsed shifted gaps, or a
    NumericFailureError from the paper's norm; the bound is then inf).
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
        def seq(v):
            if np.iscomplexobj(v):
                return [[float(z.real), float(z.imag)] for z in np.asarray(v)]
            return [float(x) for x in np.asarray(v)]

        return {
            "q": seq(self.q),
            "u_tilde": seq(self.u_tilde),
            "lambda_tilde": self.lambda_tilde,
            "iterations": self.iterations,
            "contraction_upper": self.contraction_upper,
            "contraction_rung": self.contraction_rung,
            "residual2": self.residual2,
            "orth_residual": self.orth_residual,
            "coord_ratios": seq(self.coord_ratios),
            "q_norm2": self.q_norm2,
            "leading_certified": self.leading_certified,
            "method": self.method,
            "fallback_reason": self.fallback_reason,
        }


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


def contraction_certificate(d: np.ndarray, e22: np.ndarray, p: float) -> float:
    """Certified upper bound on the paper's ||E22 D^{-1}||_{p,p}, from bounds.opnorm_pp_upper.

    Exact at p in {1, inf}. At p = 2 it is proved by one Cholesky
    factorization and lies within a relative 5e-10 above the exact norm (the
    exact norm itself when the proof is inconclusive); other p interpolate.
    """
    return opnorm_pp_upper(e22 / d[np.newaxis, :], p)


def _weighted_frobenius_upper(M: np.ndarray, d: np.ndarray, hollow: bool = False) -> float:
    """Upper bound on ||D^{-1/2} M D^{-1/2}||_F for D = diag(d) > 0, in O(m^2).

    With ``hollow`` the diagonal of M is left out. d may carry one rounding
    (relative error u = eps/2), as fl(t - a) does. The sum of squares runs
    over the N real numbers that make up the scaled entries (N = m^2 for
    real M, 2 m^2 for complex M). To first order the computed norm errs by
    at most (N/2 + 9) u relative: 2.5 u in each weight fl(1/fl(sqrt(d_j))),
    2 u for the two products that scale an entry, gamma_{N + 2} for the
    squares and their sum in any order (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1), halved by the square root, and u for
    the root. pad is twice that, which absorbs the second-order terms, and
    the padded norm is rounded up. Assumes no underflow; a non-finite sum of
    squares gives inf. M is scaled and summed in row bands of at most
    _FROBENIUS_BAND entries, which stay in cache, and the sum is numpy's, on
    the calling thread, not a BLAS dot product (see _matvec).
    """
    m = M.shape[0]
    w = 1.0 / np.sqrt(d)
    rows = max(1, _FROBENIUS_BAND // max(m, 1))
    band = np.empty((min(rows, m), m), dtype=np.result_type(M, w))
    s = 0.0
    for i in range(0, m, rows):
        W = band[: min(rows, m - i)]
        np.multiply(M[i:i + rows], w, out=W)
        W *= w[i:i + rows, np.newaxis]
        if hollow:
            W.flat[i :: m + 1] = 0.0  # entries (r, i + r), the diagonal of M
        R = W.view(W.real.dtype)  # complex entries as (real, imaginary) pairs
        s += float(np.einsum("ij,ij->", R, R))
    if not math.isfinite(s):
        return math.inf
    pad = ((2 if np.iscomplexobj(band) else 1) * m * m + 18) * (np.finfo(np.float64).eps / 2.0)
    return float(np.nextafter(math.sqrt(s) * (1.0 + pad), math.inf))


class ContractionGate(NamedTuple):
    """A proved upper bound on the loop's contraction rate ||S||_2 and the rung that proved it."""

    bound: float
    rung: str


def contraction_gate(d: np.ndarray, e22: np.ndarray, p: float, cap: float) -> ContractionGate:
    """The first proved upper bound on ||S||_2, S = D^{-1/2} E22 D^{-1/2}, that is at most ``cap``.

    Rungs, cheapest first: "weighted-frobenius", the padded ||S||_F, in
    O(n^2) (||S||_2 <= ||S||_F); then "paper-norm", the paper's
    ||E22 D^{-1}||_p from contraction_certificate (||S||_2 is the spectral
    radius of E22 D^{-1}, at most any of its operator norms). When neither
    is at most ``cap``, returns the smaller.
    """
    frobenius = ContractionGate(_weighted_frobenius_upper(e22, d), "weighted-frobenius")
    if frobenius.bound <= cap:
        return frobenius
    paper = ContractionGate(contraction_certificate(d, e22, p), "paper-norm")
    return paper if paper.bound <= frobenius.bound else frobenius


def solve_q(
    part: PartitionedPerturbation,
    spectrum: Spectrum,
    p: float = 2.0,
    tol: float = DEFAULT_TOL,
    certificate_cap: float = CERTIFICATE_CAP,
) -> tuple[np.ndarray, int, ContractionGate]:
    """Solve L q = E21 - q (E12 q) by the shifted map q <- (E22 q + E21) / (d + Re(E12 q)).

    The quadratic term moves into the denominator: the map's fixed points
    solve (D + Re(E12 q)) q = E22 q + E21, where E12 q is real (it equals
    -E21* (Lambda_2 + E22 - lambda~)^{-1} E21 with lambda~ real), so they are
    exactly the solutions of L q = E21 - q (E12 q). At the fixed point the
    shift Re(E12 q) is lambda~ - lambda1 - E11; carried in the denominator it
    keeps the step stable under strong E12 coupling, where
    q <- D^{-1}(E22 q + E21 - (E12 q) q) can diverge.

    Returns q, the number of steps and the ContractionGate that admitted the
    loop. Raises ContractionFailureError before iterating if no rung of
    contraction_gate is at most ``certificate_cap``. Stops when
    ||D (q_next - q)||_p <= tol and the quadratic residual is below
    tol * (||E21||_2 + 1); raises NonConvergenceError when a shifted gap
    d_j + Re(E12 q) is not positive, after three consecutive non-contracting
    steps, or at the step cap. Both errors carry the gate's bound and rung.
    Raises ValueError unless tol is finite and positive and p >= 1.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p}")
    d = build_shifted_gaps(spectrum, part.e11)
    gate = contraction_gate(d, part.e22, p, certificate_cap)
    if not gate.bound <= certificate_cap:
        raise ContractionFailureError(
            f"iteration operator norm bound {gate.bound:.4g} ({gate.rung}) "
            f"exceeds cap {certificate_cap}",
            certified_norm=gate.bound,
            rung=gate.rung,
        )
    cap = max(200, int(math.ceil(-10.0 * math.log2(tol))))
    e21, e12, e22 = part.e21, part.e12, part.e22
    target = tol * (lp_norm(e21, 2) + 1.0)
    d_min = float(d.min())

    q = np.zeros_like(e21)
    e22q = np.zeros_like(e21)  # E22 q, carried so each step costs one matvec
    prev_change = math.inf
    bad_steps = 0
    for step in range(1, cap + 1):
        shift = float((e12 @ q).real)
        if not d_min + shift > 0:
            raise NonConvergenceError(
                f"shifted gap d_j + Re(E12 q) = {d_min + shift:.4g} is not positive",
                certified_norm=gate.bound,
                rung=gate.rung,
            )
        q_next = (e22q + e21) / (d + shift)
        change = lp_norm(d * (q_next - q), p)
        if change >= prev_change and change > tol:
            bad_steps += 1
            if bad_steps >= 3:
                raise NonConvergenceError(
                    f"fixed-point iteration diverging: ||D dq||_p = {change:.4g}",
                    certified_norm=gate.bound,
                    rung=gate.rung,
                )
        else:
            bad_steps = 0
        prev_change = change
        q = q_next
        e22q = _matvec(e22, q)
        if change <= tol:
            resid = lp_norm(d * q - e22q - (e21 - (e12 @ q) * q), 2)
            if resid <= target:
                return q, step, gate
    raise NonConvergenceError(
        f"fixed-point iteration exceeded cap {cap}", certified_norm=gate.bound, rung=gate.rung
    )


def assemble_eigvec(eig: EigDecomposition, q: np.ndarray) -> np.ndarray:
    """Unit vector (u + U_perp q) (1 + ||q||^2)^(-1/2); overlap with u1 is positive."""
    q = np.asarray(q)
    if q.size != eig.n - 1:
        raise ValueError(f"q must have length n-1 = {eig.n - 1}")
    u = eig.leading_vector() + _matvec(eig.tail_basis(), q)
    return u / math.sqrt(1.0 + float(np.vdot(q, q).real))


def eigenvalue_from_q(lambda1: float, e11: float, e12: np.ndarray, q: np.ndarray) -> float:
    """Eigenvalue identity lambda1 + E11 + E12 q; the product must be real.

    Its imaginary part may not exceed 1e-10 max(1, sum_j |E12_j| |q_j|), a
    bound that scales with the terms of the dot product, so a large A + E is
    judged as its unit-scale copy is.
    """
    e12, q = np.asarray(e12), np.asarray(q)
    cross = complex(e12 @ q)
    if abs(cross.imag) > 1e-10 * max(1.0, float(np.abs(e12) @ np.abs(q))):
        raise InconsistentEigenvalueError(
            f"E12 q has imaginary part {cross.imag:.3g}; not an eigenpair"
        )
    return float(lambda1 + e11 + cross.real)


def coordinate_bounds(q: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Per-coordinate statistic (lambda1 - lambda_{j+1}) |<u~, u_{j+1}>| / sqrt(log n).

    Uses the unshifted gaps and the exact overlap |q_j| (1 + ||q||^2)^(-1/2).
    """
    q = np.asarray(q)
    scale = 1.0 / math.sqrt(1.0 + float(np.vdot(q, q).real))
    return spectrum.gaps() * np.abs(q) * scale / math.sqrt(math.log(spectrum.n))


def _interlacing_bound(A_tilde: np.ndarray, t: float) -> float:
    """Upper bound on ||G^{-1/2} F G^{-1/2}||_F, where A~[1:, 1:] = diag(a) + F and g = t - a.

    inf unless every g_j is positive. A value below 1 proves
    lambda_max(A~[1:, 1:]) < t; see _top_eigenvalue_within.
    """
    block = A_tilde[1:, 1:]
    g = t - block.diagonal().real
    if not np.all(g > 0):
        return math.inf
    return _weighted_frobenius_upper(block, g, hollow=True)


def _top_eigenvalue_within(
    A_tilde: np.ndarray, lam: float, residual2: float, tau: float, identity: bool
) -> bool:
    """True when |lambda_max(A~) - lam| <= tau is proved; False when the proof is inconclusive.

    A~ is the floating-point matrix A + E, and u~ the report's vector. With
    u = eps/2 the unit roundoff and pad = 2 (n+2) u, the proof needs no
    eigendecomposition:

    * lower side: r = residual2 + pad ||A~||_inf bounds the exact
      ||A~ u~ - lam u~||_2 / ||u~||_2, so some eigenvalue of A~ lies within
      r of lam (the residual bound; Parlett, The Symmetric Eigenvalue
      Problem). r <= tau gives lambda_max >= lam - tau.
    * upper side, on the identity basis: let t = lam - r, rounded down.
      Cauchy interlacing gives lambda_2(A~) <= lambda_max(A~[1:, 1:])
      (Horn and Johnson, Matrix Analysis, sec. 4.3). Write
      A~[1:, 1:] = diag(a) + F with F zero on the diagonal and G = diag(g),
      g = t - a > 0. Then t I - A~[1:, 1:] = G^{1/2} (I - K) G^{1/2} with
      K = G^{-1/2} F G^{-1/2}, positive definite when ||K||_F < 1
      (_interlacing_bound, padded for rounding). So lambda_2 < lam - r, and
      the eigenvalue within r of lam is lambda_max. O(n^2), and conclusive
      when u~ is close to e1, as on the identity basis.
    * upper side otherwise: cholesky_below on a copy of A~, with t = lam + tau
      rounded down, proves lambda_max < t. Its diagonal shift s must stay
      under tau (max_shift): a larger s puts t - s at or below lam, where the
      factorization is expected to fail, so it is not tried.

    pad is twice the first-order rounding bound, which absorbs the
    second-order terms and ||u~||_2 - 1. Assumes no underflow. r > tau or an
    inconclusive upper side leaves the question to the caller.
    """
    n = A_tilde.shape[0]
    pad = 2.0 * (n + 2) * (np.finfo(np.float64).eps / 2.0)
    r = residual2 + pad * float(np.abs(A_tilde).sum(axis=1).max())
    if not r <= tau:
        return False
    if identity and _interlacing_bound(A_tilde, float(np.nextafter(lam - r, -math.inf))) < 1.0:
        return True
    return cholesky_below(A_tilde.copy(), float(np.nextafter(lam + tau, -math.inf)), max_shift=tau)


def verify_solution(
    A: np.ndarray,
    E: np.ndarray,
    report: SolverReport,
    spectrum: Spectrum,
    eig: EigDecomposition | None = None,
    tilde_eig: EigDecomposition | None = None,
) -> SolverReport:
    """Fill residuals and the leading-eigenpair certificate on a report.

    Certification needs both lambda~ > (lambda1 + lambda2)/2 and
    |lambda_max(A + E) - lambda~| <= tau with tau = 1e-9 (1 + |lambda~|).
    Without ``tilde_eig`` the second condition is proved by the residual
    bound (lower side) and, for the upper side, Cauchy interlacing when
    ``eig`` has the identity basis, else one Cholesky factorization; see
    _top_eigenvalue_within. When that proof is inconclusive, or when
    ``tilde_eig`` is passed, lambda_max is read from the dense oracle.
    Neither is tried when the first condition fails. Failures are recorded,
    never raised, except that the oracle raises InvalidSpectrumError when the
    top eigenvalue of A + E is not simple.

    orth_residual is ||U~_perp* A~ u~||_2 for any orthonormal basis U~_perp
    of u~'s complement, that is ||A~ u~ - u~ (u~* A~ u~)||_2 for unit u~.
    Both residuals take the max-rescaled lp_norm, so entries near 1e300 do
    not overflow the sum of squares.
    """
    A_tilde = A + E
    u, lam = report.u_tilde, report.lambda_tilde
    w = _matvec(A_tilde, u)
    report.residual2 = lp_norm(w - lam * u, 2)
    report.orth_residual = lp_norm(w - u * np.vdot(u, w), 2)
    report.coord_ratios = coordinate_bounds(report.q, spectrum)
    report.q_norm2 = float(np.linalg.norm(report.q))
    half = (spectrum.lambdas[0] + spectrum.lambdas[1]) / 2.0
    tau = 1e-9 * (1.0 + abs(lam))
    if not lam > half:
        report.leading_certified = False
    elif tilde_eig is None and _top_eigenvalue_within(
        A_tilde, lam, report.residual2, tau, eig is not None and eig.is_identity
    ):
        report.leading_certified = True
    else:
        if tilde_eig is None:
            tilde_eig = hermitian_eig(A_tilde)
        top = float(tilde_eig.spectrum.lambdas[0])
        report.leading_certified = bool(abs(lam - top) <= tau)
    return report


def _check_operands(A: np.ndarray, E: np.ndarray) -> None:
    """Raise ValueError unless A and E are finite, square, alike in shape, and A self-adjoint."""
    for name, M in (("A", A), ("E", E)):
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} has non-finite entries")
    if not is_hermitian(A):
        raise ValueError("A is not exactly self-adjoint (M != M*)")
    if A.shape != E.shape:
        raise ValueError(f"A has shape {A.shape} but E has shape {E.shape}")


def solve(
    A: np.ndarray,
    E: np.ndarray,
    p: float = 2.0,
    tol: float = DEFAULT_TOL,
    certificate_cap: float = CERTIFICATE_CAP,
    eig: EigDecomposition | None = None,
    verify: bool = True,
) -> SolverReport:
    """End-to-end solve with oracle fallback.

    A and E must be finite, square, of one shape and exactly self-adjoint;
    anything else raises ValueError. Runs the partition / fixed-point /
    assembly chain; on any PerturbError there (gap collapse, contraction
    failure, divergence, a complex eigenvalue) it falls back to the dense
    oracle's leading eigenpair, tags the report method "oracle-fallback"
    and records the caught error as "<ErrorType>: <message>" in
    ``fallback_reason`` (empty on "rs"), so pipelines never silently lose a
    trial. The contraction gate runs once either way and its bound and rung
    are reported; the bound is inf when the shifted gaps collapse or the
    paper's norm cannot be computed (a NumericFailureError from the exact
    norm's eigensolver, e.g. when M* M overflows); that error falls back
    like the others. A top eigenvalue that is not simple, of A or of A + E
    where the oracle decides, raises InvalidSpectrumError.
    """
    A, E = np.asarray(A), np.asarray(E)
    _check_operands(A, E)
    if eig is None:
        eig = hermitian_eig(A)
    part = partition(eig, E)
    spectrum = eig.spectrum
    tilde_eig = None
    gate = ContractionGate(math.inf, "")
    try:
        q, iterations, gate = solve_q(
            part, spectrum, p=p, tol=tol, certificate_cap=certificate_cap
        )
        report = SolverReport(
            q=q,
            u_tilde=assemble_eigvec(eig, q),
            lambda_tilde=eigenvalue_from_q(spectrum.lambdas[0], part.e11, part.e12, q),
            iterations=iterations,
            contraction_upper=gate.bound,
            contraction_rung=gate.rung,
            method="rs",
        )
    except PerturbError as err:
        tilde_eig = hermitian_eig(A + E)
        u_top = tilde_eig.basis[:, 0]
        head = complex(np.vdot(eig.leading_vector(), u_top))
        if abs(head) > 0:
            u_top = u_top * (abs(head) / head)  # overlap with u1 real nonnegative
            head = abs(head)
        overlaps = eig.tail_basis().conj().T @ u_top
        q = overlaps / max(float(abs(head)), np.finfo(np.float64).eps)
        report = SolverReport(
            q=q,
            u_tilde=u_top,
            lambda_tilde=float(tilde_eig.spectrum.lambdas[0]),
            iterations=0,
            contraction_upper=getattr(err, "certified_norm", gate.bound),
            contraction_rung=getattr(err, "rung", gate.rung),
            method="oracle-fallback",
            fallback_reason=f"{type(err).__name__}: {err}",
        )
    if verify:
        verify_solution(A, E, report, spectrum, eig=eig, tilde_eig=tilde_eig)
    else:
        report.coord_ratios = coordinate_bounds(report.q, spectrum)
        report.q_norm2 = float(np.linalg.norm(report.q))
    return report
