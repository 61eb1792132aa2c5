"""Leading eigenpair of A + E by the quadratic fixed-point construction.

In the eigenbasis of A the noise splits into blocks (E11, E12, E21, E22), and
the leading eigenvector of A + E is (u + U_perp q) / sqrt(1 + ||q||^2) where q
solves the quadratic system

    L q = E21 - q (E12 q),      L = (lambda1 + E11) I - (diag(lambda_2..n) + E22).

One loop solves it: with D = diag(lambda1 - lambda_j + E11) the shifted gaps,
q <- D^{-1}(E22 q + E21 - (E12 q) q) from q = 0, one E22 matvec per step. The
loop runs only when ||E22 D^{-1}||_p is certified contracting. Every solve
carries that certificate, its step count, the fixed-point residual, and a
leading-eigenvalue certificate from the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import opnorm_pp_upper
from .errors import (
    ContractionFailureError,
    GapCollapseError,
    InconsistentEigenvalueError,
    InvalidSpectrumError,
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
    "partition",
    "build_shifted_gaps",
    "contraction_certificate",
    "solve_q",
    "assemble_eigvec",
    "eigenvalue_from_q",
    "coordinate_bounds",
    "verify_solution",
    "verify_shifted_domination",
    "solve",
]

DEFAULT_TOL = 1e-12
# The norm guarantees assume a certificate <= 1/2, but any rho < 1 still
# contracts; 0.9 accepts the slow-but-convergent band and flags it in reports.
CERTIFICATE_CAP = 0.9


@dataclass(frozen=True)
class PartitionedPerturbation:
    """Noise matrix expressed in the eigenbasis of A and split around u1.

    e21 is stored as exactly conj(e12) and e22 is exactly Hermitian, so block
    reassembly reproduces U* E U up to one symmetrization.
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
    """Everything a solve produced, including its certificates."""

    q: np.ndarray
    u_tilde: np.ndarray
    lambda_tilde: float
    iterations: int
    contraction_upper: float
    residual2: float = math.nan
    orth_residual: float = math.nan
    coord_ratios: np.ndarray = field(default_factory=lambda: np.zeros(0))
    q_norm2: float = math.nan
    leading_certified: bool = False
    method: str = "rs"

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
            "residual2": self.residual2,
            "orth_residual": self.orth_residual,
            "coord_ratios": seq(self.coord_ratios),
            "q_norm2": self.q_norm2,
            "leading_certified": self.leading_certified,
            "method": self.method,
        }


def partition(eig: EigDecomposition, E: np.ndarray) -> PartitionedPerturbation:
    """Conjugate E into the eigenbasis of A and split blocks around u1."""
    E = np.asarray(E)
    if E.shape != (eig.n, eig.n):
        raise ValueError(f"noise shape {E.shape} does not match basis dimension {eig.n}")
    tilde = force_hermitian(eig.basis.conj().T @ E @ eig.basis)
    return PartitionedPerturbation(
        e11=float(tilde[0, 0].real),
        e12=tilde[0, 1:].copy(),
        e22=tilde[1:, 1:].copy(),
    )


def build_shifted_gaps(spectrum: Spectrum, e11: float) -> np.ndarray:
    """Shifted gaps d_j = lambda1 - lambda_{j+1} + E11; raises if any entry closes."""
    d = spectrum.gaps() + e11
    if np.any(d <= 0):
        raise GapCollapseError(
            f"shifted gap collapsed: min(lambda1 - lambda_j + E11) = {d.min():.6g}"
        )
    return d


def contraction_certificate(d: np.ndarray, e22: np.ndarray, p: float) -> float:
    """Certified upper bound on ||E22 D^{-1}||_{p,p} (exact at p in {1,2,inf})."""
    return opnorm_pp_upper(e22 / d[np.newaxis, :], p)


def solve_q(
    part: PartitionedPerturbation,
    spectrum: Spectrum,
    p: float = 2.0,
    tol: float = DEFAULT_TOL,
    certificate_cap: float = CERTIFICATE_CAP,
) -> tuple[np.ndarray, int, float]:
    """Solve L q = E21 - q (E12 q) by the map q <- D^{-1}(E22 q + E21 - (E12 q) q).

    Returns q, the number of steps and the certificate on ||E22 D^{-1}||_p.
    Raises ContractionFailureError before iterating if the certificate
    exceeds ``certificate_cap``. Stops when ||D (q_next - q)||_p <= tol and
    the quadratic residual is below tol * (||E21||_2 + 1); raises
    NonConvergenceError after three consecutive non-contracting steps or at
    the step cap. Both errors carry the certificate.
    """
    d = build_shifted_gaps(spectrum, part.e11)
    certificate = contraction_certificate(d, part.e22, p)
    if not certificate <= certificate_cap:
        raise ContractionFailureError(
            f"iteration operator norm bound {certificate:.4g} exceeds cap {certificate_cap}",
            certified_norm=certificate,
        )
    cap = max(200, int(math.ceil(10.0 * math.log2(1.0 / tol))))
    e21, e12, e22 = part.e21, part.e12, part.e22
    target = tol * (float(np.linalg.norm(e21)) + 1.0)

    q = np.zeros_like(e21)
    e22q = np.zeros_like(e21)  # E22 q, carried so each step costs one matvec
    prev_change = math.inf
    bad_steps = 0
    for step in range(1, cap + 1):
        q_next = (e22q + e21 - (e12 @ q) * q) / d
        change = lp_norm(d * (q_next - q), p)
        if change >= prev_change and change > tol:
            bad_steps += 1
            if bad_steps >= 3:
                raise NonConvergenceError(
                    f"fixed-point iteration diverging: ||D dq||_p = {change:.4g}",
                    certified_norm=certificate,
                )
        else:
            bad_steps = 0
        prev_change = change
        q = q_next
        e22q = e22 @ q
        if change <= tol:
            resid = float(np.linalg.norm(d * q - e22q - (e21 - (e12 @ q) * q)))
            if resid <= target:
                return q, step, certificate
    raise NonConvergenceError(
        f"fixed-point iteration exceeded cap {cap}", certified_norm=certificate
    )


def assemble_eigvec(eig: EigDecomposition, q: np.ndarray) -> np.ndarray:
    """Unit vector (u + U_perp q) (1 + ||q||^2)^(-1/2); overlap with u1 is positive."""
    q = np.asarray(q)
    if q.size != eig.n - 1:
        raise ValueError(f"q must have length n-1 = {eig.n - 1}")
    u = eig.leading_vector() + eig.tail_basis() @ q
    return u / math.sqrt(1.0 + float(np.vdot(q, q).real))


def eigenvalue_from_q(
    lambda1: float, e11: float, e12: np.ndarray, q: np.ndarray, imag_tol: float = 1e-10
) -> float:
    """Eigenvalue identity lambda1 + E11 + E12 q; the product must be real."""
    cross = complex(np.asarray(e12) @ np.asarray(q))
    if abs(cross.imag) > imag_tol:
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


def _orthogonal_complement_residual(
    eig: EigDecomposition, q: np.ndarray, A_tilde: np.ndarray, u_tilde: np.ndarray
) -> float:
    """||U~_perp* A~ u~||_2 with U~_perp = (U_perp - u q*)(I + q q*)^(-1/2)."""
    w = A_tilde @ u_tilde
    raw = eig.tail_basis().conj().T @ w - q * np.vdot(eig.leading_vector(), w)
    s2 = float(np.vdot(q, q).real)
    if s2 > 0:
        beta = (1.0 - 1.0 / math.sqrt(1.0 + s2)) / s2
        raw = raw - beta * q * np.vdot(q, raw)
    return float(np.linalg.norm(raw))


def verify_solution(
    A: np.ndarray,
    E: np.ndarray,
    report: SolverReport,
    spectrum: Spectrum,
    eig: EigDecomposition | None = None,
    tilde_eig: EigDecomposition | None = None,
) -> SolverReport:
    """Fill residuals and the leading-eigenpair certificate on a report.

    Certification needs both lambda~ > (lambda1 + lambda2)/2 and agreement of
    lambda~ with the dense oracle's top eigenvalue of A + E to 1e-9 relative.
    Failures are recorded, never raised.
    """
    if eig is None:
        eig = hermitian_eig(A)
    A_tilde = A + E
    u, lam = report.u_tilde, report.lambda_tilde
    report.residual2 = float(np.linalg.norm(A_tilde @ u - lam * u))
    report.orth_residual = _orthogonal_complement_residual(eig, report.q, A_tilde, u)
    report.coord_ratios = coordinate_bounds(report.q, spectrum)
    report.q_norm2 = float(np.linalg.norm(report.q))
    if tilde_eig is None:
        tilde_eig = hermitian_eig(A_tilde)
    top = float(tilde_eig.spectrum.lambdas[0])
    half = (spectrum.lambdas[0] + spectrum.lambdas[1]) / 2.0
    report.leading_certified = bool(
        lam > half and abs(lam - top) <= 1e-9 * (1.0 + abs(lam))
    )
    return report


def _check_operands(A: np.ndarray, E: np.ndarray) -> None:
    """Raise ValueError unless A and E are finite, square, alike in shape and self-adjoint."""
    for name, M in (("A", A), ("E", E)):
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} has non-finite entries")
        if not is_hermitian(M):
            raise ValueError(f"{name} is not exactly self-adjoint (M != M*)")
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
    oracle's leading eigenpair and tags the report method "oracle-fallback"
    so pipelines never silently lose a trial. The contraction certificate is
    computed once either way; it is inf when the shifted gaps collapse.
    """
    A, E = np.asarray(A), np.asarray(E)
    _check_operands(A, E)
    if eig is None:
        eig = hermitian_eig(A)
    spectrum = eig.spectrum
    if not spectrum.lambdas[0] > spectrum.lambdas[1]:
        raise InvalidSpectrumError("solver requires a simple top eigenvalue of A")
    part = partition(eig, E)
    tilde_eig = None
    cert = math.inf
    try:
        q, iterations, cert = solve_q(
            part, spectrum, p=p, tol=tol, certificate_cap=certificate_cap
        )
        report = SolverReport(
            q=q,
            u_tilde=assemble_eigvec(eig, q),
            lambda_tilde=eigenvalue_from_q(spectrum.lambdas[0], part.e11, part.e12, q),
            iterations=iterations,
            contraction_upper=cert,
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
            contraction_upper=getattr(err, "certified_norm", cert),
            method="oracle-fallback",
        )
    if verify:
        verify_solution(A, E, report, spectrum, eig=eig, tilde_eig=tilde_eig)
    else:
        report.coord_ratios = coordinate_bounds(report.q, spectrum)
        report.q_norm2 = float(np.linalg.norm(report.q))
    return report


# ---------------------------------------------------------------------------
# Randomized Weyl domination check
# ---------------------------------------------------------------------------

def _trs_sphere_min(B: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """Global minimum of z*Bz - Re(c*z) over the unit sphere.

    Eigendecompose B and solve the secular equation ||(B - sigma I)^{-1} c/2|| = 1
    for the multiplier sigma <= lambda_min(B) by bisection; the hard case
    (no root below lambda_min) pads with the bottom eigenvector.
    """
    w, V = np.linalg.eigh(force_hermitian(B))
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


def verify_shifted_domination(
    X: np.ndarray,
    mu: np.ndarray,
    tau: float = 0.0,
    g: np.ndarray | None = None,
) -> tuple[bool, float]:
    """Check z*Xz + tau ||z|| Re(g*z) <= z*D_mu z for all z; margin is the slack.

    tau = 0 reduces to the semidefinite test X <= D_mu with margin
    lambda_min(D_mu - X); tau > 0 minimizes the shifted form on the unit
    sphere via a trust-region-style secular solve.
    """
    X = np.atleast_2d(np.asarray(X))
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(mu <= 0):
        raise ValueError("mu must be positive")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    B = np.diag(mu) - X
    if tau == 0.0 or g is None or not np.any(np.asarray(g)):
        margin = float(np.linalg.eigvalsh(force_hermitian(B))[0])
        return bool(margin >= 0.0), margin
    margin, _ = _trs_sphere_min(B, tau * np.asarray(g))
    return bool(margin >= 0.0), margin
