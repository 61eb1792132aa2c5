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
(S is Hermitian and similar to it). The loop runs only when the gate, the
weighted Frobenius norm ||S||_F padded for rounding, an O(n^2) upper bound
on ||S||_2, is at or below a cap; above it solve falls back to the dense
oracle. The paper's ||E22 D^{-1}||_p is at least ||S||_2 for every p, but
not always at least ||S||_F, so the gate can refuse an input that the
paper's norm admits; the experiments record that norm. The report carries
the gate's bound, the step count, the residuals and a leading-eigenvalue
certificate. That certificate is for the exact A + E and needs no
eigendecomposition of it: the residual bound puts an eigenvalue near
lambda~, and Cauchy interlacing (identity basis, O(n), from the gate's
bound) or one Cholesky factorization (matcore.cholesky_below) shows that
none lies above it. Only when these proofs are inconclusive does the dense
computation decide (is_leading).

solve is the one way through the pipeline: it proves its operands valid
once, at its boundary, then runs each stage once (the blocks of U* E U, the
gate, the loop solve_q, assembly, verification). On the identity basis, the
paper's own setting, A must be diag(eig.spectrum.lambdas), and each n x n
operand is read as few times as the proofs allow: A's off-diagonal entries
once, to prove them zero; E once before the loop, in one tiled pass that
proves it finite and exactly self-adjoint, gives the gate's bound and
bounds ||E||_F; then once per loop step, and once in verification, for
E u~. No I* E I, no product with the identity and no A + E is formed unless
the Cholesky proof or the oracle is reached.
Verification takes this path only when E was read so: a basis that
eigendecomposition finds to be I, for an A that need not be exactly
diagonal, is verified on the formed A + E. On any other basis each operand
is proved self-adjoint once on entry, U* E U is built exactly Hermitian from
3/4 of its second product, and verification factors the A + E it forms.
This module imports nothing from bounds: bounds calls solve for its
randomized Weyl domination check (verify_shifted_domination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matcore
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
    _decompose,
    _frobenius,
    _hermitian_product,
    cholesky_below,
    is_hermitian,
    json_fields,
    lp_norm,
    top_eigpair,
)

__all__ = [
    "PartitionedPerturbation",
    "SolverReport",
    "build_shifted_gaps",
    "solve_q",
    "assemble_eigvec",
    "coordinate_bounds",
    "is_leading",
    "solve",
]

DEFAULT_TOL = 1e-12
# In y = D^{1/2} q solve_q's map reads y <- D (D + c)^{-1} (S y + D^{-1/2} E21)
# with S = D^{-1/2} E22 D^{-1/2} and c = Re(E12 q), zero at the start and
# nonnegative at the leading fixed point (lambda~ >= lambda1 + E11, the
# Rayleigh quotient of u1). So ||D (D + c)^{-1}||_2 <= 1, and the linear part
# contracts in the 2-norm of y at rate ||S||_2 = rho(E22 D^{-1}), which is at
# most the paper's ||E22 D^{-1}||_p for every p. The gate compares the padded
# ||S||_F, a proved upper bound on ||S||_2, with this cap. The rest of the
# Jacobian comes from c's dependence on q, is of order
# ||E21||_2 ||E12 D^{-1}||_2 / min(d), and so also needs E12 not too large
# against the gaps. 0.9 accepts the slow band and flags it in reports; inputs
# that still fail to converge fall back to the oracle.
CERTIFICATE_CAP = 0.9
# kappa of solve_q's rounding-level step test ||D dq||_2 <= kappa eps ||E21||_2.
# Once the iteration has converged, a step repeats the map's roundings, and
# its ||D dq||_2 stayed at or below 0.65 eps ||E21||_2 on every input tried
# (identity-basis GOE and GUE noise at n = 64, 256 and 512 on linear and
# multiscale spectra, scaled by 2^40, gate bounds up to 0.88). 8 leaves a
# margin over that and stays below tol = 1e-12 while ||E21||_2 < 560, where
# the loop stops exactly as under tol * unit alone.
_STEP_ROUNDING = 8.0


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
    U* E U, built Hermitian (see _blocks). They may be views of the
    caller's E.
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

    ``contraction_upper`` is the gate's bound, the padded weighted Frobenius
    norm ||D^{-1/2} E22 D^{-1/2}||_F (_weighted_frobenius_upper), on the
    "rs" and the fallback path alike; it is inf when the shifted gaps
    collapse before the gate runs, or when that norm is beyond the float
    range.
    """

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
    fallback_reason: str = ""

    def to_dict(self) -> dict:
        return json_fields(self)


def _blocks(eig: EigDecomposition, E: np.ndarray) -> PartitionedPerturbation:
    """Conjugate the self-adjoint E into the eigenbasis of A and split blocks around u1.

    E is not checked here: solve has proved it exactly self-adjoint and of
    the basis's order. On the identity basis (A diagonal) the two products
    are skipped, as I* E I equals E entry for entry in IEEE arithmetic, and
    the blocks are views of E (or of its complex copy for a complex basis).
    Otherwise they are views of the fresh U* E U, exactly Hermitian with a
    real diagonal by construction: F = E U once, then 3/4 of U* F with the
    rest mirrored (_hermitian_product).
    """
    basis = eig.basis
    if eig.is_identity:
        tilde = E.astype(np.result_type(E, basis), copy=False)
    else:
        tilde = _hermitian_product(basis.conj().T, E @ basis)
    return PartitionedPerturbation(float(tilde[0, 0].real), tilde[0, 1:], tilde[1:, 1:])


def build_shifted_gaps(spectrum: Spectrum, e11: float) -> np.ndarray:
    """Shifted gaps d_j = lambda1 - lambda_{j+1} + E11; raises if any entry closes."""
    d = spectrum.gaps() + e11
    if np.any(d <= 0):
        raise GapCollapseError(
            f"shifted gap collapsed: min(lambda1 - lambda_j + E11) = {d.min():.6g}"
        )
    return d


def _tile_sums(
    M: np.ndarray, sigma: float, v: np.ndarray | None, hermitian: bool = False
) -> tuple[float, float, bool]:
    """sum_ij |M_ij / sigma|^2 v_i v_j, sum_ij |M_ij / sigma|^2 and whether M = M* exactly.

    One read of the square M in tiles of side matcore._TILE (one tile when
    M's order is at most twice that, where fewer tiles save more calls than
    they cost in cache), on the calling thread, with no temporary larger
    than a tile.
    Each tile on or above the diagonal is compared with the conjugate
    transpose of its mirror tile. When the two are equal, |M_ij| = |M_ji|
    entry for entry, so the tile's terms count twice, by doubled weights
    (exact), in place of reading the mirror's; otherwise the mirror tile is
    summed as well, so the sums are M's for any M. ``hermitian`` says that M
    is exactly Hermitian by construction, as _blocks' E22 is: the
    comparisons are then skipped and every mirror tile counts as equal.
    Per tile, M / sigma is squared into a contiguous buffer (a complex
    entry as its real and imaginary parts), and one np.vecdot dots each row
    of squares with the weights v and with ones. A row's dot products over
    its tiles are then summed, and the sums are y . v and the sum of the row
    totals, so a term passes through at most the roundings of one row's dot
    product of N terms (N = m real, 2 m complex) and one of m terms. Without
    v the weights are ones. Overflow is not trapped: a sum that is not
    finite is returned as computed.
    """
    m = M.shape[0]
    width = 2 if np.iscomplexobj(M) else 1
    scale = 1.0 / sigma
    single = np.ones((2, width * m))  # the weights of (weighted, plain), per real square
    if v is not None:
        single[0] = v if width == 1 else np.repeat(v, 2)
    double = 2.0 * single
    side = m if m <= 2 * matcore._TILE else matcore._TILE
    buffer = np.empty(side ** 2, dtype=np.result_type(M, np.float64))
    dots = np.zeros((-(-m // side), m, 2))  # per tile column and row

    def add(block, i, j, weights):
        W = buffer[: block.size].reshape(block.shape)  # contiguous for every tile
        np.multiply(block, scale, out=W)
        R = W.view(np.float64)
        R *= R
        columns = weights[:, width * j : width * j + R.shape[1]]
        np.vecdot(R[:, np.newaxis, :], columns, out=dots[j // side, i : i + R.shape[0]])

    mirrored = True
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, side):
            for j in range(i, m, side):
                U, L = M[i : i + side, j : j + side], M[j : j + side, i : i + side]
                same = hermitian or np.array_equal(U, L.conj().T)
                mirrored = mirrored and same
                add(U, i, j, double if same and i != j else single)
                if not same and i != j:
                    add(L, j, i, single)
        y, z = dots.sum(axis=0).T
        weighted = float(y @ single[0, ::width])
        plain = float(z.sum())
    return weighted, plain, mirrored


def _scale_and_weights(d: np.ndarray) -> tuple[float, np.ndarray | None]:
    """sigma, the power of two with sigma <= max(d) < 2 sigma, and v = sigma / d.

    (1, None) unless max(d) is normal and finite, and v is None unless every
    d_j is positive. Dividing by sigma is exact, and every v_j exceeds 1/2;
    a v_j beyond the float range is inf, and so are the sums it weights.
    """
    top = float(d.max())
    if not np.finfo(np.float64).tiny <= top < math.inf:
        return 1.0, None
    sigma = math.ldexp(1.0, math.frexp(top)[1] - 1)
    if not float(d.min()) > 0:
        return sigma, None
    with np.errstate(over="ignore"):
        return sigma, sigma / d


def _padded_root(s: float, pad: float) -> float:
    """sqrt(s) (1 + pad), rounded up; inf unless s is finite."""
    if not math.isfinite(s):
        return math.inf
    return math.nextafter(math.sqrt(s) * (1.0 + pad), math.inf)


def _frobenius_pad(m: int, complex_case: bool) -> float:
    """(N + m + 7) u for the sums of _tile_sums over a block of order m, N squares per row.

    d may carry one rounding, as fl(t - a) does, and fl(sigma / d_j) adds
    one, so each weighted term p_ij v_i v_j carries five relative errors of
    at most u = eps/2 (the square and two per weight). A row's N terms and
    the m rows add gamma_N and gamma_m in any order of summation, fused
    multiply-adds allowed (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), so the pad holds whatever order the BLAS dot and
    the tiles sum in. All terms are nonnegative, so the sum errs by at most
    gamma_{N + m + 5} relative; the square root halves that and adds u.
    (N + m + 7) u is twice the first-order bound, which absorbs the
    second-order terms. The plain sum carries fewer roundings.
    """
    return ((3 if complex_case else 2) * m + 7) * (np.finfo(np.float64).eps / 2.0)


def _underflow_floor(M: np.ndarray, total: float) -> float:
    """w tiny total^2 (w = 1 real, 2 complex): what squares below tiny can take from a sum of _tile_sums.

    total is the sum of the weights, so the weighted terms' products
    v_i v_j sum to total^2. A square that falls below the smallest normal
    number tiny, or whose M_ij / sigma is subnormal, errs by at most tiny.
    """
    return (2 if np.iscomplexobj(M) else 1) * np.finfo(np.float64).tiny * total * total


def _lost_range(s: float, floor: float) -> bool:
    """Whether a sum s of _tile_sums may have lost range: not finite, or its underflow floor above eps s.

    Below that, squares under tiny take at most eps relative from s, which
    the factor 2 of _frobenius_pad over the first-order bound absorbs, so s
    keeps its bits and needs no second read. The test is O(1); its floor
    needs only the O(m) sum of the weights.
    """
    return not (math.isfinite(s) and floor <= np.finfo(np.float64).eps * s)


def _weighted_frobenius_upper(M: np.ndarray, d: np.ndarray) -> float:
    """Upper bound on ||D^{-1/2} M D^{-1/2}||_F for D = diag(d) > 0 and Hermitian M, in O(m^2).

    The square of the norm is sum_ij p_ij v_i v_j with p_ij = |M_ij / sigma|^2
    and v = sigma / d (_scale_and_weights), from one read of M
    (_tile_sums), padded for rounding (_frobenius_pad) and rounded up. The
    value does not change when M and d are scaled by the same power of two.
    When that sum lost range (_lost_range), as when a square of a finite
    M_ij / sigma overflows or when M is so small that its squares fall
    below the smallest normal number tiny, M is read once more over
    sigma 2^k in place of sigma, the power of two with sigma 2^k <=
    max_ij max(|Re M_ij|, |Im M_ij|) < sigma 2^(k+1), raised where needed so
    that sigma 2^k stays normal: no square reaches 4, and the norm is 2^k
    times the root of that sum (exact scalings, the result rounded up when
    it is subnormal). The squares there that fall below tiny are covered by
    adding _underflow_floor to the sum before the pad, whose factor 2 over
    the first-order bound covers this term's own roundings. Assumes max(d)
    normal; a sum that is still not finite gives inf. Only the tiles on and
    above M's diagonal are read, each one above it counted for its mirror
    too (_tile_sums' ``hermitian``), so M must be exactly Hermitian, as
    _blocks' E22 is.
    """
    sigma, v = _scale_and_weights(d)
    if v is None:
        return math.inf
    pad = _frobenius_pad(M.shape[0], np.iscomplexobj(M))
    weighted, _, _ = _tile_sums(M, sigma, v, hermitian=True)
    floor = _underflow_floor(M, float(v.sum()))
    if not _lost_range(weighted, floor):
        return _padded_root(weighted, pad)
    parts = (M.real, M.imag) if np.iscomplexobj(M) else (M,)
    top = max(float(np.abs(part).max()) for part in parts)
    if top == 0.0:  # the sum is exact
        return _padded_root(weighted, pad)
    e = math.frexp(sigma)[1]
    k = max(math.frexp(top)[1] - e, -1021 - e)
    if k <= 0 and not math.isfinite(weighted):  # no square overflowed, so the weights did
        return math.inf
    if k != 0:
        weighted, _, _ = _tile_sums(M, math.ldexp(sigma, k), v, hermitian=True)
    with np.errstate(over="ignore"):
        bound = float(np.ldexp(_padded_root(weighted + floor, pad), k))
    return bound if bound >= np.finfo(np.float64).tiny else math.nextafter(bound, math.inf)


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

    Runs the loop alone: the caller admits it (solve does so through its
    gate). Returns q and the number of steps. Stops when
    ||D (q_next - q)||_2 <= step_tol and the quadratic residual is below
    tol * (||E21||_2 + unit), unit = min(1, max(|lambda_1|, |lambda_n|)),
    with step_tol the larger of tol * unit and the rounding level
    _STEP_ROUNDING eps ||E21||_2 of a step. Above unit scale tol * unit is
    an absolute 1e-12 that a step of a large E meets only by stagnating
    exactly; the rounding level scales with E, so a step test and a
    divergence rule (steps at or below step_tol never count as growing)
    that hold at unit scale hold at every scale.
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
    e21_norm = lp_norm(e21, 2)
    step_tol = max(tol * unit, _STEP_ROUNDING * np.finfo(np.float64).eps * e21_norm)
    target = tol * (e21_norm + unit)
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


def _eigenvalue_from_q(spectrum: Spectrum, e11: float, e12: np.ndarray, q: np.ndarray) -> float:
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


class _NoiseRead(NamedTuple):
    """What one read of E bounds on the identity basis, A = diag(a) (_read_noise)."""

    d: np.ndarray  # the shifted gaps fl(fl(a_1 - a_{j+1}) + E11), as build_shifted_gaps forms them
    beta: float  # the gate's bound, padded ||D^{-1/2} E22 D^{-1/2}||_F; inf unless every d_j > 0
    norm: float  # an upper bound on ||E||_F, inf when its sum is not finite


def _read_noise(E: np.ndarray, a: np.ndarray) -> tuple[_NoiseRead, bool, bool]:
    """One read of E on the identity basis: its bounds, whether E is finite, and whether E = E*.

    _tile_sums reads E with the weights v of the shifted gaps d on rows and
    columns 1..n-1 and 0 on row and column 0, so the weighted sum is E22's
    alone, and beta, its padded root, is the gate's bound; norm bounds
    ||E||_F by the padded root of the plain sum. The finiteness answer costs
    nothing when the plain sum is finite, since every entry of E is either
    squared into it or equal to the conjugate of one that is. A sum that is
    not finite, perhaps from finite entries whose squares overflow, leads to
    one np.isfinite pass over E. A weighted sum that lost range
    (_lost_range: not finite, from an overflowing square in E22 or in row 0
    times its weight 0, or so small that squares below tiny may matter) is
    replaced, for a finite self-adjoint E, by _weighted_frobenius_upper(E22,
    d), which rescales. A finite plain sum that lost range gets its
    _underflow_floor added before the pad, so norm still bounds ||E||_F.
    Normal inputs pass both O(1) tests and keep the one read.
    """
    n = E.shape[0]
    d = (a[0] - a[1:]) + float(E[0, 0].real)
    sigma, v = _scale_and_weights(d)
    weighted, plain, mirrored = _tile_sums(E, sigma, None if v is None else np.append(0.0, v))
    finite = math.isfinite(plain) or bool(np.all(np.isfinite(E)))
    pad = _frobenius_pad(n, np.iscomplexobj(E))
    beta = math.inf if v is None else _padded_root(weighted, pad)
    lost = v is not None and _lost_range(weighted, _underflow_floor(E, float(v.sum())))
    if lost and finite and mirrored:
        beta = _weighted_frobenius_upper(E[1:, 1:], d)
    floor = _underflow_floor(E, float(n))
    if math.isfinite(plain) and _lost_range(plain, floor):
        plain += floor
    return _NoiseRead(d, beta, sigma * _padded_root(plain, pad)), finite, mirrored


def _trailing_bound(a: np.ndarray, e11: float, d: np.ndarray, beta: float, t: float) -> float:
    """Upper bound on ||K||_2 for the trailing block of A~ = diag(a) + E, in O(n); inf unless H > 0.

    K = H^{-1/2} E22 H^{-1/2} with H = diag(h), h_j = t - a_{j+1}, in exact
    arithmetic, so t I - A~[1:, 1:] = H^{1/2} (I - K) H^{1/2}, and a value
    below 1 proves lambda_max(A~[1:, 1:]) < t. d is the computed shifted
    gaps fl(fl(a_1 - a_{j+1}) + E11) and beta >= ||D^{-1/2} E22 D^{-1/2}||_2
    for them (inf unless every d_j > 0). With delta = t - a_1 - E11, each
    h_j is d_j + delta up to the two roundings of d_j, at most
    u (|a_1 - a_{j+1}| + d_j), u = eps/2; the computed delta carries two
    more, at most u (|t - a_1| + |delta|). So delta is lowered by eps times
    the largest of each and rounded down, after which every h_j is at least
    d_j + delta. Then K = G S G with S = D^{-1/2} E22 D^{-1/2} and
    G = diag(sqrt(d_j / h_j)), so ||K||_2 <= beta max_j d_j / (d_j + delta).
    The ratio and product carry four roundings; the factor 1 + 4 eps is
    twice that, and the result is rounded up.
    """
    eps = np.finfo(np.float64).eps
    top = t - float(a[0])
    delta = top - e11
    slack = eps * (abs(top) + abs(delta) + float(np.abs(a[0] - a[1:]).max()) + float(d.max()))
    h = d + float(np.nextafter(delta - slack, -math.inf))
    if not (beta < math.inf and np.all(h > 0)):
        return math.inf
    return float(np.nextafter(beta * float((d / h).max()) * (1.0 + 4.0 * eps), math.inf))


def _residual_radius(residual2: float, n: int, norm: float) -> float:
    """r = residual2 + 2 (n + 2) u ||A~||, u = eps/2: the lower side of _top_eigenvalue_within."""
    return residual2 + 2.0 * (n + 2) * (np.finfo(np.float64).eps / 2.0) * norm


def _top_eigenvalue_within(
    M: np.ndarray,
    a: np.ndarray | None,
    lam: float,
    residual2: float,
    tau: float,
    read: _NoiseRead | None,
) -> bool:
    """True when |lambda_max(A~) - lam| <= tau is proved; False when the proof is inconclusive.

    On the identity basis A~ = diag(a) + M is the exact A + E, with a the
    (real) diagonal of A, M = E and ``read`` solve's one read of E
    (_read_noise), whose beta is the gate's bound. On other bases a and
    ``read`` are None and M is the floating-point sum fl(A + E), which the
    Cholesky proof overwrites. u~ is the report's vector. With u = eps/2 the
    unit roundoff, pad = 2 (n+2) u and ||A~|| taken as ||E||_F + max_i |a_i|
    (identity basis) or ||M||_F, the proof needs no eigendecomposition:

    * lower side: the computed residual2 errs from the exact
      ||A~ u~ - lam u~||_2 / ||u~||_2 by at most (n + 5) u ||A~|| to first
      order. The product errs by gamma_n ||E||_F ||u~||_2 (gamma_{n+2}
      complex): each row's dot product errs by gamma_n sum_j |E_ij| |u~_j|,
      at most gamma_n ||E_i||_2 ||u~||_2 (Cauchy-Schwarz), and the rows'
      errors add up in the 2-norm to ||E||_F. The sum with a u~ (or the
      rounding of fl(A + E)), lam u~ and a u~ add u ||A~|| each (|lam| is
      within the residual of an eigenvalue of A~, at most ||A~||_2 in size),
      and the difference u times the residual. So r = residual2 + pad ||A~||
      bounds it and some eigenvalue of A~ lies within r of lam (the
      residual bound; Parlett, The Symmetric Eigenvalue Problem). r <= tau
      gives lambda_max >= lam - tau.
    * upper side, on the identity basis: let t = lam - r, rounded down.
      Cauchy interlacing gives lambda_2(A~) <= lambda_max(A~[1:, 1:])
      (Horn and Johnson, Matrix Analysis, sec. 4.3), which is below t when
      _trailing_bound, from the gate's bound (the padded
      ||D^{-1/2} E22 D^{-1/2}||_F, at least its 2-norm) and the gaps alone,
      is below 1. So lambda_2 < lam - r, and the
      eigenvalue within r of lam is lambda_max. O(n), and conclusive when
      lam - r clears lambda1 + E11 by a little, as at the loop's fixed point.
    * upper side otherwise: cholesky_below on H = fl(A + E), formed here on
      the identity basis, proves lambda_max(H) < t with t = lam + tau, rounded
      down, less rho = eps ||A~||, rounded down. H differs from A + E by
      at most u |A + E| entrywise (on the diagonal only, on the identity
      basis), so by at most rho in the 2-norm, and Weyl's inequality gives
      lambda_max(A + E) < t + rho <= lam + tau. Its diagonal shift s must stay
      under tau (max_shift): a larger s puts t - s at or below lam, where the
      factorization is expected to fail, so it is not tried.

    pad is twice the first-order bound of the lower side, which absorbs the
    second-order terms, ||u~||_2 - 1 and the rounding of ||A~||: off the
    identity basis ||M||_F comes from the sum of one dot product per row
    (_frobenius), low by at most gamma_{3n} relative, a small fraction of
    the factor 2 at any n. Assumes no underflow. r > tau or an inconclusive
    upper side leaves the question to the caller.
    """
    n = M.shape[0]
    norm = _frobenius(M) if a is None else read.norm + float(np.abs(a).max())
    r = _residual_radius(residual2, n, norm)
    if not r <= tau:
        return False
    if a is not None:
        t = float(np.nextafter(lam - r, -math.inf))
        if _trailing_bound(a, float(M[0, 0].real), read.d, read.beta, t) < 1.0:
            return True
        H = M.astype(np.result_type(M, a))
        H[np.diag_indices(n)] += a
    else:
        H = M
    t = float(np.nextafter(lam + tau, -math.inf))
    t = float(np.nextafter(t - np.finfo(np.float64).eps * norm, -math.inf))
    return cholesky_below(H, t, max_shift=tau)


def _leading_tolerance(spectrum: Spectrum, lam: float) -> float:
    """tau = 1e-9 (unit + |lambda~|), unit = min(1, max(|lambda_1|, |lambda_n|)), for is_leading."""
    return 1e-9 * (_unit(spectrum) + abs(lam))


def _above_midpoint(spectrum: Spectrum, lam: float) -> bool:
    """lambda~ > (lambda1 + lambda2)/2: lambda~ continues A's top eigenvalue, not its second."""
    return bool(lam > (spectrum.lambdas[0] + spectrum.lambdas[1]) / 2.0)


def is_leading(spectrum: Spectrum, lam: float, lambda_max: float) -> bool:
    """Whether lambda~ is certified as the top eigenvalue of A + E, given lambda_max(A + E).

    Both lambda~ > (lambda1 + lambda2)/2 and |lambda_max - lambda~| <= tau
    (_leading_tolerance), with ``spectrum`` the spectrum of A and
    ``lambda_max`` the dense oracle's, top_eigpair(A + E)[0]. solve's
    verification decides by this rule when its proofs are inconclusive.
    """
    return _above_midpoint(spectrum, lam) and bool(
        abs(lam - lambda_max) <= _leading_tolerance(spectrum, lam)
    )


def _verify(
    A: np.ndarray,
    E: np.ndarray,
    report: SolverReport,
    spectrum: Spectrum,
    read: _NoiseRead | None,
) -> SolverReport:
    """Fill residuals and the leading-eigenpair certificate on solve's report.

    Certification is is_leading's rule. A pair from the oracle's fallback is
    the oracle's own, so only lambda~ > (lambda1 + lambda2)/2 is checked for
    it. For any other pair that clears it, |lambda_max(A + E) - lambda~| <= tau
    is proved for the exact A + E by the residual bound and, for the upper
    side, Cauchy interlacing when ``read`` is given, else one Cholesky
    factorization (_top_eigenvalue_within); only when that proof is
    inconclusive does the dense oracle, top_eigpair(A + E), decide. Failures
    are recorded, never raised, except that the oracle raises
    InvalidSpectrumError when the top eigenvalue of A + E is not simple.

    ``read`` is solve's one read of E on the identity basis (_read_noise,
    whose beta is the gate's bound), made only when solve has proved A
    diagonal with a real diagonal. A~ u~ is then E u~ + a u~, a the diagonal
    of A, and A + E is formed only for the Cholesky proof or the oracle.
    Without it A + E is formed once, and the Cholesky proof factors it in
    place; the oracle, when reached, forms it again.

    orth_residual is ||U~_perp* A~ u~||_2 for any orthonormal basis U~_perp
    of u~'s complement, that is ||A~ u~ - u~ (u~* A~ u~)||_2 for unit u~.
    Both residuals take the max-rescaled lp_norm, so entries near 1e300 do
    not overflow the sum of squares.
    """
    u, lam = report.u_tilde, report.lambda_tilde
    if read is not None:
        M, a = E, A.diagonal().real
        w = _matvec(E, u) + a * u
    else:
        M, a = A + E, None
        w = _matvec(M, u)
    report.residual2 = lp_norm(w - lam * u, 2)
    report.orth_residual = lp_norm(w - u * np.vdot(u, w), 2)
    tau = _leading_tolerance(spectrum, lam)
    if not _above_midpoint(spectrum, lam):
        report.leading_certified = False
    elif report.method == "oracle-fallback":
        report.leading_certified = True
    elif _top_eigenvalue_within(M, a, lam, report.residual2, tau, read):
        report.leading_certified = True
    else:
        report.leading_certified = is_leading(spectrum, lam, top_eigpair(A + E)[0])
    return report


def _check_operands(
    A: np.ndarray, E: np.ndarray, eig: EigDecomposition | None
) -> _NoiseRead | None:
    """Raise ValueError unless A and E are valid operands and ``eig`` fits them.

    A and E must be nonempty, square and alike in shape, of a dtype that
    casts safely to complex128 (the dtypes numpy.linalg takes), finite and
    exactly self-adjoint, and of the order of ``eig``'s basis. On the
    identity basis A must be diag(eig.spectrum.lambdas) exactly. One read of
    A's off-diagonal entries proves it diagonal (_is_diagonal), after which
    its finiteness and self-adjointness are O(n) checks on its diagonal; E
    is then read once (_read_noise), which proves it finite and
    self-adjoint, and what that read bounds is returned for solve's gate and
    certificate. Otherwise E's finiteness and self-adjointness are checked
    by whole-matrix passes and None is returned. The messages come in the
    same order either way: A's and E's finiteness, A's self-adjointness, the
    shapes, the identity basis, E's order against the basis, E's
    self-adjointness. All of them come before any eigendecomposition. A
    non-identity ``eig`` is trusted, not checked.
    """
    for name, M in (("A", A), ("E", E)):
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
            raise ValueError(f"{name} must be a square matrix of order >= 1, got shape {M.shape}")
        if not np.can_cast(M.dtype, np.complex128):
            raise ValueError(f"{name} has dtype {M.dtype}, not safely castable to complex128")
    identity = eig is not None and eig.is_identity and A.shape == (eig.n, eig.n)
    diagonal = identity and _is_diagonal(A)
    if not np.all(np.isfinite(A.diagonal() if diagonal else A)):
        raise ValueError("A has non-finite entries")
    read = None
    if diagonal and E.shape == A.shape:
        tilde = E.astype(np.result_type(E, eig.basis), copy=False)
        read, finite, self_adjoint = _read_noise(tilde, eig.spectrum.lambdas)
    else:
        finite = bool(np.all(np.isfinite(E)))
    if not finite:
        raise ValueError("E has non-finite entries")
    if not (np.all(A.diagonal().imag == 0) if diagonal else is_hermitian(A)):
        raise ValueError("A is not exactly self-adjoint (M != M*)")
    if A.shape != E.shape:
        raise ValueError(f"A has shape {A.shape} but E has shape {E.shape}")
    if identity and not (diagonal and np.array_equal(A.diagonal(), eig.spectrum.lambdas)):
        raise ValueError("eig has the identity basis, but A is not diag(eig.spectrum.lambdas)")
    if eig is not None and E.shape != (eig.n, eig.n):
        raise ValueError(f"noise shape {E.shape} does not match basis dimension {eig.n}")
    if not (self_adjoint if read is not None else is_hermitian(E)):
        raise ValueError("E is not exactly self-adjoint (M != M*)")
    return read


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
    trusted, but E must have its order. All these checks come before any
    eigendecomposition. Then each stage runs once: the blocks of U* E U, the
    gate on the shifted gaps, the loop (solve_q), assembly and, with
    ``verify``, the residuals and the leading-eigenpair certificate. On the
    identity basis E is read once before the loop (_read_noise), on the
    calling thread and with no n x n temporary, which proves E finite and
    exactly self-adjoint, gives the gate's bound and bounds ||E||_F;
    verification then reads E only for E u~ and proves the
    pair leading by interlacing in O(n). Without ``eig`` the eigenbasis of A
    comes from hermitian_eig's core, which does not check A again, and
    verification forms A + E even when that basis is the identity. The gate
    is the padded weighted Frobenius norm ||D^{-1/2} E22 D^{-1/2}||_F
    (_weighted_frobenius_upper), an O(n^2) upper bound on the loop's
    contraction rate ||D^{-1/2} E22 D^{-1/2}||_2; when it exceeds
    ``certificate_cap`` solve raises ContractionFailureError and the loop
    does not run, so an input whose rate alone is under the cap may still
    fall back. On any PerturbError
    in that chain (gap collapse, contraction failure, divergence, a complex
    eigenvalue) solve falls back to the dense oracle's leading eigenpair,
    top_eigpair(A + E), tags the report method "oracle-fallback" and records
    the caught error as "<ErrorType>: <message>" in ``fallback_reason``
    (empty on "rs"), so pipelines never silently lose a trial. The fallback
    expands that eigenvector as (u1 + U_perp q) / sqrt(1 + ||q||^2), which
    needs its overlap with u1; when the overlap is at or below n eps, the
    rounding level of a computed overlap of two unit vectors, no such q can
    be told from a fabricated one and a PerturbError naming the overlap is
    raised instead. Either way the report carries the gate's bound (inf
    when the shifted gaps collapse). ``tol`` must be finite and positive
    and ``certificate_cap`` positive (inf allowed), else ValueError before
    any work on A or E. A top eigenvalue that is not simple, of A or of A + E
    where the oracle decides, raises InvalidSpectrumError.
    """
    _check_tol(tol)
    if not certificate_cap > 0.0:
        raise ValueError(f"certificate_cap must be positive, got {certificate_cap}")
    A, E = np.asarray(A), np.asarray(E)
    read = _check_operands(A, E, eig)
    if eig is None:
        eig = _decompose(A)  # hermitian_eig without a second check of A
    part = _blocks(eig, E)
    spectrum = eig.spectrum
    bound = math.inf
    try:
        d = build_shifted_gaps(spectrum, part.e11)
        bound = _weighted_frobenius_upper(part.e22, d) if read is None else read.beta
        if not bound <= certificate_cap:
            raise ContractionFailureError(
                f"iteration operator norm bound {bound:.4g} (weighted-frobenius) "
                f"exceeds cap {certificate_cap}"
            )
        q, iterations = solve_q(part, spectrum, tol=tol)
        u = assemble_eigvec(eig, q)
        lam = _eigenvalue_from_q(spectrum, part.e11, part.e12, q)
        method, reason = "rs", ""
    except PerturbError as err:
        lam, u = top_eigpair(A + E)
        head = complex(np.vdot(eig.leading_vector(), u))
        level = eig.n * np.finfo(np.float64).eps
        if not abs(head) > level:
            raise PerturbError(
                f"the top eigenvector of A + E has overlap |<u1, u>| = {abs(head):.3g} with u1, "
                f"at or below its rounding level {level:.3g}, so no q expands it; "
                f"fallback after {type(err).__name__}: {err}"
            ) from err
        u = u * (abs(head) / head)  # overlap with u1 real positive
        q = (eig.tail_basis().conj().T @ u) / abs(head)
        iterations = 0
        method, reason = "oracle-fallback", f"{type(err).__name__}: {err}"
    report = SolverReport(
        q=q,
        u_tilde=u,
        lambda_tilde=lam,
        iterations=iterations,
        contraction_upper=bound,
        coord_ratios=coordinate_bounds(q, spectrum),
        q_norm2=float(np.linalg.norm(q)),
        method=method,
        fallback_reason=reason,
    )
    if verify:
        _verify(A, E, report, spectrum, read)
    return report
