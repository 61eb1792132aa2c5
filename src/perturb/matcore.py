"""Dense Hermitian matrix/vector arithmetic, lp norms, and the two eigen oracles.

Everything downstream (the fixed-point solver, the secular solver, the Monte
Carlo harness) is validated against these oracles, so this module is
deliberately boring: dense float64/complex128 arrays, deterministic output.
:func:`hermitian_eig` is the full eigendecomposition, used for the eigenbasis
of A. :func:`top_eigpair` is the leading eigenpair alone, from eigvalsh and
inverse iteration; it is the oracle for A + E, where every caller reads only
the top eigenvalue or its vector. :func:`cholesky_below` proves
lambda_max(H) < t by one Cholesky factorization; the solver's certificate
and bounds' spectral-norm bound both rest on it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSpectrumError, NumericFailureError, UnsupportedExponentError

__all__ = [
    "Spectrum",
    "EigDecomposition",
    "lp_norm",
    "dual_exponent",
    "operator_norm_exact",
    "hermitian_eig",
    "top_eigpair",
    "cholesky_below",
    "is_hermitian",
    "force_hermitian",
    "check_keys",
    "json_fields",
    "matrix_to_dict",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_dict",
    "vector_to_json",
]


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing eigenvalue list with a simple top eigenvalue.

    ``lambdas`` is stored as a read-only float64 array. Construction rejects
    lambda1 == lambda2 (the whole construction needs a simple top eigenvalue)
    and any increase along the list.
    """

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.ndim != 1 or lam.size < 2:
            raise InvalidSpectrumError("spectrum needs at least two eigenvalues")
        if not np.all(np.isfinite(lam)):
            raise InvalidSpectrumError("spectrum entries must be finite")
        if np.any(np.diff(lam) > 0):
            raise InvalidSpectrumError("eigenvalues must be nonincreasing")
        if not lam[0] > lam[1]:
            raise InvalidSpectrumError("top eigenvalue must be simple (lambda1 > lambda2)")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def n(self) -> int:
        return int(self.lambdas.size)

    @property
    def delta(self) -> float:
        """Eigengap lambda1 - lambda2."""
        return float(self.lambdas[0] - self.lambdas[1])

    def gaps(self) -> np.ndarray:
        """Vector of lambda1 - lambda_{j+1}, length n-1, all positive."""
        return self.lambdas[0] - self.lambdas[1:]


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition M = U diag(lambdas) U* with orthonormal columns u_j.

    ``basis`` must not be mutated after construction: is_identity is decided
    on first use and cached with the decomposition.
    """

    spectrum: Spectrum
    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.spectrum.n

    @cached_property
    def is_identity(self) -> bool:
        """True when the basis is exactly the identity, as for M diagonal and nonincreasing."""
        basis = self.basis
        return bool(np.all(basis.diagonal() == 1) and np.count_nonzero(basis) == basis.shape[0])

    def leading_vector(self) -> np.ndarray:
        return self.basis[:, 0]

    def tail_basis(self) -> np.ndarray:
        """Columns u_2 .. u_n, the orthogonal complement of the leading vector."""
        return self.basis[:, 1:]


def lp_norm(v, p) -> float:
    """Vector norm (sum |v_j|^p)^(1/p); max |v_j| for p = inf.

    Accepts any p >= 1 including infinity. Uses a max-rescaled power sum so
    large p and large entries do not overflow. A matrix counts as the vector
    of its entries (p = 2 gives the Frobenius norm).
    """
    v = np.asarray(v)
    if v.size == 0:
        raise ValueError("lp_norm of an empty vector")
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    mags = np.abs(v).astype(np.float64, copy=False)
    top = float(mags.max())
    if p == math.inf or not 0.0 < top < math.inf:  # 0, inf and nan are the norm
        return top
    if p == 1:
        return float(mags.sum())
    return top * float(np.sum((mags / top) ** p)) ** (1.0 / p)


def dual_exponent(p) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1; dual(1) = inf, dual(inf) = 1."""
    if p < 1:
        raise ValueError(f"dual_exponent requires p >= 1, got {p}")
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


# Side of the square tiles in which is_hermitian, force_hermitian and
# rs_solver._tile_sums read a matrix: a tile and its mirror stay in cache.
_TILE = 128


def is_hermitian(M: np.ndarray) -> bool:
    """Exact self-adjointness check (0 ulp); samplers construct by mirroring.

    Compares each tile of the upper triangle with the conjugate transpose of
    its mirror tile, so every read stays within a cache-sized block instead
    of striding down whole columns of M*.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    n, t = M.shape[0], _TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(M[i:i + t, j:j + t], M[j:j + t, i:i + t].conj().T):
                return False
    return True


def force_hermitian(M: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2, which is exactly self-adjoint in IEEE arithmetic.

    Large square matrices are done tile by tile, like is_hermitian; every
    entry comes from the same expression either way.
    """
    M = np.asarray(M)
    t = _TILE
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] <= t:
        return (M + M.conj().T) / 2.0
    n = M.shape[0]
    out = np.empty(M.shape, dtype=np.result_type(M, 2.0))
    for i in range(0, n, t):
        for j in range(0, n, t):
            out[i:i + t, j:j + t] = (M[i:i + t, j:j + t] + M[j:j + t, i:i + t].conj().T) / 2.0
    return out


def operator_norm_exact(M, p) -> float:
    """Exact lp->lp operator norm for p in {1, 2, inf}.

    p=1 is the max column abs-sum, p=inf the max row abs-sum, and p=2 the
    largest singular value, computed from the eigendecomposition of M (when
    self-adjoint) or of M*M. Other exponents raise UnsupportedExponentError;
    callers wanting general p use bounds.opnorm_pp_upper. An eigensolver
    failure (e.g. on overflowed entries) raises NumericFailureError.
    """
    M = np.atleast_2d(np.asarray(M))
    if p == 1:
        return float(np.abs(M).sum(axis=0).max())
    if p == math.inf:
        return float(np.abs(M).sum(axis=1).max())
    if p == 2:
        try:
            if M.shape[0] == M.shape[1] and is_hermitian(M):
                return float(np.abs(np.linalg.eigvalsh(M)).max())
            gram = M.conj().T @ M
            top = float(np.linalg.eigvalsh(force_hermitian(gram)).max())
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"spectral norm eigensolver failed: {exc}") from exc
        return math.sqrt(max(top, 0.0))
    raise UnsupportedExponentError(f"exact operator norm only at p in {{1, 2, inf}}, got {p}")


def _hermitian_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for square factors whose exact product is Hermitian, built exactly Hermitian from 3/4 of it.

    With h = n // 2, the rows above h are X[:h] Y and the block below and
    right of h is X[h:] Y[:, h:]. Every entry below the diagonal is then the
    conjugate of its mirror above it, as it is in the exact product, and the
    diagonal keeps its real part: so the result is exactly Hermitian with a
    real diagonal, each entry a computed entry of X @ Y or its conjugate,
    with no arithmetic beyond the products (no sum of mirrors to overflow).
    """
    n = X.shape[0]
    h = n // 2
    out = np.empty((n, n), dtype=np.result_type(X, Y))
    np.matmul(X[:h], Y, out=out[:h])
    np.matmul(X[h:], Y[:, h:], out=out[h:, h:])
    out[h:, :h] = out[:h, h:].conj().T
    for block in (slice(0, h), slice(h, n)):
        B = out[block, block]  # masked: reads the strict upper triangle, writes the lower
        np.copyto(B, B.conj().T, where=np.tri(B.shape[0], k=-1, dtype=bool))
    if np.iscomplexobj(out):
        np.fill_diagonal(out.imag, 0.0)
    return out


def _frobenius(M: np.ndarray) -> float:
    """||M||_F from one dot product per row of M, or from lp_norm(M, 2) when that sum lost range.

    The sum of squares is kept when it is finite and at least N tiny, N the
    number of entries: its squares that underflowed then changed it by at
    most N 2^-1074 (half a subnormal spacing per real square, two per
    complex entry), at most eps relative. Otherwise (an overflowing square,
    entries below about 1e-154, or a NaN) the max-rescaled lp_norm decides.
    Each row's np.vecdot sums its c real squares (c its length, doubled
    when complex) and the sum of the r row totals adds r terms; every term
    is nonnegative, so the result errs by at most gamma_{c + r} relative in
    any order of summation, fused multiply-adds allowed (Higham, sec. 3.1).
    Unlike one np.vdot of the whole matrix, the row products do not start
    BLAS threads: on a 512 x 512 complex M, np.vdot took ~8 ms in 3 of 6
    fresh processes and the row sum 0.20-0.23 ms in all 6 (2-core VM,
    numpy 2.4.6).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # lp_norm decides then
        s = float(np.vecdot(M, M).real.sum())
    if math.isfinite(s) and s >= M.size * np.finfo(np.float64).tiny:
        return math.sqrt(s)
    return lp_norm(M, 2)


def cholesky_below(H: np.ndarray, t: float, max_shift: float = math.inf) -> bool:
    """True when lambda_max(H) < t is proved by one Cholesky factorization; False when inconclusive.

    H is Hermitian (m x m, one triangle read) and is overwritten by
    M = (t - s) I - H, with s = 2 (m+2) u trace(t I - H) and u = eps/2. If
    the factorization of M runs to completion, its factor R satisfies
    R* R = M + dM with ||dM||_2 <= (m+1) u trace(M) / (1 - (m+1) u)
    (Demmel's backward-error bound, the one Rump's isspd relies on), so
    lambda_min(M) > -s and lambda_max(H) < t. s is twice that bound to first
    order, which absorbs the second-order terms and the rounding of the two
    diagonal shifts. Assumes no underflow. Returns False without factorizing
    unless 0 <= s < max_shift.
    """
    m = H.shape[0]
    pad = 2.0 * (m + 2) * (np.finfo(np.float64).eps / 2.0)
    np.negative(H, out=H)
    H.flat[:: m + 1] += t
    s = pad * float(H.diagonal().real.sum())
    if not 0.0 <= s < max_shift:
        return False
    H.flat[:: m + 1] -= s
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def hermitian_eig(M: np.ndarray) -> EigDecomposition:
    """Dense eigendecomposition oracle with deterministic output.

    Parameters
    ----------
    M : ndarray
        Self-adjoint matrix (exactly: M == M*), real or complex.

    Returns
    -------
    EigDecomposition
        Eigenvalues sorted descending (ties broken by original LAPACK order),
        orthonormal eigenvectors, each column phased so that its
        largest-magnitude entry is real positive.

    Raises
    ------
    ValueError
        If M is not exactly self-adjoint.
    NumericFailureError
        If the reconstruction residual exceeds 1e-10 ||M||_F, which signals a
        failed factorization rather than roundoff at any scale of M. Both
        norms fall back to the max-rescaled lp_norm when a sum of squares
        overflows or underflows (_frobenius), so the check holds for entries
        near either end of the float range.
    InvalidSpectrumError
        If the top eigenvalue is not simple (or M is 1 x 1): the leading pair
        every caller reads is then undefined.
    """
    M = np.atleast_2d(np.asarray(M))
    if not is_hermitian(M):
        raise ValueError("hermitian_eig requires an exactly self-adjoint matrix")
    return _decompose(M)


def _decompose(M: np.ndarray) -> EigDecomposition:
    """hermitian_eig of an M already proved exactly self-adjoint.

    eigh returns its eigenvalues nondecreasing, so when they increase
    strictly, reversing the columns is the order argsort(-w, kind="stable")
    gives; only ties need that sort. The columns are ordered and phased in
    one product. The reconstruction U diag(w) U* is Hermitian whatever U
    eigh returns, and M is exactly Hermitian, so the residual's lower
    triangle mirrors its upper one: 3/4 of the product
    (_hermitian_product) decides the check as the whole would, and the
    residual is formed from it in place.
    """
    try:
        w, v = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition did not converge: {exc}") from exc
    order = slice(None, None, -1) if np.all(w[1:] > w[:-1]) else np.argsort(-w, kind="stable")
    # Fix the free global phase of each column: largest-magnitude entry real positive.
    anchors = np.abs(v).argmax(axis=0)
    lead = v[anchors, np.arange(v.shape[1])]
    scale = np.where(np.abs(lead) == 0, 1.0, np.abs(lead) / np.where(lead == 0, 1.0, lead))
    w, v = w[order], v[:, order] * scale[order]
    if np.isrealobj(M):
        v = v.real

    residual = _hermitian_product(v * w, v.conj().T)
    residual -= M
    resid = _frobenius(residual)
    if resid > 1e-10 * _frobenius(M):
        raise NumericFailureError("eigendecomposition reconstruction failed", residual=resid)
    return EigDecomposition(spectrum=Spectrum(w), basis=v)


# Inverse-iteration solves top_eigpair makes at most; one or two is the usual count.
_INVERSE_SOLVES = 3
# Shifts top_eigpair tries, sigma = lambda + 2^k eps ||M||_2 for k < _SHIFTS;
# the next one only when the LU of M - sigma I meets an exactly zero pivot.
_SHIFTS = 4
# Seed of top_eigpair's fixed Gaussian start vector.
_START_SEED = 0x7E1


def top_eigpair(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue and unit eigenvector of a self-adjoint M, without the other eigenvectors.

    M is first scaled by the power of two that brings its largest entry into
    [1, 2) (a subnormal one by 2^1022 only), which is exact, so inputs from
    1e-300 to 1e300 are solved as their unit-scale copies are and no norm
    below can overflow. The eigenvalue lambda is the largest of
    np.linalg.eigvalsh(M). The vector comes from inverse iteration, solves
    of (M - sigma I) x = b with sigma = lambda + eps ||M||_2, the next float
    or more above lambda. When the LU of M - sigma I meets an exactly zero
    pivot, sigma moves up to lambda + 2^k eps ||M||_2 for k = 1, 2, 3 in
    turn; the residual test below judges the vector whatever the shift. The
    first b is e_k, k the first index of the largest diagonal entry, plus a
    fixed Gaussian vector of norm about 1 on the rows that have a nonzero
    off-diagonal entry. So an exactly diagonal M gets b = e_k, a diagonal
    M - sigma I with no zero entry, and the vector e_k exactly. Iteration
    stops once the unit x has ||M x - (x* M x) x||_2 <= sqrt(n) eps ||M||_2,
    the rounding level of the product M x, or after _INVERSE_SOLVES solves.

    Keeps hermitian_eig's contract for the pair it returns: the vector's
    largest-magnitude entry is real positive, a real M gives a real vector,
    and output is deterministic. Raises ValueError unless M is exactly
    self-adjoint; InvalidSpectrumError unless the top eigenvalue is simple
    (or if M is 1 x 1); NumericFailureError when an entry is not finite,
    when eigvalsh fails, when every shift meets a zero pivot, when lambda
    overflows the float range, or when ||M u - lambda u||_2 exceeds
    1e-10 ||M||_F (_frobenius: one np.vecdot per row, not one threaded BLAS
    call over all n^2 entries), hermitian_eig's reconstruction threshold
    applied to this one pair.
    """
    M = np.atleast_2d(np.asarray(M))
    if not is_hermitian(M):
        raise ValueError("top_eigpair requires an exactly self-adjoint matrix")
    n = M.shape[0]
    if n < 2:
        raise InvalidSpectrumError("the top eigenvalue of a 1 x 1 matrix has no gap")
    big = float(np.abs(M).max())
    if not math.isfinite(big):
        raise NumericFailureError("top_eigpair requires finite entries")
    exponent = max(math.frexp(big)[1] - 1, -1022) if big > 0.0 else 0
    M = M * math.ldexp(1.0, -exponent)
    try:
        w = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigenvalue solver did not converge: {exc}") from exc
    lam = float(w[-1])
    if not lam > float(w[-2]):
        raise InvalidSpectrumError("top eigenvalue must be simple (lambda1 > lambda2)")
    eps = np.finfo(np.float64).eps
    norm2 = max(abs(lam), abs(float(w[0])))
    diag = M.diagonal()
    coupled = np.count_nonzero(M, axis=1) > (diag != 0)
    start = np.random.default_rng(_START_SEED).standard_normal(n) / math.sqrt(n)
    b = np.where(coupled, start, 0.0)
    b[int(np.argmax(diag.real))] += 1.0
    shifted = M.copy()
    shifted.flat[:: n + 1] -= lam + eps * norm2
    k = solves = 0
    while solves < _INVERSE_SOLVES:
        try:
            x = np.linalg.solve(shifted, b)
        except np.linalg.LinAlgError as exc:
            k += 1
            if k == _SHIFTS:
                raise NumericFailureError(f"inverse iteration solve failed: {exc}") from exc
            shifted.flat[:: n + 1] = diag - (lam + math.ldexp(eps, k) * norm2)
            continue
        solves += 1
        b = x / np.linalg.norm(x)
        Mb = M @ b
        if np.linalg.norm(Mb - np.vdot(b, Mb).real * b) <= math.sqrt(n) * eps * norm2:
            break
    resid = float(np.linalg.norm(Mb - lam * b))
    if not resid <= 1e-10 * _frobenius(M):
        raise NumericFailureError("inverse iteration residual too large", residual=resid)
    try:
        lam = math.ldexp(lam, exponent)
    except OverflowError as exc:
        raise NumericFailureError("top eigenvalue overflows the float range") from exc
    anchor = b[int(np.abs(b).argmax())]
    return lam, b * (abs(anchor) / anchor)


# ---------------------------------------------------------------------------
# JSON form (CLI wire format, reports and records)
# ---------------------------------------------------------------------------

def _encode_entries(a: np.ndarray):
    if np.iscomplexobj(a):
        return [[float(z.real), float(z.imag)] for z in a.ravel()]
    return [float(x) for x in a.ravel()]


def _decode_entries(entries, scalar: str) -> np.ndarray:
    if scalar == "complex":
        return np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    if scalar == "real":
        return np.asarray(entries, dtype=np.float64)
    raise ValueError(f"scalar must be 'real' or 'complex', got {scalar!r}")


def _json_value(v):
    if isinstance(v, np.ndarray):
        return _encode_entries(v)
    if dataclasses.is_dataclass(v):
        return json_fields(v)
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def json_fields(obj) -> dict:
    """A dataclass's fields in declaration order, as JSON-ready values.

    Arrays become their entries (complex ones as [re, im], as in
    matrix_to_json) and nested dataclasses dicts; dicts, lists and tuples
    are copied.
    """
    return {f.name: _json_value(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def check_keys(obj: dict, allowed, what: str) -> None:
    """Raise ValueError if ``obj`` has a key outside ``allowed``: nothing would read it."""
    unread = sorted(set(obj) - set(allowed))
    if unread:
        raise ValueError(f"{what} does not read {', '.join(map(repr, unread))}; "
                         f"it reads {', '.join(map(repr, allowed)) or 'no keys'}")


def matrix_to_dict(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M))
    scalar = "complex" if np.iscomplexobj(M) else "real"
    return {"n": M.shape[0], "scalar": scalar, "entries": _encode_entries(M)}


def matrix_to_json(M: np.ndarray) -> str:
    return json.dumps(matrix_to_dict(M))


def matrix_from_json(text: str) -> np.ndarray:
    """Square matrix from matrix_to_json's form; ValueError on an unknown scalar or size."""
    obj = json.loads(text)
    n = int(obj["n"])
    entries = _decode_entries(obj["entries"], obj["scalar"])
    if entries.size != n * n:
        raise ValueError(f"matrix JSON claims n={n} but carries {entries.size} entries")
    return entries.reshape(n, n)


def vector_to_dict(v: np.ndarray) -> dict:
    v = np.asarray(v)
    scalar = "complex" if np.iscomplexobj(v) else "real"
    return {"len": int(v.size), "scalar": scalar, "entries": _encode_entries(v)}


def vector_to_json(v: np.ndarray) -> str:
    return json.dumps(vector_to_dict(v))
