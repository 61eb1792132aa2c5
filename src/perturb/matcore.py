"""Dense Hermitian matrix/vector arithmetic, lp norms, and the eigendecomposition oracle.

Everything downstream (the fixed-point solver, the secular solver, the Monte
Carlo harness) is validated against :func:`hermitian_eig`, so this module is
deliberately boring: dense float64/complex128 arrays, deterministic output.
"""

from __future__ import annotations

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
    "is_hermitian",
    "force_hermitian",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
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
    if p == math.inf or top == 0.0:
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


_HERMITIAN_TILE = 128


def is_hermitian(M: np.ndarray) -> bool:
    """Exact self-adjointness check (0 ulp); samplers construct by mirroring.

    Compares each tile of the upper triangle with the conjugate transpose of
    its mirror tile, so every read stays within a cache-sized block instead
    of striding down whole columns of M*.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    n, t = M.shape[0], _HERMITIAN_TILE
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
    t = _HERMITIAN_TILE
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
    NumericFailureError
        If the reconstruction residual exceeds 1e-10 * max(||M||_F, 1), which
        signals a failed factorization rather than roundoff. Both norms are
        max-rescaled (lp_norm), so the check holds for entries near overflow.
    InvalidSpectrumError
        If the top eigenvalue is not simple (or M is 1 x 1): the leading pair
        every caller reads is then undefined.
    """
    M = np.atleast_2d(np.asarray(M))
    if not is_hermitian(M):
        raise ValueError("hermitian_eig requires an exactly self-adjoint matrix")
    try:
        w, v = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    # Fix the free global phase of each column: largest-magnitude entry real positive.
    anchors = np.abs(v).argmax(axis=0)
    lead = v[anchors, np.arange(v.shape[1])]
    scale = np.where(np.abs(lead) == 0, 1.0, np.abs(lead) / np.where(lead == 0, 1.0, lead))
    v = v * scale
    if np.isrealobj(M):
        v = v.real

    resid = lp_norm((v * w) @ v.conj().T - M, 2)
    if resid > 1e-10 * max(lp_norm(M, 2), 1.0):
        raise NumericFailureError("eigendecomposition reconstruction failed", residual=resid)
    return EigDecomposition(spectrum=Spectrum(w), basis=v)


# ---------------------------------------------------------------------------
# JSON round-trips (CLI wire format)
# ---------------------------------------------------------------------------

def _encode_entries(a: np.ndarray):
    if np.iscomplexobj(a):
        return [[float(z.real), float(z.imag)] for z in a.ravel()]
    return [float(x) for x in a.ravel()]


def _decode_entries(entries, scalar: str) -> np.ndarray:
    if scalar == "complex":
        return np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    return np.asarray(entries, dtype=np.float64)


def matrix_to_json(M: np.ndarray) -> str:
    M = np.atleast_2d(np.asarray(M))
    scalar = "complex" if np.iscomplexobj(M) else "real"
    return json.dumps({"n": M.shape[0], "scalar": scalar, "entries": _encode_entries(M)})


def matrix_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    n = int(obj["n"])
    entries = _decode_entries(obj["entries"], obj["scalar"])
    if entries.size != n * n:
        raise ValueError(f"matrix JSON claims n={n} but carries {entries.size} entries")
    return entries.reshape(n, n)


def vector_to_json(v: np.ndarray) -> str:
    v = np.asarray(v)
    scalar = "complex" if np.iscomplexobj(v) else "real"
    return json.dumps({"len": int(v.size), "scalar": scalar, "entries": _encode_entries(v)})


def vector_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    entries = _decode_entries(obj["entries"], obj["scalar"])
    if entries.size != int(obj["len"]):
        raise ValueError("vector JSON length mismatch")
    return entries
