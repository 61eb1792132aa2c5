"""Dense Hermitian matrix/vector arithmetic, lp norms, and the eigendecomposition oracle.

Everything downstream (the fixed-point solver, the secular solver, the Monte
Carlo harness) is validated against :func:`hermitian_eig`, so this module is
deliberately boring: dense float64/complex128 arrays, deterministic output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    """Spectral decomposition M = U diag(lambdas) U* with orthonormal columns u_j."""

    spectrum: Spectrum
    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.spectrum.n

    def leading_vector(self) -> np.ndarray:
        return self.basis[:, 0]

    def tail_basis(self) -> np.ndarray:
        """Columns u_2 .. u_n, the orthogonal complement of the leading vector."""
        return self.basis[:, 1:]


def lp_norm(v, p) -> float:
    """Vector norm (sum |v_j|^p)^(1/p); max |v_j| for p = inf.

    Accepts any p >= 1 including infinity. Uses a max-rescaled power sum so
    large p does not overflow.
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


def is_hermitian(M: np.ndarray) -> bool:
    """Exact self-adjointness check (0 ulp); samplers construct by mirroring."""
    M = np.asarray(M)
    return M.ndim == 2 and M.shape[0] == M.shape[1] and np.array_equal(M, M.conj().T)


def force_hermitian(M: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2, which is exactly self-adjoint in IEEE arithmetic."""
    M = np.asarray(M)
    return (M + M.conj().T) / 2.0


def operator_norm_exact(M, p) -> float:
    """Exact lp->lp operator norm for p in {1, 2, inf}.

    p=1 is the max column abs-sum, p=inf the max row abs-sum, and p=2 the
    largest singular value, computed from the eigendecomposition of M (when
    self-adjoint) or of M*M. Other exponents raise UnsupportedExponentError;
    callers wanting general p use bounds.opnorm_pp_upper.
    """
    M = np.atleast_2d(np.asarray(M))
    if p == 1:
        return float(np.abs(M).sum(axis=0).max())
    if p == math.inf:
        return float(np.abs(M).sum(axis=1).max())
    if p == 2:
        if M.shape[0] == M.shape[1] and is_hermitian(M):
            return float(np.abs(np.linalg.eigvalsh(M)).max())
        gram = M.conj().T @ M
        top = float(np.linalg.eigvalsh(force_hermitian(gram)).max())
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
        If the reconstruction residual exceeds 1e-10 * ||M||_F, which signals
        a failed factorization rather than roundoff.
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

    fro = float(np.linalg.norm(M, "fro"))
    resid = float(np.linalg.norm((v * w) @ v.conj().T - M, "fro"))
    if resid > 1e-10 * max(fro, 1.0):
        raise NumericFailureError("eigendecomposition reconstruction failed", residual=resid)

    if w.size >= 2 and w[0] > w[1]:
        spectrum = Spectrum(w)
    else:
        # Degenerate top eigenvalue: bypass the Spectrum guard so oracle callers
        # (e.g. norm computations) still get the factorization.
        spectrum = object.__new__(Spectrum)
        lam = np.asarray(w, dtype=np.float64)
        lam.setflags(write=False)
        object.__setattr__(spectrum, "lambdas", lam)
    return EigDecomposition(spectrum=spectrum, basis=v)


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
