"""Samplers, seeded by an int stream, for every random model the verification harness uses.

All samplers are pure functions of (parameters, seed): replaying the same seed
yields bit-identical matrices. Hermitian symmetry is enforced by mirroring the
strict upper triangle, never by sampling both triangles.

Conventions recorded here because they are not canonical:

* GOE: off-diagonal entries N(0,1), diagonal N(0,2).
* GUE: off-diagonal real and imaginary parts each N(0, 1/2) (total variance 1,
  matching the GOE off-diagonal), diagonal real N(0,1).
* Generic subgaussian entries are sampled at unit variance. The theory assumes
  a psi_2 bound instead, but the concrete constructions it verifies use unit
  variance, so normalization is bookkeeping, not a rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpectrumError
from .matcore import Spectrum

__all__ = [
    "EntryDistribution",
    "SpectrumSpec",
    "derive_stream",
    "rng_from_stream",
    "realize_spectrum",
    "sample_subgaussian_hermitian",
    "sample_goe",
    "sample_gue",
    "sample_arrowhead_noise",
    "sample_arrowhead_vector",
    "sample_inconsistency_instance",
]


def derive_stream(master: int, *indices: int) -> int:
    """Derive a per-trial 64-bit stream id from the master seed.

    Uses numpy's SeedSequence hash so streams are order-independent: trial k
    gets the same generator no matter which trials ran before it.
    """
    ss = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0])


def rng_from_stream(stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(int(stream)))


@dataclass(frozen=True)
class EntryDistribution:
    """Unit-variance, mean-zero entry law for subgaussian noise matrices.

    tag: one of "gaussian", "rademacher", "uniform_pm1", "truncated_gaussian".
    truncated_gaussian(c) truncates N(0,1) to [-c, c] and rescales back to unit
    variance. ``bound`` records the almost-sure bound for the bounded tags
    (nan for gaussian).
    """

    tag: str
    trunc: float = 3.0
    bound: float = field(init=False)

    def __post_init__(self):
        if self.tag not in ("gaussian", "rademacher", "uniform_pm1", "truncated_gaussian"):
            raise ValueError(f"unknown entry distribution {self.tag!r}")
        if self.tag == "truncated_gaussian" and not self.trunc > 0:
            raise ValueError("truncation level must be positive")
        object.__setattr__(self, "bound", self._as_bound())

    def _as_bound(self) -> float:
        if self.tag == "rademacher":
            return 1.0
        if self.tag == "uniform_pm1":
            return math.sqrt(3.0)
        if self.tag == "truncated_gaussian":
            return self.trunc / self._trunc_std()
        return math.nan

    def _trunc_std(self) -> float:
        # Variance of N(0,1) conditioned on |x| <= c: 1 - 2c phi(c) / (2 Phi(c) - 1).
        c = self.trunc
        phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        mass = math.erf(c / math.sqrt(2.0))
        return math.sqrt(1.0 - 2.0 * c * phi / mass)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.tag == "gaussian":
            return rng.standard_normal(size)
        if self.tag == "rademacher":
            return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
        if self.tag == "uniform_pm1":
            return rng.uniform(-1.0, 1.0, size=size) * math.sqrt(3.0)
        draws = rng.standard_normal(size)
        # Redraw out-of-band entries; acceptance ~ erf(c/sqrt 2) so this terminates fast.
        while True:
            bad = np.abs(draws) > self.trunc
            if not bad.any():
                break
            draws[bad] = rng.standard_normal(int(bad.sum()))
        return draws / self._trunc_std()


@dataclass(frozen=True)
class SpectrumSpec:
    """Declarative spectrum family, realized by :func:`realize_spectrum`.

    families and params:
      explicit      {"lambdas": [...]}
      linear        {"scale": s}            lambda_j = (n+1-j) * s
      multiscale    {"eps": e}              lambda_j = (n+1-j) * (log n)^(2+e)
      lowrank       {"r": r, "lambda1": l, "delta": d}
      inconsistency {"p": p}                lambda_n = 3 sqrt(n), gaps j^((p-2)/p) n^(1/p) / log^2 n
    """

    family: str
    n: int
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(obj: dict, n: int | None = None) -> "SpectrumSpec":
        """Spec from its JSON form; n sizes a spec without "n" and must match one with it."""
        if n is not None and "n" in obj and int(obj["n"]) != n:
            raise ValueError(f"spectrum spec has n = {obj['n']}, but n = {n} was given")
        return SpectrumSpec(
            family=obj["family"],
            n=int(obj.get("n", n if n is not None else 0)),
            params=dict(obj.get("params", {})),
        )

    def to_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "params": dict(self.params)}

    def with_n(self, n: int) -> "SpectrumSpec":
        return SpectrumSpec(family=self.family, n=int(n), params=self.params)


def realize_spectrum(spec: SpectrumSpec) -> Spectrum:
    """Materialize a SpectrumSpec into a validated Spectrum."""
    n = spec.n
    if n < 2:
        raise InvalidSpectrumError("spectrum families need n >= 2")
    fam, prm = spec.family, spec.params
    j = np.arange(1, n + 1, dtype=np.float64)
    if fam == "explicit":
        return Spectrum(np.asarray(prm["lambdas"], dtype=np.float64))
    if fam == "linear":
        return Spectrum((n + 1 - j) * float(prm.get("scale", 1.0)))
    if fam == "multiscale":
        eps = float(prm.get("eps", 1.0))
        return Spectrum((n + 1 - j) * math.log(n) ** (2.0 + eps))
    if fam == "lowrank":
        r = int(prm["r"])
        lam1 = float(prm["lambda1"])
        delta = float(prm["delta"])
        if not 1 <= r <= n:
            raise InvalidSpectrumError(f"lowrank rank must be in [1, {n}]")
        lam = np.zeros(n)
        lam[:r] = lam1 - delta * np.arange(r)
        return Spectrum(lam)
    if fam == "inconsistency":
        p = float(prm["p"])
        if not 2.0 <= p < math.inf:
            raise InvalidSpectrumError("inconsistency family needs p in [2, inf)")
        # gaps lambda1 - lambda_{j+1} = j^((p-2)/p) n^(1/p) / log^2 n, anchored at
        # lambda_n = 3 sqrt(n). Defined for j >= 1 so the p=2 exponent 0 is safe.
        jj = np.arange(1, n, dtype=np.float64)
        gaps = jj ** ((p - 2.0) / p) * n ** (1.0 / p) / math.log(n) ** 2
        lam1 = 3.0 * math.sqrt(n) + gaps[-1]
        return Spectrum(np.concatenate(([lam1], lam1 - gaps)))
    raise ValueError(f"unknown spectrum family {fam!r}")


def _mirror(upper_strict: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Assemble an exactly Hermitian matrix from a strict upper triangle and a real diagonal."""
    n = diag.size
    out = np.zeros((n, n), dtype=upper_strict.dtype)
    iu = np.triu_indices(n, k=1)
    out[iu] = upper_strict
    out = out + out.conj().T
    out[np.diag_indices(n)] = diag
    return out


def sample_subgaussian_hermitian(
    n: int,
    dist: EntryDistribution,
    scalar: str = "real",
    seed: int = 0,
) -> np.ndarray:
    """Hermitian matrix with i.i.d. unit-variance entries above the diagonal.

    For complex scalar the real and imaginary parts above the diagonal are
    independent draws from ``dist``; the diagonal is always real.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    rng = rng_from_stream(seed)
    m = n * (n - 1) // 2
    if scalar == "complex":
        upper = dist.sample(rng, m) + 1j * dist.sample(rng, m)
        upper = upper.astype(np.complex128)
    elif scalar == "real":
        upper = dist.sample(rng, m)
    else:
        raise ValueError(f"scalar must be 'real' or 'complex', got {scalar!r}")
    diag = dist.sample(rng, n)
    return _mirror(upper, diag)


def sample_goe(n: int, seed: int = 0) -> np.ndarray:
    """GOE draw: real symmetric, off-diagonal N(0,1), diagonal N(0,2)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = rng_from_stream(seed)
    upper = rng.standard_normal(n * (n - 1) // 2)
    diag = rng.standard_normal(n) * math.sqrt(2.0)
    return _mirror(upper, diag)


def sample_gue(n: int, seed: int = 0) -> np.ndarray:
    """GUE draw, unitary-invariant: off-diagonal re,im ~ N(0, 1/2), diagonal N(0,1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = rng_from_stream(seed)
    m = n * (n - 1) // 2
    upper = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    diag = rng.standard_normal(n)
    return _mirror(upper.astype(np.complex128), diag)


def sample_arrowhead_vector(n: int, seed: int = 0) -> np.ndarray:
    """The vector g ~ N(0, I_{n-1}) of sample_arrowhead_noise, without its n x n matrix."""
    if n < 2:
        raise ValueError("n >= 2 required")
    rng = rng_from_stream(seed)
    return rng.standard_normal(n - 1)


def sample_arrowhead_noise(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rank-2 arrowhead perturbation: first row/column g ~ N(0, I_{n-1}), rest zero."""
    g = sample_arrowhead_vector(n, seed)
    E = np.zeros((n, n))
    E[0, 1:] = g
    E[1:, 0] = g
    return g, E


def sample_inconsistency_instance(
    n: int, p: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal A from the inconsistency spectrum plus noise confined to rows 2..n.

    E has zeros in its first row and column; its bottom-right (n-1)x(n-1)
    block is a GOE draw.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    spectrum = realize_spectrum(SpectrumSpec("inconsistency", n, {"p": float(p)}))
    A = np.diag(spectrum.lambdas)
    G = sample_goe(n - 1, seed)
    E = np.zeros((n, n))
    E[1:, 1:] = G
    return A, E
