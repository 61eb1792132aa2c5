"""Exception types shared across the package.

Plain argument validation raises ValueError; the classes here mark numeric
events a caller may want to catch and recover from (e.g. by falling back to
the dense oracle).
"""


class PerturbError(Exception):
    """Base class for numeric failures raised by this package."""


class InvalidSpectrumError(PerturbError):
    """Eigenvalue list violates the spectrum contract (lambda1 must be simple)."""


class UnsupportedExponentError(PerturbError):
    """Exact p-operator norm requested outside p in {1, 2, inf}."""


class NumericFailureError(PerturbError):
    """An iterative routine failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class GapCollapseError(PerturbError):
    """Shifted gap lambda1 - lambda_j + E11 is nonpositive; construction breaks down."""


class ContractionFailureError(PerturbError):
    """Iteration operator is not certified contracting; carries the norm bound."""

    def __init__(self, message: str, certified_norm: float = float("nan")):
        super().__init__(message)
        self.certified_norm = certified_norm


class NonConvergenceError(PerturbError):
    """Fixed-point iteration diverged or hit its step cap; carries the norm bound."""

    def __init__(self, message: str, certified_norm: float = float("nan")):
        super().__init__(message)
        self.certified_norm = certified_norm


class InconsistentEigenvalueError(PerturbError):
    """Assembled eigenvalue has a nonvanishing imaginary part."""
