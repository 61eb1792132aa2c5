"""Inputs and reference values computed apart from perturb.

The samplers follow the conventions perturb documents (GOE: off-diagonal
N(0,1), diagonal N(0,2); GUE: off-diagonal real and imaginary parts N(0,1/2),
diagonal N(0,1); per-trial streams hashed by numpy's SeedSequence; the upper
triangle is drawn first, then the diagonal) but share no code with it. A change
inside perturb therefore cannot move a reference value along with the answer
it is compared against. The checks return the names of the properties that
failed, so an empty list means the output passed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

CERTIFICATE_CAP = 0.9  # perturb's documented default for the contraction certificate


def stream(*indices: int) -> int:
    """64-bit stream id hashed from integers, as perturb derives trial streams."""
    ss = np.random.SeedSequence([int(i) for i in indices])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(stream_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(int(stream_id)))


def _mirror(upper: np.ndarray, diag: np.ndarray) -> np.ndarray:
    n = diag.size
    out = np.zeros((n, n), dtype=upper.dtype)
    out[np.triu_indices(n, k=1)] = upper
    out = out + out.conj().T
    out[np.diag_indices(n)] = diag
    return out


def goe(n: int, stream_id: int) -> np.ndarray:
    rng = _rng(stream_id)
    upper = rng.standard_normal(n * (n - 1) // 2)
    return _mirror(upper, rng.standard_normal(n) * math.sqrt(2.0))


def gue(n: int, stream_id: int) -> np.ndarray:
    rng = _rng(stream_id)
    m = n * (n - 1) // 2
    upper = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    return _mirror(upper, rng.standard_normal(n))


def arrowhead_g(n: int, stream_id: int) -> np.ndarray:
    return _rng(stream_id).standard_normal(n - 1)


def haar_unitary(n: int, stream_id: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with R's diagonal phases removed."""
    rng = _rng(stream_id)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def multiscale(n: int, eps: float = 1.0) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=np.float64)
    return (n + 1 - j) * math.log(n) ** (2.0 + eps)


def inconsistency_spectrum(n: int, p: float) -> np.ndarray:
    jj = np.arange(1, n, dtype=np.float64)
    gaps = jj ** ((p - 2.0) / p) * n ** (1.0 / p) / math.log(n) ** 2
    lam1 = 3.0 * math.sqrt(n) + gaps[-1]
    return np.concatenate(([lam1], lam1 - gaps))


def lowrank(n: int, r: int, lambda1: float, delta: float) -> np.ndarray:
    lam = np.zeros(n)
    lam[:r] = lambda1 - delta * np.arange(r)
    return lam


def spectrum_of(spec: dict, n: int) -> np.ndarray:
    params = spec.get("params", {})
    family = spec["family"]
    if family == "multiscale":
        return multiscale(n, float(params.get("eps", 1.0)))
    if family == "lowrank":
        return lowrank(n, int(params["r"]), float(params["lambda1"]), float(params["delta"]))
    if family == "inconsistency":
        return inconsistency_spectrum(n, float(params["p"]))
    raise ValueError(f"no reference spectrum for family {family!r}")


# ---------------------------------------------------------------------------
# Solve checks
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    if isinstance(value, (bool, str)) or value is None:
        return True
    try:
        return bool(np.all(np.isfinite(np.asarray(value))))
    except TypeError:  # not numeric
        return True


def check_solve(report, M: np.ndarray, w: np.ndarray, V: np.ndarray, gap_collapsed: bool) -> list[str]:
    """Check one solve report for M = A + E against ``w, V = np.linalg.eigh(M)``.

    ``gap_collapsed`` says whether lambda1 - lambda_j + E11 <= 0 for some j,
    computed by the caller from A's known spectrum and eigenvector.
    """
    bad = []
    lam, u = float(report.lambda_tilde), np.asarray(report.u_tilde)
    lam_max, v_max = float(w[-1]), V[:, -1]
    if not abs(lam - lam_max) <= 1e-9 * (1.0 + abs(lam_max)):
        bad.append("eigenvalue")
    if not abs(float(np.linalg.norm(u)) - 1.0) <= 1e-10:
        bad.append("unit_vector")
    if not 1.0 - abs(complex(np.vdot(u, v_max))) <= 1e-9:
        bad.append("eigenvector")
    norm_m = float(np.abs(w).max())
    if not float(np.linalg.norm(M @ u - lam * u)) <= 1e-9 * norm_m:
        bad.append("residual")
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name == "contraction_upper" and gap_collapsed and value == math.inf:
            continue
        if not _finite(value):
            bad.append(f"finite:{f.name}")
    if report.leading_certified is not True:
        bad.append("leading_certified")
    cert = float(report.contraction_upper)
    if report.method == "rs" and not cert <= CERTIFICATE_CAP:
        bad.append("rs_certificate")
    elif report.method == "oracle-fallback" and not (cert > CERTIFICATE_CAP or gap_collapsed):
        bad.append("fallback_reason")
    elif report.method not in ("rs", "oracle-fallback"):
        bad.append("method")
    return bad


# ---------------------------------------------------------------------------
# Campaign checks, one record row at a time
# ---------------------------------------------------------------------------

def _eigvalsh_max(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(M)[-1])


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def _check_upper_bound(cfg, n, s, stats):
    if stats["fallback"] == 0.0 and not abs(stats["sin_theta"] - stats["sin_theta_oracle"]) <= 1e-8:
        return ["sin_theta"]
    return []


def _check_lower_bound(cfg, n, s, stats):
    g = arrowhead_g(n, s)
    lam = spectrum_of(cfg["spectrum"], n)
    gamma = stats["gamma"]
    limit = 1e-12 * max(gamma, 1.0)
    resid = abs(gamma - float(np.sum(g * g / (lam[0] - lam[1:] + gamma))))
    bad = []
    if not resid <= limit:
        bad.append("secular_residual_recomputed")
    if not stats["secular_residual"] <= limit:
        bad.append("secular_residual")
    return bad


def _check_weyl(cfg, n, s, stats):
    j = np.arange(1, n + 1, dtype=np.float64)
    mu = 10.0 * (n + 1 - j) * math.log(n) ** 3
    ref = float(np.linalg.eigvalsh(np.diag(mu) - goe(n, s))[0])
    bad = []
    if not abs(stats["margin"] - ref) <= 1e-12 * float(mu.max()):
        bad.append("margin")
    if stats["domination_holds"] != float(stats["margin"] >= 0.0):
        bad.append("domination_holds")
    return bad


def _check_opnorm_scaling(cfg, n, s, stats):
    X = goe(n, s)
    p = float(cfg["p"])
    best_column = float(np.linalg.norm(X, ord=p, axis=0).max())
    spectral = float(np.linalg.norm(X, 2))
    val = stats["opnorm_lower"]
    if not best_column * (1.0 - 1e-12) <= val <= spectral * (1.0 + 1e-12):
        return ["opnorm_lower"]
    return []


def _check_event_diagnostics(cfg, n, s, stats):
    if float(cfg["p"]) != 2.0:
        return []
    E = goe(n, s)
    lam = spectrum_of(cfg["spectrum"], n)
    d = lam[0] - lam[1:] + E[0, 0]
    ref = float(np.linalg.norm(E[1:, 1:] / d[np.newaxis, :], 2))
    return [] if stats["cert_p"] >= ref * (1.0 - 1e-10) else ["cert_p"]


def _check_inconsistency(cfg, n, s, stats):
    p = float(cfg["spectrum"].get("params", {}).get("p", cfg["p"]))
    lam = inconsistency_spectrum(n, p)
    ref = _eigvalsh_max(np.diag(lam[1:]) + goe(n - 1, s))
    bad = []
    if not _close(stats["lambda_max"], ref):
        bad.append("lambda_max")
    if not _close(stats["lambda1"], float(lam[0])):
        bad.append("lambda1")
    return bad


def _check_phase_transition(cfg, n, s, stats):
    lam = spectrum_of(cfg["spectrum"], n)
    ref = _eigvalsh_max(np.diag(lam) + goe(n, s) / math.sqrt(n))
    return [] if _close(stats["lambda_max"], ref) else ["lambda_max"]


def _check_dk_compare(cfg, n, s, stats):
    return [] if 0.0 <= stats["sin_theta"] <= 1.0 else ["sin_theta"]


RECORD_CHECKS = {
    "upper_bound": _check_upper_bound,
    "lower_bound": _check_lower_bound,
    "inconsistency": _check_inconsistency,
    "weyl": _check_weyl,
    "dk_compare": _check_dk_compare,
    "opnorm_scaling": _check_opnorm_scaling,
    "event_diagnostics": _check_event_diagnostics,
    "phase_transition": _check_phase_transition,
}


def check_record(cfg: dict, row: dict) -> list[str]:
    """Check one records-CSV row (strings keyed by column) of a GOE campaign config."""
    try:
        n, t = int(row["n"]), int(row["trial_index"])
        s = int(row["stream"])
        stats = {k: float(v) for k, v in row.items() if k not in ("kind", "n", "trial_index", "stream")}
        bad = []
        if row["kind"] != cfg["kind"]:
            bad.append("kind")
        if s != stream(cfg["seed"]["master"], n, t):
            bad.append("stream")
        if not all(math.isfinite(v) for v in stats.values()):
            bad.append("finite")
        return bad + RECORD_CHECKS[cfg["kind"]](cfg, n, s, stats)
    except (KeyError, ValueError) as exc:  # a column missing or not a number
        return [f"record_format:{exc}"]
