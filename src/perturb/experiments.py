"""Reproducible Monte Carlo campaigns over the random-perturbation claims.

Each experiment kind maps to one verifiable claim: per-coordinate upper
bounds, the arrowhead lower bound, the inconsistency construction, the
randomized Weyl domination, the Davis-Kahan comparison, mixed-norm scaling,
runtime event diagnostics, and the spiked-model phase transition. Trials are
independent with per-trial derived streams, so results are identical no
matter the execution order or thread count.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import arrowhead as arrow
from . import bounds, rs_solver
from .ensembles import (
    EntryDistribution,
    SpectrumSpec,
    derive_stream,
    realize_spectrum,
    sample_arrowhead_vector,
    sample_goe,
    sample_gue,
    sample_inconsistency_instance,
    sample_subgaussian_hermitian,
)
from .errors import GapCollapseError, NumericFailureError
from .matcore import (
    check_keys,
    dual_exponent,
    json_fields,
    lp_norm,
    operator_norm_exact,
    top_eigpair,
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SummaryStats",
    "EXPERIMENT_KINDS",
    "ENSEMBLE_TAGS",
    "run_experiment",
    "summarize",
    "export_records",
    "run_and_export",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign: its JSON form has exactly these field names as keys.

    ``ensemble`` is {"tag": ..., "params": {...}} (ENSEMBLE_TAGS), ``output``
    {"path": ..., "format": "csv" | "json"}; any other key is a ValueError.
    """

    kind: str
    spectrum: SpectrumSpec
    ensemble: dict
    n_list: tuple
    trials: int
    seed: int
    p: float = 2.0
    output: dict = field(default_factory=lambda: {"path": "out", "format": "csv"})

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials >= 1 required")
        if any(n < 2 for n in self.n_list):
            raise ValueError("every n must be >= 2")
        _noise_law(self.ensemble)
        check_keys(self.output, ("path", "format"), "output")
        fmt = self.output.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValueError(f"output format must be 'csv' or 'json', got {fmt!r}")

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        """Config from its JSON form; "seed" is an int or {"master": int}."""
        check_keys(obj, [f.name for f in fields(ExperimentConfig)], "experiment config")
        seed = obj.get("seed", 0)
        if isinstance(seed, dict):
            check_keys(seed, ("master",), "seed")
            seed = seed.get("master", 0)
        return ExperimentConfig(
            kind=obj["kind"],
            spectrum=SpectrumSpec.from_dict(obj.get("spectrum", {"family": "multiscale"})),
            ensemble=dict(obj.get("ensemble", {"tag": "goe"})),
            n_list=tuple(int(n) for n in obj["n_list"]),
            trials=int(obj["trials"]),
            seed=int(seed),
            p=float(obj.get("p", 2.0)),
            output=dict(obj.get("output", {"path": "out", "format": "csv"})),
        )

    def to_dict(self) -> dict:
        return {**json_fields(self), "seed": {"master": self.seed}}


@dataclass(frozen=True)
class TrialRecord:
    kind: str
    n: int
    trial_index: int
    stream: int
    statistics: dict

    def to_dict(self) -> dict:
        return json_fields(self)


@dataclass(frozen=True)
class SummaryStats:
    """Per (kind, n) summaries, exactly recomputable from the records."""

    groups: tuple

    def to_dict(self) -> dict:
        return json_fields(self)


def _quantile(sorted_vals: np.ndarray, q: float) -> float:
    """Linear interpolation on sorted samples at fractional rank (m-1) q."""
    m = sorted_vals.size
    if m == 1:
        return float(sorted_vals[0])
    h = (m - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, m - 1)
    return float(sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo]))


def summarize(records: list[TrialRecord]) -> SummaryStats:
    """Count/mean/median/p95/p99 per statistic per (kind, n) group."""
    if not records:
        raise ValueError("no records to summarize")
    groups = {}
    for rec in records:
        groups.setdefault((rec.kind, rec.n), []).append(rec)
    out = []
    for (kind, n) in sorted(groups):
        bucket = groups[(kind, n)]
        stats = {}
        for name in sorted(bucket[0].statistics):
            vals = np.sort(np.array([r.statistics[name] for r in bucket], dtype=np.float64))
            entry = {
                "count": int(vals.size),
                "mean": float(vals.mean()),
                "p50": _quantile(vals, 0.50),
                "p95": _quantile(vals, 0.95),
                "p99": _quantile(vals, 0.99),
            }
            if np.all((vals == 0.0) | (vals == 1.0)):
                entry["frequency"] = float(vals.mean())
            stats[name] = entry
        out.append({"kind": kind, "n": n, "stats": stats})
    return SummaryStats(groups=tuple(out))


# ---------------------------------------------------------------------------
# Per-kind trial handlers
# ---------------------------------------------------------------------------

# The params each ensemble tag reads (see _draw_noise).
ENSEMBLE_TAGS = {
    "zero": (),  # diagnostic: exercises the pipeline with E = 0
    "goe": (),
    "gue": (),
    "subgaussian": ("dist", "trunc", "scalar"),
}


def _noise_law(ensemble: dict) -> tuple[str, dict]:
    """The ensemble's tag (default "goe") and params; ValueError on a key or param nothing reads."""
    check_keys(ensemble, ("tag", "params"), "ensemble")
    tag, params = ensemble.get("tag", "goe"), ensemble.get("params", {})
    if tag not in ENSEMBLE_TAGS:
        raise ValueError(f"unknown ensemble tag {tag!r}")
    check_keys(params, ENSEMBLE_TAGS[tag], f"ensemble tag {tag!r}")
    if "trunc" in params and params.get("dist") != "truncated_gaussian":
        raise ValueError("ensemble reads trunc only with dist truncated_gaussian")
    return tag, params


def _draw_noise(ensemble: dict, n: int, stream: int) -> np.ndarray:
    tag, params = _noise_law(ensemble)
    if tag == "zero":
        return np.zeros((n, n))
    if tag == "goe":
        return sample_goe(n, stream)
    if tag == "gue":
        return sample_gue(n, stream)
    dist = EntryDistribution(params.get("dist", "gaussian"), params.get("trunc", 3.0))
    return sample_subgaussian_hermitian(n, dist, params.get("scalar", "real"), stream)


def _diag_instance(cfg: ExperimentConfig, n: int):
    """Spectrum realized at size n, and A = diag(spectrum.lambdas)."""
    spectrum = realize_spectrum(cfg.spectrum.with_n(n))
    return spectrum, np.diag(spectrum.lambdas)


def _paper_norms(spectrum, E: np.ndarray, p: float) -> tuple[float, float]:
    """The paper's ||E22 D^{-1}||_p, from bounds.opnorm_pp_upper, and ||D^{-1} E21||_{p'}.

    A is diag(spectrum.lambdas), so the blocks are E's own. The first is a
    certified upper bound: exact at p in {1, inf}, proved by one Cholesky
    factorization at p = 2, interpolated at other p. It is a record
    statistic only. solve gates its loop on the padded
    ||D^{-1/2} E22 D^{-1/2}||_F, an upper bound on the loop's rate
    ||D^{-1/2} E22 D^{-1/2}||_2, which is at most this norm; the gate's bound
    itself may be above or below it. Both are inf when the shifted gaps collapse
    or the first cannot be computed.
    """
    try:
        d = rs_solver.build_shifted_gaps(spectrum, float(E[0, 0].real))
        cert = bounds.opnorm_pp_upper(E[1:, 1:] / d[np.newaxis, :], p)
    except (GapCollapseError, NumericFailureError):
        return math.inf, math.inf
    return cert, lp_norm(E[0, 1:].conj() / d, dual_exponent(p))


def _oracle_angle(spectrum, A: np.ndarray, E: np.ndarray):
    """top_eigpair(A + E), A diagonal: its eigenvalue, and its vector's sin-theta to u1 = e1 beside two bounds.

    The bounds are Davis-Kahan's and the paper's sin-theta bound. sin-theta
    is the norm of the top vector's component orthogonal to u1 (||v[1:]||_2
    up to rounding), which resolves angles far below the ~1.5e-8 floor of
    sqrt(1 - overlap^2).
    """
    lambda_max, top = top_eigpair(A + E)
    u1 = np.zeros(spectrum.n)
    u1[0] = 1.0
    return lambda_max, {
        "sin_theta": min(1.0, float(np.linalg.norm(top - u1 * np.vdot(u1, top)))),
        "dk_bound": bounds.davis_kahan_bound(spectrum, operator_norm_exact(E, 2)),
        "rs_bound": bounds.rs_sin_theta_bound(spectrum, 1.0),
    }


def _trial_upper_bound(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    spectrum, A = _diag_instance(cfg, n)
    E = _draw_noise(cfg.ensemble, n, stream)
    report = rs_solver.solve(spectrum.lambdas, E, verify=False)
    lambda_max, oracle = _oracle_angle(spectrum, A, E)
    q_norm = report.q_norm2
    return {
        "max_coord_ratio": float(report.coord_ratios.max()),
        "sin_theta": q_norm / math.sqrt(1.0 + q_norm * q_norm),
        "sin_theta_oracle": oracle["sin_theta"],
        "dk_bound": oracle["dk_bound"],
        "rs_bound": oracle["rs_bound"],
        "contraction_upper": _paper_norms(spectrum, E, cfg.p)[0],
        "q_norm2": q_norm,
        "certified": float(rs_solver.is_leading(spectrum, report.lambda_tilde, lambda_max)),
        "fallback": float(report.method == "oracle-fallback"),
    }


def _trial_lower_bound(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    spectrum = realize_spectrum(cfg.spectrum.with_n(n))
    g = sample_arrowhead_vector(n, stream)
    gamma = arrow.solve_gamma(spectrum, g)
    sol = arrow.arrowhead_eigvec(spectrum, g, gamma)
    holds, slack = arrow.lower_bound_check(sol, spectrum, g)
    resid = abs(gamma - float(np.sum(g * g / (spectrum.gaps() + gamma))))
    return {
        "lower_bound_holds": float(holds),
        "min_slack": slack,
        "gamma": gamma,
        "a_head": sol.a,
        "secular_residual": resid,
    }


def _trial_inconsistency(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    p = cfg.spectrum.params.get("p", cfg.p)
    A, E = sample_inconsistency_instance(n, p, stream)
    lam1 = float(A[0, 0])
    w = np.linalg.eigvalsh(A[1:, 1:] + E[1:, 1:])
    lam_max = float(w[-1])
    norm = max(abs(lam_max), abs(float(w[0])))
    return {
        "lambda_max_exceeds": float(lam_max > lam1),
        "lambda_max": lam_max,
        "lambda1": lam1,
        "tilde_norm_sq": norm * norm,
    }


def _weyl_mu(n: int) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=np.float64)
    return 10.0 * (n + 1 - j) * math.log(n) ** 3


def _trial_weyl(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    X = _draw_noise(cfg.ensemble, n, stream)
    holds, margin = bounds.verify_shifted_domination(X, _weyl_mu(n), tau=0.0)
    return {"domination_holds": float(holds), "margin": margin}


def _trial_dk_compare(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    spectrum, A = _diag_instance(cfg, n)
    E = _draw_noise(cfg.ensemble, n, stream)
    return _oracle_angle(spectrum, A, E)[1]


def _trial_opnorm_scaling(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    X = _draw_noise(cfg.ensemble, n, stream)
    val = bounds.opnorm_dual_lower(X, cfg.p, restarts=8, seed=stream)
    return {"opnorm_lower": val}


def _trial_event_diagnostics(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    spectrum = realize_spectrum(cfg.spectrum.with_n(n))
    E = _draw_noise(cfg.ensemble, n, stream)
    cert, d21 = _paper_norms(spectrum, E, cfg.p)
    return {
        "e_inf_ratio": float(np.abs(E).max()) / math.sqrt(math.log(n)),
        "cert_p": cert,
        "cert_le_half": float(cert <= 0.5),
        "d21_dual": d21,
        "d21_le_half": float(d21 <= 0.5),
    }


def _trial_phase_transition(cfg: ExperimentConfig, n: int, stream: int) -> dict:
    spectrum, A = _diag_instance(cfg, n)
    E = _draw_noise(cfg.ensemble, n, stream) / math.sqrt(n)  # edge-normalized noise
    lambda_max, top = top_eigpair(A + E)
    return {"overlap_sq": float(abs(top[0]) ** 2), "lambda_max": lambda_max}


EXPERIMENT_KINDS = {
    "upper_bound": _trial_upper_bound,
    "lower_bound": _trial_lower_bound,
    "inconsistency": _trial_inconsistency,
    "weyl": _trial_weyl,
    "dk_compare": _trial_dk_compare,
    "opnorm_scaling": _trial_opnorm_scaling,
    "event_diagnostics": _trial_event_diagnostics,
    "phase_transition": _trial_phase_transition,
}


def run_experiment(
    cfg: ExperimentConfig, threads: int = 1
) -> tuple[list[TrialRecord], SummaryStats]:
    """Execute every (n, trial) cell of the config; deterministic given cfg.

    Trials draw from streams derived as hash(master, n, trial_index), so the
    records do not depend on execution order or on ``threads``.
    """
    handler = EXPERIMENT_KINDS[cfg.kind]

    def one(task):
        n, t = task
        stream = derive_stream(cfg.seed, n, t)
        stats = handler(cfg, n, stream)
        return TrialRecord(
            kind=cfg.kind, n=n, trial_index=t, stream=stream,
            statistics={k: float(v) for k, v in stats.items()},
        )

    tasks = [(n, t) for n in cfg.n_list for t in range(cfg.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, tasks))
    else:
        records = [one(task) for task in tasks]
    records.sort(key=lambda r: (r.n, r.trial_index))
    return records, summarize(records)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def export_records(records: list[TrialRecord], fmt: str, path) -> None:
    """Write records as JSON or CSV from TrialRecord's fields; CSV spreads statistics by name."""
    if not records:
        raise ValueError("no records to export")
    if any(not r.statistics for r in records):
        raise ValueError("record with empty statistics map")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(json.dumps([r.to_dict() for r in records], indent=1) + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    columns = [f.name for f in fields(TrialRecord)][:-1]  # statistics: one column per name
    names = sorted(records[0].statistics)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns + names)
        for r in records:
            writer.writerow(
                [getattr(r, c) for c in columns] + [repr(float(r.statistics[k])) for k in names]
            )


def run_and_export(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Run the campaign and write records.<fmt> plus summary.json side by side."""
    records, summary = run_experiment(cfg, threads=threads)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = cfg.output.get("format", "csv")
    records_path = out_dir / f"records.{fmt}"
    export_records(records, fmt, records_path)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary.to_dict(), indent=1) + "\n")
    return {"records": str(records_path), "summary": str(summary_path)}
