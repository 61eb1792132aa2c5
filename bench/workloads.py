"""The three workloads: solve_diag, solve_dense and campaign.

``setup`` imports perturb afresh, builds the inputs from the seed and runs one
warm-up operation. ``run_round`` then runs the same operations every time and
adds their timings and check results to a Tally. The program only ever sees
the generated inputs; the reference values come from ``independent``.
"""

from __future__ import annotations

import csv
import importlib
import json
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import independent as ref

LAYERS = ("matcore", "ensembles", "bounds", "rs_solver", "arrowhead", "experiments", "cli")


def import_perturb(src: Path) -> dict:
    """Import perturb from ``src`` afresh; return the package and its layers by short name."""
    for name in [m for m in sys.modules if m == "perturb" or m.startswith("perturb.")]:
        del sys.modules[name]
    package = importlib.import_module("perturb")
    if Path(package.__file__).resolve().parent != (src / "perturb").resolve():
        raise ImportError(f"perturb was imported from {package.__file__}, not from {src}")
    modules = {"perturb": package}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"perturb.{layer}")
    return modules


@dataclass
class Tally:
    """What one phase of a run attempted, how it went, and how long it took.

    ``solve_s`` and ``eigh_s`` map an input's index to the times of its solves
    and of the bare ``np.linalg.eigh`` yardstick on the same matrix.
    ``trials`` counts completed operations and ``work_s`` their wall time;
    ``round_rates`` holds each round's operations per second of work time.
    """

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    solve_s: dict = field(default_factory=lambda: defaultdict(list))
    eigh_s: dict = field(default_factory=lambda: defaultdict(list))
    trials: int = 0
    work_s: float = 0.0
    round_rates: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1, checks: list | None = None) -> None:
        """Count failed operations; ``checks`` names the output checks they failed."""
        self.failed += count
        if checks:
            self.wrong.append(f"{what}: {', '.join(checks)}")

    def raised(self, what: str, count: int = 1) -> None:
        sys.stderr.write(f"# {what} raised:\n{traceback.format_exc()}")
        self.fail(what, count)


def _median_mean(times: dict) -> float:
    """Mean over inputs of each input's median time."""
    return float(np.mean([np.median(v) for v in times.values()]))


def end_to_end(tally: Tally, setup_s: list[float], peak_rss_mb: float) -> dict:
    """End-to-end metric values of one untraced phase.

    solve_p50_s takes, for each input, the median of its solve times over the
    rounds and averages those medians over the inputs, so that both paths of
    a mixed input set count. solve_vs_eigh divides it by the same statistic
    of the bare eigh. campaign_trials_per_s is the median over rounds of a
    round's trials per second; a solve counts as one trial on the solve
    workloads.
    """
    solve = _median_mean(tally.solve_s)
    return {
        "setup_s": float(np.median(setup_s)),
        "solve_p50_s": solve,
        "solve_vs_eigh": solve / _median_mean(tally.eigh_s),
        "campaign_trials_per_s": float(np.median(tally.round_rates)),
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# solve_diag and solve_dense
# ---------------------------------------------------------------------------

@dataclass
class _Case:
    A: np.ndarray
    E: np.ndarray
    gap_collapsed: bool
    kwargs: dict


class _SolveWorkload:
    """rs_solver.solve on a fixed set of inputs, each followed by np.linalg.eigh(A + E).

    The eigh result is both the yardstick and the oracle the solve is
    checked against.
    """

    ID = 0

    def __init__(self, seed: int, src: Path, out: Path):
        self.seed, self.src = seed, src

    def setup(self) -> None:
        self.modules = import_perturb(self.src)
        self.cases = self.build()
        self._solve(self.cases[0])

    def build(self) -> list[_Case]:
        raise NotImplementedError

    def _noise_stream(self, k: int) -> int:
        return ref.stream(self.seed, self.ID, k)

    def _solve(self, case: _Case):
        return self.modules["rs_solver"].solve(case.A, case.E, **case.kwargs)

    def run_round(self, tally: Tally) -> None:
        for k, case in enumerate(self.cases):
            tally.attempted += 1
            start = time.perf_counter()
            try:
                report = self._solve(case)
            except Exception:
                tally.raised(f"solve on input {k}")
                continue
            solved = time.perf_counter()
            w, V = np.linalg.eigh(case.A + case.E)
            tally.eigh_s[k].append(time.perf_counter() - solved)
            tally.solve_s[k].append(solved - start)
            tally.trials += 1
            tally.work_s += solved - start
            bad = ref.check_solve(report, case.A + case.E, w, V, case.gap_collapsed)
            if bad:
                tally.fail(f"solve on input {k}", checks=bad)


class SolveDiag(_SolveWorkload):
    """Diagonal multiscale A with the identity eigenbasis passed in, GOE noise, n = 1024."""

    ID = 1
    N = 1024
    INPUTS = 4

    def build(self) -> list[_Case]:
        matcore = self.modules["matcore"]
        lam = ref.multiscale(self.N)
        A = np.diag(lam)
        eig = matcore.EigDecomposition(spectrum=matcore.Spectrum(lam), basis=np.eye(self.N))
        cases = []
        for k in range(self.INPUTS):
            E = ref.goe(self.N, self._noise_stream(k))
            collapsed = bool((lam[0] - lam[1:]).min() + E[0, 0] <= 0)
            cases.append(_Case(A, E, collapsed, {"eig": eig, "verify": True}))
        return cases


class SolveDense(_SolveWorkload):
    """Complex Hermitian A = Q diag(lambda) Q* with a Haar unitary Q, scaled GUE noise, n = 512.

    Noise scales alternate around the contraction cap of 0.9: at 8.5 the
    certificate sits near 0.8 (rs path, slow contraction), at 12 near 1.1
    (oracle-fallback path). Two scales instead of one at the cap keep the
    rs/fallback mix the same for every seed.
    """

    ID = 2
    N = 512
    SCALES = (8.5, 12.0, 8.5, 12.0)

    def build(self) -> list[_Case]:
        lam = ref.multiscale(self.N)
        Q = ref.haar_unitary(self.N, ref.stream(self.seed, self.ID, len(self.SCALES)))
        A = (Q * lam) @ Q.conj().T
        A = (A + A.conj().T) / 2.0  # exactly Hermitian, as solve requires
        top = Q[:, 0]
        cases = []
        for k, scale in enumerate(self.SCALES):
            E = scale * ref.gue(self.N, self._noise_stream(k))
            e11 = float(np.vdot(top, E @ top).real)
            collapsed = bool((lam[0] - lam[1:]).min() + e11 <= 0)
            cases.append(_Case(A, E, collapsed, {}))
        return cases


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

_MULTISCALE = {"family": "multiscale", "params": {"eps": 1.0}}

# (kind, spectrum, n_list, trials, p). Trial counts give each kind a similar
# share of the round time; see README.md for the measured shares.
CAMPAIGN = [
    ("upper_bound", _MULTISCALE, [256], 10, 2.0),
    ("lower_bound", _MULTISCALE, [1024], 300, 2.0),
    ("inconsistency", {"family": "inconsistency", "params": {"p": 3.0}}, [256], 60, 2.0),
    ("weyl", _MULTISCALE, [256], 60, 2.0),
    ("dk_compare", _MULTISCALE, [256], 20, 2.0),
    ("opnorm_scaling", _MULTISCALE, [64, 128], 2, 2.0),
    ("event_diagnostics", _MULTISCALE, [256], 40, 2.0),
    ("phase_transition", {"family": "lowrank", "params": {"r": 1, "lambda1": 3.0, "delta": 3.0}}, [256], 30, 2.0),
]
WARMUP_CONFIG = 3  # weyl, about 0.3 s


class Campaign:
    """In-process ``perturb exp`` over CAMPAIGN, each config writing records.csv and summary.json.

    Round one checks every record against independent recomputation; later
    rounds must reproduce round one's files byte for byte. The solves inside
    upper_bound trials are timed through a wrapper on ``rs_solver.solve``, and
    the bare eigh on the same matrices right after the upper_bound config.
    """

    ID = 3

    def __init__(self, seed: int, src: Path, out: Path):
        self.seed, self.src = seed, src
        self.dir = out / "campaign"

    def setup(self) -> None:
        self.modules = import_perturb(self.src)
        self.configs = []
        for i, (kind, spectrum, n_list, trials, p) in enumerate(CAMPAIGN):
            cfg = {
                "kind": kind, "spectrum": spectrum, "ensemble": {"tag": "goe"},
                "n_list": n_list, "trials": trials, "p": p,
                "seed": {"master": ref.stream(self.seed, self.ID, i) % 2**32},
                "output": {"format": "csv"},
            }
            where = self.dir / f"{i}-{kind}"
            where.mkdir(parents=True, exist_ok=True)
            (where / "config.json").write_text(json.dumps(cfg, indent=1) + "\n")
            self.configs.append((cfg, where))
        self.first_bytes = [None] * len(self.configs)
        self.verdicts = [None] * len(self.configs)
        self.yardstick = self._upper_bound_matrices()
        self.solve_s = []
        rs_solver = self.modules["rs_solver"]
        rs_solver.solve = self._timed(rs_solver.solve)
        self._exp(*self.configs[WARMUP_CONFIG])

    def _timed(self, solve):
        def timed_solve(*args, **kwargs):
            start = time.perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                self.solve_s.append(time.perf_counter() - start)
        return timed_solve

    def _upper_bound_matrices(self) -> list[np.ndarray]:
        out = []
        for cfg, _ in self.configs:
            if cfg["kind"] != "upper_bound":
                continue
            for n in cfg["n_list"]:
                lam = ref.spectrum_of(cfg["spectrum"], n)
                for t in range(cfg["trials"]):
                    s = ref.stream(cfg["seed"]["master"], n, t)
                    out.append(np.diag(lam) + ref.goe(n, s))
        return out

    def _exp(self, cfg: dict, where: Path) -> int:
        return self.modules["cli"].main([
            "exp", "--config", str(where / "config.json"), "--threads", "1",
            "--out-dir", str(where), "--out", str(where / "paths.json"),
        ])

    def run_round(self, tally: Tally) -> None:
        self.solve_s.clear()
        for i, (cfg, where) in enumerate(self.configs):
            trials = cfg["trials"] * len(cfg["n_list"])
            what = f"campaign config {i} ({cfg['kind']})"
            tally.attempted += trials
            start = time.perf_counter()
            try:
                code = self._exp(cfg, where)
            except Exception:
                tally.raised(what, trials)
                continue
            elapsed = time.perf_counter() - start
            if code != 0:
                tally.fail(what, trials)
                continue
            tally.trials += trials
            tally.work_s += elapsed
            if cfg["kind"] == "upper_bound":
                self._time_yardstick(tally)
            for trial, bad in self._check(i, cfg, where, trials):
                if bad:
                    tally.fail(f"{what} trial {trial}", checks=bad)
        for k, seconds in enumerate(self.solve_s):
            tally.solve_s[k].append(seconds)

    def _time_yardstick(self, tally: Tally) -> None:
        """Bare eigh on the upper_bound matrices, right after the solves on them."""
        for k, M in enumerate(self.yardstick):
            start = time.perf_counter()
            np.linalg.eigh(M)
            tally.eigh_s[k].append(time.perf_counter() - start)

    def _check(self, i: int, cfg: dict, where: Path, trials: int) -> list:
        """(trial, failed checks) for every trial of config ``i`` in this round."""
        files = ((where / "records.csv").read_bytes(), (where / "summary.json").read_bytes())
        if self.first_bytes[i] is None:
            self.first_bytes[i] = files
            rows = list(csv.DictReader(files[0].decode().splitlines()))
            verdicts = [(row["trial_index"], ref.check_record(cfg, row)) for row in rows]
            if len(rows) != trials or not json.loads(files[1]).get("groups"):
                verdicts = [(t, ["record_count_or_summary"]) for t in range(trials)]
            self.verdicts[i] = verdicts
        if files != self.first_bytes[i]:
            return [(t, ["byte_identical_replay"]) for t in range(trials)]
        return self.verdicts[i]


WORKLOADS = {"solve_diag": SolveDiag, "solve_dense": SolveDense, "campaign": Campaign}
