"""Tests of the benchmark itself: python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import independent as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

from perturb import ensembles, experiments, rs_solver  # noqa: E402


def test_reference_samplers_match_perturb():
    s = ref.stream(5, 64, 3)
    assert s == ensembles.derive_stream(5, 64, 3)
    assert np.array_equal(ref.goe(40, s), ensembles.sample_goe(40, s))
    assert np.array_equal(ref.gue(40, s), ensembles.sample_gue(40, s))
    assert np.array_equal(ref.arrowhead_g(40, s), ensembles.sample_arrowhead_noise(40, s)[0])
    for spec in ({"family": "multiscale", "params": {"eps": 1.0}},
                 {"family": "inconsistency", "params": {"p": 3.0}},
                 {"family": "lowrank", "params": {"r": 1, "lambda1": 3.0, "delta": 3.0}}):
        expected = ensembles.realize_spectrum(ensembles.SpectrumSpec.from_dict(spec, n=40)).lambdas
        assert np.allclose(ref.spectrum_of(spec, 40), expected, rtol=1e-15, atol=0)


def _sleeper(seconds):
    def fn(*calls):
        time.sleep(seconds)
        for call in calls:
            call()
        return "done"
    return fn


def test_tracer_self_time_absent_and_restore():
    inner = _sleeper(0.02)
    outer = _sleeper(0.01)
    fake = types.SimpleNamespace(solve_q=inner, solve=outer)
    other = types.SimpleNamespace(solve_q=inner)  # second binding of one function
    modules = {"rs_solver": fake, "experiments": other}
    tracer = Tracer()
    tracer.install(modules)
    try:
        fake.solve(fake.solve_q, other.solve_q)
    finally:
        tracer.remove()
    assert fake.solve is outer and fake.solve_q is inner and other.solve_q is inner
    totals = tracer.totals()
    assert totals["rs_solver.solve_q"]["count"] == 2
    assert 0.01 <= totals["rs_solver.solve"]["self_s"] < 0.03
    assert totals["rs_solver.solve"]["inclusive_s"] >= 0.05
    assert "rs_solver.partition" in tracer.absent
    values, absent = tracer.layer_metrics(
        ["rs_solver.solve_q.calls", "rs_solver.partition.self_s", "bounds.lp_norm.calls",
         "experiments.weyl.trial_s", "rs_solver.solve.outer_iters"], ops=1)
    assert values["rs_solver.solve_q.calls"] == 2
    assert values["rs_solver.partition.self_s"] == 0.0
    assert {"rs_solver.partition.self_s", "bounds.lp_norm.calls",
            "experiments.weyl.trial_s", "rs_solver.solve.outer_iters"} <= set(absent)


def _small_solve():
    n = 32
    lam = ref.multiscale(n)
    A = np.diag(lam)
    E = ref.goe(n, ref.stream(1, 2, 3))
    report = rs_solver.solve(A, E)
    w, V = np.linalg.eigh(A + E)
    return report, A + E, w, V


def test_check_solve_accepts_a_correct_report_and_rejects_wrong_ones():
    report, M, w, V = _small_solve()
    assert report.method == "rs"
    assert ref.check_solve(report, M, w, V, gap_collapsed=False) == []
    shifted = dataclasses.replace(report, lambda_tilde=report.lambda_tilde + 1e-3)
    assert "eigenvalue" in ref.check_solve(shifted, M, w, V, False)
    u = report.u_tilde + 1e-3 * V[:, 0]
    turned = dataclasses.replace(report, u_tilde=u / np.linalg.norm(u))
    assert {"eigenvector", "residual"} <= set(ref.check_solve(turned, M, w, V, False))
    uncertified = dataclasses.replace(report, contraction_upper=0.95)
    assert ref.check_solve(uncertified, M, w, V, False) == ["rs_certificate"]
    fallback = dataclasses.replace(report, method="oracle-fallback")
    assert ref.check_solve(fallback, M, w, V, False) == ["fallback_reason"]
    assert ref.check_solve(fallback, M, w, V, True) == []
    nan = dataclasses.replace(report, orth_residual=float("nan"))
    assert ref.check_solve(nan, M, w, V, False) == ["finite:orth_residual"]


@pytest.mark.parametrize("kind,spectrum,stat", [
    ("upper_bound", {"family": "multiscale", "params": {"eps": 1.0}}, "sin_theta"),
    ("dk_compare", {"family": "multiscale", "params": {"eps": 1.0}}, "sin_theta"),
    ("weyl", {"family": "multiscale", "params": {"eps": 1.0}}, "margin"),
    ("lower_bound", {"family": "multiscale", "params": {"eps": 1.0}}, "gamma"),
    ("opnorm_scaling", {"family": "multiscale", "params": {"eps": 1.0}}, "opnorm_lower"),
    ("event_diagnostics", {"family": "multiscale", "params": {"eps": 1.0}}, "cert_p"),
    ("inconsistency", {"family": "inconsistency", "params": {"p": 3.0}}, "lambda_max"),
    ("phase_transition", {"family": "lowrank", "params": {"r": 1, "lambda1": 3.0, "delta": 3.0}}, "lambda_max"),
])
def test_check_record_accepts_program_output_and_rejects_a_changed_value(kind, spectrum, stat):
    cfg = {"kind": kind, "spectrum": spectrum, "ensemble": {"tag": "goe"}, "n_list": [24],
           "trials": 3, "p": 2.0, "seed": {"master": 11}}
    records, _ = experiments.run_experiment(experiments.ExperimentConfig.from_dict(cfg))
    for rec in records:
        row = {"kind": rec.kind, "n": str(rec.n), "trial_index": str(rec.trial_index),
               "stream": str(rec.stream)}
        row |= {k: repr(v) for k, v in rec.statistics.items()}
        assert ref.check_record(cfg, row) == []
        row[stat] = repr(float(row[stat]) * 0.5 - 1.0)
        assert ref.check_record(cfg, row) != []


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_diag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_run_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "solve_dense", "--seed", "3",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
