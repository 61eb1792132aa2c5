import json
import math

import numpy as np
import pytest

from perturb import experiments, rs_solver
from perturb.ensembles import SpectrumSpec, realize_spectrum, rng_from_stream, sample_goe
from perturb.experiments import (
    ExperimentConfig,
    TrialRecord,
    export_records,
    records_from_csv,
    records_from_json,
    run_and_export,
    run_experiment,
    summarize,
)
from perturb.matcore import EigDecomposition

MULTISCALE = SpectrumSpec("multiscale", 0, {"eps": 1.0})


def make_cfg(kind, **kw):
    args = dict(
        kind=kind,
        spectrum=MULTISCALE,
        ensemble={"tag": "goe"},
        n_list=(16,),
        trials=3,
        seed=7,
        p=2.0,
    )
    args.update(kw)
    return ExperimentConfig(**args)


class TestConfig:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            make_cfg("nonsense")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            make_cfg("upper_bound", trials=0)

    def test_dict_roundtrip(self):
        cfg = make_cfg("upper_bound", n_list=(8, 16))
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg


class TestPaperNorm:
    def test_records_keep_paper_norm(self):
        # upper_bound's contraction_upper and event_diagnostics' cert_p are the
        # paper's ||E22 D^{-1}||_p, not the bound that gated the solver's loop
        n, p = 32, 2.0
        s = realize_spectrum(MULTISCALE.with_n(n))
        eig = EigDecomposition(s, np.eye(n))
        upper, _ = run_experiment(make_cfg("upper_bound", n_list=(n,), trials=4, p=p))
        events, _ = run_experiment(make_cfg("event_diagnostics", n_list=(n,), trials=4, p=p))
        for up, ev in zip(upper, events):
            assert up.stream == ev.stream
            E = sample_goe(n, up.stream)
            part = rs_solver.partition(eig, E)
            paper = rs_solver.contraction_certificate(
                rs_solver.build_shifted_gaps(s, part.e11), part.e22, p
            )
            assert up.statistics["contraction_upper"] == paper
            assert ev.statistics["cert_p"] == paper
            report = rs_solver.solve(np.diag(s.lambdas), E, p=p, eig=eig)
            assert report.contraction_rung == "weighted-frobenius"
            assert report.contraction_upper < paper


class TestRunExperiment:
    def test_zero_noise_diagnostic(self):
        cfg = make_cfg("upper_bound", ensemble={"tag": "zero"}, trials=1)
        records, _ = run_experiment(cfg)
        assert records[0].statistics["max_coord_ratio"] == 0.0
        assert records[0].statistics["certified"] == 1.0

    def test_determinism(self):
        cfg = make_cfg("upper_bound")
        a, _ = run_experiment(cfg)
        b, _ = run_experiment(cfg)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_thread_count_invariance(self):
        cfg = make_cfg("lower_bound", n_list=(32,), trials=8)
        serial, _ = run_experiment(cfg, threads=1)
        parallel, _ = run_experiment(cfg, threads=4)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_records_sorted_and_complete(self):
        cfg = make_cfg("weyl", n_list=(16, 8), trials=2)
        records, _ = run_experiment(cfg)
        assert [(r.n, r.trial_index) for r in records] == [(8, 0), (8, 1), (16, 0), (16, 1)]

    def test_upper_bound_solver_oracle_crosscheck(self):
        cfg = make_cfg("upper_bound", n_list=(24,), trials=10)
        records, _ = run_experiment(cfg)
        for r in records:
            if r.statistics["certified"] == 1.0:
                assert abs(r.statistics["sin_theta"] - r.statistics["sin_theta_oracle"]) <= 1e-9

    def test_oracle_angle_resolves_small_angles(self):
        # sin theta ~ 5e-11 here; sqrt(1 - overlap^2) of the same vector reads 0
        n = 16
        spectrum = realize_spectrum(MULTISCALE.with_n(n))
        eig = EigDecomposition(spectrum=spectrum, basis=np.eye(n))
        E = 1e-9 * sample_goe(n, 4)
        _, oracle = experiments._oracle_angle(spectrum, np.diag(spectrum.lambdas), eig, E)
        first_order = float(np.linalg.norm(E[1:, 0] / spectrum.gaps()))
        assert oracle["sin_theta"] == pytest.approx(first_order, rel=1e-3)

    def test_inconsistency_mean_norm_floor(self):
        cfg = make_cfg(
            "inconsistency",
            spectrum=SpectrumSpec("inconsistency", 0, {"p": 2.0}),
            n_list=(100,),
            trials=20,
        )
        records, _ = run_experiment(cfg)
        norms = np.array([r.statistics["tilde_norm_sq"] for r in records])
        lam2_sq = (3 * math.sqrt(100)) ** 2
        assert norms.mean() >= lam2_sq + 100 - 3 * norms.std(ddof=1)

    def test_phase_transition_kind(self):
        cfg = make_cfg(
            "phase_transition",
            spectrum=SpectrumSpec("lowrank", 0, {"r": 1, "lambda1": 3.0, "delta": 3.0}),
            n_list=(200,),
            trials=5,
        )
        records, _ = run_experiment(cfg)
        mean = np.mean([r.statistics["overlap_sq"] for r in records])
        assert abs(mean - 8.0 / 9.0) < 0.15

    def test_event_diagnostics_keys(self):
        cfg = make_cfg("event_diagnostics", n_list=(32,), trials=2)
        records, _ = run_experiment(cfg)
        assert set(records[0].statistics) == {
            "e_inf_ratio", "cert_p", "cert_le_half", "d21_dual", "d21_le_half",
        }

    def test_all_statistics_finite(self):
        for kind in ("upper_bound", "lower_bound", "dk_compare", "weyl"):
            cfg = make_cfg(kind, n_list=(16,), trials=2)
            records, _ = run_experiment(cfg)
            for r in records:
                assert all(math.isfinite(v) for v in r.statistics.values())


class TestSummarize:
    def test_single_record(self):
        rec = TrialRecord("weyl", 8, 0, 1, {"margin": 2.5})
        summary = summarize([rec])
        stats = summary.groups[0]["stats"]["margin"]
        assert stats["mean"] == stats["p50"] == 2.5
        assert stats["count"] == 1

    def test_two_values(self):
        recs = [
            TrialRecord("weyl", 8, 0, 1, {"domination_holds": 0.0}),
            TrialRecord("weyl", 8, 1, 2, {"domination_holds": 1.0}),
        ]
        stats = summarize(recs).groups[0]["stats"]["domination_holds"]
        assert stats["mean"] == 0.5
        assert stats["frequency"] == 0.5

    def test_uniform_quantiles(self):
        rng = rng_from_stream(5)
        recs = [
            TrialRecord("weyl", 8, i, i, {"x": float(v)})
            for i, v in enumerate(rng.uniform(0, 1, 1000))
        ]
        stats = summarize(recs).groups[0]["stats"]["x"]
        assert 0.93 <= stats["p95"] <= 0.97

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestExport:
    def test_empty_statistics_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_records([TrialRecord("weyl", 8, 0, 1, {})], "csv", tmp_path / "r.csv")

    def test_csv_line_count(self, tmp_path):
        recs = [
            TrialRecord("weyl", 8, 0, 1, {"margin": 1.0}),
            TrialRecord("weyl", 8, 1, 2, {"margin": 2.0}),
        ]
        path = tmp_path / "records.csv"
        export_records(recs, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "kind,n,trial_index,stream,margin"

    def test_json_roundtrip(self, tmp_path):
        cfg = make_cfg("lower_bound", n_list=(16,), trials=4)
        records, _ = run_experiment(cfg)
        path = tmp_path / "records.json"
        export_records(records, "json", path)
        back = records_from_json(path.read_text())
        assert [r.to_dict() for r in back] == [r.to_dict() for r in records]

    def test_csv_roundtrip_lossless(self, tmp_path):
        cfg = make_cfg("lower_bound", n_list=(16,), trials=4)
        records, _ = run_experiment(cfg)
        path = tmp_path / "records.csv"
        export_records(records, "csv", path)
        back = records_from_csv(path.read_text())
        assert [r.to_dict() for r in back] == [r.to_dict() for r in records]

    def test_run_and_export_side_by_side(self, tmp_path):
        cfg = make_cfg("weyl", n_list=(16,), trials=2)
        paths = run_and_export(cfg, tmp_path)
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["groups"][0]["n"] == 16

    def test_replay_byte_identical(self, tmp_path):
        cfg = make_cfg("upper_bound", n_list=(12,), trials=3)
        run_and_export(cfg, tmp_path / "a")
        run_and_export(cfg, tmp_path / "b")
        assert (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()
