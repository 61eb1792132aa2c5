import json
import math
import re

import numpy as np
import pytest

from perturb.cli import main
from perturb.matcore import matrix_from_json, matrix_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINEAR3 = '{"family":"linear","n":3,"params":{"scale":1}}'


class TestAssume:
    def test_inline_spectrum_table(self, capsys):
        code, out, _ = run_cli(capsys, "assume", "--spectrum", LINEAR3)
        assert code == 0
        report = json.loads(out)
        assert report["d"] == [1.0, 0.5]
        assert report["n"] == 3
        assert {"p", "np_norm", "k"} <= set(report["table"][0])

    def test_n_mismatching_the_spec_rejected(self, capsys):
        code, out, err = run_cli(capsys, "assume", "--spectrum", LINEAR3, "--n", "10")
        assert code == 1
        assert out == ""
        assert "n = 3" in err

    def test_n_sizes_a_spec_without_one(self, capsys):
        code, out, _ = run_cli(capsys, "assume", "--spectrum",
                               '{"family":"linear","params":{"scale":1}}', "--n", "10")
        assert code == 0
        assert json.loads(out)["n"] == 10

    def test_spectrum_from_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(LINEAR3)
        code, out, _ = run_cli(capsys, "assume", "--spectrum", str(path), "--c0", "0.5")
        assert code == 0
        assert json.loads(out)["c0"] == 0.5


class TestGen:
    def test_goe_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "--kind", "goe", "--n", "6", "--seed", "3")
        _, out2, _ = run_cli(capsys, "gen", "--kind", "goe", "--n", "6", "--seed", "3")
        assert out1 == out2
        M = matrix_from_json(out1)
        assert M.shape == (6, 6)
        assert np.array_equal(M, M.T)

    def test_gue_complex(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--kind", "gue", "--n", "4", "--seed", "1")
        assert json.loads(out)["scalar"] == "complex"

    def test_arrowhead_payload(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--kind", "arrowhead", "--n", "5", "--seed", "2")
        payload = json.loads(out)
        assert payload["g"]["len"] == 4
        assert payload["E"]["n"] == 5

    def test_inconsistency_payload(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--kind", "inconsistency", "--n", "10", "--seed", "2", "--p", "2")
        payload = json.loads(out)
        A = matrix_from_json(json.dumps(payload["A"]))
        assert A[-1, -1] == pytest.approx(3 * math.sqrt(10))

    def test_diag_from_spectrum(self, capsys):
        _, out, _ = run_cli(capsys, "gen", "--kind", "diag", "--spectrum", LINEAR3)
        M = matrix_from_json(out)
        np.testing.assert_allclose(np.diag(M), [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("kind_args, flag", [
        (["--kind", "goe", "--n", "4"], ["--p", "7"]),
        (["--kind", "gue", "--n", "4"], ["--p", "7"]),
        (["--kind", "subgaussian", "--n", "4"], ["--p", "7"]),
        (["--kind", "arrowhead", "--n", "4"], ["--p", "7"]),
        (["--kind", "goe", "--n", "4"], ["--dist", "rademacher"]),
        (["--kind", "goe", "--n", "4"], ["--scalar", "complex"]),
        (["--kind", "inconsistency", "--n", "4"], ["--trunc", "2"]),
        (["--kind", "goe", "--n", "4"], ["--spectrum", LINEAR3]),
        (["--kind", "diag", "--spectrum", LINEAR3], ["--seed", "1"]),
        (["--kind", "diag", "--spectrum", LINEAR3], ["--n", "3"]),
    ])
    def test_flag_the_kind_does_not_read_rejected(self, capsys, kind_args, flag):
        code, out, err = run_cli(capsys, "gen", *kind_args, *flag)
        assert code == 1
        assert out == ""
        assert f"does not read {flag[0]}" in err

    def test_trunc_without_truncated_gaussian_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "subgaussian", "--n", "4",
                                 "--dist", "gaussian", "--trunc", "2")
        assert code == 1
        assert out == ""
        assert "--trunc only with --dist truncated_gaussian" in err

    def test_subgaussian_reads_its_flags(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "subgaussian", "--n", "4", "--seed", "1",
                               "--dist", "truncated_gaussian", "--trunc", "2", "--scalar", "complex")
        assert code == 0
        assert json.loads(out)["scalar"] == "complex"

    def test_env_seed_precedence(self, capsys, monkeypatch):
        monkeypatch.setenv("PERTURB_SEED", "9")
        _, out_env, _ = run_cli(capsys, "gen", "--kind", "goe", "--n", "4")
        _, out_nine, _ = run_cli(capsys, "gen", "--kind", "goe", "--n", "4", "--seed", "9")
        _, out_flag, _ = run_cli(capsys, "gen", "--kind", "goe", "--n", "4", "--seed", "1")
        assert out_env == out_nine
        assert out_flag != out_env


class TestSolve:
    def test_zero_noise(self, capsys, tmp_path):
        a_path = tmp_path / "A.json"
        e_path = tmp_path / "E.json"
        a_path.write_text(matrix_to_json(np.diag([3.0, 2.0, 1.0])))
        e_path.write_text(matrix_to_json(np.zeros((3, 3))))
        code, out, _ = run_cli(capsys, "solve", "--matrix", str(a_path), "--noise", str(e_path))
        assert code == 0
        report = json.loads(out)
        assert report["q"] == [0.0, 0.0]
        assert report["lambda_tilde"] == 3.0
        assert report["leading_certified"] is True
        assert report["fallback_reason"] == ""
        assert report["contraction_upper"] < 1e-300 and "contraction_rung" not in report

    def test_fallback_reason_exported(self, capsys, tmp_path):
        (tmp_path / "A.json").write_text(matrix_to_json(np.diag([3.0, 2.0, 1.0])))
        # E12 = 0.01 couples u1 to the fallback's eigenvector, which E11 = -2 makes e2
        E = np.diag([-2.0, 0.0, 0.0])
        E[0, 1] = E[1, 0] = 0.01
        (tmp_path / "E.json").write_text(matrix_to_json(E))
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "A.json"), "--noise", str(tmp_path / "E.json")
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "oracle-fallback"
        assert report["fallback_reason"].startswith("GapCollapseError: ")
        assert report["contraction_upper"] == float("inf")  # the gate did not run

    def test_goe_noise_certifies(self, capsys, tmp_path):
        run_cli(capsys, "gen", "--kind", "diag", "--spectrum",
                '{"family":"multiscale","n":16,"params":{"eps":1.0}}',
                "--out", str(tmp_path / "A.json"))
        run_cli(capsys, "gen", "--kind", "goe", "--n", "16", "--seed", "5",
                "--out", str(tmp_path / "E.json"))
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "A.json"), "--noise", str(tmp_path / "E.json")
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "rs"
        assert report["leading_certified"] is True
        assert report["residual2"] <= 1e-9


class TestArrowheadCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "arrowhead", "--spectrum",
            '{"family":"multiscale","n":8,"params":{"eps":1.0}}', "--seed", "4"
        )
        assert code == 0
        sol = json.loads(out)
        assert sol["gamma"] > 0
        vec = np.array([sol["a"]] + sol["w"])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


class TestExp:
    def test_runs_and_replays(self, capsys, tmp_path):
        cfg = {
            "kind": "weyl",
            "spectrum": {"family": "multiscale", "params": {"eps": 1.0}},
            "ensemble": {"tag": "goe"},
            "n_list": [16],
            "trials": 3,
            "seed": {"master": 11},
            "p": 2.0,
            "output": {"path": str(tmp_path / "out"), "format": "csv"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "exp", "--config", str(cfg_path))
        assert code == 0
        first = (tmp_path / "out/records.csv").read_bytes()
        code, _, _ = run_cli(capsys, "exp", "--config", str(cfg_path))
        assert code == 0
        assert (tmp_path / "out/records.csv").read_bytes() == first

    def test_format_flag_overrides_config(self, capsys, tmp_path):
        cfg = {
            "kind": "weyl",
            "spectrum": {"family": "multiscale", "params": {"eps": 1.0}},
            "ensemble": {"tag": "goe"},
            "n_list": [8],
            "trials": 2,
            "seed": 3,
            "output": {"path": str(tmp_path / "out"), "format": "csv"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(capsys, "exp", "--config", str(cfg_path), "--format", "json")
        assert code == 0
        assert (tmp_path / "out/records.json").exists()

    def test_out_dir_override_and_threads(self, capsys, tmp_path):
        cfg = {
            "kind": "lower_bound",
            "spectrum": {"family": "multiscale", "params": {"eps": 1.0}},
            "ensemble": {"tag": "goe"},
            "n_list": [16],
            "trials": 4,
            "seed": 0,
            "output": {"path": str(tmp_path / "ignored"), "format": "json"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(
            capsys, "exp", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o2"),
            "--threads", "2",
        )
        assert code == 0
        assert (tmp_path / "o2/records.json").exists()


    @pytest.mark.parametrize("change, unread", [
        ({"seed": {"mastr": 5}}, "'mastr'"),
        ({"ensembel": {"tag": "gue"}}, "'ensembel'"),
        ({"P": 4}, "'P'"),
        ({"spectrum": {"family": "multiscale", "params": {"epsilon": 5}}}, "'epsilon'"),
        ({"ensemble": {"tag": "goe", "params": {"dist": "rademacher"}}}, "'dist'"),
        ({"output": {"path": "out", "fromat": "json"}}, "'fromat'"),
    ])
    def test_unread_config_key_is_a_usage_error(self, capsys, tmp_path, change, unread):
        cfg = {"kind": "weyl", "n_list": [8], "trials": 1, **change}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "exp", "--config", str(cfg_path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert f"does not read {unread}" in err
        assert not (tmp_path / "records.csv").exists()


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["assume", "--spectrum", LINEAR3, "--bogus"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--c0"), ("gen", "--tol"), ("gen", "--format"),
        ("assume", "--seed"), ("assume", "--p"), ("assume", "--tol"), ("assume", "--format"),
        ("solve", "--seed"), ("solve", "--n"), ("solve", "--p"), ("solve", "--c0"),
        ("solve", "--format"),
        ("arrowhead", "--p"), ("arrowhead", "--c0"), ("arrowhead", "--tol"),
        ("arrowhead", "--format"),
        ("exp", "--seed"), ("exp", "--n"), ("exp", "--p"), ("exp", "--c0"), ("exp", "--tol"),
    ])
    def test_flag_the_command_does_not_read_rejected(self, capsys, command, flag):
        # solve's --noise comes after the flag: read as an abbreviation of
        # --noise, the flag would be silently overwritten by it
        argv = {
            "gen": ["gen", "--kind", "goe", "--n", "4"],
            "assume": ["assume", "--spectrum", LINEAR3],
            "solve": ["solve", "--matrix", "A.json"],
            "arrowhead": ["arrowhead", "--spectrum", LINEAR3],
            "exp": ["exp", "--config", "cfg.json"],
        }[command] + [flag, {"--format": "json"}.get(flag, "5")]
        if command == "solve":
            argv += ["--noise", "E.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("gen", {"--kind", "--dist", "--trunc", "--scalar", "--spectrum", "--seed", "--n", "--p"}),
        ("assume", {"--spectrum", "--n", "--c0"}),
        ("solve", {"--matrix", "--noise", "--certificate-cap", "--tol"}),
        ("arrowhead", {"--spectrum", "--seed", "--n"}),
        ("exp", {"--config", "--threads", "--out-dir", "--format"}),
    ])
    def test_help_lists_only_the_flags_read(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert listed == flags | {"--help", "--out"}

    def test_usage_error_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--matrix", "/no/such.json", "--noise", "/no/such.json")
        assert code == 1

    def test_numeric_error_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "diag", "--spectrum",
            '{"family":"explicit","n":3,"params":{"lambdas":[5,5,1]}}'
        )
        assert code == 2
        assert "InvalidSpectrumError" in err

    def test_usage_error_nan_noise(self, capsys, tmp_path):
        E = np.zeros((3, 3))
        E[1, 2] = E[2, 1] = math.nan
        (tmp_path / "A.json").write_text(matrix_to_json(np.diag([3.0, 2.0, 1.0])))
        (tmp_path / "E.json").write_text(matrix_to_json(E))
        code, _, err = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "A.json"), "--noise", str(tmp_path / "E.json")
        )
        assert code == 1
        assert "E has non-finite entries" in err

    def test_usage_error_zero_tol(self, capsys, tmp_path):
        (tmp_path / "A.json").write_text(matrix_to_json(np.diag([3.0, 2.0, 1.0])))
        (tmp_path / "E.json").write_text(matrix_to_json(np.zeros((3, 3))))
        code, out, err = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "A.json"), "--noise", str(tmp_path / "E.json"),
            "--tol", "0",
        )
        assert code == 1
        assert out == ""
        assert err == "error: tol must be finite and positive, got 0.0\n"

    @pytest.mark.parametrize("cap", ["nan", "-1", "0"])
    def test_usage_error_bad_certificate_cap(self, capsys, tmp_path, cap):
        (tmp_path / "A.json").write_text(matrix_to_json(np.diag([3.0, 2.0, 1.0])))
        (tmp_path / "E.json").write_text(matrix_to_json(np.zeros((3, 3))))
        code, out, err = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "A.json"), "--noise", str(tmp_path / "E.json"),
            "--certificate-cap", cap,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: certificate_cap must be positive")

    def test_usage_error_unknown_matrix_scalar(self, capsys, tmp_path):
        (tmp_path / "A.json").write_text('{"n": 2, "scalar": "bogus", "entries": [2, 0, 0, 1]}')
        (tmp_path / "E.json").write_text(matrix_to_json(np.zeros((2, 2))))
        code, out, err = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "A.json"), "--noise", str(tmp_path / "E.json")
        )
        assert (code, out) == (1, "")
        assert err == "error: scalar must be 'real' or 'complex', got 'bogus'\n"

    def test_usage_error_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run_cli(capsys, "assume", "--spectrum", str(p))
        assert code == 1
