import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import tssf
from tssf import cli, dataio
from tssf import tssf as tssf_module
from tssf.cli import main

CONFIG = """\
channels: 4
samples: 200
trials_per_class: 12
seed: 11
n_discriminative: 2
var_pos: 4, 1
var_neg: 1, 4
noise_sigma: 0.4
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(CONFIG)
    return path


@pytest.fixture
def data_path(tmp_path, config_path):
    out = tmp_path / "trials.eegt"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_file(self, tmp_path, config_path, capsys):
        out = tmp_path / "data.eegt"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        assert out.exists()
        assert "C=4" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channels: 4\nnoise_sigma: -1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("noise_sigma: nan", "noise_sigma must be >= 0 and finite"),
            ("var_pos: nan 1", "var_pos must be positive and finite"),
            ("nonstationarity: inf", "nonstationarity must be >= 0 and finite"),
        ],
    )
    def test_non_finite_config_value_exits_2_and_writes_nothing(
        self, tmp_path, config_path, capsys, line, message
    ):
        # a NaN noise_sigma used to mean "no noise", and a NaN variance NaN trials
        key = line.split(":")[0]
        kept = [row for row in CONFIG.splitlines() if not row.startswith(key + ":")]
        config_path.write_text("\n".join(kept + [line]) + "\n")  # a key is given once
        out = tmp_path / "x.eegt"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.cfg"), "--out", "x"]) == 2

    def test_same_seed_byte_identical(self, tmp_path, config_path):
        a, b = tmp_path / "a.eegt", tmp_path / "b.eegt"
        assert main(["synth", "--config", str(config_path), "--out", str(a)]) == 0
        assert main(["synth", "--config", str(config_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, config_path):
        a, b = tmp_path / "a.eegt", tmp_path / "b.eegt"
        assert main(["synth", "--config", str(config_path), "--out", str(a)]) == 0
        assert (
            main(["synth", "--config", str(config_path), "--out", str(b), "--seed", "99"])
            == 0
        )
        assert a.read_bytes() != b.read_bytes()


class TestFit:
    def test_tssf_fit_writes_model(self, tmp_path, data_path, capsys):
        out = tmp_path / "model.json"
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "TSSF_Var_1_step",
             "--k", "2", "--reg", "1.0", "--out", str(out)]
        )
        assert code == 0
        pipe = tssf.load_pipeline(out)
        assert (pipe.name, pipe.k, pipe.feature_kind) == ("TSSF_Var_1_step", 2, "logvar")
        # the table lists all C = 4 sorted coefficients of the fitted model
        table = capsys.readouterr().out.split("sorted coefficients")[1].splitlines()[2:6]
        assert [int(line.split()[0]) for line in table] == [0, 1, 2, 3]
        assert [line.endswith("<- kept") for line in table] == [True, True, False, False]

    def test_saved_pipeline_scores_like_eval_fit(self, tmp_path, data_path):
        out = tmp_path / "model.json"
        argv = ["fit", "--data", str(data_path), "--pipeline", "TSSF_LogCov_2_step",
                "--k", "2", "--reg", "1.0", "--out", str(out)]
        assert main(argv) == 0
        ts = dataio.read_trials(data_path)
        fixed = tssf.ClassifierConfig(reg=1.0)
        spec = tssf.PipelineSpec("TSSF_LogCov_2_step", k=2, classifier=fixed)
        fitted = tssf.make_pipeline(spec).fit(ts.data, ts.labels)
        np.testing.assert_array_equal(
            tssf.load_pipeline(out).decision_scores(ts.data), fitted.decision_scores(ts.data)
        )

    def test_ts_airm_fit_writes_model(self, tmp_path, data_path):
        out = tmp_path / "model.json"
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "TS_AIRM",
             "--reg", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert tssf.load_pipeline(out).name == "TS_AIRM"

    def test_ts_airm_fit_with_k_0(self, tmp_path, data_path, capsys, monkeypatch):
        # TS_AIRM ignores --k but checks it by the one k rule, before
        # reading data, like every other pipeline
        def fail(*args, **kwargs):
            raise AssertionError("fit read its data before checking k")

        monkeypatch.setattr(cli, "_load_trials", fail)
        out = tmp_path / "model.json"
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "TS_AIRM",
             "--k", "0", "--reg", "1.0", "--out", str(out)]
        )
        assert code == 2
        assert "k must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_ts_airm_fit_keeps_all_filters(self, tmp_path, data_path, capsys):
        # TS_AIRM ignores --k: its file holds all C = 4 filters, and the
        # table marks all 4 sorted coefficients kept
        out = tmp_path / "model.json"
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "TS_AIRM",
             "--k", "1", "--reg", "1.0", "--out", str(out)]
        )
        assert code == 0
        pipe = tssf.load_pipeline(out)
        assert (pipe.k, pipe.feature_kind, pipe.filters.shape) == (4, "diaglogcov", (4, 4))
        table = capsys.readouterr().out.split("sorted coefficients")[1].splitlines()[2:]
        assert [line.endswith("<- kept") for line in table] == [True] * 4 + [False]

    def test_identical_trials_exit_3(self, tmp_path, capsys):
        # every covariance is exactly the identity, so every tangent vector is 0
        trial = np.tile(scipy.linalg.hadamard(8)[1:5], 32).astype(float)
        labels = np.tile([1, -1], 5)
        trialset = tssf.TrialSet(
            np.repeat(trial[:, :, None], 10, axis=2), labels, np.zeros(10),
            [f"ch{i}" for i in range(4)],
        )
        path = tmp_path / "same.eegt"
        dataio.write_trials(trialset, path)
        code = main(
            ["fit", "--data", str(path), "--pipeline", "TS_AIRM",
             "--reg", "1.0", "--out", str(tmp_path / "m")]
        )
        assert code == 3
        assert "equal to rounding" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline", tssf.pipelines.PIPELINE_NAMES)
    def test_trials_equal_to_rounding_exit_3(self, tmp_path, pipeline, capsys):
        # ten copies of one random trial: covariances equal to rounding only
        one = tssf.synth_generate(tssf.SynthConfig(channels=4, seed=25))
        labels = np.tile([1, -1], 5)
        trialset = tssf.TrialSet(
            np.repeat(one.data[:, :, :1], 10, axis=2), labels, np.zeros(10), one.channel_names
        )
        path = tmp_path / "same.eegt"
        dataio.write_trials(trialset, path)
        code = main(
            ["fit", "--data", str(path), "--pipeline", pipeline,
             "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "m")]
        )
        assert code == 3
        assert "equal to rounding" in capsys.readouterr().err

    @pytest.mark.parametrize("pipeline,k", [("TS_AIRM", "-1"), ("CSP", "0")])
    def test_k_below_pipeline_minimum_exits_2(self, tmp_path, data_path, pipeline, k, capsys):
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", pipeline,
             "--k", k, "--reg", "1.0", "--out", str(tmp_path / "m")]
        )
        assert code == 2
        assert "k must be >=" in capsys.readouterr().err

    def test_csp_fit_table_lists_every_log_eigenvalue(self, tmp_path, data_path, capsys):
        # CSP ranks all C = 4 filters by one coefficient, as TSSF does: the
        # log generalized eigenvalues of the class-mean covariances
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "m.json")]
        )
        assert code == 0
        ts = dataio.read_trials(data_path)
        covs = dataio.covariances(ts)
        solution = tssf.manifold.ged(
            covs[ts.labels == 1].mean(axis=0), covs[ts.labels == -1].mean(axis=0)
        )
        # descending |log eigenvalue|, ties by descending value (a stable sort)
        expected = sorted(np.log(solution.eigenvalues), key=lambda b: (-abs(b), -b))
        table = capsys.readouterr().out.split("sorted coefficients")[1].splitlines()[2:6]
        assert [int(line.split()[0]) for line in table] == [0, 1, 2, 3]
        assert [line.split()[1] for line in table] == [f"{b:+.4f}" for b in expected]
        assert [line.endswith("<- kept") for line in table] == [True, True, False, False]

    def test_csp_fit_writes_model(self, tmp_path, data_path):
        out = tmp_path / "model.json"
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--out", str(out)]
        )
        assert code == 0
        pipe = tssf.load_pipeline(out)
        assert (pipe.name, pipe.k, pipe.filters.shape) == ("CSP", 2, (4, 2))

    def test_k_too_large_exits_2(self, tmp_path, data_path):
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "TSSF_Var_1_step",
             "--k", "9", "--reg", "1.0", "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_unknown_pipeline_exits_2(self, tmp_path, data_path):
        code = main(
            ["fit", "--data", str(data_path), "--pipeline", "TSSF_Nope",
             "--out", str(tmp_path / "m")]
        )
        assert code == 2

    def test_single_class_exits_3(self, tmp_path, data_path):
        ts = dataio.read_trials(data_path)
        keep = ts.labels == 1
        single = ts.subset(np.flatnonzero(keep))
        single_path = tmp_path / "single.eegt"
        dataio.write_trials(single, single_path)
        code = main(
            ["fit", "--data", str(single_path), "--pipeline", "TSSF_Var_1_step",
             "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "m")]
        )
        assert code == 3

    def test_constant_channel_exits_3_naming_the_trial(self, tmp_path, data_path, capsys):
        ts = dataio.read_trials(data_path)
        ts.data[2, :, 5] = 1.5  # channel 2 of trial 5 is constant
        flat_path = tmp_path / "flat.eegt"
        dataio.write_trials(ts, flat_path)
        code = main(
            ["fit", "--data", str(flat_path), "--pipeline", "TSSF_Var_1_step",
             "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "m")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "covariance 5 is not positive definite" in err
        assert "jitter" not in err

    def test_eval_of_a_constant_channel_exits_3_naming_the_trial(self, tmp_path, data_path, capsys):
        # the trial's index in the file, not in a fold's training slice
        ts = dataio.read_trials(data_path)
        ts.data[2, :, 5] = 1.5
        flat_path = tmp_path / "flat.eegt"
        dataio.write_trials(ts, flat_path)
        code = main(
            ["eval", "--data", str(flat_path), "--pipeline", "TSSF_Var_1_step",
             "--k", "2", "--reg", "1.0", "--folds", "3", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        assert "covariance 5 is not positive definite" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_exits_2_naming_the_trial(
        self, tmp_path, data_path, command, bad, capsys
    ):
        # its covariance is not finite, which is not an asymmetry
        ts = dataio.read_trials(data_path)
        ts.data[1, 7, 3] = bad
        bad_path = tmp_path / "bad.eegt"
        dataio.write_trials(ts, bad_path)
        argv = [command, "--data", str(bad_path), "--pipeline", "TSSF_Var_1_step",
                "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "covariance 3 has a non-finite entry" in err
        assert "symmetric" not in err


class TestEval:
    def test_two_pipelines_one_comparison(self, tmp_path, data_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["eval", "--data", str(data_path),
             "--pipeline", "TSSF_Var_1_step", "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--folds", "3", "--out", str(out)]
        )
        assert code == 0
        report = out.read_text().strip().split("\n")
        assert report[0] == "pipeline,k,feature_kind,session,fold,auc"
        assert len(report) == 7  # 2 pipelines x 3 folds + header
        cmp_path = tmp_path / "report.comparisons.csv"
        cmp_lines = cmp_path.read_text().strip().split("\n")
        assert cmp_lines[0] == "pipeline_a,pipeline_b,n,smd,p_value"
        assert len(cmp_lines) == 2  # one comparison row

    def test_repeated_evals_do_the_same_work(self, tmp_path, data_path, monkeypatch):
        sizes = []
        mean_and_logs = tssf_module._frechet_mean_and_logs

        def counted(covs, *args, **kwargs):
            sizes.append(np.shape(covs)[-1])
            return mean_and_logs(covs, *args, **kwargs)

        monkeypatch.setattr(tssf_module, "_last_fit", (None, None))
        monkeypatch.setattr(tssf_module, "_frechet_mean_and_logs", counted)
        argv = ["eval", "--data", str(data_path), "--pipeline", "TSSF_Var_1_step",
                "--pipeline", "TS_AIRM", "--k", "2", "--reg", "1.0", "--folds", "3"]
        counts = []
        for out in ("r1.csv", "r2.csv"):
            before = len(sizes)
            assert main(argv + ["--out", str(tmp_path / out)]) == 0
            counts.append(sizes[before:].count(4))
        assert counts == [3, 3]  # one 4 x 4 mean per fold, in every eval

    def test_odd_csp_k_evaluates(self, tmp_path, data_path):
        # CSP takes an odd k like every other pipeline
        out = tmp_path / "r.csv"
        code = main(
            ["eval", "--data", str(data_path), "--pipeline", "TSSF_Var_1_step",
             "--pipeline", "CSP", "--k", "3", "--reg", "1", "--folds", "3", "--out", str(out)]
        )
        assert code == 0
        header, *body = out.read_text().strip().split("\n")
        column = header.split(",").index("pipeline")
        assert {line.split(",")[column] for line in body} == {"TSSF_Var_1_step", "CSP"}

    def test_folds_1_exits_2(self, tmp_path, data_path):
        code = main(
            ["eval", "--data", str(data_path), "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--folds", "1", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    def test_fixed_seed_identical_csv(self, tmp_path, data_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["eval", "--data", str(data_path), "--pipeline", "TSSF_Cov_2_step",
                "--k", "2", "--reg", "1.0", "--folds", "3", "--seed", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # every auc cell is a plain float literal, e.g. "0.5", not "np.float64(0.5)"
        for line in out1.read_text().strip().split("\n")[1:]:
            auc = line.split(",")[5]
            assert repr(float(auc)) == auc, line

    def test_manifest_input(self, tmp_path, config_path, data_path):
        other = tmp_path / "other.eegt"
        assert main(["synth", "--config", str(config_path), "--out", str(other), "--seed", "12"]) == 0
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"0 {data_path}\n1 {other}\n")
        out = tmp_path / "r.csv"
        code = main(
            ["eval", "--manifest", str(manifest), "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--folds", "3", "--out", str(out)]
        )
        assert code == 0
        body = out.read_text().strip().split("\n")[1:]
        sessions = {line.split(",")[3] for line in body}
        assert sessions == {"0", "1"}

    def test_session_id_beyond_u32_exits_2(self, tmp_path, data_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"0 {data_path}\n4294967296 {data_path}\n")
        code = main(
            ["eval", "--manifest", str(manifest), "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert "manifest line 2: session id must be >= 0 and < 2**32" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--reg", "nan"], "reg"),
            (["--reg", "inf"], "reg"),
            (["--grid", "1,nan"], "grid values"),
        ],
        ids=["reg-nan", "reg-inf", "grid-nan"],
    )
    def test_non_finite_reg_exits_2_before_any_fit(
        self, tmp_path, data_path, capsys, monkeypatch, flags, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("eval fitted before checking its regularization")

        monkeypatch.setattr(cli, "cross_validate", fail)
        code = main(
            ["eval", "--data", str(data_path), "--pipeline", "TS_AIRM", *flags,
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert f"error: {message} must be positive and finite" in capsys.readouterr().err

    def test_band_flag(self, tmp_path, config_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(CONFIG.replace("samples: 200", "samples: 600"))
        data = tmp_path / "long.eegt"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        out = tmp_path / "r.csv"
        code = main(
            ["eval", "--data", str(data), "--band", "8:32:250", "--pipeline", "CSP",
             "--k", "2", "--reg", "1.0", "--folds", "3", "--out", str(out)]
        )
        assert code == 0

    def test_bad_band_exits_2(self, tmp_path, data_path, capsys):
        for band in ("8:32", "8:x:250"):
            code = main(
                ["eval", "--data", str(data_path), "--band", band, "--pipeline", "CSP",
                 "--k", "2", "--reg", "1.0", "--out", str(tmp_path / "r.csv")]
            )
            assert code == 2
            assert "--band must be" in capsys.readouterr().err

    def test_reg_and_grid_together_exit_2_before_reading_data(self, tmp_path, capsys, monkeypatch):
        # a fixed reg used to drop the grid without a word
        def fail(*args, **kwargs):
            raise AssertionError("eval read its data before checking --reg and --grid")

        monkeypatch.setattr(cli, "_load_trials", fail)
        out = tmp_path / "r.csv"
        code = main(
            ["eval", "--data", "x.eegt", "--pipeline", "TS_AIRM", "--reg", "1", "--grid", "0.1,1",
             "--out", str(out)]
        )
        assert code == 2
        assert "give a fixed reg or a grid to search, not both" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_flag(self, tmp_path, data_path, capsys):
        # a one-value grid picks that value, so the folds equal a fixed reg's
        argv = ["eval", "--data", str(data_path), "--pipeline", "TSSF_Var_2_step",
                "--pipeline", "TS_AIRM", "--k", "2", "--folds", "3"]
        outs = tmp_path / "grid.csv", tmp_path / "reg.csv"
        assert main(argv + ["--grid", "1", "--out", str(outs[0])]) == 0
        assert main(argv + ["--reg", "1", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()
        for grid in ("0.1,x", ""):  # an empty --grid is not the default grid
            assert main(argv + ["--grid", grid, "--out", str(outs[0])]) == 2
            assert "--grid must be a comma list of numbers" in capsys.readouterr().err


class TestPatterns:
    def fit_model(self, tmp_path, data_path, pipeline="TSSF_Var_1_step"):
        model_path = tmp_path / "model.json"
        assert (
            main(["fit", "--data", str(data_path), "--pipeline", pipeline,
                  "--k", "2", "--reg", "1.0", "--out", str(model_path)])
            == 0
        )
        return model_path

    def test_export(self, tmp_path, data_path):
        model_path = self.fit_model(tmp_path, data_path)
        out = tmp_path / "patterns.csv"
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "channel,comp0,comp1"
        assert len(lines) == 5  # 4 channels

    def test_square_filters_logged_check(self, tmp_path, data_path, capsys):
        model_path = tmp_path / "model.json"
        assert (
            main(["fit", "--data", str(data_path), "--pipeline", "TSSF_Var_1_step",
                  "--k", "4", "--reg", "1.0", "--out", str(model_path)])
            == 0
        )
        out = tmp_path / "patterns.csv"
        assert (
            main(["patterns", "--model", str(model_path), "--data", str(data_path),
                  "--out", str(out)])
            == 0
        )
        assert "max |F^T A - I|" in capsys.readouterr().out

    def test_logcov_patterns_are_those_of_the_scoring_filters(self, tmp_path, data_path, capsys):
        # K < C: the exported patterns A satisfy P^T A = I for the filters P
        # that score, so dropping filter j and its weight removes pattern j
        model_path = self.fit_model(tmp_path, data_path, pipeline="TSSF_LogCov_2_step")
        out = tmp_path / "p.csv"
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(out)]
        )
        assert code == 0
        assert "max |F^T A - I| = " in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        patterns = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        filters = tssf.load_pipeline(model_path).filters
        assert patterns.shape == filters.shape == (4, 2)
        assert np.abs(filters.T @ patterns - np.eye(2)).max() <= 1e-10

    def test_ts_airm_model_exports_c_patterns(self, tmp_path, data_path, capsys):
        # TS_AIRM's C filters are square, so its patterns are their inverse
        model_path = self.fit_model(tmp_path, data_path, pipeline="TS_AIRM")
        out = tmp_path / "p.csv"
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(out)]
        )
        assert code == 0
        assert "max |F^T A - I|" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "channel,comp0,comp1,comp2,comp3"
        patterns = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        filters = tssf.load_pipeline(model_path).filters
        assert np.abs(filters.T @ patterns - np.eye(4)).max() <= 1e-10

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(intercept=float("nan")),
             "field 'intercept' holds a non-finite number"),
            (lambda doc: doc.pop("filters"), "missing field 'filters'"),
            (lambda doc: doc.update(coef=doc["coef"][:1]), "coef of length 1 does not weigh"),
            (lambda doc: doc.update(var_floor=-1.0), "var_floor must be > 0"),
            (lambda doc: doc.update(format="pipeline/3"), "not a pipeline/4 model file"),
            (lambda doc: doc.update(k=3), "unknown field 'k'"),
        ],
    )
    def test_malformed_model_exits_2(self, tmp_path, data_path, capsys, edit, message):
        model_path = self.fit_model(tmp_path, data_path)
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc, indent=1))
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_non_numeric_filter_entry_exits_2(self, tmp_path, data_path, capsys):
        model_path = self.fit_model(tmp_path, data_path)
        doc = json.loads(model_path.read_text())
        doc["filters"][1][0] = "zz"
        model_path.write_text(json.dumps(doc, indent=1))
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "field 'filters' is not a matrix of floats" in capsys.readouterr().err

    def test_text_model_file_exits_2(self, tmp_path, data_path, capsys):
        # the line-oriented text format that preceded the JSON model files
        model_path = tmp_path / "model.txt"
        model_path.write_text("format: pipeline/1\nname: TSSF_Var_1_step\nk: 2\n")
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "model file is not JSON" in capsys.readouterr().err

    def test_filters_not_channels_by_k_exits_2(self, tmp_path, data_path, capsys):
        model_path = self.fit_model(tmp_path, data_path, pipeline="CSP")
        doc = json.loads(model_path.read_text())
        doc["filters"] = np.ones((6, 5)).tolist()
        model_path.write_text(json.dumps(doc, indent=1))
        out = tmp_path / "p.csv"
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(data_path),
             "--out", str(out)]
        )
        assert code == 2
        assert "coef of length 2 does not weigh 5 filters" in capsys.readouterr().err
        assert not out.exists()

    def test_channel_mismatch_exits_2(self, tmp_path, data_path, config_path):
        model_path = self.fit_model(tmp_path, data_path)
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(CONFIG.replace("channels: 4", "channels: 5"))
        other_data = tmp_path / "other.eegt"
        assert main(["synth", "--config", str(other_cfg), "--out", str(other_data)]) == 0
        code = main(
            ["patterns", "--model", str(model_path), "--data", str(other_data),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2


class TestBench:
    def test_default_three_rows(self, tmp_path, data_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--data", str(data_path), "--k", "2", "--reg", "1.0",
             "--reps", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("pipeline,")
        assert len(lines) == 4  # CSP, TSSF_Var_1_step, TS_AIRM

    def test_zero_reps_exits_2(self, tmp_path, data_path, capsys, monkeypatch):
        # rejected before the data is read, so no pipeline is fitted
        def fail(*args, **kwargs):
            raise AssertionError("bench read its data before checking --reps")

        monkeypatch.setattr(cli, "_load_trials", fail)
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--data", str(data_path), "--k", "2", "--reg", "1.0",
             "--reps", "0", "--out", str(out)]
        )
        assert code == 2
        assert "repetitions must be >= 1" in capsys.readouterr().err
        assert not out.exists()


FIT_ARGS = ["--k", "2", "--reg", "1.0", "--folds", "3"]


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_repeated_pipeline_exits_2_before_reading_data(command, tmp_path, capsys, monkeypatch):
    # eval would write every fold row twice, bench would time the pipeline once
    def fail(*args, **kwargs):
        raise AssertionError(f"{command} read its data before checking the names")

    monkeypatch.setattr(cli, "_load_trials", fail)
    out = tmp_path / "out.csv"
    code = main(
        [command, "--data", "x.eegt", "--pipeline", "CSP", "--pipeline", "TS_AIRM",
         "--pipeline", "CSP", "--k", "2", "--reg", "1", "--out", str(out)]
    )
    assert code == 2
    assert "pipeline given more than once: CSP" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth --seed", "synth config", "fit", "eval", "bench"])
def test_negative_seed_exits_2_and_writes_nothing(
    command, tmp_path, config_path, data_path, capsys
):
    # numpy's generator would raise a ValueError (exit 1) after eval opened --out
    out = tmp_path / "out.csv"
    if command == "synth --seed":
        argv = ["synth", "--config", str(config_path), "--out", str(out), "--seed", "-1"]
    elif command == "synth config":
        config_path.write_text(CONFIG.replace("seed: 11", "seed: -5"))
        argv = ["synth", "--config", str(config_path), "--out", str(out)]
    else:
        argv = [command, "--data", str(data_path), "--pipeline", "CSP", "--k", "2",
                "--reg", "1.0", "--seed", "-3", "--out", str(out)]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["eval", "fit"])
def test_failed_command_leaves_no_output_file(command, tmp_path, data_path, capsys):
    # the outputs are checked before any fit, but a file the check created
    # is removed again; one that was there keeps its bytes
    out = tmp_path / "out" / "r.csv"
    out.parent.mkdir()
    argv = {
        "eval": ["eval", "--pipeline", "CSP", "--pipeline", "TS_AIRM", "--k", "2",
                 "--folds", "50"],
        "fit": ["fit", "--pipeline", "TSSF_Var_1_step", "--k", "9"],
    }[command] + ["--data", str(data_path), "--reg", "1.0", "--out", str(out)]
    message = {"eval": "more folds than", "fit": "k must be in [1, 4], got 9"}[command]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []
    out.write_bytes(b"kept\n")
    assert main(argv) == 2
    assert list(out.parent.iterdir()) == [out] and out.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "case", ["eval --out", "fit --out", "bench --out", "patterns --out", "--data", "--model",
             "--config", "--manifest"],
)
def test_file_that_cannot_be_used_exits_2(case, tmp_path, data_path, capsys, monkeypatch):
    # a directory where a file is read or written, or a text file that is
    # not UTF-8; an output is opened before any fit
    folder = tmp_path / "folder"
    folder.mkdir()
    latin1 = tmp_path / "latin1.txt"
    if case == "--config":
        latin1.write_bytes("# caf\xe9\n".encode("latin-1") + CONFIG.encode())
    else:
        latin1.write_bytes(f"# caf\xe9\n0 {data_path}\n".encode("latin-1"))
    model = tmp_path / "model.json"
    data, out = ["--data", str(data_path)], ["--out", str(tmp_path / "out.csv")]
    assert main(["fit", *data, "--pipeline", "CSP", *FIT_ARGS, "--out", str(model)]) == 0
    argv = {
        "eval --out": ["eval", *data, "--pipeline", "CSP", *FIT_ARGS, "--out", str(folder)],
        "fit --out": ["fit", *data, "--pipeline", "CSP", *FIT_ARGS, "--out", str(folder)],
        "bench --out": ["bench", *data, "--pipeline", "CSP", "--k", "2", "--out", str(folder)],
        "patterns --out": ["patterns", "--model", str(model), *data, "--out", str(folder)],
        "--data": ["eval", "--data", str(folder), "--pipeline", "CSP", *FIT_ARGS, *out],
        "--model": ["patterns", "--model", str(folder), *data, *out],
        "--config": ["synth", "--config", str(latin1), *out],
        "--manifest": ["eval", "--manifest", str(latin1), "--pipeline", "CSP", *FIT_ARGS, *out],
    }[case]

    def fail(*args, **kwargs):
        raise AssertionError("a pipeline was fitted")

    monkeypatch.setattr(tssf.cli, "cross_validate", fail)
    monkeypatch.setattr(tssf.cli, "make_pipeline", fail)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("shape", [(0, 50, 8), (4, 0, 8)], ids=["no channels", "no samples"])
def test_eval_of_trials_with_no_channels_or_no_samples_exits_2(shape, tmp_path, capsys):
    path = tmp_path / "empty.eegt"
    labels = np.where(np.arange(8) % 2 == 0, 1, -1)
    names = [f"ch{i}" for i in range(shape[0])]
    dataio.write_trials(dataio.TrialSet(np.ones(shape), labels, np.zeros(8), names), path)
    argv = ["eval", "--data", str(path), "--pipeline", "CSP", *FIT_ARGS]
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    assert "no channels or no samples" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_data_and_manifest_exclusive(self, tmp_path, data_path):
        code = main(
            ["eval", "--data", str(data_path), "--manifest", str(data_path),
             "--pipeline", "CSP", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0


# Reports the thread count of every OpenBLAS loaded by a process that imported
# the CLI (and scipy.linalg, which loads scipy's own OpenBLAS).
_BLAS_PROBE = """
import ctypes, json
import tssf.cli, scipy.linalg
names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
         "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
with open("/proc/self/maps") as fh:
    paths = sorted({l.split()[-1] for l in fh if "openblas" in l.split()[-1].lower()})
threads = {}
for path in paths:
    lib = ctypes.CDLL(path)
    for name in names:
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads[path] = fn()
            break
print(json.dumps(threads))
"""


def _run_with_thread_cap(code):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OPENBLAS_", "OMP_", "MKL_", "GOTO_"))}
    env["TSSF_THREADS"] = "1"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_tssf_threads_caps_every_openblas():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS libraries")
    proc = _run_with_thread_cap(_BLAS_PROBE)
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout)
    if not threads:
        pytest.skip("no loaded OpenBLAS exports openblas_get_num_threads")
    assert set(threads.values()) == {1}, threads


def test_tssf_threads_warns_when_numpy_loaded_first():
    proc = _run_with_thread_cap("import numpy, tssf")
    assert proc.returncode == 0, proc.stderr
    assert "TSSF_THREADS has no effect" in proc.stderr


def test_import_leaves_scipy_stats_and_signal_unloaded():
    code = """
import sys
import numpy as np
import tssf
assert "scipy.stats" not in sys.modules and "scipy.signal" not in sys.modules
assert tssf.roc_auc(np.array([0.1, 0.9, 0.4]), np.array([-1, 1, -1])) == 1.0
assert tssf.wilcoxon_one_sided(np.arange(6.0), np.zeros(6)) == 1 / 32
a = np.arange(40.0)  # 40 differences: the normal approximation
assert tssf.wilcoxon_one_sided(a + np.linspace(-0.2, 1.0, 40), a) < 1e-3
assert "scipy.stats" not in sys.modules
ts = tssf.synth_generate(tssf.SynthConfig(channels=3, samples=200, trials_per_class=2, seed=1))
filtered = tssf.fir_bandpass(ts)
assert filtered.data.shape == ts.data.shape
assert "scipy.signal" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
