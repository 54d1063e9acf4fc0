"""Config handling, report emission, CLI exit codes, determinism."""

import json

import pytest

from radonlik import LogLikelihoodCurve
from radonlik.harness import (ConfigError, Report, emit_curves, load_config,
                              mcem_missing_data, resolve_out_dir, run_experiment,
                              write_report_json)
from radonlik.diffusion import SDE_CATALOG
from radonlik.expfam import EXPFAM_CATALOG
from radonlik.harness.cli import main
from radonlik.harness.config import CONFIG_SCHEMA
from radonlik.mixture import COMPONENT_CATALOG
from radonlik.poisson import INTENSITY_CATALOG


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config()
        assert cfg["seed"] == 20260810 and cfg["tol"] == 1e-8

    def test_file_overrides_merge_deep(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 7\nmixture:\n  p_true: 0.4\n")
        cfg = load_config(path)
        assert cfg["seed"] == 7
        assert cfg["mixture"]["p_true"] == 0.4
        assert cfg["mixture"]["component"] == "exponential"  # default survives

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("poisson:\n  intensity: warp\n")
        with pytest.raises(ConfigError, match="poisson/intensity"):
            load_config(path)

    def test_loglinear_intensity_rejected_at_load(self, tmp_path):
        # poisson.grid is a scalar grid; loglinear takes theta = (a, b)
        path = tmp_path / "cfg.yaml"
        path.write_text("poisson:\n  intensity: loglinear\n")
        with pytest.raises(ConfigError, match="poisson.intensity"):
            load_config(path)

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_schema_enums_follow_catalogs(self):
        props = CONFIG_SCHEMA["properties"]
        assert props["mixture"]["properties"]["component"]["enum"] == list(COMPONENT_CATALOG)
        assert props["expfam"]["properties"]["families"]["items"]["enum"] == list(EXPFAM_CATALOG)
        assert props["poisson"]["properties"]["intensity"]["enum"] == list(INTENSITY_CATALOG)
        assert props["diffusion"]["properties"]["sde"]["enum"] == list(SDE_CATALOG)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("warp-drive", load_config())

    def test_out_dir_resolution_order(self, tmp_path, monkeypatch):
        cfg = {"out": "from-config"}
        monkeypatch.delenv("RADONLIK_OUT", raising=False)
        assert str(resolve_out_dir(cfg)) == "from-config"
        monkeypatch.setenv("RADONLIK_OUT", "from-env")
        assert str(resolve_out_dir(cfg)) == "from-env"
        assert str(resolve_out_dir(cfg, "from-flag")) == "from-flag"


class TestEmitCurves:
    def curves(self):
        thetas = (0.1, 0.2, 0.3)
        c1 = LogLikelihoodCurve("m1", "o", thetas, (-1.0, -2.0, -3.0))
        c2 = LogLikelihoodCurve("m2", "o", thetas, (-1.5, -2.5, -3.5))
        return c1, c2

    def test_three_point_grid_shape(self, tmp_path):
        c1, c2 = self.curves()
        path = tmp_path / "curves.csv"
        emit_curves(c1, c2, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "theta,m1,m2,diff"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_proportional_curves_constant_diff(self, tmp_path):
        c1, c2 = self.curves()
        path = tmp_path / "curves.csv"
        emit_curves(c1, c2, path)
        diffs = [float(line.split(",")[3]) for line in path.read_text().strip().split("\n")[1:]]
        assert max(diffs) - min(diffs) <= 1e-10

    def test_empty_grid_header_only(self, tmp_path):
        c1 = LogLikelihoodCurve("m1", "o", (), ())
        c2 = LogLikelihoodCurve("m2", "o", (), ())
        path = tmp_path / "curves.csv"
        emit_curves(c1, c2, path)
        assert path.read_text() == "theta,m1,m2,diff\n"

    def test_neg_inf_serialized_as_minus_inf(self, tmp_path):
        thetas = (0.1, 0.2)
        c1 = LogLikelihoodCurve("m1", "o", thetas, (float("-inf"), -1.0))
        c2 = LogLikelihoodCurve("m2", "o", thetas, (float("-inf"), -2.0))
        path = tmp_path / "curves.csv"
        emit_curves(c1, c2, path)
        row = path.read_text().strip().split("\n")[1]
        assert row.split(",")[1] == "-inf" and row.split(",")[2] == "-inf"

    def test_mismatched_grids_rejected(self, tmp_path):
        c1 = LogLikelihoodCurve("m1", "o", (0.1,), (-1.0,))
        c2 = LogLikelihoodCurve("m2", "o", (0.2,), (-1.0,))
        with pytest.raises(ValueError):
            emit_curves(c1, c2, tmp_path / "curves.csv")

    def test_vector_parameters_joined_in_theta_column(self, tmp_path):
        thetas = ((0.5, 1.0), (0.75, 1.0))
        c1 = LogLikelihoodCurve("m1", "o", thetas, (-1.0, -2.0))
        c2 = LogLikelihoodCurve("m2", "o", thetas, (-1.5, -2.5))
        path = tmp_path / "curves.csv"
        emit_curves(c1, c2, path)
        first = path.read_text().strip().split("\n")[1]
        assert first.startswith("0.5;1.0,")


class TestReportJson:
    def test_runtime_not_serialized(self, tmp_path):
        report = Report(experiment="x", seed=1, tolerance=1e-8)
        report.add("check", True, value=1.5)
        report.runtime_seconds = 12.34
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert "runtime" not in json.dumps(payload)
        assert payload["schema_version"] == 1
        assert payload["passed"] is True

    def test_infinities_serialized_as_strings(self, tmp_path):
        report = Report(experiment="x", seed=1, tolerance=1e-8)
        report.add("check", False, value=float("-inf"))
        path = tmp_path / "report.json"
        write_report_json(report, path)
        assert json.loads(path.read_text())["checks"][0]["detail"]["value"] == "-inf"


class TestMCEM:
    def test_identity_tilt_runs_identical(self):
        result = mcem_missing_data(omega1=1.3, tilt="identity", seed=5)
        assert result.theta_lebesgue == result.theta_tilted
        assert result.ks_distance == 0.0

    def test_zero_iterations_return_initialization(self):
        result = mcem_missing_data(omega1=1.3, iterations=0, theta_init=0.7, seed=5)
        assert result.theta_lebesgue == 0.7 and result.theta_tilted == 0.7

    def test_agreement_with_closed_form(self):
        result = mcem_missing_data(omega1=1.3, seed=20260810)
        assert abs(result.theta_lebesgue - 1.3) <= 3.0 * result.se_lebesgue
        assert abs(result.theta_tilted - 1.3) <= 3.0 * result.se_tilted
        assert result.difference <= 2.0 * result.combined_se

    def test_importance_degeneracy_detected(self):
        with pytest.raises(RuntimeError, match="degeneracy"):
            mcem_missing_data(omega1=1.3, tilt_tau=0.05, seed=5)

    def test_mc_size_floor(self):
        with pytest.raises(ValueError):
            mcem_missing_data(omega1=1.3, mc_size=50, seed=5)


class TestRunExperiment:
    def test_writes_report_and_curves(self, tmp_path):
        cfg = load_config()
        report = run_experiment("mcem", cfg, tmp_path)
        assert report.passed
        assert (tmp_path / "mcem" / "report.json").exists()
        assert (tmp_path / "mcem" / "curves.csv").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = load_config()
        run_experiment("mixture", cfg, tmp_path / "a")
        run_experiment("mixture", cfg, tmp_path / "b")
        for name in ("report.json", "curves.csv"):
            assert ((tmp_path / "a" / "mixture" / name).read_bytes()
                    == (tmp_path / "b" / "mixture" / name).read_bytes())

    def test_diffusion_reads_observation_csv(self, tmp_path):
        from radonlik.diffusion import simulate_ou
        obs = simulate_ou(1.0, 0.0, (0.0, 0.5, 1.0, 1.5), seed=3)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n"
                                               for t, y in zip(obs.times, obs.values)))
        cfg = load_config()
        cfg["diffusion"] = dict(cfg["diffusion"], observations=str(obs_path),
                                mc_replicates=400)
        report = run_experiment("diffusion", cfg, tmp_path)
        by_name = {c.name: c for c in report.checks}
        assert by_name["zero-drift-gaussian-reduction"].passed
        assert by_name["fixed-bridge-proportional"].passed


class TestCLI:
    def test_pass_exit_zero(self, tmp_path, capsys):
        code = main(["mcem", "--out", str(tmp_path), "--seed", "20260810"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("mixture:\n  component: nope\n")
        code = main(["mixture", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["point(0.3)", "beta(0,2)", "beta(1.2.3,2)",
                                       "beta(2000,3)"])
    def test_bad_prior_label_exit_two(self, tmp_path, capsys, label):
        config = tmp_path / "bayes.yaml"
        config.write_text(f'bayes:\n  priors: ["{label}"]\n')
        assert main(["bayes", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "bayes").exists()

    @pytest.mark.parametrize("label", ["beta(0,2)", "beta(2,0.0)", "beta(1.2.3,2)",
                                       "beta(2," + "9" * 400 + ")", "beta(10000,1)"])
    def test_bad_prior_label_rejected_at_load(self, tmp_path, capsys, label):
        config = tmp_path / "bayes.yaml"
        config.write_text(f'bayes:\n  priors: ["uniform-grid", "{label}"]\n')
        with pytest.raises(ConfigError, match="bayes/priors"):
            load_config(config)
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_negative_tol_exit_two(self, tmp_path):
        assert main(["mcem", "--out", str(tmp_path), "--tol", "-1"]) == 2
