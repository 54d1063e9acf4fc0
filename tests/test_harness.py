"""Config handling, report emission, CLI exit codes, determinism."""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.stats import ks_2samp

from radonlik import LogLikelihoodCurve
from radonlik.harness import (ConfigError, Report, emit_curves, load_config,
                              mcem_missing_data, resolve_out_dir, run_experiment,
                              write_report_json)
from radonlik.diffusion import SDE_CATALOG
from radonlik.expfam import EXPFAM_CATALOG
from radonlik.harness.cli import main
from radonlik.harness.config import CONFIG_SCHEMA
from radonlik.harness.mcem import _ks_distance
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

    def test_mc_step_capped(self, tmp_path, capsys):
        # at the default seed 1e-2 passes the MC oracle check at z 1.00, while
        # 2e-2 fails it on the trapezoid bias at z 5.7
        cfg = load_config()
        cfg["diffusion"] = dict(cfg["diffusion"], mc_step=1e-2)
        report = run_experiment("diffusion", cfg, tmp_path / "at-cap")
        assert {c.name: c for c in report.checks}["mc-transition-vs-exact"].passed
        path = tmp_path / "cfg.yaml"
        path.write_text("diffusion:\n  mc_step: 0.01\n")
        assert load_config(path)["diffusion"]["mc_step"] == 1e-2
        path.write_text("diffusion:\n  mc_step: 0.02\n")
        with pytest.raises(ConfigError, match="diffusion/mc_step"):
            load_config(path)
        assert main(["diffusion", "--config", str(path), "--out", str(tmp_path / "over")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()

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
    @staticmethod
    def run(seed, **changes):
        """`mcem_missing_data` on the config's mcem block, with `changes`."""
        return mcem_missing_data(**{**load_config()["mcem"], **changes}, seed=seed)

    def test_identity_tilt_runs_identical(self):
        result = self.run(5, tilt="identity")
        assert result.theta_lebesgue == result.theta_tilted
        assert result.ks_distance == 0.0

    def test_zero_iterations_return_initialization(self):
        result = self.run(5, iterations=0)
        assert result.theta_lebesgue == 0.0 and result.theta_tilted == 0.0

    def test_agreement_with_closed_form(self):
        result = self.run(20260810)
        assert abs(result.theta_lebesgue - 1.3) <= 3.0 * result.se_lebesgue
        assert abs(result.theta_tilted - 1.3) <= 3.0 * result.se_tilted
        assert result.difference <= 2.0 * result.combined_se

    def test_importance_degeneracy_detected(self):
        with pytest.raises(RuntimeError, match="degeneracy"):
            self.run(5, tilt_tau=0.05)

    def test_mc_size_floor(self):
        with pytest.raises(ValueError):
            self.run(5, mc_size=50)


class TestKSDistance:
    """_ks_distance keeps the bits of scipy.stats.ks_2samp's statistic, on
    both sides of the 10^4-draw boundary of its exact mode."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(24)
        yield rng.standard_normal(50), rng.standard_normal(50)
        yield rng.standard_normal(37), rng.standard_normal(91) + 0.3
        yield rng.integers(0, 5, 200).astype(float), rng.integers(0, 6, 333).astype(float)
        yield np.repeat([0.0, 1.0], 40), np.repeat([0.0, 1.0, 2.0], 13)
        same = rng.standard_normal(64)
        yield same, same[::-1].copy()
        yield rng.standard_normal(7), rng.standard_normal(10000)
        for n1, n2 in ((10000, 10000), (10000, 10001), (10001, 10001), (9999, 10000)):
            yield rng.standard_normal(n1), rng.standard_normal(n2) + 0.02

    def test_statistic_bits(self):
        for x, y in self.pairs():
            for a, b in ((x, y), (y, x)):
                want = float(ks_2samp(a, b).statistic)
                assert _ks_distance(a, b) == want, (len(a), len(b))

    def test_snap_moves_the_last_bit(self):
        # the largest ECDF gap as first computed is an ulp or more off the
        # 1 / lcm grid; the exact mode's snap back onto it keeps scipy's bits
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(37), rng.standard_normal(91) + 0.3
        both = np.concatenate([np.sort(x), np.sort(y)])
        gaps = (np.searchsorted(np.sort(x), both, side="right") / 37
                - np.searchsorted(np.sort(y), both, side="right") / 91)
        want = float(ks_2samp(x, y).statistic)
        assert max(gaps.max(), -gaps.min()) != want
        assert _ks_distance(x, y) == want


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


def test_all_runs_without_scipy_stats(tmp_path):
    """`radonlik all` in a fresh process never imports scipy.stats, which only
    the tests use, as an oracle."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from radonlik.harness.cli import main\n"
            f"assert main(['all', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestArtifactDigests:
    """`radonlik all` at the default seed keeps the bits of every artifact. A
    change that moves a bit must say so here, with the new digests. The bits
    follow the numeric libraries, so the digests hold for the versions below."""

    VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    SHA256 = {
        "proportionality/report.json":
            "9d2486bc161cc1177e46072fccfe13081ae1d2de223d35b95f7e6cc4548160d8",
        "proportionality/curves.csv":
            "6b5713563ed1cc4c9c44230f076148696b4c32da2118bfc5e82a17543cb87366",
        "mixture/report.json":
            "a6dba18ee2b4280d2dc2aaad0f996f59524b8e9ccf16570e52523e6c8d807760",
        "mixture/curves.csv":
            "e2939c5d9e643a9c860e7f38bd67cf046af33eb3f5a6e51b39ac524395d56c69",
        "expfam/report.json":
            "9a653cb3ab8c5e47f4157e33d70c36a38f32acf20f3c6773dd10536715ac23df",
        "expfam/curves.csv":
            "22e69aee3362dd79cf5193acf20d0f21ced081cf92902f0e0ff65aa10a2d94b0",
        "poisson/report.json":
            "eca6aeb0232ffeb81b0683a3ffe74c3fb94a95504f4fd1e1badfd24684511887",
        "poisson/curves.csv":
            "99fe585259d7eb0c8634f515b23814347abc61dc52f7e67516f558548c8bb3c2",
        "diffusion/report.json":
            "f8ae9726422d53385a669754672d9e97b3d1f958274192bf3021ee822cd4f220",
        "diffusion/curves.csv":
            "953bc271f5879381dd805479e647d199e5b136de95e4ebc017570fe77556a79e",
        "bayes/report.json":
            "aa4a62044621ed5383d44f6fad70ce24a7e60d62226b62e4b8bd629127c310d6",
        "bayes/curves.csv":
            "3d7aa11868003044f32064ffe4dfb4388d2f6c70a3e3379956819ce7a90fce9f",
        "mcem/report.json":
            "f36a8597756468dde468f0488ed5dd7be581e865b043efb9d5b731c2fadb465f",
        "mcem/curves.csv":
            "47a518019a6e28fc65235e612b5f14f036c6c59b1991556001b06f06fcfac352",
    }

    def test_default_run_matches_recorded_digests(self, tmp_path):
        versions = {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__}
        if versions != self.VERSIONS:
            pytest.skip(f"digests recorded under {self.VERSIONS}, running {versions}")
        assert main(["all", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.SHA256}
        assert digests == self.SHA256
