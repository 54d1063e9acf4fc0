"""Hygiene of the traced run.

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -q -p no:cacheprovider bench/test_tracing.py

After tracing is uninstalled, every rebound attribute must hold its original
object again, and artifacts written untraced must match, byte for byte, those
of a run in which tracing was never installed (and those written traced).
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import radonlik  # noqa: E402
from radonlik.harness import EXPERIMENTS, experiments, load_config  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BridgeMC, LargeSample  # noqa: E402


def _small_config() -> dict:
    config = load_config()
    config["seed"] = 7
    config["proportionality"]["instances"] = 3
    config["mixture"]["n_samples"] = 500
    config["poisson"].update(patterns=3, replicates=200)
    config["diffusion"]["mc_replicates"] = 300
    config["bayes"]["n_max"] = 2
    config["mcem"].update(mc_size=300, iterations=3)
    return config


def _artifacts(config: dict, out: Path) -> dict:
    for name in EXPERIMENTS:
        experiments.run_experiment(name, copy.deepcopy(config), out)
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _op_results(tmp: Path) -> list:
    """Results of one small bridge-mc and large-sample pass."""
    bridge = BridgeMC(3, tmp, {})
    bridge.replicates = 300
    bridge.mle_replicates = 100
    large = LargeSample(3, tmp, {})
    large.mixture_n, large.poisson_points, large.expfam_n = 2000, 300, 200
    return [op.run() for w in (bridge, large) for op in w.ops(0)]


def _traced_wrappers() -> list[str]:
    """Names in radonlik modules and classes that still hold a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "radonlik" and not name.startswith("radonlik."):
            continue
        for attr, value in vars(module).items():
            holders = [value] + ([v for v in vars(value).values()] if isinstance(value, type) else [])
            if any(getattr(h, "__wrapped__", None) is not None and
                   getattr(h, "__module__", "") == "tracing" for h in holders):
                found.append(f"{name}.{attr}")
    return found


def test_traced_run_leaves_program_as_it_was(tmp_path):
    config = _small_config()
    never = _artifacts(config, tmp_path / "never")
    never_ops = _op_results(tmp_path)

    tracer = Tracer()
    tracer.install()
    rebound = list(tracer.rebound)
    try:
        traced = _artifacts(config, tmp_path / "traced")
        traced_ops = _op_results(tmp_path)
    finally:
        tracer.uninstall()

    assert all(getattr(owner, attr) is original for owner, attr, original in rebound)
    assert not tracer.rebound
    assert _traced_wrappers() == []
    assert radonlik.likelihood_curve is radonlik.likelihood.likelihood_curve

    after = _artifacts(config, tmp_path / "after")
    after_ops = _op_results(tmp_path)
    assert set(never) == {f"{name}/{a}" for name in EXPERIMENTS
                          for a in ("report.json", "curves.csv")}
    assert traced == never
    assert after == never
    assert traced_ops == never_ops and after_ops == never_ops

    calls = tracer.calls()
    for span in ("likelihood.kernel", "likelihood.curve", "diffusion.mc", "diffusion.mle",
                 "poisson.thinning", "bayes.integrate.grid", "expfam.log_density",
                 "mixture.simulate", "quad", "reporting.write"):
        assert calls[span] > 0, span
    assert tracer.counts["poisson.thinning_proposals"] > 0
    assert tracer.counts["reporting.bytes_written"] == sum(len(b) for b in traced.values())
