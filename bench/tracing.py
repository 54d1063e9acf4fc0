"""Span tracing of radonlik, installed from outside the package.

`Tracer.install` rebinds public functions and class methods of radonlik to
wrappers that record spans: every module attribute that holds the original
object is rebound, so names imported with `from ... import` (such as those
in `radonlik.harness.experiments`) are traced too. `Tracer.uninstall` puts
the original objects back; `with tracer:` does both, and a tracer may be
installed again to add spans. Nothing under src/ is modified.

A span has a name, a start, an end and a parent. Spans are kept in memory;
a span's self time is its duration minus the time its direct children
cover. Counters and maxima are recorded at the same boundaries.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self.rebound: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def record_max(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def wrap(self, name, fn, after=None):
        """`fn` inside a span; `name` may be a function of the call's args."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return out

    # -- installation ------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper, extra_owners=()) -> None:
        """Rebind every radonlik module attribute that holds `original`."""
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "radonlik" or name.startswith("radonlik.")]
        owners.extend(extra_owners)
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self.rebound.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {original!r}")

    def _rebind_method(self, cls, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        self.rebound.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def install(self) -> None:
        """Wrap radonlik's layer boundaries: kernels and curves, bridge MC,
        thinning and Poisson likelihoods, prior integration and posteriors,
        exponential-family densities, mixtures, every `quad` binding, report
        writing and config loading."""
        if self.rebound:
            raise RuntimeError("tracer already installed")
        import scipy.integrate

        from radonlik import bayes, diffusion, expfam, likelihood, mixture, poisson
        from radonlik.harness import config, reporting

        def fn(module, attr, name, after=None, extra_owners=()):
            original = getattr(module, attr)
            self._rebind_everywhere(original, self.wrap(name, original, after), extra_owners)

        self._rebind_method(likelihood.ModelFamily, "log_kernel", "likelihood.kernel")
        fn(likelihood, "likelihood_curve", "likelihood.curve")
        fn(likelihood, "check_proportionality", "likelihood.proportionality_check")

        fn(diffusion, "transition_density_mc", "diffusion.mc", after=_after_mc)
        fn(diffusion, "mle_theta", "diffusion.mle")
        fn(diffusion, "obs_bridge_log_density", "diffusion.bridge_density")

        fn(poisson, "simulate_thinning", "poisson.thinning", after=_after_thinning)
        fn(poisson, "loglik_product_measure", "poisson.loglik")
        fn(poisson, "loglik_jacod", "poisson.loglik")
        original_intensity = poisson.IntensityModel.__dict__["intensity"]

        def intensity(model, theta, point):
            if self.innermost() == "poisson.thinning":
                self.counts["poisson.thinning_proposals"] += 1
            return original_intensity(model, theta, point)

        intensity.__wrapped__ = original_intensity
        self.rebound.append((poisson.IntensityModel, "intensity", original_intensity))
        poisson.IntensityModel.intensity = intensity

        self._rebind_method(bayes.Prior, "integrate",
                            lambda args: f"bayes.integrate.{args[0].kind}")
        fn(bayes, "posterior", "bayes.posterior")

        fn(expfam, "log_density", "expfam.log_density")
        self._rebind_method(expfam.ExponentialFamily, "log_partition", "expfam.log_partition")

        fn(mixture, "simulate", "mixture.simulate")
        fn(mixture, "grid_mle", "mixture.grid_mle")

        # mixture imports quad inside a function, so scipy's binding is wrapped too
        fn(scipy.integrate, "quad", "quad", after=_after_quad, extra_owners=(scipy.integrate,))

        fn(reporting, "write_report_json", "reporting.write", after=_after_write)
        fn(reporting, "emit_curves", "reporting.write", after=_after_write)
        fn(config, "load_config", "config.load")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _after_mc(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["diffusion.mc_replicates"] += kwargs.get("n_replicates") or args[5]
    est, se = result
    if est > 0:
        tracer.samples["diffusion.mc_rse"].append(se / est)


def _after_thinning(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["poisson.thinning_kept"] += result.count


def _after_quad(tracer: Tracer, args, kwargs, result) -> None:
    tracer.record_max("quad.max_abserr", float(result[1]))


def _after_write(tracer: Tracer, args, kwargs, result) -> None:
    path = kwargs.get("path", args[-1])
    tracer.counts["reporting.bytes_written"] += Path(path).stat().st_size


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced spans, as (value, unit).

    Times are self times, except
    `experiments.*`, which are the benchmark's op spans around
    `run_experiment` and give the whole experiment.
    """
    calls = tracer.calls()
    self_s = tracer.self_times()
    whole_s = tracer.total_times()
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    totals = {
        "likelihood.kernel_evals": calls["likelihood.kernel"],
        "likelihood.kernel_s": self_s["likelihood.kernel"],
        "likelihood.curve_self_s": self_s["likelihood.curve"],
        "likelihood.proportionality_check_s": self_s["likelihood.proportionality_check"],
        "diffusion.mc_calls": calls["diffusion.mc"],
        "diffusion.mc_replicates": counts["diffusion.mc_replicates"],
        "diffusion.mc_s": self_s["diffusion.mc"],
        "diffusion.mle_s": self_s["diffusion.mle"],
        "diffusion.bridge_density_calls": calls["diffusion.bridge_density"],
        "diffusion.bridge_density_s": self_s["diffusion.bridge_density"],
        "poisson.thinning_calls": calls["poisson.thinning"],
        "poisson.thinning_s": self_s["poisson.thinning"],
        "poisson.thinning_proposals": counts["poisson.thinning_proposals"],
        "poisson.loglik_calls": calls["poisson.loglik"],
        "poisson.loglik_s": self_s["poisson.loglik"],
        "bayes.integrate_calls.grid": calls["bayes.integrate.grid"],
        "bayes.integrate_s.grid": self_s["bayes.integrate.grid"],
        "bayes.integrate_calls.beta": calls["bayes.integrate.beta"],
        "bayes.integrate_s.beta": self_s["bayes.integrate.beta"],
        "bayes.posterior_s": self_s["bayes.posterior"],
        "expfam.log_density_calls": calls["expfam.log_density"],
        "expfam.log_density_s": self_s["expfam.log_density"],
        "expfam.log_partition_calls": calls["expfam.log_partition"],
        "mixture.simulate_s": self_s["mixture.simulate"],
        "mixture.grid_mle_s": self_s["mixture.grid_mle"],
        "quad.calls": calls["quad"],
        "quad.s": self_s["quad"],
        "experiments.mixture_s": whole_s["experiments.mixture"],
        "experiments.expfam_s": whole_s["experiments.expfam"],
        "experiments.mcem_s": whole_s["experiments.mcem"],
        "reporting.write_s": self_s["reporting.write"],
        "reporting.bytes_written": counts["reporting.bytes_written"],
        "config.load_s": self_s["config.load"],
    }
    metrics = {name: (value, "s" if name.endswith(("_s", ".s")) or "_s." in name else "count")
               for name, value in totals.items()}
    rse = tracer.samples["diffusion.mc_rse"]
    metrics.update({
        "diffusion.mc_replicates_per_s": (ratio(counts["diffusion.mc_replicates"],
                                                self_s["diffusion.mc"]), "1/s"),
        "diffusion.mc_rse": (float(np.median(rse)) if rse else 0.0, "1"),
        "poisson.thinning_accept_ratio": (ratio(counts["poisson.thinning_kept"],
                                                counts["poisson.thinning_proposals"]), "1"),
        "quad.max_abserr": (tracer.maxima.get("quad.max_abserr", 0.0), "1"),
    })
    return metrics


def largest_self_share(tracer: Tracer) -> tuple[str, float]:
    """The span name with the most self time and its share of all spans' time."""
    self_s = tracer.self_times()
    total = sum(self_s.values())
    name = max(self_s, key=self_s.get)
    return name, (self_s[name] / total if total > 0 else math.nan)
