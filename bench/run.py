"""Benchmark of radonlik: wall time to a verified result.

    python3 bench/run.py --workload {lab-default,bridge-mc,large-sample}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
One process, one caller, closed loop: each op starts when the previous one
has finished and been checked. Inputs are made from --seed only.

--trace 0 runs passes, untraced, while another one fits in S seconds (at
least the workload's minimum), and reports the end-to-end metrics:
`setup_s`, `peak_rss_mb` (this process) and `all_ref`, the median over
passes of a pass's wall time over the median time of a fixed reference
block run before each of its ops. The block uses no radonlik code, so
`all_ref` moves with the program's speed and not with the speed the host
lends this process, which on a shared host can drift by a third within
minutes; the plain median pass time is in the detail line (`all_s`).
`setup_s` is corrected for that speed the same way: it is the median over
5 fresh processes that import radonlik and the harness and load the config,
each process's time scaled by a fixed block of interpreter work that it
runs before and after (see `measure_setup`); the raw times are in the
detail line.

--trace 1 first runs one full-size pass whose times are dropped, so that
first-use costs fall outside the figures. Then, while another pass fits in
about S seconds, it runs every op of a pass twice, untraced and traced,
alternating which goes first from op to op and from seed to seed, and reports the per-layer metrics of the
traced runs (median over passes; see tracing.py), the untraced median time
of each op kind that the workload has (`diffusion_s`, `bayes_s`,
`proportionality_s`, `poisson_s` on lab-default; `oracle_s_to_rse1e-3`,
`mle_curve_s` on bridge-mc; `mixture_curve_s`, `poisson_pattern_s`,
`expfam_curve_s` on large-sample; 0 elsewhere) and `trace_overhead`, the
traced over the untraced time of the same ops.
`oracle_s_to_rse1e-3` is an oracle point's time scaled to a relative SE of
1e-3, t (se / est / 1e-3)^2: time to a stated precision.

Every op is checked against its oracle. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before
it holds the environment, sample counts and per-op detail. Scratch files
live in `.bench-tmp/` in the checkout, which is removed on exit and, if a
killed run left it, at the start of the next run.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True   # leave no __pycache__ in the checkout

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Scratch dir for artifacts, inside the checkout because the benchmark keeps
# its reads and writes there; one run at a time per checkout.
SCRATCH = ".bench-tmp"
# Child process timed for setup_s: import radonlik and the harness and load
# the config, between two runs of a fixed block of interpreter work whose
# summed time it prints.
SETUP_CODE = f"""
import math, sys, time

def block():
    start = time.perf_counter()
    for _ in range(4):
        acc = 0.0
        for i in range(1, 60000):
            acc += math.log(i)
        table = {{i: (i, float(i)) for i in range(20000)}}
    return time.perf_counter() - start

before = block()
sys.path.insert(0, {str(SRC)!r})
import radonlik, radonlik.harness
radonlik.harness.load_config()
print(before + block())
"""
# The two blocks' time on the host of bench/baseline.json; setup_s is given
# at the speed at which they take this long.
BLOCKS_S = 0.27


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lab-default", "bridge-mc", "large-sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- environment ---------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cache_kib(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "level") == str(level) and _read(index / "type") in ("Unified", "Data"):
            size = _read(index / "size") or ""
            return int(size[:-1]) if size.endswith("K") else None
    return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_kib_per_core": _cache_kib(2),
        "l3_kib": _cache_kib(3),
        "git_commit": _git_commit(),
        "bench_seed": seed,
    }


# -- measurement ---------------------------------------------------------------

def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes that import radonlik and load the
    config, raw and scaled to the speed at which the blocks take BLOCKS_S.

    A process's set-up time is its wall time less that of its blocks. The
    blocks run in the same process just before and after set-up, so they
    see the speed the host lends it then; scaling by them halved the
    spread of single samples on a shared 2-core host.
    """
    raw, scaled = [], []
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-B", "-c", SETUP_CODE], check=True, timeout=120,
                              cwd=ROOT, capture_output=True, text=True)
        blocks = float(done.stdout)
        setup = time.perf_counter() - start - blocks
        raw.append(setup)
        scaled.append(setup * BLOCKS_S / blocks)
    return raw, scaled


def reference_block() -> float:
    """Wall time of a fixed mix of interpreter work and of array work on
    6 MB arrays, a working set like that of a bridge chunk. Contention
    from other tenants slows large-array work more than interpreter work,
    and the mix follows radonlik's more closely than either alone.

    Changing this block changes the unit of `all_ref`.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 60000):
        acc += math.log(i)
    table = {i: (i, float(i)) for i in range(20000)}
    paths = np.cumsum(np.random.default_rng(0).standard_normal((1024, 750)), axis=1) * 0.03
    acc += float(np.trapezoid(np.exp(-0.5 * paths * paths), dx=1e-3, axis=1).sum()) + len(table)
    return time.perf_counter() - start


class Ledger:
    """Op outcomes and times of one run or phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.pass_times: list[float] = []
        self.reference_times: list[float] = []
        self.pass_refs: list[float] = []         # pass times in reference-block units
        self.oracle_s_to_rse: list[float] = []   # time scaled to a relative SE of 1e-3
        self.gap_abs_err = 0.0

    def run_op(self, op, index: int, tracer=None, span: str = "") -> float:
        """Run and check one op of pass `index`; return its time. With a
        `tracer`, the op runs inside a span named `span`."""
        self.attempted += 1
        opened = tracer.open(span) if tracer else None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:   # an op that raises is a failed op; keep measuring
            self.failed += 1
            self.failures.append({"pass": index, "kind": op.kind, "error": repr(exc)})
            return time.perf_counter() - start
        finally:
            elapsed = time.perf_counter() - start
            if opened is not None:
                tracer.close(opened)
        ok, info = op.check(result)
        if not ok:
            self.failed += 1
            self.failures.append({"pass": index, "kind": op.kind, **info})
        self.times[op.kind].append(elapsed)
        if "rse" in info:
            self.oracle_s_to_rse.append(elapsed * (info["rse"] / 1e-3) ** 2)
        self.gap_abs_err = max(self.gap_abs_err, info.get("gap_abs_err", 0.0))
        return elapsed

    def run_pass(self, workload, index: int, reference: bool = False) -> float:
        """Run and check one pass; return the time of its ops. With
        `reference`, time the reference block before every op, and record
        the pass's time over the median time of its blocks."""
        total = 0.0
        blocks = []
        for op in workload.ops(index):
            if reference:
                blocks.append(reference_block())
            total += self.run_op(op, index)
        self.pass_times.append(total)
        if blocks:
            self.reference_times.extend(blocks)
            self.pass_refs.append(total / median(blocks))
        return total

    def kind_medians(self) -> dict[str, float]:
        return {kind: median(values) for kind, values in self.times.items()}


def untraced(workload, seconds: float) -> Ledger:
    """Run passes while another one, as long as the longest so far, fits in
    `seconds`, and at least the workload's `min_passes`."""
    ledger = Ledger()
    reference_block()   # the first call pays for page faults and allocation
    start = time.perf_counter()
    index, longest = 0, 0.0
    while index < workload.min_passes or time.perf_counter() - start + longest <= seconds:
        pass_start = time.perf_counter()
        ledger.run_pass(workload, index, reference=True)
        longest = max(longest, time.perf_counter() - pass_start)
        index += 1
    return ledger


def traced(workload, seconds: float) -> dict:
    """After a dropped full-size pass, run every op of a pass untraced and
    traced, alternating which goes first, while another pass fits in
    `seconds`; per-layer figures are medians over the passes."""
    from radonlik import harness
    from tracing import Tracer, largest_self_share, layer_metrics
    from workloads import WORKLOADS

    warm, plain, with_trace = Ledger(), Ledger(), Ledger()
    warm.run_pass(workload, 0)
    layers, leaders = [], []
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer()
        with tracer:
            harness.load_config()      # the config load every process pays
        for position, op in enumerate(workload.ops(index)):
            traced_first = (workload.seed + index + position) % 2 == 1
            for trace in (traced_first, not traced_first):
                if trace:
                    with tracer:
                        traced_s += with_trace.run_op(op, index, tracer,
                                                      f"{workload.span_prefix}.{op.kind}")
                else:
                    plain_s += plain.run_op(op, index)
        layers.append(layer_metrics(tracer))
        leaders.append(largest_self_share(tracer))
        index += 1
        if time.perf_counter() - start + (time.perf_counter() - pass_start) > seconds:
            break

    metrics = {key: (median(layer[key][0] for layer in layers), unit)
               for key, (_, unit) in layers[0].items()}
    kinds = plain.kind_medians()
    for cls in WORKLOADS.values():
        for key, kind in cls.kind_metrics.items():
            value = kinds.get(kind, 0.0) if cls is type(workload) else 0.0
            metrics[key] = (value, "s")
    metrics["oracle_s_to_rse1e-3"] = (median(plain.oracle_s_to_rse)
                                      if plain.oracle_s_to_rse else 0.0, "s")
    metrics["poisson.gap_max_abs_err"] = (max(plain.gap_abs_err, with_trace.gap_abs_err), "1")
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
    return {
        "metrics": metrics,
        "ledgers": [warm, plain, with_trace],
        "detail": {"samples": {"traced_passes": len(layers)},
                   "kind_median_s": kinds,
                   "traced_kind_median_s": with_trace.kind_medians(),
                   "largest_self_time": leaders},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "radonlik" / "__init__.py").is_file():
        print(f"bench: no radonlik package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # exit through the `finally` below when stopped, so the scratch dir goes too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = ROOT / SCRATCH
    shutil.rmtree(tmp, ignore_errors=True)   # left by a run that was killed
    tmp.mkdir()
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    from radonlik.harness import load_config
    from workloads import WORKLOADS

    config = load_config()
    workload = WORKLOADS[args.workload](args.seed, tmp, config)
    workload.warm_up()
    detail = {"workload": args.workload, "environment": environment(args.seed)}

    if args.trace == 0:
        setup_raw, setup = measure_setup(SETUP_SAMPLES)
        ledger = untraced(workload, args.seconds)
        all_s = median(ledger.pass_times)
        metrics = {
            "all_ref": (median(ledger.pass_refs), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (median(setup), "s"),
        }
        detail["all_s"] = all_s
        detail["samples"] = {"setup_s": setup, "setup_raw_s": setup_raw,
                             "pass_s": ledger.pass_times,
                             "reference_s": ledger.reference_times}
        detail["kind_median_s"] = ledger.kind_medians()
        ledgers = [ledger]
    else:
        result = traced(workload, args.seconds)
        metrics, ledgers = result["metrics"], result["ledgers"]
        detail.update(result["detail"])

    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    detail["failures"] = [f for ledger in ledgers for f in ledger.failures]
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
