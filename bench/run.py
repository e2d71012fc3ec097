"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload annulus-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One client in one process: pin BLAS to one thread before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_run")

MIN_REQUESTS = 100
MIN_PASSES = 4
SETUP_STARTS = 7
SETUP_KERNEL_REPEATS = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _load(workload: str, seed: int, workdir: str, counters=None):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir, counters)
    wl.generate()
    return wl


class Loop:
    """Closed loop, one client: whole passes over the request set in seeded orders."""

    def __init__(self, wl, seed: int, gauge):
        import numpy as np

        self.wl = wl
        self.gauge = gauge
        self.order_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.first: list = [None] * len(wl.requests)
        self.first_canon: list = [None] * len(wl.requests)
        self.nondeterministic: dict[int, str] = {}
        self.attempted = 0
        self.best = [math.inf] * len(wl.requests)
        self.scaled: list[list[float]] = [[] for _ in wl.requests]

    def run_pass(self, tracer=None) -> float:
        """One pass; returns its busy time at reference speed."""
        clock = time.perf_counter
        busy = 0.0
        for i in self.order_rng.permutation(len(self.wl.requests)):
            request = self.wl.requests[i]
            if tracer is not None:
                tracer.request_id = int(i)
            before = self.gauge.sample()
            t0 = clock()
            try:
                output = request.run()
            except Exception as exc:  # a raising request is a counted failure, not a crash
                output = exc
            elapsed = clock() - t0
            scaled = self.gauge.scaled(elapsed, before, self.gauge.sample())
            busy += scaled
            self.attempted += 1
            self.best[i] = min(self.best[i], elapsed)
            self.scaled[i].append(scaled)
            canon = self.wl.canonical(i, output)
            if self.first_canon[i] is None:
                self.first[i], self.first_canon[i] = output, canon
            elif canon != self.first_canon[i]:
                self.nondeterministic[i] = "output differs between passes"
        return busy

    def latencies(self) -> list[float]:
        """Each distinct request's median time over its repeats, at reference speed."""
        return [statistics.median(t) for t in self.scaled]


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of the cold-start probe: import, generate, warm up, report the clock."""
    sys.path.insert(0, SRC)
    import dnzeta.cli  # noqa: F401  (the import is what is being timed)

    workdir = tempfile.mkdtemp(prefix="setup-", dir=WORK_ROOT)
    try:
        wl = _load(workload, seed, workdir)
        wl.warmup()
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import speed

    # Host speed just after the clock stopped, for scaling; not part of set-up.
    print(repr(ready), repr(speed.kernel_seconds(SETUP_KERNEL_REPEATS)))


def _cold_starts(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds from spawning a fresh interpreter to its first timed request, kernel seconds)."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        ready, kernel = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append((ready - t0, kernel))
    return times


def _import_times() -> dict[str, float]:
    """Median cumulative import time (ms) of three modules, from python -X importtime."""
    wanted = {"dnzeta.specfun": "specfun.import_ms", "dnzeta.det_engine": "det_engine.import_ms"}
    samples: dict[str, list[float]] = {k: [] for k in ("specfun.import_ms", "det_engine.import_ms", "cli.import_ms")}
    code = f"import sys; sys.path.insert(0, {SRC!r}); import dnzeta.cli"
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"import probe failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, name = line.split("|")
                if not cum.strip().isdigit():
                    continue  # the header line
                cumulative[name.strip()] = float(cum) / 1000.0
        for module, key in wanted.items():
            samples[key].append(cumulative.get(module, 0.0))
        # `import dnzeta.cli` loads the package first; together they are the whole cold import.
        samples["cli.import_ms"].append(cumulative.get("dnzeta", 0.0) + cumulative.get("dnzeta.cli", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def _environment() -> dict:
    import numpy

    return {
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _score(wl, loop: Loop) -> tuple[dict, dict]:
    """Check every distinct output; return (end-to-end quality metrics, summary)."""
    card = wl.evaluate(loop.first)
    for i, reason in loop.nondeterministic.items():
        card.fail(i, reason)
    n = card.n_requests
    # Rule-of-succession estimates (k + 1) / (n + 2): never exactly 0, and
    # with n fixed by the workload, 1 / (n + 2) means nothing failed.
    failed_frac = (len(card.failed) + 1) / (n + 2)
    violation_frac = (card.violations + 1) / (card.bounds + 2)
    worst = max(card.errors) if card.errors else 0.0
    quality = {
        "failed_frac": failed_frac,
        "bound_violation_frac": violation_frac,
        # Capped at 17 digits, beyond what a double carries.
        "accuracy_digits": -math.log10(max(worst, 1e-17)),
    }
    summary = {
        "distinct_requests": n,
        "distinct_failed": len(card.failed),
        "bounds_checked": card.bounds,
        "bounds_violated": card.violations,
        "worst_error": worst,
        "failures": [f"{wl.requests[i].label}: {r}" for i, r in sorted(card.failed.items())[:5]],
        **wl.notes,
    }
    return quality, summary


def _measure(wl, seed: int, seconds: float, gauge) -> Loop:
    if len(wl.requests) < MIN_REQUESTS:
        raise ValueError(f"{wl.name} has {len(wl.requests)} distinct requests; p90 needs {MIN_REQUESTS}")
    loop = Loop(wl, seed, gauge)
    start = time.perf_counter()
    passes = 0
    while True:
        loop.run_pass()
        passes += 1
        if time.perf_counter() - start >= seconds and passes >= MIN_PASSES:
            return loop


def _traced(wl, seed: int, seconds: float, gauge, tracer, spans_path: str) -> tuple[Loop, dict]:
    """Alternate untraced and traced passes; per-layer numbers are per traced pass.

    The spans of the first traced pass, one whole pass over the request
    set, are written to spans_path as JSON lines.
    """
    loop = Loop(wl, seed, gauge)
    start = time.perf_counter()
    ratios = []
    first_pass_spans = None
    while True:
        plain = loop.run_pass()
        tracer.install()
        try:
            traced = loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        ratios.append(traced / plain)
        if first_pass_spans is None:
            first_pass_spans = len(tracer.spans)
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(spans_path, first_pass_spans)
    metrics = tracer.layer_metrics(passes=len(ratios))
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dnzeta", "cli.py")):
        _fail(f"no dnzeta sources under {SRC}; run from the root of a dnzeta checkout")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    setup_times = _cold_starts(args.workload, args.seed) if args.trace == 0 else []
    import_ms = _import_times() if args.trace == 1 else {}

    sys.path.insert(0, SRC)
    import dnzeta.cli  # noqa: F401
    from speed import Gauge
    from tracing import Tracer

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        tracer = Tracer()
        wl = _load(args.workload, args.seed, workdir, tracer.count if args.trace else None)
        wl.references()
        wl.warmup()
        gauge = Gauge()
        if args.trace == 0:
            loop = _measure(wl, args.seed, args.seconds, gauge)
        else:
            spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            loop, layer = _traced(wl, args.seed, args.seconds, gauge, tracer, spans_path)
        quality, summary = _score(wl, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop.attempted
    n_failed_distinct = summary["distinct_failed"]
    # Every pass runs each request once, so a failing request fails in every pass.
    failed = round(attempted * n_failed_distinct / summary["distinct_requests"])
    if args.trace == 0:
        ok = summary["distinct_requests"] - n_failed_distinct
        latencies = loop.latencies()
        metrics = {
            # Times are at the gauge's reference speed (bench/speed.py).
            "setup_s": (statistics.median(gauge.scaled(t, k, k) for t, k in setup_times), "s"),
            "solves_per_s": (ok / math.fsum(latencies), "1/s"),
            "latency_p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
            "latency_p90_ms": (_percentile(latencies, 90) * 1e3, "ms"),
            "failed_frac": (quality["failed_frac"], "frac"),
            "bound_violation_frac": (quality["bound_violation_frac"], "frac"),
            "accuracy_digits": (quality["accuracy_digits"], "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # The same figures unscaled: fastest repeat of each request, raw set-up times.
        summary["unscaled"] = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "solves_per_s": ok / math.fsum(loop.best),
            "latency_p50_ms": _percentile(loop.best, 50) * 1e3,
            "latency_p90_ms": _percentile(loop.best, 90) * 1e3,
        }
        summary["setup_s_samples"] = [t for t, _ in setup_times]
        summary["gauge_kernel_ms"] = {
            "median": statistics.median(gauge.samples) * 1e3,
            "min": min(gauge.samples) * 1e3,
            "max": max(gauge.samples) * 1e3,
            "samples": len(gauge.samples),
        }
    else:
        layer.update(import_ms)
        metrics = {k: (v, _unit(k)) for k, v in sorted(layer.items())}
    summary.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "requests": attempted, **_environment()})
    print("summary " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": n_failed_distinct == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


_UNITS = (
    ("overhead_frac", "frac"), ("import_ms", "ms"), ("self_s", "s"), ("screen_s", "s"), ("io_s", "s"),
    ("eigh_s", "s"), ("ns_per_term", "ns"), ("us_per_call", "us"), ("us_per_class", "us"),
    ("io_bytes", "B"), ("stdout_bytes", "B"), ("eigh_gflop", "GFLOP"), ("gflops", "GFLOP/s"),
)


def _unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
