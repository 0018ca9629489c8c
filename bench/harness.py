"""Closed-loop benchmark of the ``qbirkhoff`` command line.

One client in one process runs a workload's invocations through
``qbirkhoff.cli.main(argv)`` with stdout captured, pass after pass, and
starts each invocation only after the previous one returned.  Set-up (input
generation) and output checks happen outside the timed region.  Every pass
runs the same inputs, so each distinct output is checked once by the numpy
oracles and repeats are compared to it.

Times are reported at a nominal machine speed.  The shared machines this
benchmark runs on change speed by up to a factor of two over tens of
seconds, which swamps any in-run statistic.  So right after every
invocation, untimed, a fixed reference kernel that does not touch
``qbirkhoff`` is timed too, and each invocation's time is divided by its
slowdown: the median reference time over the samples around it, over the
reference's nominal time.  The detail line gives the slowdown and the raw
(unnormalized) rate, tail and per-subcommand medians beside it.

With ``trace`` off the run reports the end-to-end metrics; with it on,
untraced and traced passes alternate and the run reports per-layer call
counts and self times per traced pass, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COMMANDS = ("analyze", "classify", "conjugacy", "decompose", "birkhoff")

SETUP_AT_START = 3  # fresh-interpreter imports timed before the passes
SETUP_EVERY_S = 5.0  # and one after the first pass that ends this long after the last
WARMUP_SHARE = 0.1  # of --seconds: the least untimed warm-up, which is at least one pass
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import qbirkhoff.cli; qbirkhoff.cli.build_parser()"
)

# Reference kernel: LAPACK on a small matrix, the kind of call the CLI's
# time goes into.  REF_NOMINAL_S is its time on an idle 2-core x86-64
# machine (numpy 2.4, OpenBLAS 0.3.31, one thread).
REF_NOMINAL_S = 1.35e-3
REF_WINDOW = 5  # reference samples on each side that set an invocation's slowdown
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.normal(size=(48, 48)) + 1j * _REF_RNG.normal(size=(48, 48))


def reference_seconds() -> float:
    start = time.perf_counter()
    np.linalg.svd(_REF_MATRIX)
    np.linalg.eigh(_REF_MATRIX + _REF_MATRIX.conj().T)
    return time.perf_counter() - start


class MissingProgram(RuntimeError):
    """The checkout has no ``qbirkhoff`` sources next to the benchmark."""


def load_cli():
    """Import ``qbirkhoff.cli`` from this checkout's ``src``, never from
    another installation."""
    if not (SRC / "qbirkhoff" / "cli.py").is_file():
        raise MissingProgram(f"no qbirkhoff sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qbirkhoff.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"qbirkhoff was imported from {cli.__file__}, not {SRC}")
    return cli


def setup_seconds() -> float:
    """Time for a new interpreter to import qbirkhoff and build the parser,
    at nominal machine speed."""
    factor = statistics.median(reference_seconds() for _ in range(5)) / REF_NOMINAL_S
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   timeout=60, cwd=ROOT)
    return (time.perf_counter() - start) / factor


def _invoke(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash fails this invocation, not the run
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    latency: list  # raw seconds per invocation
    reference: list  # reference seconds right after each invocation
    totals: spans.Totals | None  # spans of a traced pass
    slowdown: list = field(default_factory=list)  # per invocation, from Run.normalize

    @property
    def traced(self) -> bool:
        return self.totals is not None

    def normalized(self, i: int) -> float:
        return self.latency[i] / self.slowdown[i]

    def ops_per_s(self) -> float:
        return len(self.latency) / sum(map(self.normalized, range(len(self.latency))))


class Run:
    """Passes and outputs of every invocation, indexed like the suite."""

    def __init__(self, suite: inputs.Suite, main):
        self.suite = suite
        self.main = main
        self.outputs = [{} for _ in suite.invocations]  # (code, stdout) -> [count, stderr]
        self.passes = []
        self.traced_out_bytes = 0

    def _record(self, i, code, out, err):
        entry = self.outputs[i].setdefault((code, out), [0, err])
        entry[0] += 1

    def warm_up(self, seconds: float):
        """Run whole passes untimed until every input has run once and
        ``seconds`` have passed, so that no input is first run while timed."""
        start = time.perf_counter()
        while True:
            for i, inv in enumerate(self.suite.invocations):
                _, code, out, err = _invoke(self.main, inv.argv)
                self._record(i, code, out, err)
            if time.perf_counter() - start >= seconds:
                return

    def run_pass(self, tracer: spans.Tracer | None = None):
        done = Pass([], [], None if tracer is None else spans.Totals())
        if tracer is not None:
            tracer.install()
        try:
            for i, inv in enumerate(self.suite.invocations):
                elapsed, code, out, err = _invoke(self.main, inv.argv)
                done.reference.append(reference_seconds())
                if tracer is not None:
                    tracer.fold(done.totals)
                    self.traced_out_bytes += len(out.encode())
                self._record(i, code, out, err)
                done.latency.append(elapsed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.passes.append(done)

    def normalize(self):
        """Set each invocation's slowdown from the reference samples taken
        around it, across pass boundaries."""
        samples = [r for p in self.passes for r in p.reference]
        at = 0
        for p in self.passes:
            for k in range(at, at + len(p.reference)):
                window = samples[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1]
                p.slowdown.append(statistics.median(window) / REF_NOMINAL_S)
            at += len(p.reference)

    def untraced(self):
        return [p for p in self.passes if not p.traced]

    def traced(self):
        return [p for p in self.passes if p.traced]


def measure(suite: inputs.Suite, main, seconds: float, trace: bool, setup_times=None) -> Run:
    """Warm up, then run passes until ``seconds`` have passed.  When
    ``setup_times`` is a list, set-up times are measured into it between
    passes, every SETUP_EVERY_S, so set-up samples spread over the run."""
    run = Run(suite, main)
    run.warm_up(WARMUP_SHARE * seconds)
    tracer = spans.Tracer()
    start = last_setup = time.perf_counter()
    while True:
        traced = trace and len(run.untraced()) > len(run.traced())
        run.run_pass(tracer if traced else None)
        if setup_times is not None and time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setup_times.append(setup_seconds())
            last_setup = time.perf_counter()
        if time.perf_counter() - start >= seconds and (not trace or run.traced()):
            run.normalize()
            return run


def check(run: Run):
    """Oracle verdicts: (attempted, failed, problem messages, decompose term counts)."""
    attempted = failed = 0
    problems, terms = [], []
    for inv, variants in zip(run.suite.invocations, run.outputs):
        for (code, out), (count, err) in variants.items():
            attempted += count
            found = oracles.CHECKS[inv.command](inv, code, out)
            if found:
                failed += count
                detail = err.strip().splitlines()[-1:] if code != 0 else []
                problems.append(f"{' '.join(inv.argv)}: {'; '.join(found + detail)}")
            elif inv.command == "decompose":
                terms.append(len(json.loads(out)))
    return attempted, failed, problems, terms


def tail(values):
    """(value, percentile, samples): the highest nearest-rank percentile
    that leaves TAIL_BEYOND samples above it."""
    ordered = sorted(values, reverse=True)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[beyond], 100.0 * (len(ordered) - beyond) / len(ordered), len(ordered)


def latencies(passes, invocations, seconds_of):
    """Latency metrics in ms from ``seconds_of(pass, i)``: the tail over
    every invocation of every pass, and per subcommand the median over its
    inputs of each input's median over passes.  Also returns the tail's
    percentile and sample count, and the per-input medians."""
    samples = [seconds_of(p, i) for p in passes for i in range(len(invocations))]
    per_input = [statistics.median(seconds_of(p, i) for p in passes)
                 for i in range(len(invocations))]
    tail_s, percentile, count = tail(samples)
    metrics = {"latency_tail_ms": 1e3 * tail_s}
    for command in COMMANDS:
        own = [t for t, inv in zip(per_input, invocations) if inv.command == command]
        metrics[f"{command}_p50_ms"] = 1e3 * statistics.median(own)
    return metrics, {"percentile": percentile, "samples": count}, per_input


def end_to_end(run: Run, terms, setup_times, peak_rss_mb):
    """Metrics from the untraced passes, at nominal machine speed."""
    passes = run.untraced()
    invocations = run.suite.invocations
    timed, latency_tail, per_input = latencies(passes, invocations, Pass.normalized)
    metrics = {
        "ops_per_s": (statistics.median(p.ops_per_s() for p in passes), "1/s"),
        **{name: (value, "ms") for name, value in timed.items()},
        "decompose_terms_mean": (statistics.fmean(terms) if terms else 0.0, "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw, _, _ = latencies(passes, invocations, lambda p, i: p.latency[i])
    raw["ops_per_s"] = statistics.median(len(p.latency) / sum(p.latency) for p in passes)
    by_class = {}
    for t, inv in zip(per_input, invocations):
        by_class.setdefault(f"{inv.command} {inv.label}", []).append(t)
    info = {
        "latency_tail": latency_tail,
        "raw": raw,
        "slowdown": statistics.median(x for p in passes for x in p.slowdown),
        "latency_ms_by_class": {k: 1e3 * statistics.median(v) for k, v in sorted(by_class.items())},
    }
    return metrics, info


def per_layer(run: Run):
    """Per traced pass: calls and self time of each wrapped function, errors
    leaving each layer, result sizes, and the tracing overhead.  Also
    returns each traced pass's slowdown, the divisor of its self times."""
    totals, passes = spans.Totals(), len(run.traced())
    for p in run.traced():
        totals.add(p.totals, time_scale=1.0 / statistics.median(p.slowdown))
    metrics = {}
    for layer, names in spans.LAYERS.items():
        for fn in names:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = (totals.calls[name] / passes, "count")
            metrics[f"{name}.self_s"] = (totals.self_s[name] / passes, "s")
        metrics[f"{layer}.errors"] = (totals.errors[layer] / passes, "count")
    size = totals.size
    rank_bytes = size["extremality.product_matrix"] + size["extremality.stacked_matrix"]
    tests = totals.decompose_tests
    traced = statistics.median(p.ops_per_s() for p in run.traced())
    untraced = statistics.median(p.ops_per_s() for p in run.untraced())
    metrics.update({
        "extremality.rank_matrix_bytes": (rank_bytes / passes, "B"),
        "extremality.terms_per_test": (
            size["extremality.decompose_extremal"] / tests if tests else 0.0, "ratio"),
        "spectral.superop_bytes": (size["channels.superoperator_from_kraus"] / passes, "B"),
        "birkhoff.rounds": (size["birkhoff.birkhoff_decompose"] / passes, "count"),
        "cli.in_bytes": (sum(p.stat().st_size for inv in run.suite.invocations
                             for p in inv.files), "B"),
        "cli.out_bytes": (run.traced_out_bytes / passes, "B"),
        "trace.ops_per_s": (traced, "1/s"),
        "trace.untraced_ops_per_s": (untraced, "1/s"),
        "trace.overhead_ratio": (untraced / traced, "ratio"),
    })
    info = {"traced_pass_slowdown": [statistics.median(p.slowdown) for p in run.traced()]}
    return metrics, info


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, main=None):
    """One benchmark run; returns (result line, detail record).

    ``main`` replaces ``qbirkhoff.cli.main`` (the smoke test passes one that
    corrupts outputs); ``tiny`` shrinks every input class to its smallest size.
    """
    cli = load_cli()
    if main is None:
        def main(argv):
            return cli.main(argv)  # looked up per call, so tracing wrappers apply
    setup_times = None if trace else [setup_seconds() for _ in range(SETUP_AT_START)]
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        suite = inputs.build(workload, seed, Path(work), tiny=tiny)
        run = measure(suite, main, seconds, trace, setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems, terms = check(run)
        if trace:
            metrics, info = per_layer(run)
        else:
            metrics, info = end_to_end(run, terms, setup_times, peak_rss_mb)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(run.untraced()),
        "traced_passes": len(run.traced()),
        "invocations_per_pass": len(suite.invocations),
        "error_rate": failed / attempted,
        **info,
        "inputs": suite.properties,
        "environment": environment(),
        "problems": problems,
    }
    return result, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the qbirkhoff command line.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in detail["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0
