"""Benchmark for nmlogic: one closed-loop client running one named workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid_eval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads are ``closure``, ``grid_eval`` and ``cli_session`` (see
``workloads.py``); ``all`` runs each in a fresh process.  The program is
imported from ``src/`` of the same checkout and nowhere else.  Every answer
is checked by an oracle; the report gives the environment, each metric by
name with its unit and sample count, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured for
``--seconds`` seconds, with op timings normalised by the host's speed as
sampled throughout the run (see ``speed.py``).  With ``--trace 1`` a fixed number of ops runs
untraced and traced, and the metrics are the per-layer ones
(see ``tracing.py``) plus the ratio of the traced to the untraced rate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from speed import REFERENCE_S, SpeedMeter

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("closure", "grid_eval", "cli_session")
# setup_s is the median of this many set-ups: this process plus children.
SETUP_SAMPLES = 9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


def cap_threads(nproc: int) -> None:
    """Keep BLAS and OpenMP pools within the cores this process may use."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def load_program() -> None:
    """Import nmlogic from this checkout's ``src``; exit 1 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import nmlogic
    except ImportError as err:
        sys.exit(f"cannot import nmlogic from {SRC}: {err}")
    if os.path.dirname(os.path.abspath(nmlogic.__file__)) != os.path.join(SRC, "nmlogic"):
        sys.exit(f"nmlogic was imported from {nmlogic.__file__}, not from {SRC}")


@dataclass
class Measurement:
    spans: list[tuple[float, float]] = field(default_factory=list)
    works: list[int] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def samples(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def work(self) -> int:
        return sum(self.works)

    def round_rates(self, round_ops: int, durations: list[float]) -> list[float]:
        """Work per second of each complete round of ``round_ops`` ops."""
        return [
            sum(self.works[i:i + round_ops]) / sum(durations[i:i + round_ops])
            for i in range(0, len(durations) - round_ops + 1, round_ops)
        ]

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)


def run_op(workload, i: int, result: Measurement, tracer=None) -> None:
    """Prepare, time and check op ``i``; any exception counts as a failure."""
    op = workload.prepare(i)
    if tracer is not None:
        tracer.counts["formula.nodes"] += sum(tracer.nodes(f) for f in workload.inputs(op))
    start = time.perf_counter()
    try:
        if tracer is None:
            answer = workload.call(op)
        else:
            with tracer.op(i):
                answer = workload.call(op)
    except Exception as err:
        result.spans.append((start, time.perf_counter()))
        result.works.append(0)
        result.record(f"op {i} raised {type(err).__name__}: {err}")
        return
    result.spans.append((start, time.perf_counter()))
    result.works.append(workload.work(op))
    try:
        result.record(workload.check(op, answer))
    except Exception as err:
        result.record(f"op {i} answer could not be checked: {type(err).__name__}: {err}")


def measure(workload, seconds: float | None = None, ops: int | None = None, tracer=None) -> Measurement:
    """Run ops 0, 1, ... for ``seconds`` or exactly ``ops``.

    A timed run stops only at the end of a round, one full cycle of the
    workload's mix, so every run sends each kind of op in the same share.
    """
    result = Measurement()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        if ops is not None and i >= ops:
            break
        if ops is None and i > 0 and i % workload.round_ops == 0 and time.perf_counter() >= deadline:
            break
        run_op(workload, i, result, tracer)
        i += 1
    return result


def final_checks(workload, result: Measurement) -> None:
    try:
        problems = workload.final_checks()
    except Exception as err:
        problems = [f"final checks raised {type(err).__name__}: {err}"]
    for problem in problems:
        result.record(problem)


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def setup_samples(args, own: float) -> list[float]:
    """Set-up seconds of this process and of fresh child processes."""
    times = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if child.returncode != 0:
            sys.exit(f"set-up child failed with code {child.returncode}: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return times


def end_to_end(workload, result: Measurement, setups: list[float],
               meter: SpeedMeter) -> tuple[list[str], dict]:
    """Report lines under the workload's own metric names, and the JSON metrics.

    Op timings in the JSON are normalised by the speed meter; the report
    lines give the raw wall-clock figures beside them.
    """
    raw = result.samples
    normalised = [meter.normalised(start, end) for start, end in result.spans]
    n, rounds = len(raw), workload.round_ops
    scale, unit = workload.latency_scale, workload.latency_unit
    rate = statistics.median(result.round_rates(rounds, normalised))
    raw_rate = statistics.median(result.round_rates(rounds, raw))
    setup = statistics.median(setups)
    probe = statistics.median(meter.durations)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = len(result.failures)
    lines = [
        f"setup_s = {setup:.6f} s (wall time, median of {len(setups)} set-ups)",
        f"peak_rss_mb = {rss:.3f} MiB (this process)",
        f"error_rate = {failed / result.attempted:.6f} failed/attempted ({failed} of {result.attempted})",
        f"{workload.rate_name} = {rate:.6f} {workload.rate_unit} (normalised; raw {raw_rate:.6f}; "
        f"median of {n // rounds} rounds of {rounds} ops; {result.work} in {sum(raw):.3f} s)",
    ]
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MiB"),
        "rate_per_s": (rate, "1/s"),
    }
    for q in (50, 90):
        value, raw_value = percentile(normalised, q), percentile(raw, q)
        lines.append(f"{workload.latency_prefix}_p{q} = {value * scale:.6f} {unit} "
                     f"(normalised; raw {raw_value * scale:.6f}; n={n}, {n - int(q / 100 * n)} above)")
        metrics[f"op_ms_p{q}"] = (value * 1000, "ms")
    lines.append(f"speed probe: median {probe * 1e6:.1f} us, "
                 f"min {min(meter.durations) * 1e6:.1f} us over {len(meter.durations)} samples "
                 f"(reference {REFERENCE_S * 1e6:.0f} us)")
    return lines, metrics


def traced_run(workload, path: str) -> tuple[Measurement, tuple[list[str], dict]]:
    """Each of a fixed number of ops untraced and then traced; spans go to ``path``.

    Running the two copies of an op back to back lets both see the same
    host speed, so their ratio is the tracing overhead.
    """
    from tracing import LAYER_METRICS, Tracer

    plain, traced, tracer = Measurement(), Measurement(), Tracer()
    for i in range(workload.trace_ops):
        run_op(workload, i, plain)
        with tracer.installed():
            run_op(workload, i, traced, tracer)
    ratio = (traced.work / sum(traced.samples)) / (plain.work / sum(plain.samples))
    values = tracer.layer_metrics(ratio)
    tracer.dump(path)
    layer_total = sum(tracer.self_times()[1].values())
    lines = [
        f"{name} = {values[name]:.6f} {unit}" if unit != "count" else f"{name} = {values[name]} {unit}"
        for name, unit in LAYER_METRICS
    ]
    lines.append(
        f"self times sum to {layer_total:.6f} s over op spans of {tracer.op_total():.6f} s "
        f"({workload.trace_ops} ops traced, {len(tracer.spans)} spans written to {path})"
    )
    lines.append(f"tracing overhead: traced rate / untraced rate = {ratio:.4f}")
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    merged = Measurement(plain.spans + traced.spans, plain.works + traced.works,
                         plain.attempted + traced.attempted, plain.failures + traced.failures)
    return merged, (lines, metrics)


def run_all(args) -> int:
    """Each workload in a fresh process; the last line sums their results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        last = json.loads(child.stdout.strip().splitlines()[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    load_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    # Set-up is timed in wall seconds, before the speed meter starts: it is
    # mostly imports in a fresh process, which the probe does not track.
    setup = time.perf_counter() - START
    if args.setup_only:
        print(f"{setup:.6f}")
        return 0
    with contextlib.ExitStack() as stack:
        meter = None if args.trace else stack.enter_context(SpeedMeter())
        return session(args, workload, setup, meter, nproc, loadavg)


def session(args, workload, setup: float, meter: SpeedMeter | None, nproc: int, loadavg) -> int:
    """Measure and report one workload that is already set up."""
    import numpy

    print(f"env nproc={nproc} python={platform.python_version()} numpy={numpy.__version__} "
          f"loadavg={loadavg[0]:.2f},{loadavg[1]:.2f},{loadavg[2]:.2f} "
          f"threads_cap={os.environ[THREAD_VARS[0]]}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    warmup_problem = None
    try:
        workload.warmup()
    except Exception as err:
        warmup_problem = f"warm-up raised {type(err).__name__}: {err}"
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result, (lines, metrics) = traced_run(workload, path)
    else:
        setups = setup_samples(args, setup)
        result = measure(workload, seconds=args.seconds)
    final_checks(workload, result)
    result.record(warmup_problem)
    if not args.trace:
        lines, metrics = end_to_end(workload, result, setups, meter)
    for line in lines:
        print(f"metric {line}")
    for problem in result.failures[:5]:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
