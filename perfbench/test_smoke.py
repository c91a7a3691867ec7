"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from nmlogic import free_algebra as fa  # noqa: E402
from nmlogic import models, valuations  # noqa: E402
from speed import SpeedMeter  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

# Every end-to-end metric the report names, with its unit.
REPORTED = {
    "setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "failed/attempted",
    "closure_elems_per_s": "elements/s", "build_s_p50": "s",
    "formulas_per_s": "formulas/s", "formula_ms_p50": "ms", "formula_ms_p90": "ms",
    "requests_per_s": "requests/s", "request_ms_p50": "ms", "request_ms_p90": "ms",
}


def tiny(name: str, seed: int = 1):
    if name == "closure":
        return workloads.Closure(seed, caps={fa.Variant.NM: 400, fa.Variant.NM_MINUS: 300})
    return workloads.WORKLOADS[name](seed)


def one_round(name: str):
    """Warm-up, one timed round and the final checks of a tiny workload."""
    workload = tiny(name)
    workload.warmup()
    with SpeedMeter() as meter:
        result = run.measure(workload, seconds=0)
    run.final_checks(workload, result)
    return workload, result, meter


def parsed(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        if " = " not in line:
            continue
        name, _, rest = line.partition(" = ")
        value, unit = rest.split()[:2]
        out[name] = (float(value), unit)
    return out


def test_every_metric_is_reported_with_its_unit():
    reported = {}
    for name in run.WORKLOAD_NAMES:
        workload, result, meter = one_round(name)
        assert result.failures == []
        lines, metrics = run.end_to_end(workload, result, [0.1, 0.2], meter)
        reported.update(parsed(lines))
        assert {k: u for k, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(value > 0 for value, _ in metrics.values())
    assert {k: u for k, (_, u) in reported.items() if k in REPORTED} == REPORTED


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(name, tmp_path):
    workload = tiny(name)
    workload.trace_ops = workload.round_ops if name != "cli_session" else 130
    path = tmp_path / "spans.jsonl"
    result, (lines, metrics) = run.traced_run(workload, str(path))
    assert result.failures == []
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert list(metrics) == [name for name, _ in tracing.LAYER_METRICS]
    assert len(path.read_text().splitlines()) > workload.trace_ops
    assert metrics["trace.rate_ratio"][0] > 0
    busy = {"closure": "free_algebra.build.calls", "grid_eval": "chain.eval_chain.calls",
            "cli_session": "cli.main.calls"}[name]
    assert metrics[busy][0] > 0


def test_self_times_add_up_to_op_spans():
    workload = tiny("cli_session")
    workload.trace_ops = 130
    tracer = tracing.Tracer()
    with tracer.installed():
        result = run.measure(workload, ops=workload.trace_ops, tracer=tracer)
    assert result.failures == []
    calls, self_s = tracer.self_times()
    assert calls["op"] == workload.trace_ops
    assert calls["filters.quotient_by_maximal"] > 0 and calls["free_algebra.from_export"] > 0
    assert sum(self_s.values()) == pytest.approx(tracer.op_total(), rel=1e-9)
    assert fa.build.__name__ == "build" and not hasattr(fa.build, "__wrapped__")


def _wrong_build(real):
    def build(n, variant, element_cap=fa.DEFAULT_ELEMENT_CAP):
        try:
            return real(n, variant, element_cap)
        except fa.ElementCapExceeded as err:
            raise fa.ElementCapExceeded(err.attained + 1, err.cap) from None
    return build


def _off_by_one(real):
    def wrong(*args, **kwargs):
        return real(*args, **kwargs) + 1
    return wrong


@pytest.mark.parametrize("name, module, attr, wrapper", [
    ("closure", fa, "build", _wrong_build),
    ("grid_eval", models, "count_models", _off_by_one),
    ("cli_session", valuations, "idempotent_euler_char", _off_by_one),
])
def test_wrong_answers_raise_the_error_rate(name, module, attr, wrapper, monkeypatch):
    monkeypatch.setattr(module, attr, wrapper(getattr(module, attr)))
    workload, result, meter = one_round(name)
    lines, _ = run.end_to_end(workload, result, [0.1], meter)
    assert parsed(lines)["error_rate"][0] > 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_command_line_contract():
    done = _run(run.ROOT, "--workload", "cli_session", "--seed", "7", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[0].startswith("env nproc=") and "numpy=" in lines[0] and "loadavg=" in lines[0]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "grid_eval", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
