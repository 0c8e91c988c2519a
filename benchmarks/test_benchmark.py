"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import hmmdiv  # noqa: E402
from tracing import Probe, Span, Tracer, hmmdiv_probes, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SHA = SPEC["command"][SPEC["command"].index("--recorded-sha256") + 1]


@pytest.fixture(scope="module")
def recorded():
    return run.load_recorded(SHA)


def test_benchmark_json_names_what_run_reports(recorded):
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert hashlib.sha256(run.RECORDED.read_bytes()).hexdigest() == SHA
    for w in SPEC["workloads"]:
        workload = WORKLOADS[w["name"]]
        cells = run.expected_cells(workload.specs(run.RECORDED_SEED), workload.methods)
        assert sorted(recorded[w["name"]]) == sorted(cells)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "smoke", "--seed", "5", "--seconds", "1",
                           "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    for metric in SPEC[section]:
        reported = summary["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])
    assert set(summary["metrics"]) == {m["name"] for m in SPEC[section]}


def test_traced_run_restores_wrapped_attributes(recorded):
    probes = hmmdiv_probes()
    before = [getattr(p.module, p.attr) for p in probes]
    result = run.measure(WORKLOADS["smoke"], 0, 0, True, recorded["smoke"])
    assert all(getattr(p.module, p.attr) is orig for p, orig in zip(probes, before))
    assert result.failures == [] and result.problems == []
    assert result.metrics["fredholm.j_alpha.calls"] == 1
    assert result.metrics["fredholm.solve_invariant.iterations"] > 0


def test_wrappers_removed_when_traced_code_raises():
    original = hmmdiv.cli.j_log
    with pytest.raises(ZeroDivisionError):
        with Tracer(hmmdiv_probes()):
            assert hmmdiv.cli.j_log is not original
            1 / 0
    assert hmmdiv.cli.j_log is original


def test_raising_cell_counts_as_failed(recorded, monkeypatch):
    real = hmmdiv.cli.j_alpha

    def j_alpha(theta1, theta, alpha, m, grid):
        if alpha == 0.5:
            raise FloatingPointError("injected")
        return real(theta1, theta, alpha, m, grid)

    monkeypatch.setattr(hmmdiv.cli, "j_alpha", j_alpha)
    result = run.measure(WORKLOADS["smoke"], 0, 0, False, recorded["smoke"])
    assert result.attempted == 4
    assert len(result.failures) == result.attempted
    assert all("FloatingPointError: injected" in f for f in result.failures)
    assert result.metrics["pass_ratio"] == 0.0
    _, summary = run.report(result, run.END_TO_END)
    assert not summary["correct"] and summary["failed"] == 4


def test_value_off_the_record_fails_its_cell(recorded):
    changed = dict(recorded["smoke"])
    value = changed["case1|kl|fredholm"][0]
    changed["case1|kl|fredholm"] = [value * (1 + 1e-11)]
    result = run.measure(WORKLOADS["smoke"], 0, 0, False, changed)
    assert len(result.failures) == 1
    assert "case1|kl|fredholm" in result.failures[0]


def test_layer_without_calls_is_missing_not_zero(recorded):
    smoke = WORKLOADS["smoke"]
    kl_only = dataclasses.replace(
        smoke, specs=lambda seed: [dataclasses.replace(s, alphas=("kl",))
                                   for s in smoke.specs(seed)])
    result = run.measure(kl_only, 0, 0, True, recorded["smoke"])
    assert result.failures == []
    assert result.problems == ["MISSING fredholm.j_alpha: the layer made no calls"]
    assert "fredholm.j_alpha.self_s" not in result.metrics
    assert "fredholm.j_log.self_s" in result.metrics
    _, summary = run.report(result, run.PER_LAYER)
    assert not summary["correct"]


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 5.0),  # overlaps b: they ran on two threads
        Span(2, "b", 0, 3.0, 6.0),
        Span(3, "c", 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 3.0, 2: 3.0, 3: 1.0}


def _dummy_layers():
    mod = types.SimpleNamespace(inner=lambda: time.sleep(0.001))

    def outer():
        mod.inner()
        mod.inner()

    mod.outer = outer
    return mod, [Probe(mod, "outer", "l.outer"), Probe(mod, "inner", "l.inner")]


def test_layer_self_times_sum_to_wall_on_one_thread():
    mod, probes = _dummy_layers()
    tracer = Tracer(probes)
    with tracer, tracer.root("cli.run_cases") as root:
        mod.outer()
        mod.inner()
    metrics = layer_metrics(tracer.spans, probes)
    assert metrics["l.outer.calls"] == 1 and metrics["l.inner.calls"] == 3
    total = sum(metrics[f"{n}.self_s"] for n in ("l.outer", "l.inner", "cli.run_cases"))
    assert total == pytest.approx(root.end - root.start, rel=1e-12)


def test_worker_thread_spans_hang_off_the_root():
    mod, probes = _dummy_layers()
    tracer = Tracer(probes)
    with tracer, tracer.root("cli.run_cases") as root:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            for fut in [pool.submit(mod.outer) for _ in range(4)]:
                fut.result()
    outers = [s for s in tracer.spans if s.name == "l.outer"]
    assert len(outers) == 4 and all(s.parent == root.id for s in outers)
    ids = {s.id for s in outers}
    inners = [s for s in tracer.spans if s.name == "l.inner"]
    assert len(inners) == 8 and all(s.parent in ids for s in inners)
