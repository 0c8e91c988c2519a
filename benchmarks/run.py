"""hmmdiv benchmark: time to a checked divergence table, end to end or per layer.

Run from the repository root:

    python3 benchmarks/run.py --recorded-sha256 HEX \\
        --workload paper-table --seed 0 --seconds 30 --trace 0

The workloads are defined in workloads.py. A run builds the workload's
cases from --seed (the seed only sets the simulation substreams), then
calls `hmmdiv.cli.run_cases` again and again, each call after the previous
one returned, until --seconds have passed; at least one call is made.

--trace 0 reports the end-to-end metrics, measured with tracing off:

    setup_s       median over separate processes of the time from process
                  start to the workload's CaseSpecs being built
    table_wall_s  median wall time of one run_cases call
    peak_rss_mb   peak resident memory of this process
    pass_ratio    1 - fail_ratio, the share of cells that passed

--trace 1 alternates untraced and traced calls and reports per-layer
metrics of the traced ones (see tracing.py), plus the tracing overhead:
the median traced wall time minus the median untraced one. A probed layer
that makes no calls on a workload where it should is reported as missing
and makes the run incorrect.

A cell is one (case, order, engine) value. It fails when run_cases
raises, when it is missing or not finite, when it violates
`hmmdiv.cli.check_rows` (reference bands and the 3-sd cross-engine
check), when it differs from recorded.json by more than 1e-12 relative
(Fredholm cells at every seed, simulation cells at the recorded seed), or
when a later call of the run does not reproduce the first untraced call
bit for bit. recorded.json must hash to --recorded-sha256.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDED = HERE / "recorded.json"
RECORDED_SEED = 0
REL_TOL = 1e-12
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "table_wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "fredholm.build_kernel.calls": "count",
    "fredholm.build_kernel.self_s": "s",
    "fredholm.build_kernel.cascade_s": "s",
    "fredholm.solve_invariant.calls": "count",
    "fredholm.solve_invariant.self_s": "s",
    "fredholm.solve_invariant.iterations": "count",
    "fredholm.j_alpha.calls": "count",
    "fredholm.j_alpha.self_s": "s",
    "fredholm.j_log.calls": "count",
    "fredholm.j_log.self_s": "s",
    "montecarlo.replication_log_ratios.calls": "count",
    "montecarlo.replication_log_ratios.self_s": "s",
    "forward.batch_log_normalizers.calls": "count",
    "forward.batch_log_normalizers.self_s": "s",
    "forward.batch_log_normalizers.path_steps": "count",
    "montecarlo.estimate_from_log_ratios.calls": "count",
    "montecarlo.estimate_from_log_ratios.self_s": "s",
    "cli.run_cases.self_s": "s",
    "trace.overhead_s": "s",
}
ROOT_SPAN = "cli.run_cases"


def load_package() -> None:
    """Import hmmdiv from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hmmdiv
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import hmmdiv from {SRC}: {exc}")
    if Path(hmmdiv.__file__).resolve().parent != SRC / "hmmdiv":
        raise SystemExit(f"run.py: imported hmmdiv from {hmmdiv.__file__}, not {SRC}")


def load_recorded(sha256: str) -> dict:
    data = RECORDED.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        raise SystemExit(f"run.py: {RECORDED.name} has sha256 {digest}, expected {sha256}")
    return json.loads(data)


# ---------------------------------------------------------------------------
# cells and their checks


def expected_cells(specs, methods) -> list[str]:
    return [f"{s.name}|{a}|{e}" for s in specs for a in s.alphas for e in methods]


def table_cells(rows, methods) -> dict[str, tuple]:
    """Cell -> its values: (value,) for Fredholm, (mean, sd) for simulation."""
    out = {}
    for r in rows:
        for engine in methods:
            out[f"{r.case}|{r.alpha}|{engine}"] = (
                (r.fredholm,) if engine == "fredholm" else (r.mc_mean, r.mc_sd))
    return out


def _check_rows_by_engine(specs, row) -> dict[str, list[str]]:
    """check_rows failures of one row, attributed to the engines they
    concern; a cross-engine failure counts against both."""
    from hmmdiv import cli

    fred = cli.check_rows(specs, [replace(row, mc_mean=None, mc_sd=None)])
    mc = cli.check_rows(specs, [replace(row, fredholm=None)])
    cross = [m for m in cli.check_rows(specs, [row]) if m not in fred and m not in mc]
    return {"fredholm": fred + cross, "mc": mc + cross}


def _same(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def table_failures(specs, methods, call, recorded: dict, check_mc_recorded: bool,
                   baseline: dict | None) -> dict[str, str]:
    """Cell -> reason, for every failing cell of one run_cases call.

    `baseline` holds the cells of the run's first untraced call, which
    this one must reproduce exactly.
    """
    expected = expected_cells(specs, methods)
    if call.error is not None:
        return {cell: f"run_cases raised {call.error}" for cell in expected}
    rows = call.rows
    cells = table_cells(rows, methods)
    failures: dict[str, str] = {}
    for cell in expected:
        values = cells.get(cell)
        if values is None or not all(v is not None and math.isfinite(v) for v in values):
            failures[cell] = f"missing or non-finite value {values}"
    for row in rows:
        for engine, messages in _check_rows_by_engine(specs, row).items():
            cell = f"{row.case}|{row.alpha}|{engine}"
            if messages and engine in methods:
                failures.setdefault(cell, messages[0])
    for cell in expected:
        if cell in failures:
            continue
        engine = cell.rsplit("|", 1)[1]
        if engine == "fredholm" or check_mc_recorded:
            ref = recorded.get(cell)
            if ref is None:
                failures[cell] = "no recorded value"
            elif not all(_same(v, r) for v, r in zip(cells[cell], ref)):
                failures[cell] = f"{cells[cell]} differs from recorded {tuple(ref)}"
        if baseline is not None and cell not in failures and cells[cell] != baseline.get(cell):
            failures[cell] = f"{cells[cell]} differs from the first call's {baseline.get(cell)}"
    return failures


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Call:
    wall: float
    traced: bool
    rows: list | None
    error: str | None
    spans: list


@dataclass
class Result:
    attempted: int  # cells, over all calls
    failures: list[str]  # one per failed cell
    problems: list[str]  # failures that are not about a cell
    metrics: dict[str, float]
    walls: list[tuple[bool, float]]  # (traced, seconds) per call, in order


def _one_call(workload, specs, tracer=None) -> Call:
    from hmmdiv import cli

    t0 = time.perf_counter()
    try:
        if tracer is None:
            rows = cli.run_cases(specs, workload.methods)
        else:
            with tracer, tracer.root(ROOT_SPAN):
                rows = cli.run_cases(specs, workload.methods)
        error = None
    except Exception as exc:  # a failed table is a measured outcome, not a crash
        rows, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return Call(wall, tracer is not None, rows, error,
                [] if tracer is None else tracer.spans)


def measure(workload, seed: int, seconds: float, trace: bool, recorded: dict) -> Result:
    """Run `workload` in a closed loop for `seconds` and check every call."""
    from tracing import Tracer, hmmdiv_probes, layer_metrics, self_times

    specs = workload.specs(seed)
    saved = os.environ.get("HMMDIV_THREADS")
    os.environ["HMMDIV_THREADS"] = str(workload.threads)
    calls: list[Call] = []
    try:
        start = time.perf_counter()
        while not calls or time.perf_counter() - start < seconds:
            if not trace:
                calls.append(_one_call(workload, specs))
                continue
            pair = [None, Tracer(hmmdiv_probes())]
            if len(calls) % 4 == 2:  # alternate which side of a pair runs first
                pair.reverse()
            for tracer in pair:
                calls.append(_one_call(workload, specs, tracer))
    finally:
        if saved is None:
            del os.environ["HMMDIV_THREADS"]
        else:
            os.environ["HMMDIV_THREADS"] = saved

    baseline = None
    if calls[0].rows is not None:
        baseline = table_cells(calls[0].rows, workload.methods)
    failures = []
    for i, call in enumerate(calls):
        tag = "traced" if call.traced else "untraced"
        bad = table_failures(specs, workload.methods, call,
                             recorded, seed == RECORDED_SEED,
                             baseline if i else None)
        failures += [f"call {i} ({tag}) {cell}: {why}" for cell, why in bad.items()]
    attempted = len(calls) * len(expected_cells(specs, workload.methods))
    walls = [(c.traced, c.wall) for c in calls]

    untraced = [c.wall for c in calls if not c.traced]
    if not trace:
        metrics = {
            "table_wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - len(failures) / attempted,
        }
        return Result(attempted, failures, [], metrics, walls)

    probes = hmmdiv_probes()
    problems = []
    per_call = []
    for call in calls:
        if not call.traced:
            continue
        per_call.append(layer_metrics(call.spans, probes))
        root = next(s for s in call.spans if s.name == ROOT_SPAN)
        total = sum(self_times(call.spans).values())
        if workload.threads == 1 and abs(total - (root.end - root.start)) > 1e-9 * total:
            problems.append(f"layer self times sum to {total}, "
                            f"not the traced wall {root.end - root.start}")
    missing = sorted(layer for layer in workload.layers
                     if any(m[f"{layer}.calls"] == 0 for m in per_call))
    problems += [f"MISSING {layer}: the layer made no calls" for layer in missing]
    metrics = {
        # counts repeat exactly, so their median is one of them
        name: (statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(
            [m.get(name, 0) for m in per_call])
        for name in PER_LAYER
        if name != "trace.overhead_s" and name.rsplit(".", 1)[0] not in missing
    }
    traced = [c.wall for c in calls if c.traced]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return Result(attempted, failures, problems, metrics, walls)


def measure_setup(workload_name: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Median time from starting a Python process to its CaseSpecs being
    built, over `probes` processes run one after another."""
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# report


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def header(args) -> list[str]:
    import numpy
    import scipy

    return [
        f"# hmmdiv benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} "
        f"src_lines={src_line_count()}",
    ]


def report(result: Result, units: dict[str, str]) -> tuple[list[str], dict]:
    failed = len(result.failures)
    lines = [
        "calls " + " ".join(f"{'traced' if t else 'untraced'}:{w:.3f}s" for t, w in result.walls),
        f"cells {result.attempted}  failed {failed}  fail_ratio {failed / result.attempted:.6g}",
    ]
    lines += [f"FAIL {f}" for f in result.failures[:20]]
    if failed > 20:
        lines.append(f"FAIL ... and {failed - 20} more")
    lines += result.problems
    metrics = {}
    for name, unit in units.items():
        if name in result.metrics:
            value = result.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<45} {value!r} {unit}")
    summary = {
        "correct": failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recorded-sha256")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child process of measure_setup
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.specs(args.seed)
        print(time.monotonic())
        return 0
    if not args.recorded_sha256:
        parser.error("--recorded-sha256 is required")
    recorded = load_recorded(args.recorded_sha256)[workload.name]

    for line in header(args):
        print(line, flush=True)
    setup = None if args.trace else measure_setup(workload.name, args.seed)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), recorded)
    if setup is not None:
        result.metrics["setup_s"] = setup
    lines, summary = report(result, PER_LAYER if args.trace else END_TO_END)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
