"""Batch front-end: run both divergence engines over case configurations.

Subcommands:

    hmmdiv run <config.json | benchmark> [--methods mc,fredholm] [--check] [--out DIR]
    hmmdiv print-defaults

`run` evaluates every case over its alpha grid and writes three artifacts to
the output directory: table.txt (aligned, 4 decimals), table.csv (full
precision, same values), and diagnostics.json (solver health and timings).
The token `benchmark` stands for the bundled eight-case configuration, which
`print-defaults` prints as JSON for editing. With `--check`, the run is
compared against the reference bands and the exit status reports violations,
naming every failing cell.

Config schema (JSON):

    {
      "alphas": [0.5, "kl", 2.0],
      "mc":   {"n": 2000, "reps": 100, "burn_in": 100, "seed": 0},
      "grid": {"N": 16, "a": 15.0, "quad_points": 201},
      "cases": [
        {"name": "case1", "family": "B",
         "theta1": {"p01": 0.41, "p10": 0.6, "mu": [2.0, 1.0],
                    "phi": 0.0, "psi1": 1.0, "psi2": 0.0, "sigma": 1.5},
         "theta":  {...}}
      ]
    }

theta1 generates the data; theta is the alternative. Family "A" models use
keys {p00, p11, mu, psi, sigma} with per-state pairs. Top-level alphas, mc,
and grid apply to every case; a case may override any of them. The
simulation engine runs first: the simulated cases of one mc block and
generating model type form a batch, split into contiguous shares, one
per worker and at most one per simulated case, each simulated and
estimated in one call. The environment variable HMMDIV_THREADS sets the
worker count (0 or unset: one per usable CPU). On Linux, share 0 of each
batch runs in the calling process and the others in worker processes
forked for the simulation alone; elsewhere, and at one worker, every
batch is one share in the calling process. Then the Fredholm cases run
there, one by one.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import cases as bench
from .fredholm import (
    DivergenceResult,
    GridSpec,
    GridTooCoarseError,
    NonConvergenceError,
    build_kernel,
    case_functionals,
    j_alpha,
    j_log,
    solve_invariant,
)
from .forward import DegenerateInputError
from .models import (
    ModelAParams,
    ModelBParams,
    renyi_order,
    tail_sds,
)
from .montecarlo import (
    DivergenceEstimate,
    McConfig,
    estimate_from_log_ratios,
    replication_log_ratios,
)

METHODS = ("mc", "fredholm")
# Fewest sds of an order's integrand tail (`tail_margin_sd`) the Fredholm
# lattice must keep inside +-a: at 5 the error is 2.4e-3 relative, at 2.5 0.4.
MIN_TAIL_MARGIN_SD = 6.0
# The errors with which an engine rejects a case (`_named`); `run` exits 2 on them.
CASE_ERRORS = (GridTooCoarseError, DegenerateInputError, NonConvergenceError)
# A one-step Renyi value is never below zero (Hoelder), nor is KL (Gibbs), so
# the Fredholm engine refuses a case whose log functional, (alpha - 1) *
# value or the KL value, falls below -NEGATIVE_TOL. Rounding near identical
# models moves that functional by a few ulps of 1 (at most 4.4e-16 on the
# bundled pairs with one mean changed in its last bit), but the value, that
# divided by alpha - 1, by up to 4e-8 at orders 1 +- 1.1e-8.
NEGATIVE_TOL = 1e-9


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _model_class(family, where: str) -> type:
    """The model dataclass of a family string, "A" or "B"."""
    if family not in ("A", "B"):
        raise ConfigError(f"{where}: family must be 'A' or 'B', got {family!r}")
    return ModelAParams if family == "A" else ModelBParams


@dataclass(frozen=True)
class CaseSpec:
    name: str
    family: str
    theta1: ModelAParams | ModelBParams
    theta: ModelAParams | ModelBParams
    alphas: tuple
    mc: McConfig = field(default_factory=McConfig)
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"case name must be a string, got {self.name!r}")
        where = f"case {self.name!r}"
        want = _model_class(self.family, where)
        for label, theta in (("theta1", self.theta1), ("theta", self.theta)):
            if not isinstance(theta, want):
                raise ConfigError(f"{where}: {label} does not match family {self.family}")
        for label, cls in (("mc", McConfig), ("grid", GridSpec)):
            if not isinstance(value := getattr(self, label), cls):
                raise ConfigError(f"{where}: {label} must be a {cls.__name__}, got {value!r}")
        if not isinstance(self.alphas, (list, tuple)) or not self.alphas:
            raise ConfigError(f"{where}: alphas must be a non-empty list, got {self.alphas!r}")
        for a in self.alphas:
            try:
                renyi_order(a)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        alphas = tuple(a.lower() if isinstance(a, str) else float(a) for a in self.alphas)
        for i, a in enumerate(alphas):
            if a in alphas[:i]:
                raise ConfigError(f"{where}: alpha {a!r} is repeated")
        object.__setattr__(self, "alphas", alphas)


@dataclass(frozen=True)
class ResultRow:
    case: str
    alpha: object
    fredholm: float | None = None
    mc_mean: float | None = None
    mc_sd: float | None = None

    @property
    def rel_err_pct(self) -> float | None:
        """(fredholm - mc_mean) / mc_mean in percent; None unless both
        engines ran and mc_mean is finite and nonzero."""
        mc = self.mc_mean
        if self.fredholm is None or mc is None or mc == 0.0 or not math.isfinite(mc):
            return None
        return (self.fredholm - mc) / mc * 100.0


# ---------------------------------------------------------------------------
# config parsing


def _settings(obj) -> dict:
    """The fields of a record (a CaseSpec, model, McConfig or GridSpec) by
    name, in field order, a nested record as its own block and a tuple as
    a list: the JSON block that `_read` (a case: `parse_config`) reads back."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: _settings(v) if is_dataclass(v) else list(v) if isinstance(v, tuple) else v
            for k, v in values.items()}


def _check_keys(doc, where: str, known, required=()) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(missing)}")
    extra = [k for k in doc if k not in known]
    if extra:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(extra)}")


def _number(value, kind, where: str):
    """A JSON number as kind (float or int); an int takes only an integral
    number, so 2000.0 reads as 2000 and 2000.7 is an error, and a number
    that kind cannot hold (10**400 as a float) is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = kind(value)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if kind is int and number != value:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return number


def _read(cls, doc, where: str):
    """Build a model, McConfig or GridSpec from its JSON block. Each field
    takes its type from the dataclass annotations (per-state pairs are
    lists of numbers); fields without a default are required, the others
    keep their default when the block leaves them out."""
    _check_keys(doc, where, [f.name for f in fields(cls)],
                [f.name for f in fields(cls) if f.default is MISSING])
    hints = typing.get_type_hints(cls)
    values = {}
    for k, v in doc.items():
        if typing.get_origin(hints[k]) is not tuple:
            values[k] = _number(v, hints[k], f"{where}.{k}")
        elif isinstance(v, list):
            values[k] = tuple(_number(x, float, f"{where}.{k}") for x in v)
        else:
            raise ConfigError(f"{where}.{k}: expected a list, got {v!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(doc: dict) -> list[CaseSpec]:
    """Turn a parsed JSON document into CaseSpecs, applying top-level
    alphas/mc/grid as defaults that individual cases may override."""
    _check_keys(doc, "top level", ("cases", "alphas", "mc", "grid"), ("cases",))
    if not isinstance(doc["cases"], list) or not doc["cases"]:
        raise ConfigError("top level: 'cases' must be a non-empty list")
    default_mc = _read(McConfig, doc.get("mc", {}), "top level.mc")
    default_grid = _read(GridSpec, doc.get("grid", {}), "top level.grid")

    specs = []
    for idx, c in enumerate(doc["cases"]):
        where = f"cases[{idx}]"
        _check_keys(c, where, [f.name for f in fields(CaseSpec)],
                    ("name", "family", "theta1", "theta"))
        cls = _model_class(c["family"], f"{where}.family")
        specs.append(
            CaseSpec(
                name=c["name"],
                family=c["family"],
                theta1=_read(cls, c["theta1"], f"{where}.theta1"),
                theta=_read(cls, c["theta"], f"{where}.theta"),
                alphas=c.get("alphas", doc.get("alphas")),
                mc=_read(McConfig, c["mc"], f"{where}.mc") if "mc" in c else default_mc,
                grid=_read(GridSpec, c["grid"], f"{where}.grid") if "grid" in c else default_grid,
            )
        )
    _check_unique_names(specs)
    return specs


def _check_unique_names(specs: list[CaseSpec]) -> None:
    """Rows, diagnostics and failed cases are keyed by the case name."""
    for i, s in enumerate(specs):
        if s.name in [t.name for t in specs[:i]]:
            raise ConfigError(f"cases: names must be unique, {s.name!r} is repeated")


def serialize_config(specs: list[CaseSpec]) -> dict:
    """Inverse of parse_config: every field of each case and of its
    records, explicit per case (round-trips)."""
    return {"cases": [_settings(s) for s in specs]}


def default_config() -> dict:
    """The bundled benchmark configuration: all eight case pairs over the
    full alpha grid at default simulation and lattice settings."""
    return serialize_config(
        [
            CaseSpec(
                name=f"case{k}",
                family="B",
                theta1=t1,
                theta=t,
                alphas=bench.ALPHA_GRID,
            )
            for k, (t1, t) in sorted(bench.CASES.items())
        ]
    )


def load_config(path: str) -> list[CaseSpec]:
    if path == "benchmark":
        return parse_config(default_config())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# execution


def _orders(theta1, theta, alphas) -> dict:
    """The order table of a case: {alpha: (order, tail sd)} for every alpha,
    with the order as `models.renyi_order` gives it and the sd of its
    integrand's Gaussian tail, inf where the rate is infinite
    (`models.tail_sds`)."""
    orders = [renyi_order(a) for a in alphas]
    return dict(zip(alphas, zip(orders, tail_sds(theta1, theta, orders))))


def _finite(orders: dict) -> dict:
    """{alpha: order} for the alphas of an order table (`_orders`) whose
    rate is finite, in table order: the orders an engine computes."""
    return {a: order for a, (order, sd) in orders.items() if math.isfinite(sd)}


def _tail_margin(orders: dict, grid: GridSpec, gated: bool) -> float | None:
    """The smallest grid.a / tail sd over the finite orders of an order
    table: how many standard deviations of the integrand's Gaussian tail
    the lattice keeps; None when every order is infinite. When gated (the
    models differ), a margin below MIN_TAIL_MARGIN_SD raises
    GridTooCoarseError."""
    margins = []
    for a, (_, sd) in orders.items():
        if math.isfinite(sd):
            margins.append(grid.a / sd if sd > 0.0 else math.inf)  # sd 0: no tail
            if margins[-1] < MIN_TAIL_MARGIN_SD and gated:
                raise GridTooCoarseError(
                    f"alpha = {a}: the lattice keeps {margins[-1]:.2f} sds of the "
                    f"integrand's tail, fewer than {MIN_TAIL_MARGIN_SD:g}; increase a")
    return min(margins, default=None)


def _fredholm_values(theta1, theta, orders: dict, grid: GridSpec) -> tuple[dict, dict]:
    """Fredholm values {alpha: rate} for every alpha of an order table
    (`_orders`), and the solver diagnostics.

    The case's finite orders (`_finite`) declare its J functionals
    (`case_functionals`), and their plan is followed: one kernel solve per
    filter model in it (theta's, and theta1's when some order is KL), then
    each functional once, KL as the difference of the two log functionals.
    Identical models give exactly zero: the ratio integrand is identically
    1, so no discretization may blur the answer.
    Orders whose rate is infinite give inf, and when every order is, no
    kernel is built. A finite order whose value overflows or falls below
    zero (NEGATIVE_TOL) raises GridTooCoarseError naming it. Each kernel is
    dropped once solved, its column-sum deviation kept: one dense kernel
    is alive at a time.

    The diagnostics time the three stages: kernel assembly, invariant
    solves and the J quadratures (`j_log` and `j_alpha` together), and the
    whole call as `fredholm_seconds`; they hold the case's `tail_margin_sd`
    (`_tail_margin`), checked before any kernel is built.
    """
    t0 = time.perf_counter()
    finite = _finite(orders)
    values = dict.fromkeys(orders, 0.0 if theta1 == theta else math.inf)
    diag = dict.fromkeys(("kernel_seconds", "solve_seconds", "quadrature_seconds"), 0.0)
    diag["tail_margin_sd"] = _tail_margin(orders, grid, theta1 != theta)

    def timed(stage, layer, *args):
        start = time.perf_counter()
        out = layer(*args)
        diag[stage] += time.perf_counter() - start
        return out

    if theta1 == theta:
        diag["identity"] = True
    elif finite:
        deviations = []

        def solved(theta_filt):
            # the kernel is a local here, freed on return
            kernel = timed("kernel_seconds", build_kernel, theta1, theta_filt, grid)
            deviations.append(float(np.abs(kernel.pre_norm_col_sums - 1.0).max()))
            return timed("solve_seconds", solve_invariant, kernel)

        # one pass over the filter weights serves every J of the case
        with case_functionals(theta1, theta, finite.values(), grid) as plan:
            solves = {f: solved(f) for f in dict.fromkeys(f for f, _ in plan)}
            # an overflow leaves a J inf or nan, and its value is refused below
            with np.errstate(over="ignore"):
                j = {(f, order): timed("quadrature_seconds", j_log, f, theta1, solves[f], grid)
                     if order is None else
                     timed("quadrature_seconds", j_alpha, theta1, f, order, solves[f], grid)
                     for f, order in plan}
        for a, order in finite.items():
            values[a] = (j[theta1, None] - j[theta, None] if order == 1.0
                         else math.log(j[theta, order]) / (order - 1.0))
            if not math.isfinite(values[a]):
                raise GridTooCoarseError(f"alpha = {a}: the quadrature overflowed to "
                                         f"{values[a]}; the engine failed on this pair")
            if values[a] * (abs(order - 1.0) or 1.0) < -NEGATIVE_TOL:
                raise GridTooCoarseError(
                    f"alpha = {a}: the lattice gave {values[a]:.6g}, below zero, "
                    "which no divergence rate is; the engine failed on this pair")
        diag["eigen_residual"] = max(m.eigen_residual for m in solves.values())
        diag["max_col_sum_deviation"] = max(deviations)
        diag["iterations"] = sum(m.iterations for m in solves.values())
    diag["fredholm_seconds"] = time.perf_counter() - t0
    return values, diag


def _mc_values(cases: list[tuple], cfg: McConfig) -> list:
    """Simulation estimates of cases that share one McConfig, as one batch.

    `cases` holds (spec.theta1, spec.theta, orders) per (spec, orders)
    pair. One `replication_log_ratios` call simulates every case that has a
    finite order, and one `estimate_from_log_ratios` call per case serves
    all of its finite orders (`_finite`); identical models give exactly 0
    (the two filters run the same arithmetic), and an infinite order means
    inf without sampling. An exception of the batch call propagates.

    Returns, per case, ({alpha: DivergenceEstimate}, diagnostics), or the
    error that stopped the case's filter. The diagnostics hold the stage
    timings and `mc_top_term_share`: {alpha: the estimate's
    `top_term_share`} for the finite Renyi orders. The batch's sampling
    and filtering seconds, and the wall time of its one call, are split
    evenly over the simulated cases as their "sample_seconds",
    "filter_seconds" and the simulation part of "mc_seconds", to which each
    case adds the time of its own estimates; a case that is not simulated
    has 0 for the first two.
    """
    simulated = [i for i, (*_, orders) in enumerate(cases) if _finite(orders)]
    timings, errors, rhos = {}, {}, []
    t0 = time.perf_counter()
    if simulated:
        rhos = replication_log_ratios([cases[i][:2] for i in simulated], cfg, timings, errors)
    share = (time.perf_counter() - t0) / max(len(simulated), 1)
    rho_of = {i: rho for i, rho in zip(simulated, rhos) if rho is not None}
    failed = {simulated[j]: exc for j, exc in errors.items()}
    results = []
    for i, (*_, orders) in enumerate(cases):
        finite = _finite(orders)
        values = {a: DivergenceEstimate(alpha=order, mean=math.inf, std_dev=0.0, reps=cfg.reps)
                  for a, (order, _) in orders.items()}
        t1 = time.perf_counter()
        if i in rho_of:
            values.update(zip(finite, estimate_from_log_ratios(rho_of[i], finite.values())))
        diag = {stage: timings[stage] / len(simulated) if i in rho_of else 0.0
                for stage in ("sample_seconds", "filter_seconds")}
        diag["mc_top_term_share"] = {a: values[a].top_term_share
                                     for a, order in finite.items() if order != 1.0}
        diag["mc_seconds"] = share + (time.perf_counter() - t1) if i in rho_of else 0.0
        results.append(failed.get(i, (values, diag)))
    return results


def divergence_fredholm(theta1, theta, alpha, grid: GridSpec | None = None) -> DivergenceResult:
    """Divergence rate of theta1 from theta by the deterministic engine:
    the one-order call of the per-case Fredholm pipeline. A Renyi value is
    the one-step functional log E_pi[(p_theta1 / p_theta)^(alpha-1)] /
    (alpha - 1) (`j_alpha`), the path-level rate only for i.i.d. pairs and
    at KL (`hmmdiv.montecarlo`). Its diagnostics are those a run writes
    for the case.

    alpha may be a number or "kl"; values within 1e-8 of 1 route to the KL
    path, and other orders that are not finite and > 0 raise ValueError.
    Identical models give exactly 0, infinite Renyi orders inf, and a
    value below zero raises GridTooCoarseError (`_fredholm_values`).
    """
    grid = grid or GridSpec()
    orders = _orders(theta1, theta, (alpha,))
    values, diag = _fredholm_values(theta1, theta, orders, grid)
    return DivergenceResult(alpha=orders[alpha][0], value=values[alpha], diagnostics=diag)


def estimate_renyi_mc(p, q, alpha, cfg: McConfig | None = None) -> DivergenceEstimate:
    """Renyi divergence rate of p from q by simulation: the one-order,
    one-case call of the simulation pipeline, with paths sampled under p.
    alpha is a number or "kl" (the KL rate), routed and checked as in
    `divergence_fredholm`. The estimate is of the one-step functional, as
    there, not of the path-level rate (`hmmdiv.montecarlo`)."""
    result = _mc_values([(p, q, _orders(p, q, (alpha,)))], cfg or McConfig())[0]
    if isinstance(result, Exception):
        raise result
    return result[0][alpha]


def _named(name: str, exc: Exception) -> Exception:
    """exc named for its case: an engine error (CASE_ERRORS) becomes a new
    one of its type, caused by exc, whose message starts with the name."""
    if not isinstance(exc, CASE_ERRORS):
        return exc
    named = type(exc)(f"case {name!r}: {exc}")
    named.__cause__ = exc
    return named


def _failure(exc: Exception) -> str:
    """The one line that reports an error, on stderr and in `failed_cases`:
    "<ErrorType>: case '<name>': ..." for an engine error (`_named`)."""
    if isinstance(exc, ConfigError):
        return f"config error: {exc}"
    return f"{type(exc).__name__}: {exc}"


def _outcome(call, *args):
    """call(*args), or the exception it raised: a failed share or case is
    kept for `_run_all`, which reports it and lets the others finish."""
    try:
        return call(*args)
    except Exception as exc:  # the caller re-raises it once every case has run
        return exc


def _case_rows(spec: CaseSpec, fred, mc) -> list[ResultRow]:
    """The rows of one case from its engines' {alpha: value} dicts, each
    None when the engine did not run."""
    return [ResultRow(case=spec.name, alpha=a,
                      fredholm=None if fred is None else fred[a],
                      mc_mean=None if mc is None else mc[a].mean,
                      mc_sd=None if mc is None else mc[a].std_dev)
            for a in spec.alphas]


def _thread_count() -> int:
    """HMMDIV_THREADS (0 or unset: one per usable CPU), for `_simulate` alone."""
    raw = os.environ.get("HMMDIV_THREADS", "0")
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"HMMDIV_THREADS must be an integer, got {raw!r}")
    if val < 0:
        raise ConfigError(f"HMMDIV_THREADS must be >= 0, got {val}")
    if val == 0 and hasattr(os, "sched_getaffinity"):  # os.cpu_count counts the host's
        return len(os.sched_getaffinity(0))
    return val or os.cpu_count() or 1


def _resolve(specs: list[CaseSpec], methods) -> tuple[list[tuple], int]:
    """The checks made before any case runs: the methods (none unknown or
    repeated), HMMDIV_THREADS and the case names (ConfigError), each case's
    order table (`_orders`) and, with the Fredholm engine, its tail margin
    (`_tail_margin`).
    Returns the (spec, orders) pair of each case and the worker count."""
    workers = _thread_count()
    _check_unique_names(specs)
    if isinstance(methods, str):  # the loop below would check it letter by letter
        raise ConfigError(f"methods must be a sequence of names, not the string {methods!r}")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        if list(methods).count(m) > 1:
            raise ConfigError(f"method {m!r} is repeated")
    if not methods:
        raise ConfigError("at least one method is required")
    cases = []
    for s in specs:
        orders = _orders(s.theta1, s.theta, s.alphas)
        try:
            _tail_margin(orders, s.grid, "fredholm" in methods and s.theta1 != s.theta)
        except GridTooCoarseError as exc:
            raise _named(s.name, exc) from exc
        cases.append((s, orders))
    return cases, workers


def _simulate(cases: list[tuple], workers: int) -> list:
    """The simulation results (`_mc_values`) of the (spec, orders) pairs
    that `_resolve` returned, in case order.

    The cases of each McConfig and generating model type form one batch;
    the filter takes any state counts, and the type is in the key only to
    bound the log ratios a batch holds (12.8 MB, not 17.6 MB, for the
    kl-mixed benchmark's 8 family-B and 3 family-A cases). A batch splits
    into min(workers, its simulated cases) contiguous shares of near-equal
    simulated case counts, and a case that is not simulated (no order of
    it is finite, `_finite`) joins the share of the simulated case before it.

    On Linux, the first share of each batch runs in the calling process,
    and the others meanwhile in a pool of at most workers - 1 processes,
    forked when the first share is submitted and joined before this
    returns. Each share runs the unchanged sampler, filter and estimator,
    and a pair's rows do not depend on the pairs batched with it, so every
    value is the same bit for bit at any worker count (at reps = 1, when a
    batch's models have equal state counts). Elsewhere, and at one worker,
    every batch is one share in the calling process. A share that raises
    fails each of its cases with that exception, and so does one whose
    worker process dies (BrokenProcessPool).
    """
    batches: dict[tuple, list[int]] = {}
    for i, (spec, _) in enumerate(cases):
        batches.setdefault((spec.mc, type(spec.theta1)), []).append(i)
    here, away = [], []
    for (cfg, _), members in batches.items():
        simulated = [pos for pos, i in enumerate(members) if _finite(cases[i][1])]
        k = max(1, min(workers if sys.platform == "linux" else 1, len(simulated)))
        cuts = [0, *(simulated[len(simulated) * j // k] for j in range(1, k)), len(members)]
        first, *rest = [(members[a:b], cfg) for a, b in zip(cuts, cuts[1:])]
        here.append(first)
        away += rest
    pool = contextlib.nullcontext()
    if away:
        import multiprocessing  # here, so that importing hmmdiv does not pay for it

        pool = concurrent.futures.ProcessPoolExecutor(
            min(workers - 1, len(away)), mp_context=multiprocessing.get_context("fork"))
    pairs = [(spec.theta1, spec.theta, orders) for spec, orders in cases]
    with pool:
        # once a worker has died, submit raises: the pool takes no more shares
        futures = [_outcome(pool.submit, _mc_values, [pairs[i] for i in members], cfg)
                   for members, cfg in away]
        outcomes = [_outcome(_mc_values, [pairs[i] for i in members], cfg)
                    for members, cfg in here]
        outcomes += [f if isinstance(f, Exception) else _outcome(f.result) for f in futures]
    mc = [None] * len(cases)
    for (members, _), out in zip(here + away, outcomes):
        for i, result in zip(members, [out] * len(members) if isinstance(out, Exception) else out):
            mc[i] = result
    return mc


def _run_all(cases: list[tuple], workers: int, methods) -> tuple[list, dict, dict]:
    """Run every (spec, orders) pair that `_resolve` returned: the rows of
    the cases that finished, by case then alpha regardless of scheduling,
    their diagnostics by name, and {name: exception} for the cases that
    raised, each named (`_named`). A failed case does not stop the others.
    Each engine computes the finite orders of a case's table (`_finite`).

    The simulation engine runs first (`_simulate`): each share of a batch
    simulates and estimates its cases in one call, in the calling process
    or, on Linux with `workers` > 1, in a forked worker process. Then the
    Fredholm cases run one by one in the calling process, at any worker
    count, so at most one dense kernel is alive. A case both engines fail
    reports the Fredholm error.
    """
    mc = _simulate(cases, workers) if "mc" in methods else [None] * len(cases)
    fred = [_outcome(_fredholm_values, spec.theta1, spec.theta, orders, spec.grid)
            if "fredholm" in methods else None for spec, orders in cases]
    rows, per_case, failed = [], {}, {}
    for (spec, _), f, m in zip(cases, fred, mc):
        error = next((r for r in (f, m) if isinstance(r, Exception)), None)
        if error is not None:
            failed[spec.name] = _named(spec.name, error)
            continue
        rows += _case_rows(spec, f and f[0], m and m[0])
        per_case[spec.name] = {**(f[1] if f else {}), **(m[1] if m else {})}
    return rows, per_case, failed


def run_cases(specs: list[CaseSpec], methods=METHODS) -> list[ResultRow]:
    """Run every case (`_run_all`) and return its rows, by case then alpha
    (one case: `run_cases([spec], methods)`); when cases fail, raise the
    first failed case's exception once all have run."""
    rows, _, failed = _run_all(*_resolve(specs, methods), methods)
    if failed:
        raise next(iter(failed.values()))
    return rows


# ---------------------------------------------------------------------------
# reference bands (--check)


def check_rows(specs: list[CaseSpec], rows: list[ResultRow]) -> list[str]:
    """Compare results against the applicable bands; returns one message per
    failing cell (empty = all good).

    A nan value fails its cell, and so does every band it enters.
    Cross-method: |fredholm - mc| <= 3 * mc sd whenever both methods ran.
    Benchmark cases additionally check the deterministic value against the
    reference within max(0.01, 5%) and the MC mean within 3 reference sd of
    the reference mean.
    """
    by_params = {pair: k for k, pair in bench.CASES.items()}
    spec_by_name = {s.name: s for s in specs}
    failures = []
    for row in rows:
        spec = spec_by_name[row.case]
        cell = f"{row.case} alpha={row.alpha}"
        nan = [k for k in ("fredholm", "mc_mean", "mc_sd")
               if getattr(row, k) is not None and math.isnan(getattr(row, k))]
        if nan:
            failures.append(f"{cell}: {', '.join(nan)} not a number")
        if (row.fredholm is not None and row.mc_mean is not None
                and row.fredholm != row.mc_mean):
            gap = abs(row.fredholm - row.mc_mean)
            # a one-sided infinity fails at any sd, and any gap at sd 0; two
            # equal values never get here
            if math.isinf(gap) or not gap <= 3.0 * (row.mc_sd or 0.0):
                failures.append(
                    f"{cell}: |fredholm - mc| = {gap:.4f} exceeds 3*sd = "
                    f"{3.0 * (row.mc_sd or 0.0):.4f}"
                )
        bench_id = by_params.get((spec.theta1, spec.theta))
        key = "kl" if renyi_order(row.alpha) == 1.0 else float(row.alpha)
        ref = bench.REFERENCE.get(key, {}).get(bench_id) if bench_id else None
        if ref is None:
            continue
        ref_det, ref_mean, ref_sd = ref
        if row.fredholm is not None:
            band = max(0.01, 0.05 * abs(ref_det))
            if not abs(row.fredholm - ref_det) <= band:
                failures.append(
                    f"{cell}: fredholm {row.fredholm:.4f} outside "
                    f"{ref_det:.4f} +- {band:.4f}"
                )
        if row.mc_mean is not None:
            if not abs(row.mc_mean - ref_mean) <= 3.0 * ref_sd:
                failures.append(
                    f"{cell}: mc mean {row.mc_mean:.4f} outside "
                    f"{ref_mean:.4f} +- {3.0 * ref_sd:.4f}"
                )
    return failures


# ---------------------------------------------------------------------------
# artifacts


# The value columns of both tables, after case and alpha: (header, ResultRow attribute).
_COLUMNS = (("fredholm", "fredholm"), ("mc_mean", "mc_mean"), ("mc_sd", "mc_sd"),
            ("re_pct", "rel_err_pct"))


def _values(row: ResultRow) -> list:
    return [getattr(row, attr) for _, attr in _COLUMNS]


def format_table(rows: list[ResultRow]) -> str:
    """The aligned table: the case column is as wide as the longest name,
    and at least 10 characters, the alpha column as wide as the longest
    order, spelled `str(alpha)` as in table.csv, and at least 6, and each
    value 10 wide at 4 decimals, blank where it is None."""
    width = max([10, *(len(r.case) for r in rows)])
    a_width = max([6, *(len(str(r.alpha)) for r in rows)])

    def line(case, alpha, cells):
        return " ".join([f"{case:<{width}}", f"{alpha:>{a_width}}", *cells])

    header = line("case", "alpha", (f"{name:>10}" for name, _ in _COLUMNS))
    lines = [header, "-" * len(header)]
    lines += [line(r.case, str(r.alpha),
                   (" " * 10 if v is None else f"{v:10.4f}" for v in _values(r)))
              for r in rows]
    return "\n".join(lines) + "\n"


def format_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")  # quotes a name holding a comma or a quote
    out.writerow(["case", "alpha", *(name for name, _ in _COLUMNS)])
    for r in rows:
        out.writerow([r.case, str(r.alpha),
                      *("" if v is None else repr(float(v)) for v in _values(r))])
    return buf.getvalue()


def reproduce_table(config_path: str, methods=METHODS, out_dir: str = ".",
                    check: bool = False):
    """Run a config end to end, check its rows when check is set
    (`check_rows`), and write table.txt, table.csv, and diagnostics.json
    into out_dir. Returns (rows, failures); failures is empty unless check
    is set and bands were violated.

    When cases fail, the artifacts hold the rows of the cases that
    finished, diagnostics.json names each failed case and its error under
    `failed_cases`, and the first failed case's exception is raised after
    they are written. out_dir is created before any case runs; failing
    to create it is a ConfigError."""
    specs = load_config(config_path)
    cases, workers = _resolve(specs, methods)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    t0 = time.perf_counter()
    rows, per_case, failed = _run_all(cases, workers, methods)
    elapsed = time.perf_counter() - t0
    failures = check_rows(specs, rows) if check else []
    diagnostics = {
        "config_path": config_path,
        "config": serialize_config(specs),  # self-describing artifact
        "methods": list(methods),
        "wall_seconds": elapsed,
        "cases": per_case,
        "failed_cases": {name: _failure(exc) for name, exc in failed.items()},
        "check_failures": failures,
    }
    artifacts = {"table.txt": format_table(rows), "table.csv": format_csv(rows),
                 "diagnostics.json": json.dumps(diagnostics, indent=2, default=float) + "\n"}
    for name, text in artifacts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    if failed:
        raise next(iter(failed.values()))
    return rows, failures


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hmmdiv",
        description="Divergence rates between Markov switching models, "
                    "by simulation and by a deterministic Fredholm method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON config (or 'benchmark')")
    p_run.add_argument("config", help="path to config JSON, or 'benchmark'")
    p_run.add_argument("--methods", default="mc,fredholm",
                       help="comma-separated subset of mc,fredholm")
    p_run.add_argument("--check", action="store_true",
                       help="verify results against reference bands; "
                            "nonzero exit on any violation")
    p_run.add_argument("--out", default=".", help="output directory")

    sub.add_parser("print-defaults", help="print the bundled benchmark config")

    args = parser.parse_args(argv)

    if args.command == "print-defaults":
        json.dump(default_config(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        rows, failures = reproduce_table(args.config, methods, args.out, args.check)
    except (ConfigError, *CASE_ERRORS) as exc:
        print(_failure(exc), file=sys.stderr)
        return 2
    except Exception:  # a fault in the program, not a refusal of a case
        traceback.print_exc()
        return 3
    print(format_table(rows), end="")
    if failures:
        print(f"\n{len(failures)} check failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0
