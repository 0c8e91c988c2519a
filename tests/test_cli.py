"""Config parsing, case execution, table formatting, artifacts, entry point."""

import csv
import dataclasses
import importlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.special import logsumexp

import hmmdiv
from hmmdiv import (
    CaseSpec,
    ConfigError,
    DegenerateInputError,
    GridSpec,
    GridTooCoarseError,
    McConfig,
    ModelAParams,
    ModelBParams,
    NonConvergenceError,
    ResultRow,
    default_config,
    divergence_fredholm,
    estimate_renyi_mc,
    load_config,
    parse_config,
    reproduce_table,
    run_cases,
    serialize_config,
)
from hmmdiv import cases as bench
from hmmdiv import cli, fredholm
from hmmdiv.cli import check_rows, format_csv, format_table, main
from hmmdiv import models
from hmmdiv.models import tail_sds
from hmmdiv.montecarlo import replication_log_ratios

from conftest import run_diagnosed
from oracles import FAMILY_A_PAIR, P05, P20

T1 = {"p01": 0.4, "p10": 0.59, "mu": [2.0, 2.0], "phi": 0.0, "psi1": 1.0,
      "psi2": 0.0, "sigma": 0.9}
T0 = {"p01": 0.4, "p10": 0.59, "mu": [1.0, 1.0], "phi": 0.0, "psi1": 1.0,
      "psi2": 0.0, "sigma": 1.0}


def tiny_doc(alphas=("kl", 0.5), **case_extra):
    case = {"name": "c8", "family": "B", "theta1": dict(T1), "theta": dict(T0),
            "alphas": list(alphas), **case_extra}
    return {
        "cases": [case],
        "mc": {"n": 100, "reps": 4, "burn_in": 10, "seed": 2},
        "grid": {"N": 16, "a": 10.0, "quad_points": 101},
    }


def tiny_spec(**kw):
    return parse_config(tiny_doc(**kw))[0]


# --- config --------------------------------------------------------------------


def test_default_config_round_trips():
    doc = default_config()
    specs = parse_config(doc)
    assert [s.name for s in specs] == [f"case{k}" for k in range(1, 9)]
    assert all(s.alphas == bench.ALPHA_GRID for s in specs)
    assert all(s.mc == McConfig() and s.grid == GridSpec() for s in specs)
    assert serialize_config(specs) == doc
    json.dumps(doc)  # artifact must be serializable as-is


def test_serialize_config_inverts_parse_config():
    # per-case alphas, mc and grid overrides, and a family-A case
    doc = tiny_doc()
    doc["cases"].append({
        "name": "a", "family": "A",
        "theta1": {"p00": 0.6, "p11": 0.7, "mu": [0.5, -0.5], "psi": [0.2, -0.1],
                   "sigma": [1.0, 1.4]},
        "theta": {"p00": 0.5, "p11": 0.5, "mu": [0.8, -0.2], "psi": [0.1, 0.3],
                  "sigma": [1.2, 0.9]},
        "alphas": ["KL", 1.5], "mc": {"reps": 3}, "grid": {"N": 8}})
    specs = parse_config(doc)
    assert specs[1].theta1 == FAMILY_A_PAIR[0] and specs[1].alphas == ("kl", 1.5)
    out = serialize_config(specs)
    assert [list(c) for c in out["cases"]] == [[f.name for f in dataclasses.fields(CaseSpec)]] * 2
    assert parse_config(out) == specs
    assert parse_config(json.loads(json.dumps(out))) == specs


def test_benchmark_token():
    assert load_config("benchmark") == parse_config(default_config())


def test_per_case_overrides():
    doc = tiny_doc()
    doc["cases"].append({**tiny_doc()["cases"][0], "name": "c8b",
                         "mc": {"seed": 99}, "grid": {"N": 32}})
    doc["alphas"] = [2.0]
    del doc["cases"][0]["alphas"]
    specs = parse_config(doc)
    assert specs[0].alphas == (2.0,)
    assert specs[0].mc.seed == 2 and specs[1].mc.seed == 99
    assert specs[0].grid.N == 16 and specs[1].grid.N == 32
    # unspecified override fields fall back to the field defaults
    assert specs[1].mc.n == 2000 and specs[1].grid.a == 15.0


@pytest.mark.parametrize(
    "mangle, needle",
    [
        (lambda d: d["cases"][0]["theta1"].pop("sigma"), "cases[0].theta1"),
        (lambda d: d["cases"][0]["theta1"].update(p99=1), "p99"),
        (lambda d: d.update(grdi={}), "grdi"),
        (lambda d: d["cases"][0].update(grdi={}), "grdi"),
        (lambda d: d["cases"][0].update(alphas=[]), "alphas"),
        (lambda d: d["cases"][0].update(alphas=["q"]), "'q'"),
        (lambda d: d["cases"][0].update(alphas=[-0.5]), "alpha must be > 0"),
        (lambda d: d["cases"][0].update(family="Q"), "family"),
        (lambda d: d["cases"][0].pop("name"), "name"),
        (lambda d: d.update(mc={"m": 3}), "unknown key(s) m"),
        (lambda d: d.update(cases="nope"), "cases"),
        (lambda d: d.update(cases=[]), "cases"),
        (lambda d: d["cases"][0].update(grid={"N": 2}), "cases[0].grid: N must be at least 4"),
        (lambda d: d["cases"][0].update(alphas=[0]), "alpha must be > 0 and finite, got 0"),
        (lambda d: d["cases"][0].update(alphas=[math.nan]), "finite, got nan"),
        (lambda d: (d["cases"][0].pop("alphas"), d.update(alphas=[math.inf])),
         "finite, got inf"),
        (lambda d: d["cases"][0].update(alphas=[None]), "a number or 'kl', got None"),
        (lambda d: d.update(mc={"n": None}), "top level.mc.n: expected a number, got None"),
        (lambda d: d.update(grid={"N": [1]}), "top level.grid.N: expected a number"),
        (lambda d: d["cases"][0].update(mc=[1]), "cases[0].mc: expected an object"),
        (lambda d: d.update(mc={"reps": True}), "top level.mc.reps: expected a number"),
        (lambda d: d.update(mc={"n": math.inf}), "cannot convert float infinity"),
        (lambda d: d.update(grid={"a": 10 ** 400}),
         "top level.grid.a: int too large to convert to float"),
        (lambda d: d["cases"][0]["theta1"].update(mu=[10 ** 400, 1.0]),
         "cases[0].theta1.mu: int too large to convert to float"),
        (lambda d: d["cases"][0].update(mc={"n": 2000.7}),
         "cases[0].mc.n: expected an integer, got 2000.7"),
        (lambda d: d["cases"][0].update(mc={"seed": 1.5}),
         "cases[0].mc.seed: expected an integer, got 1.5"),
        (lambda d: d.update(mc={"seed": -1}), "top level.mc: seed must be in [0, 2**64), got -1"),
        (lambda d: d["cases"][0].update(mc={"seed": 2 ** 64}),
         "cases[0].mc: seed must be in [0, 2**64), got 18446744073709551616"),
        (lambda d: d["cases"][0].update(grid={"N": 16.9}),
         "cases[0].grid.N: expected an integer, got 16.9"),
        (lambda d: d["cases"][0]["theta1"].update(mu=2.0),
         "cases[0].theta1.mu: expected a list, got 2.0"),
        (lambda d: d["cases"][0]["theta1"].update(sigma=-1.0),
         "cases[0].theta1: invalid model: sigma must be positive and finite, got -1.0"),
        (lambda d: d["cases"][0].update(alphas=[0.5, 0.5, "kl", "KL"]),
         "case 'c8': alpha 0.5 is repeated"),
        (lambda d: d["cases"][0].update(alphas=["kl", 2.0, "KL"]),
         "case 'c8': alpha 'kl' is repeated"),
        (lambda d: d["cases"][0].update(alphas=[1, 1.0]), "case 'c8': alpha 1.0 is repeated"),
        (lambda d: d["cases"][0].update(name=5), "case name must be a string, got 5"),
        (lambda d: d["cases"][0].update(name=None), "case name must be a string, got None"),
        (lambda d: d["cases"][0].update(name=["x"]), "case name must be a string, got ['x']"),
    ],
)
def test_config_errors_name_the_key(mangle, needle):
    doc = tiny_doc()
    mangle(doc)
    with pytest.raises(ConfigError, match=None) as exc:
        parse_config(doc)
    assert needle in str(exc.value)


def test_integral_floats_read_as_counts():
    doc = tiny_doc(mc={"n": 300.0, "seed": 7.0}, grid={"N": 8.0})
    spec = parse_config(doc)[0]
    assert spec.mc == McConfig(n=300, seed=7) and spec.grid == GridSpec(N=8)
    assert type(spec.mc.n) is int and type(spec.grid.N) is int


def test_duplicate_names_rejected():
    doc = tiny_doc()
    doc["cases"].append(dict(doc["cases"][0]))
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "unique" in str(exc.value)


def test_run_cases_rejects_repeated_names_before_any_case_runs(monkeypatch, tmp_path):
    # rows, diagnostics and failed cases are keyed by name, so two cases
    # named "x" would merge: the run is refused before either engine starts
    # and before --out is made
    mc, grid = McConfig(n=100, reps=3), GridSpec(N=16, quad_points=51)
    specs = [CaseSpec("x", "B", *bench.CASES[k], ("kl", 0.5), mc=mc, grid=grid)
             for k in (1, 3)]
    ran = []
    for name in ("_simulate", "_fredholm_values"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ConfigError, match="^cases: names must be unique, 'x' is repeated$"):
        run_cases(specs)
    monkeypatch.setattr(cli, "load_config", lambda path: specs)
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="^cases: names must be unique, 'x' is repeated$"):
        reproduce_table("cfg.json", out_dir=str(out))
    assert ran == [] and not out.exists()


def test_family_theta_mismatch():
    doc = tiny_doc()
    doc["cases"][0]["family"] = "A"
    with pytest.raises(ConfigError):
        parse_config(doc)
    # a config reads theta by family, so only a direct CaseSpec reaches this
    with pytest.raises(ConfigError, match="^case 'x': theta1 does not match family A$"):
        CaseSpec("x", "A", *bench.CASES[1], ("kl",))


@pytest.mark.parametrize("records, needle", [
    ({"mc": None}, "mc must be a McConfig, got None"),
    ({"grid": None}, "grid must be a GridSpec, got None"),
    ({"mc": {"n": 100}}, "mc must be a McConfig, got {'n': 100}"),
    ({"grid": McConfig()}, "grid must be a GridSpec, got McConfig("),
])
def test_case_spec_checks_its_records(records, needle):
    # a wrong record used to fail only mid-run, in the engine that read it
    with pytest.raises(ConfigError) as exc:
        CaseSpec("x", "B", *bench.CASES[1], ("kl",), **records)
    assert str(exc.value).startswith(f"case 'x': {needle}")


def test_a_string_of_methods_is_refused(tmp_path):
    # a bare string would run its letters as methods: "unknown method 'm'"
    spec = tiny_spec(alphas=(0.5,))
    with pytest.raises(ConfigError, match="^methods must be a sequence of names, not the "
                                          "string 'mc'$"):
        run_cases([spec], "mc")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5,))))
    with pytest.raises(ConfigError, match="not the string 'fredholm'$"):
        reproduce_table(str(cfg), "fredholm", out_dir=str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_one_and_kl_are_two_labels():
    # the same order under two labels, each with its own row
    assert tiny_spec(alphas=(1.0, "kl")).alphas == (1.0, "kl")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


# --- execution -----------------------------------------------------------------


def test_run_case_row_per_alpha():
    spec = tiny_spec(alphas=("kl", 0.5, 2.0))
    rows = run_cases([spec])
    assert [r.alpha for r in rows] == ["kl", 0.5, 2.0]
    assert all(r.case == "c8" for r in rows)
    for r in rows:
        assert r.fredholm is not None and r.mc_mean is not None
        assert r.mc_sd >= 0 and r.rel_err_pct is not None


def test_run_case_deterministic_values():
    spec = tiny_spec()
    assert run_cases([spec]) == run_cases([spec])


def test_run_case_identity_rows_exact_zero():
    doc = tiny_doc()
    doc["cases"][0]["theta"] = dict(T1)
    spec = parse_config(doc)[0]
    for r in run_cases([spec]):
        assert r.fredholm == 0.0
        assert r.mc_mean == 0.0 and r.mc_sd == 0.0
        assert r.rel_err_pct is None


def test_run_case_method_filtering():
    spec = tiny_spec(alphas=(0.5,))
    (mc_only,) = run_cases([spec], methods=("mc",))
    assert mc_only.fredholm is None and mc_only.mc_mean is not None
    assert mc_only.rel_err_pct is None
    (fred_only,) = run_cases([spec], methods=("fredholm",))
    assert fred_only.mc_mean is None and fred_only.fredholm is not None
    with pytest.raises(ValueError):
        run_cases([spec], methods=("bogus",))
    with pytest.raises(ValueError):
        run_cases([spec], methods=())


def test_run_case_fredholm_column_is_divergence_fredholm():
    t1, t = bench.CASES[1]
    grid = GridSpec(N=8, quad_points=101)
    spec = CaseSpec("case1", "B", t1, t, ("kl", 0.5, 2.0), grid=grid)
    for row in run_cases([spec], ("fredholm",)):
        want = divergence_fredholm(t1, t, row.alpha, grid).value
        assert repr(row.fredholm) == repr(want), row.alpha


def test_run_case_mc_column_is_estimate_renyi_mc():
    t1, t = bench.CASES[1]
    mc = McConfig(n=200, reps=5, burn_in=20, seed=3)
    spec = CaseSpec("case1", "B", t1, t, ("kl", 0.5, 2.0), mc=mc)
    for row in run_cases([spec], ("mc",)):
        want = estimate_renyi_mc(t1, t, row.alpha, mc)
        assert (repr(row.mc_mean), repr(row.mc_sd)) == (repr(want.mean), repr(want.std_dev))


@pytest.mark.parametrize("alphas, counts", [
    # KL needs the theta1-filter solve as well: two kernels
    (("kl", 0.5, 2.0), {"build_kernel": 2, "solve_invariant": 2, "j_log": 2, "j_alpha": 2}),
    ((0.5, 2.0), {"build_kernel": 1, "solve_invariant": 1, "j_alpha": 2}),
], ids=["kl", "renyi-only"])
def test_fredholm_layers_are_looked_up_on_cli(monkeypatch, alphas, counts):
    # the benchmark's tracer and fault injection patch these names on cli
    calls = {}
    for name in ("build_kernel", "solve_invariant", "j_alpha", "j_log"):
        real = getattr(fredholm, name)
        assert getattr(cli, name) is real

        def counted(*args, _name=name, _real=real):
            calls.setdefault(_name, []).append(args)
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    run_cases([tiny_spec(alphas=alphas)], ("fredholm",))
    assert {k: len(v) for k, v in calls.items()} == counts
    assert [args[2] for args in calls["j_alpha"]] == [0.5, 2.0]


STAGE_KEYS = ("kernel_seconds", "solve_seconds", "quadrature_seconds")


def test_fredholm_stage_timings_in_diagnostics():
    spec = tiny_spec(alphas=("kl", 0.5, 2.0))
    _, diags = run_diagnosed([spec], ("fredholm",))
    diag = diags["c8"]
    assert all(diag[k] >= 0.0 for k in STAGE_KEYS)
    assert diag["kernel_seconds"] > 0.0 and diag["quadrature_seconds"] > 0.0
    assert sum(diag[k] for k in STAGE_KEYS) <= diag["fredholm_seconds"]
    res = divergence_fredholm(spec.theta1, spec.theta, 0.5, spec.grid)
    assert all(res.diagnostics[k] >= 0.0 for k in STAGE_KEYS)
    # identical pairs skip every stage
    same = divergence_fredholm(spec.theta1, spec.theta1, 0.5, spec.grid)
    assert [same.diagnostics[k] for k in STAGE_KEYS] == [0.0, 0.0, 0.0]


def test_fredholm_tail_margin_in_diagnostics(fredholm_cases):
    # sigma1 = 1.5 against sigma = 1 at order 1.75: s_eff = 6, so the
    # a = 15 lattice keeps only 2.5 tail sds and is refused; order 2 is infinite
    wide = dataclasses.replace(bench.CASES[8][0], sigma=1.5)
    with pytest.raises(GridTooCoarseError, match=r"alpha = 1\.75: the lattice keeps 2\.50 sds"):
        divergence_fredholm(wide, bench.CASES[8][1], 1.75)
    assert divergence_fredholm(wide, bench.CASES[8][1], 2.0).diagnostics["tail_margin_sd"] is None
    for cid, (t1, t) in bench.CASES.items():
        assert divergence_fredholm(t1, t, 2.0).diagnostics["tail_margin_sd"] >= 10.0
        # a case's margin is its smallest over the orders, KL at order 1
        sds = tail_sds(t1, t, [1.0 if a == "kl" else a for a in bench.ALPHA_GRID])
        assert fredholm_cases[cid][1]["tail_margin_sd"] == min(15.0 / sd for sd in sds)


def test_kl_tail_sd_is_never_infinite():
    # at order 1 the tail sd is theta1's widest emission sd, so the KL rate
    # is finite for any pair: bundled, family A (the benchmark's three) and
    # a pair of a family-B generator and a family-A alternative
    a_case1 = (ModelAParams(0.59, 0.4, (2.0, 1.0), (0.0, 0.0), (1.5, 1.5)),
               ModelAParams(0.59, 0.4, (1.0, 0.0), (0.0, 0.0), (2.0, 2.0)))
    a_case6 = (ModelAParams(0.401, 0.6, (2.0, 1.0), (0.3, 0.3), (1.1, 1.1)),
               ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0)))
    wide = dataclasses.replace(bench.CASES[8][0], sigma=1.5)  # infinite at order 2
    pairs = [*bench.CASES.values(), FAMILY_A_PAIR, a_case1, a_case6,
             (bench.CASES[7][0], FAMILY_A_PAIR[1]), (wide, bench.CASES[8][1])]
    for t1, t in pairs:
        assert tail_sds(t1, t, [1.0]) == [float(models.as_chain(t1).s.max())]
    assert tail_sds(wide, bench.CASES[8][1], [2.0]) == [math.inf]


def test_tail_margin_is_checked_before_any_case_runs(monkeypatch):
    # case 1 first, then the sigma1 = 1.5 pair at order 1.75 (2.5 tail sds
    # at a = 15): the second case is refused before the first one runs
    wide = dataclasses.replace(bench.CASES[8][0], sigma=1.5)
    specs = [CaseSpec("case1", "B", *bench.CASES[1], ("kl",)),
             CaseSpec("wide", "B", wide, bench.CASES[8][1], (1.75,))]
    calls, real = [], cli._fredholm_values
    monkeypatch.setattr(cli, "_fredholm_values", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setenv("HMMDIV_THREADS", "1")
    with pytest.raises(GridTooCoarseError, match=r"case 'wide': alpha = 1\.75"):
        run_cases(specs, ("fredholm",))
    assert calls == []


def test_driver_refuses_a_coarse_lattice_before_building_a_kernel(monkeypatch):
    # the sigma1 = 1.5 pair at order 1.6 keeps 5.0 tail sds at a = 15: the
    # driver alone refuses it, and builds no kernel; with theta = theta1 it
    # reports the margin and gives 0, which no lattice can blur
    wide, alt = dataclasses.replace(bench.CASES[8][0], sigma=1.5), bench.CASES[8][1]

    def no_kernel(*args):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(cli, "build_kernel", no_kernel)
    orders = cli._orders(wide, alt, (1.6,))
    with pytest.raises(GridTooCoarseError, match=r"^alpha = 1\.6: the lattice keeps 5\.00 sds"):
        cli._fredholm_values(wide, alt, orders, GridSpec())
    values, diag = cli._fredholm_values(wide, wide, orders, GridSpec())
    assert values == {1.6: 0.0} and diag["identity"] is True
    assert diag["tail_margin_sd"] == 15.0 / tail_sds(wide, alt, [1.6])[0]


def test_each_case_resolves_its_orders_once(monkeypatch):
    # one order table per case, read by the margin gate and both drivers
    calls = {"_orders": 0, "tail_sds": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cli, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    grid, mc = GridSpec(N=8, quad_points=101), McConfig(n=200, reps=5)
    specs = [CaseSpec(f"case{k}", "B", *bench.CASES[k], ("kl", 0.5, 2.0), mc=mc, grid=grid)
             for k in (1, 2)]
    run_cases(specs)
    assert calls == {"_orders": 2, "tail_sds": 2}


def test_a_case_builds_few_chain_forms(monkeypatch):
    # `as_chain` builds a checked chain form from a model on every call: 2
    # for the order table, 2 per kernel, 2 for the case's one J pass and 2
    # for the simulation
    spec = CaseSpec("case1", "B", *bench.CASES[1], ("kl", 0.5, 2.0),
                    mc=McConfig(n=200, reps=5), grid=GridSpec(N=8, quad_points=101))
    calls, real = [], models.LinearGaussianChain.__post_init__
    monkeypatch.setattr(models.LinearGaussianChain, "__post_init__",
                        lambda chain: calls.append(chain) or real(chain))
    run_cases([spec])
    assert len(calls) <= 10


def test_kl_values_are_python_floats():
    t1, t = bench.CASES[1]
    grid = GridSpec(N=8, quad_points=101)
    assert type(divergence_fredholm(t1, t, "kl", grid).value) is float
    (row,) = run_cases([CaseSpec("case1", "B", t1, t, ("kl",), grid=grid)], ("fredholm",))
    assert type(row.fredholm) is float
    m = fredholm.solve_invariant(fredholm.build_kernel(t1, t1, grid))
    assert type(fredholm.j_log(t1, t1, m, grid)) is float


MC_STAGE_KEYS = ("sample_seconds", "filter_seconds")


def test_mc_stage_timings_in_diagnostics():
    spec = tiny_spec(alphas=("kl", 0.5))
    _, diags = run_diagnosed([spec], ("mc",))
    diag = diags["c8"]
    assert all(diag[k] >= 0.0 for k in MC_STAGE_KEYS)
    assert sum(diag[k] for k in MC_STAGE_KEYS) <= diag["mc_seconds"]


def test_mc_top_term_share_in_diagnostics(tmp_path):
    # the largest share of a replication's log-sum-exp carried by its
    # largest term, for every finite Renyi order; no value moves
    spec = tiny_spec(alphas=(0.5, "kl", 1.5, 2.0))
    orders = cli._orders(spec.theta1, spec.theta, spec.alphas)
    [(values, diag)] = cli._mc_values([(spec.theta1, spec.theta, orders)], spec.mc)
    [rho] = replication_log_ratios([(spec.theta1, spec.theta)], spec.mc)
    assert set(diag["mc_top_term_share"]) == {0.5, 1.5, 2.0}
    for a in (0.5, 1.5, 2.0):
        scaled = (a - 1.0) * rho
        want = np.max(np.exp(scaled.max(axis=1) - logsumexp(scaled, axis=1)))
        assert math.isclose(diag["mc_top_term_share"][a], want, rel_tol=1e-12)
        assert 1.0 / spec.mc.n <= diag["mc_top_term_share"][a] <= 1.0
        stats = (logsumexp(scaled, axis=1) - math.log(spec.mc.n)) / (a - 1.0)
        assert repr(values[a].mean) == repr(float(stats.mean()))
    assert values["kl"].top_term_share is None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5, "kl", 1.5, 2.0))))
    reproduce_table(str(cfg), methods=("mc",), out_dir=str(tmp_path))
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert set(diag["cases"]["c8"]["mc_top_term_share"]) == {"0.5", "1.5", "2.0"}


def test_mc_skips_simulation_when_every_order_is_infinite(monkeypatch):
    # sigma1 = 1.5 against sigma = 1: the order-2 rate is infinite; one
    # worker, so every simulation call is made in this process
    monkeypatch.setenv("HMMDIV_THREADS", "1")
    theta1 = dataclasses.replace(bench.CASES[8][0], sigma=1.5)
    spec = CaseSpec("wide", "B", theta1, bench.CASES[8][1], (2.0,),
                    mc=McConfig(n=100, reps=4, burn_in=10))
    calls = []

    def counted(pairs, *args, **kwargs):
        calls.append(list(pairs))
        return replication_log_ratios(pairs, *args, **kwargs)

    monkeypatch.setattr(cli, "replication_log_ratios", counted)
    rows, diags = run_diagnosed([spec], ("mc",))
    assert calls == []
    assert [r.mc_mean for r in rows] == [math.inf]
    assert diags["wide"]["sample_seconds"] == diags["wide"]["filter_seconds"] == 0.0
    # one finite order brings the simulation back
    run_cases([dataclasses.replace(spec, alphas=(1.5, 2.0))], ("mc",))
    assert len(calls) == 1
    # in a batch, the case left out of the simulation keeps zero stage times
    finite = dataclasses.replace(spec, name="finite", alphas=(1.5, 2.0))
    rows, diags = run_diagnosed([spec, finite], ("mc",))
    assert calls[1:] == [[(theta1, bench.CASES[8][1])]]
    assert rows[0].mc_mean == math.inf and math.isfinite(rows[1].mc_mean)
    assert diags["wide"]["sample_seconds"] == diags["wide"]["filter_seconds"] == 0.0
    assert diags["finite"]["sample_seconds"] > 0.0


def mc_cells(rows):
    return [(r.case, r.alpha, repr(r.mc_mean), repr(r.mc_sd)) for r in rows]


def test_batched_cases_equal_their_solo_runs(monkeypatch):
    # one batch per McConfig and family: family-B (4-state) pairs under
    # two McConfigs, an identical pair among them, and a family-A (2-state)
    # pair under the first; one worker, so each batch is one call in this
    # process
    monkeypatch.setenv("HMMDIV_THREADS", "1")
    one, two = McConfig(n=150, reps=6, burn_in=10, seed=4), McConfig(n=90, reps=5, burn_in=0)
    alphas = ("kl", 0.5, 2.0)
    specs = [CaseSpec("b1", "B", *bench.CASES[1], alphas, mc=one),
             CaseSpec("b7", "B", *bench.CASES[7], alphas, mc=two),
             CaseSpec("a", "A", *FAMILY_A_PAIR, alphas, mc=one),
             CaseSpec("same", "B", bench.CASES[2][0], bench.CASES[2][0], alphas, mc=one),
             CaseSpec("b3", "B", *bench.CASES[3], alphas, mc=two)]
    calls = []
    monkeypatch.setattr(cli, "replication_log_ratios",
                        lambda pairs, *args: calls.append(len(pairs))
                        or replication_log_ratios(pairs, *args))
    rows = run_cases(specs, ("mc",))
    assert calls == [2, 2, 1]
    solo = [cell for spec in specs for cell in mc_cells(run_cases([spec], ("mc",)))]
    assert mc_cells(rows) == solo
    assert [(r.mc_mean, r.mc_sd) for r in rows if r.case == "same"] == [(0.0, 0.0)] * 3
    # a pair whose chains have different state counts, batched with others
    mixed = (bench.CASES[7][0], FAMILY_A_PAIR[1])
    batch = [mixed, bench.CASES[1], FAMILY_A_PAIR[::-1]]
    orders = [cli._orders(p, q, alphas) for p, q in batch]
    results = cli._mc_values([(*pair, o) for pair, o in zip(batch, orders)], one)
    for (p, q), (values, _) in zip(batch, results):
        for a in alphas:
            want = estimate_renyi_mc(p, q, a, one)
            assert (repr(values[a].mean), repr(values[a].std_dev)) == (
                repr(want.mean), repr(want.std_dev))


linux_only = pytest.mark.skipif(sys.platform != "linux",
                                reason="the simulation forks worker processes on Linux only")


@linux_only
def test_estimates_run_inside_their_share(monkeypatch, tmp_path):
    # at two workers the batch's three cases split into shares of one and
    # two cases; each case's one estimate call runs in its share's process,
    # on that process's main thread, whatever the methods; no value moves
    mc = McConfig(n=300, reps=11, burn_in=10, seed=5)
    alphas = (0.5, "kl", 1.5, 2.0)
    specs = [CaseSpec(f"case{k}", "B", *bench.CASES[k], alphas, mc=mc,
                      grid=GridSpec(N=16, quad_points=51)) for k in (1, 4, 7)]
    real, log = cli.estimate_from_log_ratios, tmp_path / "estimates.log"

    def logged(*args):
        main_thread = threading.current_thread() is threading.main_thread()
        with open(log, "a", encoding="utf-8") as fh:  # one line, from any process
            fh.write(f"{os.getpid()} {main_thread}\n")
        return real(*args)

    monkeypatch.setattr(cli, "estimate_from_log_ratios", logged)
    runs = {}
    for count, methods in (("1", ("mc",)), ("2", ("mc",)), ("2", ("mc", "fredholm"))):
        monkeypatch.setenv("HMMDIV_THREADS", count)
        log.write_text("")
        rows, diags = run_diagnosed(specs, methods)
        calls = [line.split() for line in log.read_text().splitlines()]
        pids = [pid for pid, _ in calls]
        assert len(calls) == len(specs) and all(main == "True" for _, main in calls)
        assert pids.count(str(os.getpid())) == (3 if count == "1" else 1)
        assert len(set(pids)) == (1 if count == "1" else 2)
        shares = {name: {a: s.hex() for a, s in d["mc_top_term_share"].items()}
                  for name, d in diags.items()}
        runs[count, methods] = mc_cells(rows), shares
    assert len({repr(run) for run in runs.values()}) == 1
    assert all(set(shares) == {0.5, 1.5, 2.0} for shares in runs["1", ("mc",)][1].values())


def hexed(value):
    """A value with every float, also inside tuples and dicts, as float.hex."""
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(hexed(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def test_fredholm_cases_run_on_the_calling_thread(monkeypatch):
    # at one worker and at two, with both engines: every Fredholm case runs
    # on this process's main thread, once the simulation has returned and
    # its worker processes have been joined, and the run starts no thread;
    # the rows and every non-timing diagnostic are the same bits at both
    # counts
    mc = McConfig(n=200, reps=7, burn_in=10, seed=3)
    grid = GridSpec(N=16, quad_points=51)
    specs = [CaseSpec(f"case{k}", "B", *bench.CASES[k], (0.5, "kl"), mc=mc, grid=grid)
             for k in (1, 2, 4)]
    specs.append(CaseSpec("a", "A", *FAMILY_A_PAIR, (0.5, "kl"), mc=mc, grid=grid))
    real_values, real_simulate, seen, simulated = cli._fredholm_values, cli._simulate, [], []

    def logged(*args):
        seen.append((threading.current_thread() is threading.main_thread(),
                     multiprocessing.active_children(), threading.active_count(),
                     len(simulated)))
        return real_values(*args)

    def simulate(*args):
        results = real_simulate(*args)
        simulated.append(results)
        return results

    monkeypatch.setattr(cli, "_fredholm_values", logged)
    monkeypatch.setattr(cli, "_simulate", simulate)
    runs = {}
    for count in ("1", "2"):
        monkeypatch.setenv("HMMDIV_THREADS", count)
        seen.clear()
        simulated.clear()
        before = threading.active_count()
        rows, diags = run_diagnosed(specs)
        assert threading.active_count() == before
        assert seen == [(True, [], before, 1)] * len(specs)
        runs[count] = ([hexed(dataclasses.astuple(r)) for r in rows],
                       {name: hexed({k: v for k, v in d.items() if not k.endswith("_seconds")})
                        for name, d in diags.items()})
    assert runs["1"] == runs["2"]
    assert {"eigen_residual", "mc_top_term_share"} <= set(runs["2"][1]["case1"])


def test_one_order_call_returns_the_run_diagnostics(fredholm_cases):
    # divergence_fredholm is the one-order call of the case pipeline, so it
    # returns the keys a run writes for the case, `fredholm_seconds` too
    res = divergence_fredholm(*bench.CASES[1], 0.5)
    assert list(res.diagnostics) == list(fredholm_cases[1][1])


def hex_cells(rows, diags):
    """Every simulation cell and top-term share as float.hex strings."""
    cells = [(r.case, r.alpha, r.mc_mean.hex(), r.mc_sd.hex()) for r in rows]
    shares = {name: {a: s.hex() for a, s in d["mc_top_term_share"].items()}
              for name, d in diags.items()}
    return cells, shares


def test_mc_cells_equal_at_any_worker_count(monkeypatch):
    # two McConfigs, a family-A pair, an identical pair, a case whose
    # orders are all infinite and seven simulated cases: the cells and
    # top-term shares are the same bits at one, two and three workers
    one, two = McConfig(n=140, reps=6, burn_in=10, seed=8), McConfig(n=90, reps=5, burn_in=0)
    wide = dataclasses.replace(bench.CASES[8][0], sigma=1.5)  # the order-2 rate is infinite
    alphas = ("kl", 0.5, 1.5, 2.0)
    specs = [CaseSpec("b1", "B", *bench.CASES[1], alphas, mc=one),
             CaseSpec("wide", "B", wide, bench.CASES[8][1], (2.0,), mc=one),
             CaseSpec("same", "B", bench.CASES[2][0], bench.CASES[2][0], alphas, mc=one),
             CaseSpec("b7", "B", *bench.CASES[7], alphas, mc=one),
             CaseSpec("a", "A", *FAMILY_A_PAIR, alphas, mc=one),
             CaseSpec("b4", "B", *bench.CASES[4], alphas, mc=one),
             CaseSpec("b3", "B", *bench.CASES[3], alphas, mc=two),
             CaseSpec("b6", "B", *bench.CASES[6], (1.5, 2.0), mc=two)]
    calls = []
    monkeypatch.setattr(cli, "replication_log_ratios",
                        lambda pairs, *args: calls.append(list(pairs))
                        or replication_log_ratios(pairs, *args))
    runs = {}
    for count in ("1", "2", "3"):
        monkeypatch.setenv("HMMDIV_THREADS", count)
        calls.clear()
        runs[count] = hex_cells(*run_diagnosed(specs, ("mc",)))
        if count == "2" and sys.platform == "linux":
            # this process sees only the first share of each batch: b1 with
            # wide (not simulated) and same; a; b3
            pairs = {spec.name: (spec.theta1, spec.theta) for spec in specs}
            assert calls == [[pairs["b1"], pairs["same"]], [pairs["a"]], [pairs["b3"]]]
    assert runs["1"] == runs["2"] == runs["3"]
    cells = {(case, alpha): mean for case, alpha, mean, _ in runs["1"][0]}
    assert cells["wide", 2.0] == "inf" and cells["same", "kl"] == "0x0.0p+0"


@linux_only
def test_a_failed_worker_fails_only_its_shares_cases(monkeypatch):
    # at two workers, case1 runs here and case3 and case4 in a worker; a
    # share that raises in the worker fails each of its cases with the same
    # exception type and message, and a worker that dies fails them with
    # BrokenProcessPool instead of hanging; case1 keeps its solo values and
    # no worker process outlives the call
    mc = McConfig(n=120, reps=5, burn_in=10, seed=6)
    specs = [CaseSpec(f"case{k}", "B", *bench.CASES[k], ("kl", 2.0), mc=mc) for k in (1, 3, 4)]
    solo = mc_cells(run_cases(specs[:1], ("mc",)))
    parent = os.getpid()

    def raising(pairs, *args):
        if os.getpid() != parent:
            raise RuntimeError(f"sampler stopped on {len(pairs)} pairs")
        return replication_log_ratios(pairs, *args)

    def dying(pairs, *args):
        if os.getpid() != parent:
            os._exit(3)
        return replication_log_ratios(pairs, *args)

    monkeypatch.setenv("HMMDIV_THREADS", "2")
    for patched, error, message in ((raising, RuntimeError, "sampler stopped on 2 pairs"),
                                    (dying, BrokenProcessPool, None)):
        monkeypatch.setattr(cli, "replication_log_ratios", patched)
        rows, per_case, failed = cli._run_all(*cli._resolve(specs, ("mc",)), ("mc",))
        assert multiprocessing.active_children() == []
        assert list(failed) == ["case3", "case4"] and list(per_case) == ["case1"]
        assert all(type(exc) is error for exc in failed.values())
        if message is not None:
            assert [str(exc) for exc in failed.values()] == [message] * 2
        assert mc_cells(rows) == solo
        with pytest.raises(error):
            run_cases(specs, ("mc",))
        assert multiprocessing.active_children() == []


def test_a_batch_that_raises_fails_each_of_its_cases(monkeypatch):
    # the family-A batch's one call raises: both of its cases fail with that
    # error, and the family-B batch's cases finish with their solo values;
    # one worker, so the error is the object raised here
    monkeypatch.setenv("HMMDIV_THREADS", "1")
    mc = McConfig(n=120, reps=5, burn_in=10, seed=6)
    specs = [CaseSpec("b1", "B", *bench.CASES[1], ("kl", 2.0), mc=mc),
             CaseSpec("a1", "A", *FAMILY_A_PAIR, ("kl", 2.0), mc=mc),
             CaseSpec("b3", "B", *bench.CASES[3], ("kl", 2.0), mc=mc),
             CaseSpec("a2", "A", *FAMILY_A_PAIR[::-1], ("kl", 2.0), mc=mc)]
    boom = RuntimeError("sampler stopped")

    def sample(pairs, *args):
        if isinstance(pairs[0][0], ModelAParams):
            raise boom
        return replication_log_ratios(pairs, *args)

    monkeypatch.setattr(cli, "replication_log_ratios", sample)
    rows, per_case, failed = cli._run_all(*cli._resolve(specs, ("mc",)), ("mc",))
    assert failed == {"a1": boom, "a2": boom}
    assert list(per_case) == ["b1", "b3"]
    assert mc_cells(rows) == mc_cells(run_cases([specs[0]], ("mc",))
                                      + run_cases([specs[2]], ("mc",)))


def test_degenerate_case_fails_alone_in_its_batch():
    # an alternative with an absurd emission scale underflows its filter;
    # the two other cases of the batch still finish with their solo values
    bad = ModelBParams(p01=0.4, p10=0.6, mu=(0.0, 0.0), phi=0.0, psi1=1.0, psi2=0.0,
                       sigma=1e-160)
    mc = McConfig(n=200, reps=5, burn_in=20, seed=3)
    specs = [CaseSpec("c1", "B", *bench.CASES[1], ("kl", 0.5), mc=mc),
             CaseSpec("bad", "B", bench.CASES[1][0], bad, ("kl", 0.5), mc=mc),
             CaseSpec("c2", "B", *bench.CASES[2], ("kl", 0.5), mc=mc)]
    with np.errstate(over="ignore"):
        rows, _, failed = cli._run_all(*cli._resolve(specs, ("mc",)), ("mc",))
        with pytest.raises(DegenerateInputError, match=r"in batch path \d+ \(replication"):
            run_cases(specs, ("mc",))
    assert list(failed) == ["bad"]
    assert "replication" in str(failed["bad"])
    assert mc_cells(rows) == mc_cells(run_cases([specs[0]], ("mc",))
                                      + run_cases([specs[2]], ("mc",)))


def test_mc_stage_holds_only_the_log_ratios():
    # the bundled cases at n = 2000: the batch streams its paths in time
    # blocks, so only the (reps, n) log ratios of each case are full length
    cfg = McConfig()
    cases = [(t1, t, cli._orders(t1, t, bench.ALPHA_GRID)) for t1, t in bench.CASES.values()]
    tracemalloc.start()
    try:
        results = cli._mc_values(cases, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, Exception) for r in results)
    rho_bytes = len(cases) * cfg.reps * cfg.n * 8
    assert peak <= rho_bytes + 4 * 2 ** 20


def test_fredholm_skips_the_kernel_when_every_order_is_infinite(monkeypatch):
    theta1 = dataclasses.replace(bench.CASES[8][0], sigma=1.5)
    spec = CaseSpec("wide", "B", theta1, bench.CASES[8][1], (2.0,),
                    grid=GridSpec(N=8, quad_points=51))
    calls = []

    def counted(*args):
        calls.append(args)
        return fredholm.build_kernel(*args)

    monkeypatch.setattr(cli, "build_kernel", counted)
    rows, diags = run_diagnosed([spec], ("fredholm",))
    diag = diags["wide"]
    assert calls == []
    assert [r.fredholm for r in rows] == [math.inf]
    assert "eigen_residual" not in diag and "iterations" not in diag
    assert diag["tail_margin_sd"] is None
    # one finite order brings the theta-filter kernel back
    run_cases([dataclasses.replace(spec, alphas=(1.5, 2.0))], ("fredholm",))
    assert len(calls) == 1


def test_run_cases_thread_count_independent(monkeypatch):
    doc = tiny_doc(alphas=(0.5,))
    doc["cases"].append({**doc["cases"][0], "name": "c8b"})
    doc["cases"].append({**doc["cases"][0], "name": "c8c"})
    specs = parse_config(doc)
    monkeypatch.setenv("HMMDIV_THREADS", "1")
    seq = run_cases(specs)
    monkeypatch.setenv("HMMDIV_THREADS", "3")
    assert run_cases(specs) == seq
    assert [r.case for r in seq] == ["c8", "c8b", "c8c"]


def test_run_cases_invalid_thread_env(monkeypatch):
    specs = [tiny_spec(alphas=(0.5,))]
    for bad in ("x", "-2"):
        monkeypatch.setenv("HMMDIV_THREADS", bad)
        with pytest.raises(ConfigError):
            run_cases(specs)


def test_auto_worker_count_is_one_per_usable_cpu(monkeypatch):
    # os.cpu_count counts the host's CPUs: in a cpuset smaller than the
    # host, one worker per host CPU would oversubscribe the ones it may use
    monkeypatch.delenv("HMMDIV_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._thread_count() == 1
    monkeypatch.setenv("HMMDIV_THREADS", "3")
    assert cli._thread_count() == 3
    # where the affinity call does not exist, the CPU count stands
    monkeypatch.setenv("HMMDIV_THREADS", "0")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._thread_count() == 64


# --- result checking --------------------------------------------------------------


def ref_row(alpha=0.5):
    det, sim_mean, sim_sd = bench.REFERENCE[alpha][8]
    return ResultRow(case="c8", alpha=alpha, fredholm=det, mc_mean=sim_mean,
                     mc_sd=sim_sd)


def test_check_rows_clean():
    assert check_rows([tiny_spec()], [ref_row()]) == []


def test_check_rows_cross_method_violation():
    bad = dataclasses.replace(ref_row(), mc_sd=1e-9,
                              mc_mean=ref_row().fredholm + 1.0)
    failures = check_rows([tiny_spec()], [bad])
    assert failures and any("c8" in f and "0.5" in f for f in failures)


def test_check_rows_reference_violation():
    bad = dataclasses.replace(ref_row(), fredholm=ref_row().fredholm + 5.0,
                              mc_mean=ref_row().fredholm + 5.0)
    failures = check_rows([tiny_spec()], [bad])
    assert any("fredholm" in f for f in failures)


def test_check_rows_ignores_non_benchmark_params():
    doc = tiny_doc(alphas=(0.5,))
    doc["cases"][0]["theta"]["mu"] = [1.1, 0.9]  # no longer a benchmark pair
    spec = parse_config(doc)[0]
    row = ResultRow(case="c8", alpha=0.5, fredholm=7.0, mc_mean=7.0, mc_sd=0.1)
    assert check_rows([spec], [row]) == []  # only cross-method applies; it passes


def test_check_rows_fails_any_gap_at_sd_zero():
    # a single replication has sd 0: only equal values pass the band then
    doc = tiny_doc(alphas=(0.5,))
    doc["cases"][0]["theta"]["mu"] = [1.1, 0.9]  # only cross-method applies
    spec = parse_config(doc)[0]
    row = ResultRow(case="c8", alpha=0.5, fredholm=0.5, mc_mean=0.1, mc_sd=0.0)
    (failure,) = check_rows([spec], [row])
    assert "|fredholm - mc| = 0.4000 exceeds 3*sd = 0.0000" in failure
    assert check_rows([spec], [dataclasses.replace(row, mc_mean=0.5)]) == []


@pytest.mark.parametrize("values", [
    dict(fredholm=math.nan, mc_mean=0.11, mc_sd=0.01),
    dict(fredholm=0.109, mc_mean=math.nan, mc_sd=0.01),
    dict(fredholm=0.109, mc_mean=0.11, mc_sd=math.nan),
    dict(fredholm=math.nan),
    dict(mc_mean=math.nan, mc_sd=0.0),
])
def test_check_rows_fails_a_nan_cell(values):
    # a comparison with nan is False, so every band is written to fail it;
    # the same row with finite values passes
    spec = CaseSpec("case1", "B", *bench.CASES[1], (0.5,))
    row = ResultRow(case="case1", alpha=0.5, **values)
    assert any(f.startswith("case1 alpha=0.5: ") for f in check_rows([spec], [row]))
    finite = {k: 0.01 if k == "mc_sd" else 0.11 for k in values}
    assert check_rows([spec], [ResultRow(case="case1", alpha=0.5, **finite)]) == []


def test_check_rows_fails_a_nan_cell_that_no_band_checks():
    doc = tiny_doc(alphas=(0.5,))
    doc["cases"][0]["theta"]["mu"] = [1.1, 0.9]  # no reference band applies
    spec = parse_config(doc)[0]
    rows = [ResultRow(case="c8", alpha=0.5, fredholm=math.nan),
            ResultRow(case="c8", alpha=0.5, mc_mean=math.nan, mc_sd=math.nan)]
    assert check_rows([spec], rows) == ["c8 alpha=0.5: fredholm not a number",
                                        "c8 alpha=0.5: mc_mean, mc_sd not a number"]


# --- formatting ------------------------------------------------------------------


def test_table_and_csv_agree():
    rows = run_cases([tiny_spec()])
    table = format_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["case", "alpha", "fredholm", "mc_mean",
                                "mc_sd", "re_pct"]
    reader = csv.DictReader(io.StringIO(format_csv(rows)))
    for row, rec, line in zip(rows, reader, lines[2:]):
        assert float(rec["fredholm"]) == row.fredholm
        assert float(rec["mc_mean"]) == row.mc_mean
        cells = line.split()
        assert cells[0] == row.case
        assert cells[2] == f"{row.fredholm:.4f}"
        assert cells[3] == f"{row.mc_mean:.4f}"


def test_table_columns_align_for_long_names():
    # the case and alpha columns are as wide as their longest entries, so
    # every cell of a row ends where its header label ends, whatever the
    # name's length; each order is labelled as table.csv spells it, so two
    # orders near 1 (both Renyi) keep distinct labels
    orders = (0.5, "kl", 0.9999999, 1.0000001, 123456789.0)
    rows = [ResultRow(case=name, alpha=a, fredholm=0.1234, mc_mean=0.1231, mc_sd=0.01,
                      rel_err_pct=0.25)
            for name in ("case1", "persistent-p20") for a in orders]
    header, rule, *lines = format_table(rows).splitlines()
    ends = [m.end() for m in re.finditer(r"\S+", header)]
    assert len(rule) == len(header) and len(lines) == len(rows)
    labels = []
    for row, line in zip(rows, lines):
        assert line.startswith(row.case + " ")
        assert [m.end() for m in re.finditer(r"\S+", line)][1:] == ends[1:]
        labels.append(line.split()[1])
    for a, label in zip(orders, labels[len(orders):]):
        assert label == a if isinstance(a, str) else float(label) == a
    assert len(set(labels)) == len(orders)


def test_tables_are_the_same_bytes_across_runs_and_worker_counts(tmp_path, monkeypatch):
    # the tables hold no timing: two runs of one config, at one worker and
    # at two (on Linux, the second case then runs in a forked share), write
    # the same bytes
    doc = tiny_doc(alphas=(0.5, "kl"))
    doc["cases"].append({**doc["cases"][0], "name": "c8b", "theta": {**T0, "sigma": 1.2}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    tables = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HMMDIV_THREADS", threads)
        out = tmp_path / threads
        reproduce_table(str(cfg), out_dir=str(out))
        tables.append([(out / name).read_bytes() for name in ("table.txt", "table.csv")])
    assert tables[0] == tables[1]


def test_csv_blank_for_missing():
    rows = [ResultRow(case="x", alpha=0.5, fredholm=1.0)]
    rec = next(csv.DictReader(io.StringIO(format_csv(rows))))
    assert rec["mc_mean"] == "" and rec["mc_sd"] == ""
    assert float(rec["fredholm"]) == 1.0


def test_csv_quotes_a_name_with_a_comma_and_a_quote(tmp_path):
    # a name with a comma and a quote stays one cell under the 6-field header
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5,), name='a,"b"')))
    reproduce_table(str(cfg), methods=("fredholm",), out_dir=str(tmp_path))
    with open(tmp_path / "table.csv", newline="", encoding="utf-8") as fh:
        header, record = csv.reader(fh)
    assert header == ["case", "alpha", "fredholm", "mc_mean", "mc_sd", "re_pct"]
    assert len(record) == 6 and record[:2] == ['a,"b"', "0.5"]


# --- artifacts ---------------------------------------------------------------------


def test_reproduce_table_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5,))))
    out = tmp_path / "out"
    rows, failures = reproduce_table(str(cfg), out_dir=str(out), check=True)
    assert len(rows) == 1 and failures == []
    assert (out / "table.txt").exists()
    assert (out / "table.csv").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert set(diag) >= {"config", "methods", "wall_seconds", "cases",
                         "check_failures"}
    assert diag["cases"]["c8"]["eigen_residual"] <= 1e-10
    assert all(diag["cases"]["c8"][k] >= 0.0 for k in STAGE_KEYS + MC_STAGE_KEYS)
    spec = parse_config(tiny_doc(alphas=(0.5,)))[0]
    assert diag["cases"]["c8"]["tail_margin_sd"] == 10.0 / tail_sds(spec.theta1, spec.theta, [0.5])[0]
    assert parse_config(diag["config"]) == [spec]  # the run's own cases


# --- entry point -------------------------------------------------------------------


def test_main_print_defaults(capsys):
    assert main(["print-defaults"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == default_config()


def test_main_run_and_check_pass(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    rc = main(["run", str(cfg), "--check", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "c8" in capsys.readouterr().out


def test_main_check_failure_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(bench.REFERENCE[0.5], 8, (99.0, 99.0, 1e-9))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5,))))
    rc = main(["run", str(cfg), "--check", "--methods", "fredholm",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "outside" in capsys.readouterr().err


def test_main_fredholm_only_blank_mc(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5,))))
    assert main(["run", str(cfg), "--methods", "fredholm",
                 "--out", str(tmp_path / "o")]) == 0
    rec = next(csv.DictReader(io.StringIO((tmp_path / "o" / "table.csv").read_text())))
    assert rec["mc_mean"] == "" and float(rec["fredholm"]) > 0


def test_main_config_errors_exit_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    assert main(["run", str(cfg), "--methods", "bogus"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    cfg.write_text(json.dumps(tiny_doc(alphas=(None,))))  # "alphas": [null]
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: case 'c8'" in capsys.readouterr().err
    cfg.write_text(json.dumps(tiny_doc(grid={"a": math.inf})))  # "a": Infinity
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "cases[0].grid: a must be positive and finite" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # no such subcommand
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


@pytest.mark.parametrize("methods", [",", "bogus", "mc,bogus"])
def test_main_bad_methods_exit_two_without_artifacts(tmp_path, capsys, methods):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--methods", methods, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


def test_main_overflowing_pair_mean_is_a_config_error(tmp_path, capsys):
    # every number is finite, but family B's pair-state intercept
    # psi2 * mu[0] + psi1 * mu[0] is not: the model is refused when built
    doc = tiny_doc()
    doc["cases"][0]["theta1"].update(mu=[1e308, 1.0], psi1=1.5, psi2=1.5)
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg), "--methods", "mc", "--check", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: cases[0].theta1: invalid model: "
        "pair mean psi2 * mu[0] + psi1 * mu[0] must be finite, got inf"]
    assert not out.exists()


def test_main_unusable_out_exits_two_before_any_case_runs(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "_run_all", lambda *args: ran.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc()))
    for out in (cfg, cfg / "o"):  # an existing file, and a path through one
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot create output directory")
    assert ran == []


def test_main_rejected_lattice_exits_two(tmp_path, capsys):
    # case 7 at N = 8 fails the kernel's column-sum gate
    t1, t = bench.CASES[7]
    spec = CaseSpec("case7", "B", t1, t, ("kl",), mc=McConfig(n=100, reps=4, burn_in=10),
                    grid=GridSpec(N=8))
    with pytest.raises(GridTooCoarseError, match="case 'case7'"):
        run_cases([spec])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(serialize_config([spec])))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "GridTooCoarseError: case 'case7': " in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_a_finite_order_whose_quadrature_overflows_is_refused(tmp_path, capsys):
    # case 1's rate is finite at every order (`tail_sds`), but at order 3000
    # its J overflows to inf: the order is refused, not written as inf, and
    # the refusal is the one report, with no numpy overflow warning
    t1, t = bench.CASES[1]
    assert divergence_fredholm(t1, t, 1000.0).value == 0.5510199210777325
    with pytest.raises(GridTooCoarseError, match=r"^alpha = 3000\.0: the quadrature overflowed"):
        divergence_fredholm(t1, t, 3000.0)
    spec = CaseSpec("case1", "B", t1, t, (1000.0, 3000.0))
    with pytest.raises(GridTooCoarseError,
                       match=r"^case 'case1': alpha = 3000\.0: the quadrature overflowed"):
        run_cases([spec], ("fredholm",))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(serialize_config([spec])))
    assert main(["run", str(cfg), "--methods", "fredholm", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("GridTooCoarseError: case 'case1': alpha = 3000.0")


def test_a_divergence_below_zero_is_refused(tmp_path, capsys):
    # p05's lattice values at orders 0.5 and 0.8 are below zero, which no
    # one-step Renyi value can be: the first such order is named, once with
    # the case; the simulation engine has no such rule
    spec = CaseSpec("p05", "B", *P05, bench.ALPHA_GRID, mc=McConfig(n=100, reps=4, burn_in=10))
    with pytest.raises(GridTooCoarseError, match=r"^case 'p05': alpha = 0.5: .* below zero") as exc:
        run_cases([spec])
    assert str(exc.value).count("'p05'") == 1
    with pytest.raises(GridTooCoarseError, match=r"^alpha = 0.8: .* below zero"):
        divergence_fredholm(*P05, 0.8)
    assert len(run_cases([spec], ("mc",))) == len(bench.ALPHA_GRID)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(serialize_config([spec])))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"GridTooCoarseError: {exc.value}"]
    diag = json.loads((tmp_path / "o" / "diagnostics.json").read_text())
    assert diag["failed_cases"] == {"p05": err[0]}


def test_rounding_near_identical_models_is_not_refused():
    # case 3 against itself with one mean a last bit lower: rounding moves
    # each log functional by ulps of 1, and each value by up to 4e-8 at
    # orders 1 +- 1.1e-8, where it is divided by alpha - 1; p20 is
    # persistent, with every value above zero
    t1 = bench.CASES[3][0]
    low = dataclasses.replace(t1, mu=(t1.mu[0], math.nextafter(t1.mu[1], -math.inf)))
    alphas = (*bench.ALPHA_GRID, 1.0 + 1.1e-8, 1.0 - 1.1e-8)
    rows = run_cases([CaseSpec("last-bit", "B", t1, low, alphas),
                      CaseSpec("p20", "B", *P20, bench.ALPHA_GRID)], ("fredholm",))
    assert max(abs(r.fredholm) for r in rows if r.case == "last-bit") <= 1e-7
    assert min(r.fredholm for r in rows if r.case == "p20") > 0.0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_finished_cases_kept_when_a_later_case_fails(tmp_path, monkeypatch, capsys, threads):
    # case 7 at N = 8 fails the kernel's column-sum gate after case 1 ran
    monkeypatch.setenv("HMMDIV_THREADS", threads)
    specs = [CaseSpec("case1", "B", *bench.CASES[1], ("kl", 0.5)),
             CaseSpec("case7", "B", *bench.CASES[7], ("kl",), grid=GridSpec(N=8))]
    with pytest.raises(GridTooCoarseError, match="case 'case7'"):
        run_cases(specs, ("fredholm",))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(serialize_config(specs)))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--methods", "fredholm", "--out", str(out)]) == 2
    assert ("GridTooCoarseError: case 'case7': pre-normalization column sum"
            in capsys.readouterr().err)
    want = run_cases(specs[:1], ("fredholm",))
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "case,alpha,fredholm,mc_mean,mc_sd,re_pct"
    recs = list(csv.DictReader(lines))
    assert [(r["case"], r["alpha"], r["fredholm"]) for r in recs] == [
        ("case1", str(w.alpha), repr(float(w.fredholm))) for w in want]
    assert "case1" in (out / "table.txt").read_text()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert list(diag["cases"]) == ["case1"]
    assert list(diag["failed_cases"]) == ["case7"]
    assert diag["failed_cases"]["case7"].startswith(
        "GridTooCoarseError: case 'case7': pre-normalization column sum")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("engine", ["mc", "fredholm"])
def test_a_case_either_engine_rejects_exits_two_named_once(tmp_path, monkeypatch, capsys,
                                                           threads, engine):
    # mc: theta's means 1000 and 1001 at sd 0.01 underflow its filter at the
    # first step (at two workers, in a worker's share); fredholm: the
    # family-B case's solves do not converge. The other case finishes, the
    # error keeps its type and names the case once, and `run` exits 2 with
    # one stderr line, no traceback
    monkeypatch.setenv("HMMDIV_THREADS", threads)
    mc, grid = McConfig(n=100, reps=4, burn_in=10), GridSpec(N=16, quad_points=51)
    error = DegenerateInputError if engine == "mc" else NonConvergenceError
    if engine == "mc":
        far = ModelAParams(0.5, 0.5, (1000.0, 1001.0), (0.0, 0.0), (0.01, 0.01))
        bad = CaseSpec("bad", "A", FAMILY_A_PAIR[0], far, ("kl", 0.5), mc=mc)
    else:
        real = cli.solve_invariant

        def stuck(kernel):
            if len(kernel.entries) == 4 * 15 ** 2:  # the pair lift
                raise NonConvergenceError("power iteration did not reach 1.0e-12")
            return real(kernel)

        monkeypatch.setattr(cli, "solve_invariant", stuck)
        bad = CaseSpec("bad", "B", *bench.CASES[1], ("kl", 0.5), grid=grid)
    specs = [CaseSpec("ok", "A", *FAMILY_A_PAIR, ("kl", 0.5), mc=mc, grid=grid), bad]
    with pytest.raises(error) as exc:
        run_cases(specs, (engine,))
    assert str(exc.value).startswith("case 'bad': ") and str(exc.value).count("'bad'") == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(serialize_config(specs)))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--methods", engine, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{error.__name__}: {exc.value}"]
    diag = json.loads((out / "diagnostics.json").read_text())
    assert list(diag["cases"]) == ["ok"]
    assert diag["failed_cases"] == {"bad": err[0]}


def test_main_invalid_thread_env_exits_two(tmp_path, monkeypatch, capsys):
    # HMMDIV_THREADS is checked with the other inputs, before --out is made
    monkeypatch.setenv("HMMDIV_THREADS", "nope")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_doc(alphas=(0.5,))))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "HMMDIV_THREADS must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_python_dash_m_runs_the_cli():
    # run against the package this suite imported, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(hmmdiv.__file__)),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-m", "hmmdiv", "print-defaults"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == default_config()


@linux_only
def test_multiprocessing_is_imported_only_to_open_the_worker_pool():
    # importing hmmdiv, and a run with one worker, leave it unloaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(hmmdiv.__file__)),
                    env.get("PYTHONPATH")) if p
    )
    script = (
        "import os, sys\n"
        "from hmmdiv import CaseSpec, McConfig, run_cases\n"
        "from hmmdiv.cases import CASES\n"
        "specs = [CaseSpec(f'case{k}', 'B', *CASES[k], ('kl',), mc=McConfig(n=50, reps=3))\n"
        "         for k in (1, 2)]\n"
        "loaded = ['multiprocessing' in sys.modules]\n"
        "for count in ('1', '2'):\n"
        "    os.environ['HMMDIV_THREADS'] = count\n"
        "    run_cases(specs, ('mc',))\n"
        "    loaded.append('multiprocessing' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[False, False, True]"


def test_scipy_is_imported_only_by_the_fredholm_engine():
    # importing hmmdiv and a simulation-only run leave scipy unloaded; the
    # first Fredholm kernel loads scipy.special
    env = dict(os.environ, HMMDIV_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(hmmdiv.__file__)),
                    env.get("PYTHONPATH")) if p
    )
    script = (
        "import sys\n"
        "from hmmdiv import CaseSpec, GridSpec, McConfig, run_cases\n"
        "from hmmdiv.cases import CASES\n"
        "spec = CaseSpec('case1', 'B', *CASES[1], (0.5,), mc=McConfig(n=50, reps=3),\n"
        "                grid=GridSpec(N=8, quad_points=101))\n"
        "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]\n"
        "run_cases([spec], ('mc',))\n"
        "loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "run_cases([spec], ('fredholm',))\n"
        "print(loaded, 'scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[[], []] True"


def test_public_names_resolve():
    assert "solve_invariant" in hmmdiv.__all__
    assert [n for n in hmmdiv.__all__ if not hasattr(hmmdiv, n)] == []


def read_readme() -> str:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        return fh.read()


def test_every_public_name_is_in_the_readme(capsys):
    readme = read_readme()
    assert [n for n in hmmdiv.__all__ if not re.search(rf"`{n}\b", readme)] == []
    # and it names nothing that is gone: each `module.name` resolves, and
    # each command of its CLI block is one that `main` takes
    dotted = re.findall(r"`(cli|fredholm|forward|models|montecarlo|cases)\.(\w+)", readme)
    assert dotted and [f"{m}.{n}" for m, n in dotted
                       if not hasattr(importlib.import_module(f"hmmdiv.{m}"), n)] == []
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = re.findall(r"^hmmdiv (\S+)", block, re.M)
    assert commands
    for cmd in commands:
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0, cmd
    capsys.readouterr()


def test_readme_sample_output_is_the_real_output():
    readme = read_readme()
    block = readme.split("Sample of `hmmdiv run benchmark` output:\n\n```\n")[1].split("```")[0]
    spec = CaseSpec("case1", "B", *bench.CASES[1], (0.5, 0.8, "kl", 2.0))
    assert block.splitlines() == format_table(run_cases([spec])).splitlines()


def test_every_diagnostics_key_is_in_the_readme(tmp_path):
    # the top-level keys and the per-case keys of both engines, of an
    # identity case and of a case whose every order is infinite
    doc = tiny_doc(alphas=(0.5, "kl", 2.0))
    same = {**doc["cases"][0], "name": "same", "theta": dict(T1)}
    wide = {**doc["cases"][0], "name": "wide", "alphas": [2.0],
            "theta1": {**T1, "sigma": 1.5}}  # the order-2 rate is infinite
    doc["cases"] += [same, wide]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    reproduce_table(str(cfg), out_dir=str(tmp_path))
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert set(diag["cases"]) == {"c8", "same", "wide"}
    assert diag["cases"]["same"]["identity"] is True
    assert diag["cases"]["wide"]["tail_margin_sd"] is None
    keys = set(diag).union(*diag["cases"].values())
    readme = read_readme()
    assert sorted(k for k in keys if f"`{k}`" not in readme) == []
