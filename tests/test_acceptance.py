"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance. Everything here runs against the public API at the default
configuration (lattice N = 16, a = 15; simulation n = 2000, reps = 100)
unless the criterion itself is about changing that configuration."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ncx2

from hmmdiv import (
    CaseSpec,
    GridSpec,
    GridTooCoarseError,
    McConfig,
    ModelAParams,
    ModelBParams,
    ResultRow,
    divergence_fredholm,
    estimate_from_log_ratios,
    estimate_renyi_mc,
    load_config,
    log_likelihood,
    noncentral_chisq1_cdf,
    q,
    replication_log_ratios,
    run_cases,
    sample_path,
)
from hmmdiv.cases import ALPHA_GRID, CASES, REFERENCE
from hmmdiv.cli import check_rows

from oracles import (
    CASE8_CLOSED_FORM,
    FAMILY_A_PAIR,
    brute_force_log_likelihood,
    gaussian_renyi,
    matrix_log_likelihood,
    simulate_q,
)

RECORDED = Path(__file__).resolve().parents[1] / "benchmarks" / "recorded.json"
EFFECTIVE_ALPHA = {a: (1.0 if a == "kl" else float(a)) for a in ALPHA_GRID}
ORDERED_ALPHAS = sorted(ALPHA_GRID, key=EFFECTIVE_ALPHA.get)


# --- 1. deterministic engine reproduces the reference table -------------------------


def test_deterministic_engine_matches_reference_table(fredholm_results):
    worst = 0.0
    for alpha, by_case in REFERENCE.items():
        for cid, (det_ref, _, _) in by_case.items():
            got = fredholm_results[(cid, alpha)]
            band = max(0.01, 0.05 * abs(det_ref))
            worst = max(worst, abs(got - det_ref) / band)
            assert abs(got - det_ref) <= band, (
                f"case {cid} alpha={alpha}: {got:.4f} vs {det_ref:.4f}"
            )
    assert worst <= 1.0


# --- 2. simulation engine reproduces the reference table ----------------------------


def test_simulation_engine_matches_reference_table(mc_estimates):
    for alpha, by_case in REFERENCE.items():
        for cid, (_, sim_ref, sd_ref) in by_case.items():
            got = mc_estimates[(cid, alpha)].mean
            assert abs(got - sim_ref) <= 3 * sd_ref, (
                f"case {cid} alpha={alpha}: {got:.4f} vs {sim_ref:.4f} "
                f"+- {3 * sd_ref:.4f}"
            )


def test_tables_match_the_recorded_benchmark_values(fredholm_results, mc_estimates):
    # The fixtures are the benchmark's paper-table cells at seed 0, which
    # benchmarks/run.py gates at 1e-12 relative against recorded.json.
    recorded = json.loads(RECORDED.read_text())["paper-table"]
    got = {}
    for (cid, alpha), value in fredholm_results.items():
        got[f"case{cid}|{alpha}|fredholm"] = [value]
    for (cid, alpha), est in mc_estimates.items():
        got[f"case{cid}|{alpha}|mc"] = [est.mean, est.std_dev]
    assert got.keys() == recorded.keys()
    moved = [f"{cell}: {got[cell]} vs recorded {ref}" for cell, ref in recorded.items()
             if not all(abs(v - r) <= 1e-12 * abs(r) for v, r in zip(got[cell], ref))]
    assert not moved, "\n".join(moved)


# --- 3. static Gaussian case matches its closed forms --------------------------------


def test_static_gaussian_case_matches_closed_forms(fredholm_results, mc_estimates):
    for alpha, exact in CASE8_CLOSED_FORM.items():
        det = fredholm_results[(8, alpha)]
        assert abs(det - exact) <= 0.02 * exact, f"alpha={alpha}: {det} vs {exact}"
        est = mc_estimates[(8, alpha)]
        se = est.std_dev / math.sqrt(est.reps)
        assert abs(est.mean - exact) <= 3 * se, (
            f"alpha={alpha}: {est.mean:.4f} vs {exact:.4f} +- {3 * se:.4f}"
        )


# --- 4. the two engines agree with each other ----------------------------------------


def test_engines_agree_within_simulation_error(fredholm_results, mc_estimates):
    for cid in CASES:
        for alpha in ALPHA_GRID:
            det = fredholm_results[(cid, alpha)]
            est = mc_estimates[(cid, alpha)]
            assert abs(det - est.mean) <= 3 * est.std_dev, (
                f"case {cid} alpha={alpha}: |{det:.4f} - {est.mean:.4f}| "
                f"> 3 * {est.std_dev:.4f}"
            )


def test_bundled_table_passes_check_rows(fredholm_results, mc_estimates):
    rows = [ResultRow(f"case{cid}", a, fredholm_results[(cid, a)], est.mean, est.std_dev)
            for (cid, a), est in mc_estimates.items()]
    assert check_rows(load_config("benchmark"), rows) == []


def test_engines_agree_on_family_a():
    theta1, theta = FAMILY_A_PAIR
    [rho] = replication_log_ratios([(theta1, theta)], McConfig())
    for alpha in ("kl", 0.5):
        det = divergence_fredholm(theta1, theta, alpha).value
        est = estimate_from_log_ratios(rho, [1.0 if alpha == "kl" else alpha])[0]
        assert abs(det - est.mean) <= 3 * est.std_dev, (
            f"alpha={alpha}: |{det:.4f} - {est.mean:.4f}| > 3 * {est.std_dev:.4f}"
        )


@pytest.mark.parametrize("direction", ["b-generates", "a-generates"])
def test_engines_agree_on_mixed_family_pairs(direction):
    # case 7 (psi2 != 0, four distinct pair emissions) against a family-A
    # model: the root cascade filters family-A data and the closed form
    # family-B data
    family_a = ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0))
    pair = (CASES[7][0], family_a)
    theta1, theta = pair if direction == "b-generates" else pair[::-1]
    [rho] = replication_log_ratios([(theta1, theta)], McConfig())
    for alpha in ("kl", 0.5):
        det = divergence_fredholm(theta1, theta, alpha).value
        est = estimate_from_log_ratios(rho, [1.0 if alpha == "kl" else alpha])[0]
        assert abs(det - est.mean) <= 3 * est.std_dev, (
            f"alpha={alpha}: |{det:.4f} - {est.mean:.4f}| > 3 * {est.std_dev:.4f}"
        )


# --- 5. likelihood routes agree on random models --------------------------------------


def _random_model(rng, family):
    if family == "A":
        return ModelAParams(
            p00=float(rng.uniform(0.1, 0.9)),
            p11=float(rng.uniform(0.1, 0.9)),
            mu=(float(rng.normal()), float(rng.normal())),
            psi=(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8))),
            sigma=(float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5))),
        )
    return ModelBParams(
        p01=float(rng.uniform(0.1, 0.9)),
        p10=float(rng.uniform(0.1, 0.9)),
        mu=(float(rng.normal()), float(rng.normal())),
        phi=float(rng.uniform(-0.8, 0.8)),
        psi1=float(rng.uniform(-1.2, 1.2)),
        psi2=float(rng.uniform(-1.2, 1.2)),
        sigma=float(rng.uniform(0.3, 2.5)),
    )


def test_likelihood_routes_agree_on_random_models():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        family = "A" if trial % 2 == 0 else "B"
        model = _random_model(rng, family)
        # enumeration cost is d^n paths: keep sequences short
        n = int(rng.integers(1, 9 if family == "A" else 6))
        y = rng.normal(scale=1.5, size=n)
        y_prev = float(rng.normal())
        a = log_likelihood(model, y, y_prev)
        b = matrix_log_likelihood(model, y, y_prev)
        c = brute_force_log_likelihood(model, y, y_prev)
        assert abs(a - b) <= 1e-9 and abs(a - c) <= 1e-9 and abs(b - c) <= 1e-9, (
            f"trial {trial}: {a} {b} {c}"
        )


# --- 6. divergence laws: identity, continuity at alpha=1, monotonicity ----------------


def test_divergence_identity_is_exactly_zero():
    cfg = McConfig(n=200, reps=4, burn_in=20, seed=5)
    for cid in (1, 7):
        theta1, _ = CASES[cid]
        for alpha in (0.5, "kl", 2.0):
            assert divergence_fredholm(theta1, theta1, alpha).value == 0.0
            eff = 1.0 if alpha == "kl" else alpha
            est = estimate_renyi_mc(theta1, theta1, eff, cfg)
            assert est.mean == 0.0 and est.std_dev == 0.0


def test_infinite_renyi_orders_are_explicit():
    # case 8 with a wider generating law: the closed form is infinite at
    # alpha = 2, where (1 - alpha) * 1.5^2 + alpha * 1^2 < 0, finite at 1.5
    theta1, theta = dataclasses.replace(CASES[8][0], sigma=1.5), CASES[8][1]
    with pytest.raises(ValueError, match="infinite"):
        gaussian_renyi(2.0, 1.5, 1.0, 1.0, 2.0)
    assert divergence_fredholm(theta1, theta, 2.0).value == math.inf
    cfg = McConfig(n=200, reps=4, burn_in=20, seed=5)
    assert estimate_renyi_mc(theta1, theta, 2.0, cfg).mean == math.inf
    spec = CaseSpec("wide", "B", theta1, theta, (1.5, 2.0), mc=cfg)
    finite, infinite = run_cases([spec])
    assert infinite.fredholm == infinite.mc_mean == math.inf
    assert check_rows([spec], [infinite]) == []
    assert check_rows([spec], [dataclasses.replace(infinite, mc_mean=3.0, mc_sd=1.0)])
    exact = gaussian_renyi(2.0, 1.5, 1.0, 1.0, 1.5)
    assert abs(finite.fredholm - exact) <= 1e-3, (finite.fredholm, exact)


def test_lattice_truncation_is_refused_near_the_infinite_order():
    # case 8 with sigma1 = 1.5 (infinite from alpha = 1.8): at a = 15 the
    # lattice keeps 6.12 sds of the integrand's tail at 1.5, 5.0 at 1.6 and
    # 2.5 at 1.75, where the truncated value would be 0.4 relative off
    theta1, theta = dataclasses.replace(CASES[8][0], sigma=1.5), CASES[8][1]
    exact = gaussian_renyi(2.0, 1.5, 1.0, 1.0, 1.5)
    value = divergence_fredholm(theta1, theta, 1.5).value
    assert abs(value - exact) <= 1e-4 * exact, (value, exact)
    for alpha in (1.6, 1.75):
        with pytest.raises(GridTooCoarseError, match="increase a"):
            divergence_fredholm(theta1, theta, alpha)


def test_divergence_continuous_at_alpha_one(fredholm_results):
    for cid in CASES:
        kl = fredholm_results[(cid, "kl")]
        for alpha in (0.999, 1.001):
            near = fredholm_results[(cid, alpha)]
            assert abs(near - kl) <= 0.01 * max(1.0, kl), (
                f"case {cid}: D_{alpha}={near:.5f} vs KL={kl:.5f}"
            )


def test_divergence_monotone_in_alpha(fredholm_results, mc_estimates):
    for cid in CASES:
        det = [fredholm_results[(cid, a)] for a in ORDERED_ALPHAS]
        for lo, hi in zip(det, det[1:]):
            assert hi >= lo - 1e-6, f"case {cid}: {det}"
        # simulation estimates share paths, so compare with pooled error
        for a_lo, a_hi in zip(ORDERED_ALPHAS, ORDERED_ALPHAS[1:]):
            e_lo, e_hi = mc_estimates[(cid, a_lo)], mc_estimates[(cid, a_hi)]
            pooled = math.sqrt(
                (e_lo.std_dev ** 2 + e_hi.std_dev ** 2) / e_lo.reps
            )
            assert e_hi.mean >= e_lo.mean - 2 * pooled, (
                f"case {cid}: alpha {a_lo}->{a_hi}: "
                f"{e_lo.mean:.4f} -> {e_hi.mean:.4f} (pooled se {pooled:.4f})"
            )


# --- 7. numerical health: solver residuals and lattice refinement ----------------------


def test_solver_health_and_grid_refinement(fredholm_cases, fredholm_results):
    for _, d in fredholm_cases.values():
        assert d["eigen_residual"] <= 1e-10
        assert d["max_col_sum_deviation"] <= 0.2
    fine = GridSpec(N=32)
    for cid, (theta1, theta) in CASES.items():
        coarse_kl = fredholm_results[(cid, "kl")]
        fine_kl = divergence_fredholm(theta1, theta, "kl", fine).value
        rel = abs(fine_kl - coarse_kl) / max(abs(fine_kl), 1e-12)
        assert rel <= 0.02, (
            f"case {cid}: KL {coarse_kl:.5f} (N=16) vs {fine_kl:.5f} (N=32)"
        )


# --- 8. Q functions match brute-force indicator simulation ------------------------------


def test_chisq_cdf_identity_and_reference():
    rng = np.random.default_rng(9)
    for _ in range(500):
        x = float(rng.uniform(0, 40))
        lam = float(rng.uniform(0, 25))
        got = noncentral_chisq1_cdf(x, lam)
        ident = (ndtr(math.sqrt(x) - math.sqrt(lam))
                 - ndtr(-math.sqrt(x) - math.sqrt(lam)))
        assert abs(got - ident) <= 1e-12
        assert abs(got - ncx2.cdf(x, 1, lam)) <= 1e-9


def test_q_functions_match_indicator_simulation():
    size = 10 ** 6
    rng = np.random.default_rng(314)

    tg_a = ModelAParams(p00=0.6, p11=0.55, mu=(0.3, -0.2), psi=(0.2, -0.1),
                        sigma=(1.4, 1.1))
    filters = [
        ModelAParams(p00=0.5, p11=0.5, mu=(0.5, -0.5), psi=(0.1, 0.0),
                     sigma=(1.2, 0.9)),
        # equal filter variances exercise the linear log-ratio branch
        ModelAParams(p00=0.5, p11=0.5, mu=(1.0, -1.0), psi=(0.2, -0.1),
                     sigma=(1.3, 1.3)),
    ]
    for trial in range(25):
        tf = filters[trial % 2]
        x = float(rng.uniform(0.05, 0.95))
        u = float(rng.normal())
        w = float(rng.uniform(0.05, 0.95))
        j = trial % 2
        exact = q(x, u, w, j, tg_a, tf)
        mc = simulate_q(x, u, w, j, tg_a, tf, np.random.default_rng(1000 + trial), size)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / size)
        assert abs(exact - mc) <= 3 * se + 1e-6, (
            f"two-state trial {trial}: {exact:.6f} vs {mc:.6f}"
        )

    # state-dependent base means (psi2 != 0) and plain pairs both appear
    pairs = [CASES[1], CASES[6], CASES[7]]
    for trial in range(25):
        tg, tf = pairs[trial % 3]
        x = float(rng.uniform(0.05, 0.95))
        u = float(rng.normal())
        w = float(rng.uniform(0.05, 0.95))
        j, k = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        exact = q(x, u, w, 2 * j + k, tg, tf)
        mc = simulate_q(x, u, w, 2 * j + k, tg, tf, np.random.default_rng(2000 + trial), size)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / size)
        assert abs(exact - mc) <= 3 * se + 1e-6, (
            f"four-state trial {trial}: {exact:.6f} vs {mc:.6f}"
        )
