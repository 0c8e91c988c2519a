"""Deterministic engine: Q functions, kernel assembly, eigensolve, functionals."""

import concurrent.futures
import contextlib
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr
from scipy.stats import ncx2

from hmmdiv import (
    GridSpec,
    GridTooCoarseError,
    ModelAParams,
    ModelBParams,
    NonConvergenceError,
    build_kernel,
    divergence_fredholm,
    j_alpha,
    j_log,
    noncentral_chisq1_cdf,
    q,
    solve_invariant,
)
from hmmdiv import fredholm
from hmmdiv.cases import ALPHA_GRID, CASES
from hmmdiv.cli import _fredholm_values, _orders
from hmmdiv.fredholm import (
    _exp_sum_roots,
    _log_gauss,
    _mix_log,
    _power_iteration,
    _predictive,
    _q_half,
    _simpson,
    case_mixtures,
    simulate_q_four_state,
    simulate_q_two_state,
)
from hmmdiv.models import as_chain

CASE1_GEN, CASE1_ALT = CASES[1]
CASE7_GEN, CASE7_ALT = CASES[7]

WIDE_GEN = ModelAParams(p00=0.6, p11=0.55, mu=(0.3, -0.2), psi=(0.0, 0.0),
                        sigma=(3.0, 3.0))
WIDE_FILT = ModelAParams(p00=0.5, p11=0.5, mu=(0.5, -0.5), psi=(0.1, 0.0),
                         sigma=(3.0, 2.5))


def iid_model(mu, sigma):
    return ModelBParams(p01=0.4, p10=0.6, mu=(mu, mu), phi=0.0, psi1=1.0,
                        psi2=0.0, sigma=sigma)


# --- grid ----------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(N=3)
    with pytest.raises(ValueError):
        GridSpec(a=0.0)
    with pytest.raises(ValueError):
        GridSpec(quad_points=100)  # must be odd
    with pytest.raises(ValueError):
        GridSpec(quad_points=31)
    for bad in (dict(a=math.inf), dict(a=math.nan), dict(quad_points=201.0), dict(N=16.0),
                dict(N=True)):
        with pytest.raises(ValueError):
            GridSpec(**bad)


def test_grid_nodes():
    g = GridSpec(N=8, a=4.0)
    assert g.delta == 1.0 / 16.0
    np.testing.assert_allclose(g.v_nodes, -4.0 + np.arange(1, 8), atol=1e-15)
    np.testing.assert_allclose(g.x_nodes, np.arange(1, 8) / 8.0, atol=1e-15)
    np.testing.assert_allclose(
        g.x_half_nodes, (2 * np.arange(1, 9) - 1) / 16.0, atol=1e-15
    )
    assert math.isclose(g.cell_area, 1.0 / 8.0)
    # half nodes bracket each x node at +- delta
    np.testing.assert_allclose(g.x_half_nodes[:-1] + g.delta, g.x_nodes, atol=1e-15)
    np.testing.assert_allclose(g.x_half_nodes[1:] - g.delta, g.x_nodes, atol=1e-15)


# --- noncentral chi-square -------------------------------------------------------


def test_chisq_support_boundary():
    for lam in (0.0, 1.0, 17.3):
        assert noncentral_chisq1_cdf(0.0, lam) == 0.0
        assert noncentral_chisq1_cdf(-3.0, lam) == 0.0


def test_chisq_central_value():
    want = 2.0 * ndtr(1.0) - 1.0
    assert math.isclose(noncentral_chisq1_cdf(1.0, 0.0), want, abs_tol=1e-12)
    assert math.isclose(noncentral_chisq1_cdf(1.0, 0.0), 0.682689, abs_tol=1e-6)


def test_chisq_matched_noncentrality():
    # sqrt(x) = sqrt(lambda) = 2: Phi(0) - Phi(-4)
    want = 0.5 - ndtr(-4.0)
    assert math.isclose(noncentral_chisq1_cdf(4.0, 4.0), want, abs_tol=1e-12)
    assert math.isclose(noncentral_chisq1_cdf(4.0, 4.0), 0.499968, abs_tol=1e-6)


def test_chisq_identity_and_reference():
    rng = np.random.default_rng(42)
    for _ in range(200):
        x = float(rng.uniform(0, 30))
        lam = float(rng.uniform(0, 20))
        got = noncentral_chisq1_cdf(x, lam)
        ident = ndtr(math.sqrt(x) - math.sqrt(lam)) - ndtr(-math.sqrt(x) - math.sqrt(lam))
        assert abs(got - ident) <= 1e-12
        assert abs(got - ncx2.cdf(x, 1, lam)) <= 1e-9


# --- two-state Q -----------------------------------------------------------------


def test_q_two_state_zero_below_support():
    for t in (0, 1):
        assert q(0.0, 0.4, 0.6, t, WIDE_GEN, WIDE_FILT) == 0.0
        assert q(-2.0, 0.4, 0.6, t, WIDE_GEN, WIDE_FILT) == 0.0
        assert q(1.0, 0.4, 0.6, t, WIDE_GEN, WIDE_FILT) == 1.0


def test_q_two_state_negative_threshold():
    # filter sigma0 > sigma1 puts the quadratic's branch upward; a tiny
    # weight threshold x drives the chi-square threshold negative
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(0.0, 0.0), psi=(0.0, 0.0),
                      sigma=(2.0, 1.0))
    assert q(1e-10, 0.0, 0.5, 0, WIDE_GEN, tf) == 0.0


def test_q_two_state_cdf_limits():
    # x -> 1 sends the density-ratio level to its largest value, 2^53
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(0.0, 0.0), psi=(0.0, 0.0),
                      sigma=(2.0, 1.0))
    narrow = dataclasses.replace(WIDE_GEN, sigma=(1.0, 1.0))
    assert q(np.nextafter(1.0, 0.0), 0.3, 0.5, 1, narrow, tf) >= 1.0 - 1e-12


def test_q_two_state_simulation_oracle():
    rng = np.random.default_rng(7)
    for trial in range(4):
        x = float(rng.uniform(0.1, 0.9))
        u = float(rng.normal())
        w = float(rng.uniform(0.05, 0.95))
        j = trial % 2
        got = q(x, u, w, j, WIDE_GEN, WIDE_FILT)
        mc = simulate_q_two_state(x, u, w, j, WIDE_GEN, WIDE_FILT,
                                  np.random.default_rng(trial), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


def test_q_two_state_equal_variance_branch():
    # equal filter variances make the log ratio linear in y: a single
    # Gaussian CDF, exercised against simulation
    tf = ModelAParams(p00=0.5, p11=0.5, mu=(1.0, -1.0), psi=(0.2, -0.1),
                      sigma=(1.5, 1.5))
    for seed, (x, u, w) in enumerate([(0.5, 0.3, 0.5), (0.7, -0.8, 0.2), (0.3, 1.2, 0.9)]):
        got = q(x, u, w, seed % 2, WIDE_GEN, tf)
        mc = simulate_q_two_state(x, u, w, seed % 2, WIDE_GEN, tf,
                                  np.random.default_rng(100 + seed), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


# --- four-state Q -----------------------------------------------------------------


def test_q_four_state_endpoints():
    for t in range(4):
        assert q(0.0, 0.4, 0.6, t, CASE1_GEN, CASE1_ALT) == 0.0
        assert q(1.0, 0.4, 0.6, t, CASE1_GEN, CASE1_ALT) == 1.0


def test_q_four_state_rejects_bad_weight():
    with pytest.raises(ValueError):
        q(0.5, 0.0, 1.2, 0, CASE1_GEN, CASE1_ALT)
    with pytest.raises(ValueError):
        q(0.5, 0.0, -0.1, 0, WIDE_GEN, WIDE_FILT)
    with pytest.raises(ValueError):
        q(0.5, 0.0, 0.5, 4, CASE1_GEN, CASE1_ALT)  # four pair states


def test_q_four_state_monotone_in_x():
    xs = np.linspace(0.05, 0.95, 10)
    vals = [q(x, 0.5, 0.5, 0, CASE1_GEN, CASE1_ALT) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_q_four_state_simulation_oracle_benchmark_pair():
    got = q(0.5, 0.5, 0.5, 0, CASE1_GEN, CASE1_ALT)
    mc = simulate_q_four_state(0.5, 0.5, 0.5, 0, 0, CASE1_GEN, CASE1_ALT,
                               np.random.default_rng(1), 10 ** 6)
    se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
    assert abs(got - mc) <= 3 * se + 1e-6


def test_q_four_state_simulation_oracle_two_lag_pair():
    # distinct base means (psi2 != 0) exercise the multi-root sign cascade
    rng = np.random.default_rng(11)
    for trial in range(4):
        x = float(rng.uniform(0.1, 0.9))
        u = float(rng.normal())
        w = float(rng.uniform(0.05, 0.95))
        j, k = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        got = q(x, u, w, 2 * j + k, CASE7_GEN, CASE7_ALT)
        mc = simulate_q_four_state(x, u, w, j, k, CASE7_GEN, CASE7_ALT,
                                   np.random.default_rng(200 + trial), 10 ** 6)
        se = math.sqrt(max(got * (1 - got), 1e-12) / 1e6)
        assert abs(got - mc) <= 3 * se + 1e-6


# The root cascade as first written: a fixed 80-step bisection and sign
# evaluation by numpy reductions over the term axis. The cascade now stops
# once a step changes no bracket and unrolls those reductions; its roots
# must keep every bit.


def _sign_exp_sum_reference(e, logmag, sgn, y):
    expo = logmag + e * y[..., None]
    top = np.max(expo, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    val = np.sum(sgn * np.exp(expo - top), axis=-1)
    return np.sign(val)


def _exp_sum_roots_reference(e, c, lo, hi):
    B, T = c.shape
    if T == 1:
        return np.empty((B, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(c != 0.0, np.log(np.abs(c)), -np.inf)
    sgn = np.sign(c)
    if T == 2:
        valid = sgn[:, 0] * sgn[:, 1] < 0
        with np.errstate(invalid="ignore"):
            r = (logmag[:, 0] - logmag[:, 1]) / (e[:, 1] - e[:, 0])
        r = np.where(valid & np.isfinite(r), np.clip(r, lo, hi), hi)
        return r[:, None]
    crit = _exp_sum_roots_reference(e[:, 1:] - e[:, :1],
                                    c[:, 1:] * (e[:, 1:] - e[:, :1]), lo, hi)
    nodes = np.sort(np.concatenate([lo[:, None], crit, hi[:, None]], axis=1), axis=1)
    signs = _sign_exp_sum_reference(e[:, None, :], logmag[:, None, :], sgn[:, None, :], nodes)
    fa = signs[:, :-1]
    bracket = fa * signs[:, 1:] < 0
    hi_pad = np.broadcast_to(hi[:, None], bracket.shape)
    a = np.where(bracket, nodes[:, :-1], hi_pad)
    b = np.where(bracket, nodes[:, 1:], hi_pad)
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = _sign_exp_sum_reference(e[:, None, :], logmag[:, None, :], sgn[:, None, :], mid)
        left = fm * fa >= 0
        a = np.where(left, mid, a)
        b = np.where(left, b, mid)
    roots = np.where(bracket, 0.5 * (a + b), hi[:, None])
    return np.sort(roots, axis=1)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("terms", [3, 4])
def test_exp_sum_roots_match_fixed_bisection_random(terms):
    rng = np.random.default_rng(terms)
    B = 4000
    e = np.cumsum(rng.uniform(0.05, 3.0, size=(B, terms)), axis=1) - 2.0
    c = rng.normal(size=(B, terms)) * np.exp(rng.uniform(-10.0, 10.0, size=(B, terms)))
    c[rng.random((B, terms)) < 0.05] = 0.0  # absent terms, as merged components leave
    lo = -rng.uniform(5.0, 40.0, size=B)
    hi = rng.uniform(5.0, 40.0, size=B)
    roots = _exp_sum_roots(e, c, lo, hi)
    assert np.any(roots < hi[:, None])  # some sums do change sign
    assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


def test_exp_sum_roots_without_any_sign_change():
    # every coefficient positive: no row has a bracket, the gather is empty
    rng = np.random.default_rng(7)
    for terms in (3, 4):
        e = np.cumsum(rng.uniform(0.1, 2.0, size=(50, terms)), axis=1)
        c = rng.uniform(0.5, 2.0, size=(50, terms))
        lo, hi = np.full(50, -10.0), np.full(50, 10.0)
        roots = _exp_sum_roots(e, c, lo, hi)
        assert np.array_equal(roots, np.repeat(hi[:, None], terms - 1, axis=1))
        assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


def test_exp_sum_roots_with_several_brackets_per_row():
    # (x - 1)(x - 2)(x - 3) and 1 - 3x + x^2 in x = exp(y): three and two
    # real roots per row, mixed with rows of none and one
    cubic = np.array([-6.0, 11.0, -6.0, 1.0])
    e = np.tile(np.arange(4.0), (4, 1))
    c = np.array([cubic, [1.0, -3.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                  [-1.0, 0.0, 0.0, 2.0]])
    lo, hi = np.full(4, -5.0), np.full(4, 5.0)
    roots = _exp_sum_roots(e, c, lo, hi)
    assert (roots < hi[:, None]).sum(axis=1).tolist() == [3, 2, 0, 1]
    np.testing.assert_allclose(roots[0], np.log([1.0, 2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(roots[1, :2], np.log((3.0 + np.array([-1, 1]) * math.sqrt(5.0)) / 2),
                               atol=1e-12)
    assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


def test_exp_sum_roots_match_fixed_bisection_case7(monkeypatch):
    # every cascade call of case 7's half-node Q batch, under both filters
    calls = []
    real = fredholm._exp_sum_roots

    def recording(e, c, lo, hi):
        roots = real(e, c, lo, hi)
        calls.append((e, c, lo, hi, roots))
        return roots

    monkeypatch.setattr(fredholm, "_exp_sum_roots", recording)
    for filt in (CASE7_ALT, CASE7_GEN):
        _q_half(as_chain(CASE7_GEN), as_chain(filt), GridSpec())
    assert any(c.shape[1] == 4 for _, c, _, _, _ in calls)
    for e, c, lo, hi, roots in calls:
        assert_same_bits(roots, _exp_sum_roots_reference(e, c, lo, hi))


# --- kernel assembly ---------------------------------------------------------------


def test_kernel_dimension_family_a():
    k = build_kernel(WIDE_GEN, WIDE_FILT, GridSpec(N=4))
    assert k.dim == 2 * 9
    assert k.n_components == 2


def test_kernel_columns_stochastic():
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    np.testing.assert_allclose(k.entries.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(k.entries >= 0)
    assert np.all(k.pre_norm_col_sums > 0.5) and np.all(k.pre_norm_col_sums < 1.5)


def test_kernel_single_entry_hand_assembled():
    grid = GridSpec(N=8)
    k = build_kernel(WIDE_GEN, WIDE_FILT, grid)
    n1 = grid.N - 1
    j, u_i, x_i = 1, 2, 3
    i, v_i, w_i = 0, 1, 4
    row = j * n1 * n1 + u_i * n1 + x_i
    col = i * n1 * n1 + v_i * n1 + w_i

    v = grid.v_nodes
    wn = grid.x_nodes
    half = grid.x_half_nodes
    p = 1.0 - WIDE_GEN.p00  # state 0 -> state 1 under the generator
    mean = WIDE_GEN.mu[i] + WIDE_GEN.psi[i] * v[v_i]
    g = math.exp(-0.5 * ((v[u_i] - mean) / WIDE_GEN.sigma[i]) ** 2) / (
        WIDE_GEN.sigma[i] * math.sqrt(2 * math.pi)
    )
    q_hi = q(half[x_i + 1], v[u_i], wn[w_i], j, WIDE_GEN, WIDE_FILT)
    q_lo = q(half[x_i], v[u_i], wn[w_i], j, WIDE_GEN, WIDE_FILT)
    rate = max(q_hi - q_lo, 0.0) / (2 * grid.delta)
    want = p * g * rate * grid.cell_area

    got = k.entries[row, col] * k.pre_norm_col_sums[col]
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_kernel_family_type_checks():
    # the family follows from the parameter types; a mixed pair has none
    with pytest.raises(TypeError):
        build_kernel(CASE1_GEN, WIDE_FILT, GridSpec(N=8))
    with pytest.raises(TypeError):
        build_kernel(WIDE_GEN, CASE1_ALT, GridSpec(N=8))
    with pytest.raises(TypeError):
        build_kernel(as_chain(WIDE_GEN), as_chain(WIDE_FILT), GridSpec(N=8))
    with pytest.raises(TypeError):
        q(0.5, 0.0, 0.5, 0, CASE1_GEN, WIDE_FILT)
    with pytest.raises(TypeError):
        q(0.0, 0.0, 0.5, 0, WIDE_GEN, CASE1_ALT)  # even where Q needs no model


def test_kernel_too_coarse_raises():
    with pytest.raises(GridTooCoarseError):
        build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=16, a=1.0))
    # 2a overflows: every column sum is nan, which no bound comparison catches
    with pytest.raises(GridTooCoarseError, match="column sum nan"), np.errstate(all="ignore"):
        build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(a=1e308))


# --- eigensolve -----------------------------------------------------------------


def test_power_iteration_toy():
    m, residual, its = _power_iteration(np.array([[0.5, 0.5], [0.5, 0.5]]),
                                        tol=1e-12, max_iters=100)
    np.testing.assert_allclose(m, [0.5, 0.5], atol=1e-12)
    assert residual <= 1e-12


def test_solve_invariant_properties():
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    m = solve_invariant(k)
    assert m.eigen_residual <= 1e-12
    assert np.all(m.components >= 0)
    mass = m.components.sum() * m.cell_area
    assert abs(mass - 1.0) <= 1e-10
    assert m.components.shape == (4, 7, 7)
    assert m.iterations >= 1


def test_solve_invariant_iteration_cap():
    k = build_kernel(CASE1_GEN, CASE1_ALT, GridSpec(N=8))
    with pytest.raises(NonConvergenceError):
        solve_invariant(k, tol=1e-15, max_iters=1)


# --- divergence functionals -------------------------------------------------------


def test_j_alpha_identity_is_one():
    grid = GridSpec()
    k = build_kernel(CASE1_GEN, CASE1_GEN, grid)
    m = solve_invariant(k)
    for alpha in (0.5, 2.0):
        j = j_alpha(CASE1_GEN, CASE1_GEN, alpha, m, grid)
        assert abs(j - 1.0) <= 1e-11


def test_j_alpha_rejects_alpha_one():
    grid = GridSpec(N=8)
    k = build_kernel(CASE1_GEN, CASE1_ALT, grid)
    m = solve_invariant(k)
    with pytest.raises(ValueError):
        j_alpha(CASE1_GEN, CASE1_ALT, 1.0, m, grid)


def test_j_log_iid_entropy():
    m = iid_model(0.7, 1.3)
    grid = GridSpec()
    k = build_kernel(m, m, grid)
    dens = solve_invariant(k)
    got = j_log(m, m, dens, grid)
    want = -0.5 * math.log(2 * math.pi * 1.3 ** 2) - 0.5
    assert abs(got - want) <= 1e-8


def test_divergence_identity_exact_zero():
    for alpha in (0.5, 1.0, "kl", 2.0):
        res = divergence_fredholm(CASE1_GEN, CASE1_GEN, alpha)
        assert res.value == 0.0
        assert res.diagnostics.get("identity") is True


def test_divergence_kl_routing():
    a = divergence_fredholm(CASE1_GEN, CASE1_ALT, "kl")
    b = divergence_fredholm(CASE1_GEN, CASE1_ALT, "KL")
    c = divergence_fredholm(CASE1_GEN, CASE1_ALT, 1.0)
    assert a.value == b.value == c.value
    assert a.alpha == 1.0
    assert a.method == "fredholm"


def test_divergence_rejects_orders_outside_the_domain(monkeypatch):
    # rejected before any kernel is built
    monkeypatch.setattr("hmmdiv.cli.build_kernel", None)
    for alpha in (-0.5, 0.0, math.inf, math.nan, "q", None):
        with pytest.raises(ValueError):
            divergence_fredholm(CASE1_GEN, CASE1_ALT, alpha)
        with pytest.raises(ValueError):
            j_alpha(CASE1_GEN, CASE1_ALT, alpha, None, GridSpec())
    # an order within 1e-8 of 1 is the KL limit, which has no power functional
    with pytest.raises(ValueError, match="use j_log"):
        j_alpha(CASE1_GEN, CASE1_ALT, 1.0 + 1e-9, None, GridSpec())


def test_divergence_diagnostics_present():
    res = divergence_fredholm(CASE1_GEN, CASE1_ALT, 0.5, GridSpec(N=8))
    d = res.diagnostics
    assert d["eigen_residual"] <= 1e-10
    assert d["max_col_sum_deviation"] < 0.2
    assert d["iterations"] >= 1
    assert d["grid"]["N"] == 8


# Cases 1 and 6 have psi2 = 0, so their emissions depend on the current
# state only and each has an exact family-A mirror (p00 = 1 - p01,
# p11 = 1 - p10, per-state copies of phi and sigma). The chi-square Q path
# and the root-cascade path must then give the same rates.
FAMILY_A_MIRRORS = {
    1: (ModelAParams(0.59, 0.4, (2.0, 1.0), (0.0, 0.0), (1.5, 1.5)),
        ModelAParams(0.59, 0.4, (1.0, 0.0), (0.0, 0.0), (2.0, 2.0))),
    6: (ModelAParams(0.401, 0.6, (2.0, 1.0), (0.3, 0.3), (1.1, 1.1)),
        ModelAParams(0.401, 0.6, (1.0, 0.0), (0.2, 0.2), (1.0, 1.0))),
}


@pytest.mark.parametrize("cid", sorted(FAMILY_A_MIRRORS))
def test_family_a_mirror_matches_family_b(cid):
    grid = GridSpec(N=8, quad_points=101)
    for alpha in ("kl", 0.5, 2.0):
        want = divergence_fredholm(*CASES[cid], alpha, grid).value
        got = divergence_fredholm(*FAMILY_A_MIRRORS[cid], alpha, grid).value
        assert math.isclose(got, want, rel_tol=1e-12), (cid, alpha, got, want)


def test_divergence_reference_values(fredholm_results):
    assert abs(fredholm_results[(1, "kl")] - 0.1773) <= 0.01
    assert abs(fredholm_results[(1, 0.5)] - 0.1091) <= 0.01
    assert abs(fredholm_results[(6, 2.0)] - 1.5699) <= max(0.01, 0.05 * 1.5699)
    assert abs(fredholm_results[(8, "kl")] - 0.5104) <= 0.01


def test_divergence_alpha_continuity(fredholm_results):
    for cid in CASES:
        kl = fredholm_results[(cid, "kl")]
        near = fredholm_results[(cid, 0.999)]
        assert abs(near - kl) <= 0.01 * max(1.0, kl)


# --- shared predictive mixture ----------------------------------------------------


def _mix_log_reference(theta, grid):
    """The predictive mixture as one logsumexp over the state axis of the
    full (w, s, u, y) array."""
    chain = as_chain(theta)
    nodes, _ = _simpson(-grid.a, grid.a, grid.quad_points)
    logf = np.stack(
        [_log_gauss(nodes[None, :], chain.c[s] + chain.b[s] * nodes[:, None], chain.s[s])
         for s in range(chain.d)]
    )
    logpred = np.log(_predictive(chain.transition, grid.x_nodes))
    return logsumexp(logpred[:, :, None, None] + logf[None, :, :, :], axis=1)


@pytest.mark.parametrize("theta", [FAMILY_A_MIRRORS[6][0], CASE1_GEN, CASE1_ALT,
                                   CASE7_GEN, CASE7_ALT],
                         ids=["a-case6", "case1-gen", "case1-alt", "case7-gen", "case7-alt"])
def test_mix_log_read_only_and_equal_to_one_reduction(theta):
    grid = GridSpec()
    got = _mix_log(as_chain(theta), grid)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0, 0] = 0.0
    assert_same_bits(got, _mix_log_reference(theta, grid))


def count_builds(monkeypatch):
    """Record the chains (or model pairs) of every shared grid actually
    built: {"mixture": [...], "ratio": [...], "quadrature": [...]}."""
    built = {}
    for kind, name in (("mixture", "_build_mix_log"), ("ratio", "_build_log_ratio"),
                       ("quadrature", "_build_quadrature_terms")):
        real = getattr(fredholm, name)

        def counting(*args, _kind=kind, _real=real):
            built.setdefault(_kind, []).append(args[:-1])
            return _real(*args)

        monkeypatch.setattr(fredholm, name, counting)
    return built


def counts(built):
    return {kind: len(args) for kind, args in built.items()}


def fredholm_values(theta1, theta, alphas, grid):
    """The per-case Fredholm driver's values on the case's order table."""
    return _fredholm_values(theta1, theta, _orders(theta1, theta, alphas), grid, None)[0]


def test_functionals_equal_inside_and_outside_a_case(monkeypatch):
    grid = GridSpec(quad_points=101)
    m = solve_invariant(build_kernel(CASE7_GEN, CASE7_ALT, grid))
    calls = [lambda: j_alpha(CASE7_GEN, CASE7_ALT, 0.5, m, grid),
             lambda: j_alpha(CASE7_GEN, CASE7_ALT, 2.0, m, grid),
             lambda: j_log(CASE7_ALT, CASE7_GEN, m, grid)]
    built = count_builds(monkeypatch)
    alone = [call() for call in calls]
    # outside a case every call builds its own grids and terms
    assert counts(built) == {"mixture": 5, "ratio": 2, "quadrature": 3}
    with case_mixtures():
        shared = [call() for call in calls]
        # the two models' mixtures, their ratio and theta1's terms, once each
        assert counts(built) == {"mixture": 7, "ratio": 3, "quadrature": 4}
        again = [call() for call in calls]
        assert counts(built) == {"mixture": 7, "ratio": 3, "quadrature": 4}
    assert repr(shared) == repr(alone) == repr(again)
    # the store goes with the case
    assert fredholm._case.store is None
    calls[0]()
    assert counts(built) == {"mixture": 9, "ratio": 4, "quadrature": 5}


def test_case_builds_each_mixture_grid_once(monkeypatch):
    grid = GridSpec(N=8, quad_points=101)
    assert sum(a != "kl" for a in ALPHA_GRID) == 8
    built = count_builds(monkeypatch)
    fredholm_values(CASE1_GEN, CASE1_ALT, ALPHA_GRID, grid)
    # 8 orders and 2 log functionals: one ratio, and terms of theta1 only
    assert counts(built) == {"mixture": 2, "ratio": 1, "quadrature": 1}
    (gen,) = built["quadrature"][0]
    assert fredholm._chain_key(gen) == fredholm._chain_key(as_chain(CASE1_GEN))
    # the lattice count is part of the key: N=16 and N=32 get their own grids
    gen, alt = as_chain(CASE1_GEN), as_chain(CASE1_ALT)
    with case_mixtures():
        a = _mix_log(alt, GridSpec(N=16, quad_points=101))
        b = _mix_log(alt, GridSpec(N=32, quad_points=101))
        assert _mix_log(as_chain(CASE1_ALT), GridSpec(N=16, quad_points=101)) is a
        r = fredholm._log_ratio(gen, alt, GridSpec(N=16, quad_points=101))
        assert fredholm._log_ratio(gen, alt, GridSpec(N=16, quad_points=101)) is r
        assert not r.flags.writeable
        terms = fredholm._quadrature_terms(gen, grid)
        assert fredholm._quadrature_terms(as_chain(CASE1_GEN), grid) is terms
    assert counts(built) == {"mixture": 5, "ratio": 2, "quadrature": 2}
    assert a.shape == (15, 101, 101) and b.shape == (31, 101, 101)
    # the grids go with the case: a later call builds anew
    assert _mix_log(alt, GridSpec(N=16, quad_points=101)) is not a
    assert fredholm._log_ratio(gen, alt, GridSpec(N=16, quad_points=101)) is not r
    assert fredholm._quadrature_terms(gen, grid) is not terms
    assert counts(built) == {"mixture": 8, "ratio": 3, "quadrature": 3}


def test_concurrent_cases_each_build_their_grids_once(monkeypatch):
    # one store per thread: cases running at once never evict each other's
    grid = GridSpec(N=8, quad_points=101)
    pairs = [CASES[1], CASES[2], CASES[6]]
    built = count_builds(monkeypatch)
    with concurrent.futures.ThreadPoolExecutor(3) as pool:
        got = list(pool.map(lambda p: fredholm_values(*p, ("kl", 0.5, 2.0), grid), pairs))
        # each worker's store went with its case
        assert list(pool.map(lambda _: getattr(fredholm._case, "store", None), range(3))) \
            == [None] * 3
    assert counts(built) == {"mixture": 6, "ratio": 3, "quadrature": 3}
    assert (sorted(fredholm._chain_key(gen) for gen, in built["quadrature"])
            == sorted(fredholm._chain_key(as_chain(t1)) for t1, _ in pairs))
    assert repr(got) == repr([fredholm_values(*p, ("kl", 0.5, 2.0), grid) for p in pairs])


# --- work shared between equal emissions -------------------------------------------


def count_q_batches(monkeypatch):
    calls = []
    real = fredholm._q_batch

    def counting(x, u, w, t, gen, filt):
        calls.append(t)
        return real(x, u, w, t, gen, filt)

    monkeypatch.setattr(fredholm, "_q_batch", counting)
    return calls


@pytest.mark.parametrize("pair, tabulated", [
    (CASES[1], [0, 1]),  # psi2 = 0: the pair (j, k) emits by k alone
    (CASES[7], [0, 1, 2, 3]),  # psi2 != 0: four distinct emissions
    (FAMILY_A_MIRRORS[6], [0, 1]),
], ids=["case1", "case7", "a-case6"])
def test_q_tabulated_once_per_distinct_emission(monkeypatch, pair, tabulated):
    calls = count_q_batches(monkeypatch)
    build_kernel(*pair, GridSpec(N=16, quad_points=51))
    assert calls == tabulated


def _q_half_per_state(gen, filt, grid):
    """`_q_half` with one `_q_batch` per state."""
    ug, xg, wg = np.meshgrid(grid.v_nodes, grid.x_half_nodes, grid.x_nodes, indexing="ij")
    return np.stack([fredholm._q_batch(xg.ravel(), ug.ravel(), wg.ravel(), t, gen, filt)
                     .reshape(ug.shape) for t in range(gen.d)])


def _j_quadrature_per_state(gen, m, grid, r, alpha):
    """`_j_quadrature` with every term built per state and per call."""
    nodes, wts = _simpson(-grid.a, grid.a, grid.quad_points)
    log_gen = np.stack([_log_gauss(nodes[None, :], gen.c[s] + gen.b[s] * nodes[:, None],
                                   gen.s[s]) for s in range(gen.d)])
    v = grid.v_nodes
    f_emis = [np.exp(_log_gauss(nodes[None, :], gen.c[s] + gen.b[s] * v[:, None], gen.s[s]))
              for s in range(gen.d)]
    total = 0.0
    for t in range(gen.d):
        dens = np.exp(log_gen[t])
        inner0 = dens @ wts
        if alpha is not None:
            inner = np.exp((alpha - 1.0) * r + log_gen[t][None, :, :]) @ wts
        else:
            inner = (r * dens[None, :, :]) @ wts
        for s in range(gen.d):
            if gen.transition[s, t] > 0.0:
                g = np.einsum("u,vu,wu->vw", wts, f_emis[s], inner)
                g0 = f_emis[s] @ (wts * inner0)
                total += gen.transition[s, t] * float(
                    np.sum(m.components[s] * (g / g0[:, None]))
                ) * m.cell_area
    return float(total)


@pytest.mark.parametrize("pair", [CASES[1], CASES[7], FAMILY_A_MIRRORS[6]],
                         ids=["case1", "case7", "a-case6"])
def test_shared_emission_work_matches_per_state_loops(pair):
    theta1, theta = pair
    grid = GridSpec(N=16, quad_points=101)
    gen, filt = as_chain(theta1), as_chain(theta)
    assert_same_bits(_q_half(gen, filt, grid), _q_half_per_state(gen, filt, grid))
    m = solve_invariant(build_kernel(theta1, theta, grid))
    mix1, mix = _mix_log(gen, grid), _mix_log(filt, grid)
    want = [repr(_j_quadrature_per_state(gen, m, grid, mix1 - mix, a))
            for a in (0.5, 0.999, 2.0)]
    want.append(repr(_j_quadrature_per_state(gen, m, grid, mix, None)))
    for shared in (False, True):
        with case_mixtures() if shared else contextlib.nullcontext():
            got = [repr(j_alpha(theta1, theta, a, m, grid)) for a in (0.5, 0.999, 2.0)]
            got.append(repr(j_log(theta, theta1, m, grid)))
        assert got == want, shared


def test_array_and_chain_models_reach_the_functionals():
    # models with list or array fields become tuples, so `==` between them is
    # a plain bool; the chain form, which holds arrays, needs no hashing
    as_array = dataclasses.replace(CASE1_GEN, mu=np.array(CASE1_GEN.mu))
    listed = ModelAParams(0.6, 0.7, [0.5, -0.5], np.array([0.2, -0.1]), [1.0, 1.4])
    assert as_array == CASE1_GEN and isinstance(as_array.mu, tuple)
    assert all(isinstance(v, tuple) for v in (listed.mu, listed.psi, listed.sigma))
    grid = GridSpec(N=8, quad_points=101)
    m = solve_invariant(build_kernel(CASE1_GEN, CASE1_ALT, grid))
    want = repr(j_alpha(CASE1_GEN, CASE1_ALT, 0.5, m, grid))
    chains = (as_chain(CASE1_GEN), as_chain(CASE1_ALT))
    assert repr(j_alpha(as_array, CASE1_ALT, 0.5, m, grid)) == want
    assert repr(j_alpha(*chains, 0.5, m, grid)) == want
    with case_mixtures():
        assert repr(j_alpha(*chains, 0.5, m, grid)) == want
        assert repr(j_alpha(as_array, CASE1_ALT, 0.5, m, grid)) == want
    want = divergence_fredholm(CASE1_GEN, CASE1_ALT, 0.5, grid).value
    assert repr(divergence_fredholm(as_array, CASE1_ALT, 0.5, grid).value) == repr(want)
